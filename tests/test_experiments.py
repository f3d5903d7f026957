"""Config validation, experiment runners, output formats, and the CLI."""

import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kerrzeno import cli
from kerrzeno.experiments import (
    EXPERIMENTS,
    envelope_json_dict,
    run_experiment,
    validate_config,
    write_csv,
)
from kerrzeno.fock import MeasurementSpec, mean_a_closed_form
from kerrzeno.observed import (
    ObservedRunConfig,
    run_trajectory,
    survival_density_continuous,
)
from kerrzeno.phase_space import (
    EvolutionParams,
    PhaseVector,
    accumulate_covariance,
    det_cn_asymptotic,
    step_covariance,
)
from kerrzeno.two_level import TwoLevelModel, survival_closed_form


def make_config(experiment, parameters=None, **top):
    raw = {"experiment": experiment, "parameters": parameters or {}}
    raw.update(top)
    config, errors = validate_config(raw)
    assert errors == [], errors
    return config


# --- validation ---------------------------------------------------------------


def test_missing_experiment_is_root_error():
    config, errors = validate_config({})
    assert config is None
    assert ("experiment", "missing experiment name") in errors


def test_unknown_experiment():
    config, errors = validate_config({"experiment": "does-not-exist"})
    assert config is None
    assert errors and errors[0][0] == "experiment"


def test_unknown_keys_are_rejected_with_paths():
    raw = {
        "experiment": "revival",
        "bogus": 1,
        "parameters": {"alpha": 4.0, "alpa": 2.0},
    }
    config, errors = validate_config(raw)
    assert config is None
    paths = {path for path, _ in errors}
    assert "bogus" in paths
    assert "parameters.alpa" in paths


def test_range_errors():
    config, errors = validate_config(
        {"experiment": "trajectories", "parameters": {"n_trajectories": -5}}
    )
    assert config is None
    assert any(path == "parameters.n_trajectories" for path, _ in errors)


def test_type_errors_accumulate():
    raw = {
        "experiment": "two-level",
        "master_seed": "七",
        "output": {"format": "xml", "weird": 1},
        "parameters": {"alpha": "big", "n_max": 2.5},
    }
    config, errors = validate_config(raw)
    assert config is None
    paths = {path for path, _ in errors}
    assert {
        "master_seed",
        "output.format",
        "output.weird",
        "parameters.alpha",
        "parameters.n_max",
    } <= paths


def test_minimal_config_fills_defaults():
    config = make_config("revival")
    assert config.parameters["alpha"] == 4.0
    assert config.parameters["n_points"] == 512
    assert config.parameters["dim"] is None
    assert config.master_seed == 0
    assert config.output_format == "json"


def test_nullable_and_bool_fields():
    config = make_config("identity-check", {"r_max": None, "include_doubled": False})
    assert config.parameters["r_max"] is None
    assert config.parameters["include_doubled"] is False
    _, errors = validate_config(
        {"experiment": "identity-check", "parameters": {"include_doubled": 1}}
    )
    assert errors


# --- runners -------------------------------------------------------------------


def test_revival_rows_match_closed_form():
    config = make_config(
        "revival", {"alpha": 2.0, "n_points": 16, "chi_t_max": math.pi}
    )
    envelope = run_experiment(config)
    assert envelope.columns == ["chi_t", "re_mean_a_exact", "re_mean_a_closed"]
    assert len(envelope.rows) == 16
    for chi_t, exact, closed in envelope.rows:
        assert abs(closed - mean_a_closed_form(2.0, chi_t).real) < 1e-14
        assert abs(exact - closed) < 1e-8


def test_covariance_growth_vacuum_rows():
    config = make_config("covariance-growth", {"r": 0.0, "theta": 0.3, "n_max": 50})
    envelope = run_experiment(config)
    for n, sqrt_det, asymptote in envelope.rows:
        assert abs(sqrt_det - n) < 1e-12
        assert asymptote == float(n)


@pytest.mark.parametrize("r", [0.0, 0.45, -1.3])
@pytest.mark.parametrize("theta", [0.0, 0.011, math.pi, 3.14159])
def test_covariance_growth_rows_are_the_per_n_determinants(theta, r):
    # the one-pass sweep keeps the bits of the single-N public functions;
    # theta = 0 and pi take the Dirichlet limit eps == 0
    n_max = 1200
    config = make_config("covariance-growth", {"r": r, "theta": theta, "n_max": n_max})
    rows = run_experiment(config).rows
    assert [row[0] for row in rows] == list(range(1, n_max + 1))
    c1 = step_covariance(r, theta)
    for n, sqrt_det, asymptote in rows:
        det = np.linalg.det(accumulate_covariance(c1, theta, n))
        assert sqrt_det == float(np.sqrt(det)) == math.sqrt(det)
        assert asymptote == det_cn_asymptotic(r, n)


@pytest.mark.parametrize("r", [0.0, 0.45, -1.3])
@pytest.mark.parametrize("m", [1, 3, 7])
def test_zeno_continuous_rows_are_the_per_n_densities(m, r):
    # every N of the sweep returns to z0 within the exact-return tolerance
    n_max = 1200
    config = make_config("zeno-continuous", {"r": r, "m": m, "n_max": n_max})
    rows = run_experiment(config).rows
    assert [row[0] for row in rows] == list(range(1, n_max + 1))
    for n, density, product in rows:
        cfg = ObservedRunConfig(
            z0=PhaseVector(2.0, 0.0),
            params=EvolutionParams(0.5, 1.0, 2.0 * math.pi * m / n, n),
            spec=MeasurementSpec(r),
        )
        expected = survival_density_continuous(cfg)
        assert density == expected
        assert product == n * expected


def test_trajectories_summary_consistent():
    config = make_config(
        "trajectories",
        {"n_trajectories": 4000, "n_steps": 5, "record_paths": 3},
        master_seed=11,
    )
    envelope = run_experiment(config)
    assert envelope.columns == ["trajectory", "step", "time", "q", "p"]
    assert len(envelope.rows) == 3 * 5
    summary = envelope.summary
    assert summary["n_trajectories"] == 4000
    assert summary["mean_error"] < summary["mean_error_limit_4se"]
    assert summary["max_cov_deviation_se"] < 5.0


def test_trajectories_rows_are_the_recorded_outcomes():
    # 7 and 65 steps sit on either side of the vectorized-sampler threshold
    for n_steps in (7, 65):
        params = {"q0": 2.5, "p0": -0.5, "n_steps": n_steps, "r": 0.3,
                  "n_trajectories": 50, "record_paths": 4}
        envelope = run_experiment(make_config("trajectories", params, master_seed=13))
        cfg = ObservedRunConfig(
            z0=PhaseVector(2.5, -0.5),
            params=EvolutionParams(0.1, 0.5 * (2.5**2 + 0.5**2), 0.1, n_steps),
            spec=MeasurementSpec(0.3),
            n_trajectories=50,
            master_seed=13,
        )
        steps = np.arange(1, n_steps + 1)
        expected = [
            [ti, j, t, q, p]
            for ti in range(4)
            for j, t, (q, p) in zip(
                steps.tolist(), (steps * 0.1).tolist(), run_trajectory(cfg, ti).tolist()
            )
        ]
        assert envelope.rows == expected
        for row in envelope.rows:
            assert [type(v) for v in row] == [int, int, float, float, float]


def test_zeno_continuous_constancy():
    config = make_config("zeno-continuous", {"n_max": 25})
    envelope = run_experiment(config)
    products = [row[2] for row in envelope.rows]
    for value in products:
        assert abs(value * 2.0 * math.pi - 1.0) < 1e-12


def test_zeno_dichotomic_rows():
    config = make_config("zeno-dichotomic", {"n_list": [1, 10, 100]})
    envelope = run_experiment(config)
    survivals = [row[1] for row in envelope.rows]
    bounds = [row[2] for row in envelope.rows]
    assert survivals[0] < survivals[1] < survivals[2]
    assert all(s >= b * (1 - 1e-9) for s, b in zip(survivals, bounds))
    assert envelope.summary["var_n2"] == pytest.approx(356.0, abs=1e-6)


def test_two_level_rows_cross_validate():
    config = make_config("two-level", {"alpha": 0.3, "omega_tau": 0.05, "n_max": 20})
    envelope = run_experiment(config)
    for n, exact, closed, asym in envelope.rows:
        model = TwoLevelModel(0.3, 1.0, 0.05, n)
        assert abs(exact - closed) < 1e-12
        assert abs(closed - survival_closed_form(model)) < 1e-15
        assert 0.0 <= asym <= 1.0


def test_two_level_sweep_endpoints():
    config = make_config(
        "two-level-sweep", {"beta": 1.0, "n_list": [1, 100, 1000000]}
    )
    envelope = run_experiment(config)
    assert envelope.rows[-1][2] > 0.99


def test_identity_check_rows():
    # vacuum family states are exact, so the defect is pure quadrature
    # resolution; r_max capped at 5 keeps the coarse grid meaningful
    config = make_config(
        "identity-check",
        {
            "dim_check": 6,
            "n_r": 24,
            "n_phi": 16,
            "r_max": 5.0,
            "include_doubled": True,
        },
    )
    envelope = run_experiment(config)
    assert [row[0] for row in envelope.rows] == [1, 2]
    base, doubled = envelope.rows[0][3], envelope.rows[1][3]
    assert base < 0.05
    assert doubled < 0.5 * base


# --- determinism and formats ------------------------------------------------------


def test_rerun_rows_byte_identical():
    config = make_config(
        "trajectories", {"n_trajectories": 500, "n_steps": 3}, master_seed=9
    )
    a, b = run_experiment(config), run_experiment(config)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_csv(a, buf_a)
    write_csv(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
    dict_a, dict_b = envelope_json_dict(a), envelope_json_dict(b)
    dict_a.pop("wall_time_s")
    dict_b.pop("wall_time_s")
    assert json.dumps(dict_a) == json.dumps(dict_b)


def test_seed_changes_rows():
    base = make_config("trajectories", {"n_trajectories": 50, "n_steps": 2})
    config, _ = validate_config(
        {
            "experiment": "trajectories",
            "master_seed": 1,
            "parameters": {"n_trajectories": 50, "n_steps": 2},
        }
    )
    assert run_experiment(base).rows != run_experiment(config).rows


def test_csv_is_rfc4180():
    config = make_config("covariance-growth", {"n_max": 4})
    envelope = run_experiment(config)
    buf = io.StringIO()
    write_csv(envelope, buf)
    text = buf.getvalue()
    assert text.count("\r\n") == 5  # header plus four rows
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == envelope.columns
    assert len(parsed) == 5
    assert float(parsed[1][1]) == envelope.rows[0][1]


def test_envelope_roundtrips_through_validator():
    config = make_config("two-level", {"alpha": 0.2, "n_max": 5})
    envelope = run_experiment(config)
    again, errors = validate_config(
        {
            "experiment": envelope.experiment,
            "master_seed": envelope.master_seed,
            "parameters": envelope.parameters,
        }
    )
    assert errors == []
    assert again.parameters == envelope.parameters


def test_every_experiment_has_runnable_defaults():
    # defaults validate cleanly for every registered experiment
    for name in EXPERIMENTS:
        config, errors = validate_config({"experiment": name})
        assert errors == [], (name, errors)
        assert config.experiment == name


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_default_rows_hold_only_csv_native_cells(name):
    # write_csv hands rows to csv.writer, which writes int, float and str
    # cells as str, repr and str; a bool or numpy scalar would change bytes
    envelope = run_experiment(make_config(name))
    assert {type(v) for row in envelope.rows for v in row} <= {int, float, str}
    buf = io.StringIO()
    write_csv(envelope, buf)
    parsed = list(csv.reader(io.StringIO(buf.getvalue())))
    assert parsed[1:] == [
        [v if isinstance(v, str) else repr(v) for v in row] for row in envelope.rows
    ]


# --- CLI ---------------------------------------------------------------------------


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_cli_run_csv(tmp_path, capsys):
    config_path = write_config(
        tmp_path,
        {
            "experiment": "covariance-growth",
            "master_seed": 3,
            "parameters": {"n_max": 6},
            "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
        },
    )
    assert cli.main(["run", config_path]) == 0
    text = (tmp_path / "out.csv").read_bytes()
    assert text.startswith(b"n,sqrt_det_cn,n_cosh_2r\r\n")
    # rerunning produces identical bytes
    assert cli.main(["run", config_path]) == 0
    assert (tmp_path / "out.csv").read_bytes() == text


def test_cli_run_json_to_stdout(tmp_path, capsys):
    config_path = write_config(
        tmp_path, {"experiment": "two-level", "parameters": {"n_max": 3}}
    )
    assert cli.main(["run", config_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "two-level"
    assert payload["tool_version"]
    assert len(payload["rows"]) == 3


def test_cli_seed_and_output_overrides(tmp_path):
    config_path = write_config(
        tmp_path,
        {"experiment": "trajectories", "parameters": {"n_trajectories": 20, "n_steps": 2}},
    )
    out = tmp_path / "t.json"
    assert cli.main(["run", config_path, "--seed", "5", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["master_seed"] == 5


def test_cli_config_error_exit_code(tmp_path, capsys):
    config_path = write_config(tmp_path, {"experiment": "revival", "parameters": {"x": 1}})
    assert cli.main(["run", config_path]) == 2
    assert "parameters.x" in capsys.readouterr().err


def test_cli_invalid_json_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", str(path)]) == 2


def test_cli_numeric_error_exit_code(tmp_path, capsys):
    config_path = write_config(
        tmp_path,
        {"experiment": "zeno-dichotomic", "parameters": {"alpha0_re": 4.0, "dim": 12}},
    )
    assert cli.main(["run", config_path]) == 3
    err = capsys.readouterr().err
    assert "numeric error" in err
    # one hint, naming the smallest cutoff within budget
    assert err.count("need dim >= 48") == 1
    assert "try dim" not in err


def test_cli_over_budget_default_cutoff_exits_numeric(tmp_path, capsys):
    # the default cutoff rule picks dim 130, which drops 3.8e-7 of this state:
    # a null dim widens to the smallest cutoff within budget, an explicit
    # dim 130 still exits 3 and names that cutoff
    parameters = {"alpha0_re": 0.0, "r": 1.5}
    config_path = write_config(
        tmp_path, {"experiment": "zeno-dichotomic", "parameters": parameters}
    )
    assert cli.main(["run", config_path]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["dim"] == 211
    config_path = write_config(
        tmp_path,
        {"experiment": "zeno-dichotomic", "parameters": {**parameters, "dim": 130}},
    )
    assert cli.main(["run", config_path]) == 3
    err = capsys.readouterr().err
    assert "dim=130" in err and "need dim >= 211" in err
    assert "Traceback" not in err


def test_cli_identity_check_has_no_dim(tmp_path, capsys):
    # the ladder is exact, so the gram needs only dim_check + 1 rows
    config_path = write_config(
        tmp_path, {"experiment": "identity-check", "parameters": {"dim": 60}}
    )
    assert cli.main(["run", config_path]) == 2
    assert "parameters.dim: unknown parameter" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, parameters",
    [
        ("trajectories", {"tau": 0}),
        ("two-level-sweep", {"c": 10, "beta": 0}),
        ("identity-check", {"r": -800.0}),
        ("revival", {"chi_t_min": 1e308, "chi_t_max": 1e308, "n_points": 2}),
        ("identity-check", {"r": 800.0}),
        # cosh/sinh overflow in the Gaussian step covariance or the bound
        ("covariance-growth", {"r": 400.0}),
        ("covariance-growth", {"r": 800.0}),
        ("zeno-continuous", {"r": 400.0}),
        ("trajectories", {"r": 400.0}),
        ("zeno-dichotomic", {"r": 400.0}),
        # the 2x2 determinant overflows: of C_1, and at r = 176 only of C_N
        ("covariance-growth", {"r": 300.0}),
        ("zeno-continuous", {"r": 300.0}),
        ("covariance-growth", {"r": 176.0}),
    ],
)
def test_cli_value_error_exits_numeric(tmp_path, capsys, experiment, parameters):
    # valid against the schema, but rejected by the numerics while running
    config_path = write_config(
        tmp_path, {"experiment": experiment, "parameters": parameters}
    )
    assert cli.main(["validate", config_path]) == 0
    capsys.readouterr()
    assert cli.main(["run", config_path]) == 3
    err = capsys.readouterr().err
    assert "numeric error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "experiment, parameters, message",
    [
        # the determinant of C_1 overflows
        ("covariance-growth", {"r": 300.0},
         "2x2 determinant overflows double precision (largest entry 3.773e+260)"),
        ("zeno-continuous", {"r": 300.0},
         "2x2 determinant overflows double precision (largest entry 3.773e+260)"),
        # C_1 is fine, and the determinant of C_N overflows further along
        ("covariance-growth", {"r": 176.0},
         "2x2 determinant overflows double precision (largest entry 3.915e+154)"),
        # cosh(2r) overflows in the step covariance
        ("covariance-growth", {"r": 400.0}, "math range error"),
        ("zeno-continuous", {"r": 400.0}, "math range error"),
        # the literal step covariance cancels to a non-positive determinant
        ("covariance-growth", {"r": 10.0, "theta": 1e-8},
         "c1 must be symmetric positive-definite"),
        ("zeno-continuous", {"r": 10.0}, "c1 must be symmetric positive-definite"),
        # the measurement seed refuses cosh(r) overflow
        ("zeno-continuous", {"r": 701.0},
         "r must satisfy |r| <= 700 (cosh r finite), got 701.0"),
    ],
)
def test_cli_sweep_edge_messages(tmp_path, capsys, experiment, parameters, message):
    config_path = write_config(
        tmp_path, {"experiment": experiment, "parameters": parameters}
    )
    assert cli.main(["run", config_path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numeric error: {message}\n"


def test_cli_two_level_sweep_angle_rule(tmp_path, capsys):
    # alpha(N) = pi/2 runs, as in two-level; an angle past it names its N
    quarter = write_config(
        tmp_path,
        {"experiment": "two-level-sweep", "parameters": {"c": math.pi / 2, "beta": 0.0}},
        "quarter.json",
    )
    assert cli.main(["run", quarter]) == 0
    assert capsys.readouterr().err == ""
    past = write_config(
        tmp_path, {"experiment": "two-level-sweep", "parameters": {"c": 10, "beta": 0}}
    )
    assert cli.main(["run", past]) == 3
    assert capsys.readouterr().err == (
        "numeric error: alpha(N=1) must be in [0, pi/2], got 10.0\n"
    )


QUARTER_TURN_OF_MAX = {"q0": 1.7e308, "p0": 1.7e308, "n_bar": 1.0, "chi": 0.5,
                       "tau": math.pi / 4}


@pytest.mark.parametrize(
    "parameters",
    [
        # a quarter turn of (1.7e308, 1.7e308) overflows on the first step, on
        # either side of the vectorized-sampler threshold
        pytest.param({**QUARTER_TURN_OF_MAX, "n_steps": 20}, id="20"),
        pytest.param({**QUARTER_TURN_OF_MAX, "n_steps": 65}, id="65"),
        # a finite chain whose sample moments overflow in the summary
        pytest.param({"q0": 1e200, "n_bar": 1.0, "n_steps": 3}, id="moments"),
    ],
)
def test_cli_overflowing_chain_exits_numeric_without_warnings(tmp_path, capsys, parameters):
    config_path = write_config(
        tmp_path, {"experiment": "trajectories", "parameters": parameters}
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", config_path]) == 3
    err = capsys.readouterr().err
    assert "numeric error" in err
    assert "Warning" not in err and "Traceback" not in err
    assert caught == []


def test_cli_two_level_angle_outside_quarter_turn_exits_config(tmp_path, capsys):
    # the overlap angle is refused at validate, not folded with a warning
    config_path = write_config(
        tmp_path, {"experiment": "two-level", "parameters": {"alpha": 4.0}}
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in ("validate", "run"):
            assert cli.main([command, config_path]) == 2
            err = capsys.readouterr().err
            assert "parameters.alpha: must be <= 1.5708, got 4.0" in err
            assert "Warning" not in err and "Traceback" not in err
    assert caught == []
    quarter = {"experiment": "two-level", "parameters": {"alpha": math.pi / 2}}
    out = str(tmp_path / "q.csv")
    assert cli.main(["run", write_config(tmp_path, quarter), "--output", out]) == 0


@pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
def test_seed_outside_domain_is_config_error(tmp_path, capsys, seed):
    params = {"n_trajectories": 4, "n_steps": 2}
    config_path = write_config(
        tmp_path, {"experiment": "trajectories", "master_seed": seed, "parameters": params}
    )
    assert cli.main(["validate", config_path]) == 2
    assert "master_seed" in capsys.readouterr().err
    plain = write_config(
        tmp_path, {"experiment": "trajectories", "parameters": params}, "plain.json"
    )
    out = tmp_path / "t.json"
    assert cli.main(["run", plain, "--seed", str(seed), "--output", str(out)]) == 2
    assert "master_seed" in capsys.readouterr().err
    assert not out.exists()


def test_largest_seed_is_accepted(tmp_path, capsys):
    seed = 2**63 - 1
    params = {"n_trajectories": 4, "n_steps": 2}
    config_path = write_config(
        tmp_path, {"experiment": "trajectories", "master_seed": seed, "parameters": params}
    )
    assert cli.main(["validate", config_path]) == 0
    assert json.loads(capsys.readouterr().out)["master_seed"] == seed
    out = tmp_path / "t.json"
    assert cli.main(["run", config_path, "--seed", str(seed), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["master_seed"] == seed


def test_cli_io_error_exit_code(tmp_path, capsys):
    config_path = write_config(
        tmp_path,
        {
            "experiment": "two-level",
            "parameters": {"n_max": 2},
            "output": {"path": str(tmp_path / "no" / "such" / "dir" / "x.csv")},
        },
    )
    assert cli.main(["run", config_path]) == 4
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 4


def test_cli_validate(tmp_path, capsys):
    config_path = write_config(tmp_path, {"experiment": "revival"})
    assert cli.main(["validate", config_path]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["parameters"]["n_points"] == 512
    bad = write_config(tmp_path, {"experiment": "revival", "nope": 1}, "bad.json")
    assert cli.main(["validate", bad]) == 2


@pytest.mark.parametrize("m", [3 * 10**307, 10**400], ids=["3e307", "400-digits"])
def test_cli_zeno_continuous_refuses_overflowing_m_at_validate(tmp_path, capsys, m):
    # 2 pi m, or the sin(4 pi m) of the N = 1 step, would overflow while running
    config_path = write_config(
        tmp_path, {"experiment": "zeno-continuous", "parameters": {"m": m}}
    )
    for command in ("validate", "run"):
        assert cli.main([command, config_path]) == 2
        assert "parameters.m: must be <=" in capsys.readouterr().err


@pytest.mark.parametrize("theta", [1e308, -1e308], ids=["1e308", "-1e308"])
def test_cli_covariance_growth_refuses_overflowing_theta_at_validate(tmp_path, capsys, theta):
    # sin(2 theta) of the step covariance would overflow while running
    config_path = write_config(
        tmp_path, {"experiment": "covariance-growth", "parameters": {"theta": theta}}
    )
    bound = ">=" if theta < 0 else "<="
    for command in ("validate", "run"):
        assert cli.main([command, config_path]) == 2
        assert f"parameters.theta: must be {bound}" in capsys.readouterr().err


def test_cli_covariance_growth_runs_at_the_largest_theta(tmp_path):
    out = str(tmp_path / "out.csv")
    for theta in (sys.float_info.max / 2, -sys.float_info.max / 2):
        config_path = write_config(
            tmp_path, {"experiment": "covariance-growth", "parameters": {"theta": theta}}
        )
        assert cli.main(["run", config_path, "--output", out]) == 0


def test_cli_trajectories_overflowing_angle_names_theta(tmp_path, capsys):
    # theta = 2 chi n_bar tau = 9e307 is finite, but 2 theta is not
    config_path = write_config(
        tmp_path, {"experiment": "trajectories", "parameters": {"chi": 1e307, "tau": 1.0}}
    )
    assert cli.main(["run", config_path]) == 3
    assert capsys.readouterr().err == (
        "numeric error: theta must satisfy |theta| <= max_float / 2, got 9e+307\n"
    )


def test_cli_zeno_continuous_runs_up_to_the_largest_m(tmp_path):
    out = str(tmp_path / "out.csv")
    for m in (1, int(sys.float_info.max / (4.0 * math.pi))):
        config_path = write_config(
            tmp_path, {"experiment": "zeno-continuous", "parameters": {"m": m, "n_max": 50}}
        )
        assert cli.main(["run", config_path, "--output", out]) == 0


def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


# Runs the CLI with every scipy import failing, as in an install without it.
_NO_SCIPY_RUNNER = """
import importlib.abc, json, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from kerrzeno import cli
print(json.dumps([cli.main(["run", path]) for path in sys.argv[1:]]))
"""


def test_cli_runs_without_scipy(tmp_path):
    configs = [
        write_config(
            tmp_path,
            {
                "experiment": "identity-check",
                "parameters": {"n_r": 8, "n_phi": 8},
                "output": {"path": str(tmp_path / "identity.json")},
            },
            "identity.json.in",
        ),
        write_config(
            tmp_path,
            {
                "experiment": "trajectories",
                "parameters": {"n_trajectories": 50, "n_steps": 70, "record_paths": 2},
                "output": {"path": str(tmp_path / "trajectories.csv"), "format": "csv"},
            },
            "trajectories.json.in",
        ),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUNNER, *configs],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, 0], done.stderr


def test_layer_tracer_targets_resolve(monkeypatch):
    # bench/layertrace.py wraps these by name, so a deletion from src/ fails here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    for module, name in importlib.import_module("layertrace").TARGETS:
        assert callable(getattr(importlib.import_module(f"kerrzeno.{module}"), name, None))
