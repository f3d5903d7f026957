"""Config validation, experiment runners, output formats, and the CLI."""

import builtins
import contextlib
import csv
import dataclasses
import functools
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrzeno import cli, experiments, fock
from kerrzeno.experiments import (
    EXPERIMENTS,
    envelope_json_dict,
    run_experiment,
    validate_config,
    write_csv,
    write_json,
)
from kerrzeno.fock import MeasurementSpec, mean_a_closed_form
from kerrzeno.observed import (
    ObservedRunConfig,
    run_ensemble,
    run_trajectory,
    survival_density_continuous,
)
from kerrzeno.phase_space import (
    EvolutionParams,
    PhaseVector,
    accumulate_covariance,
    step_covariance,
)
from kerrzeno.two_level import TwoLevelModel, survival_closed_form
from oracles import (
    covariance_growth_rows,
    det_cn_asymptotic,
    json_payload,
    recorded_rows,
    revival_rows,
    sample_moments,
    two_level_rows,
    write_rows,
    zeno_continuous_rows,
)
from oracles import write_csv as oracle_write_csv


def strip_wall_time(text):
    return re.sub(r'\n *"wall_time_s": [^\n]*', "", text)


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
    config = make_config("identity-check", {"r_max": None})
    assert config.parameters["r_max"] is None
    # identity-check always runs both grids, so it takes no switch
    _, errors = validate_config(
        {"experiment": "identity-check", "parameters": {"include_doubled": False}}
    )
    assert errors == [("parameters.include_doubled", "unknown parameter")]


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
        expected = survival_density_continuous(PhaseVector(2.0, 0.0), r, 2.0 * math.pi * m / n, n)
        assert density == expected
        assert product == n * expected


# --- array passes against the per-point loops ------------------------------------


def assert_same_rows(got, want):
    """Equal rows: the same cell types, and the same bits in every cell."""
    assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want]
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("edge", [-2, -1, 0, 1])
@pytest.mark.parametrize(
    "parameters",
    [
        {},  # alpha = 4 at dim 78: blocks of 840 points
        {"alpha": 0.0},
        {"alpha": -2.5, "chi_t_min": -3.0, "chi_t_max": 40.0},
        {"alpha": 1.5, "dim": 300, "chi_t_max": 1e4},
        {"alpha": 0.5, "dim": 2**15},  # blocks of 2 points
    ],
)
def test_revival_rows_keep_the_per_point_bits(parameters, edge):
    # 1 point, and one point before, at and after the first block edge
    p = make_config("revival", parameters).parameters
    dim = p["dim"] or fock.default_dim(p["alpha"] ** 2)
    block = max(1, experiments._PASS_ELEMENTS // dim)
    p["n_points"] = 1 if edge == -2 else block + edge
    assert_same_rows(experiments._run_revival(p, 0)[1], revival_rows(p))


@pytest.mark.parametrize("n_max", [1, 15, 16, 17, 40])
@pytest.mark.parametrize("r", [0.0, 0.5, -0.7])
@pytest.mark.parametrize("theta", [0.011, 1.3, 2.894, math.pi, -2.0 * math.pi, 0.0, 1e300])
def test_covariance_growth_rows_keep_the_per_n_bits(monkeypatch, theta, r, n_max):
    # passes of 16 N; theta a multiple of pi takes eps == 0, and at 2.894
    # cos(theta) ** 2 differs from cos(theta) * cos(theta) in the last bit
    monkeypatch.setattr(experiments, "_PASS_ELEMENTS", 16)
    p = make_config("covariance-growth", {"r": r, "theta": theta, "n_max": n_max}).parameters
    assert_same_rows(experiments._run_covariance_growth(p, 0)[1], covariance_growth_rows(p))


@pytest.mark.parametrize("n_max", [1, 15, 16, 17, 40])
@pytest.mark.parametrize("r", [0.0, 0.5, -0.7])
@pytest.mark.parametrize("m", [1, 3])
def test_zeno_continuous_rows_keep_the_per_n_bits(monkeypatch, m, r, n_max):
    # passes of 16 N; N = 1 and 2 turn by a multiple of pi, eps == 0
    monkeypatch.setattr(experiments, "_PASS_ELEMENTS", 16)
    p = make_config("zeno-continuous", {"r": r, "m": m, "n_max": n_max}).parameters
    assert_same_rows(experiments._run_zeno_continuous(p, 0)[1], zeno_continuous_rows(p))


@pytest.mark.parametrize(
    "experiment, parameters, oracle",
    [
        ("covariance-growth", {"theta": math.pi, "r": 0.5}, covariance_growth_rows),
        ("zeno-continuous", {"m": 3, "r": -0.7}, zeno_continuous_rows),
        ("two-level", {}, two_level_rows),
    ],
    ids=["covariance-growth", "zeno-continuous", "two-level"],
)
def test_sweeps_keep_the_per_n_bits_across_a_full_pass(experiment, parameters, oracle):
    # 70000 N, as in CI's rerun configs: a full pass of 2**16 N and a ragged one
    assert experiments._PASS_ELEMENTS == 2**16
    p = make_config(experiment, {**parameters, "n_max": 70000}).parameters
    assert_same_rows(EXPERIMENTS[experiment].runner(p, 0)[1], oracle(p))


@pytest.mark.parametrize("n_max", [1, 3, 15, 16, 17, 40])
@pytest.mark.parametrize(
    "alpha, omega_tau", [(0.0, 0.05), (0.3, 0.0), (1.2, 1.3), (math.pi / 2, 0.05)]
)
def test_two_level_rows_keep_the_matrix_power_bits(monkeypatch, alpha, omega_tau, n_max):
    # passes of 16 N, each one survival_exact call
    monkeypatch.setattr(experiments, "_PASS_ELEMENTS", 16)
    p = make_config("two-level", {"alpha": alpha, "omega_tau": omega_tau, "n_max": n_max})
    assert_same_rows(experiments._run_two_level(p.parameters, 0)[1], two_level_rows(p.parameters))


@pytest.mark.parametrize("block_rows", [1, 2, 3, experiments._BLOCK_ROWS])
@pytest.mark.parametrize("layout", [experiments._CSV, experiments._JSON], ids=["csv", "json"])
def test_plain_rows_keep_the_per_cell_text(monkeypatch, layout, block_rows):
    # float columns with and without non-finite cells, int columns, columns
    # that mix ints and floats, numpy floats, whose repr is not float.__repr__
    # but whose str is, finite and not, and recorded paths with non-finite
    # points, whose blocks JSON names NaN and Infinity as it does plain ones
    monkeypatch.setattr(experiments, "_BLOCK_ROWS", block_rows)
    rows = [
        [1, math.nan, 0.1, 3, -0.0],
        [2, math.inf, -2.5e-300, 10**30, 1.0],
        [-(2**70), -math.inf, 5e-324, 2, math.inf],
        [7, 1.7976931348623157e308, -0.0, 0, 4],
    ]
    finite, non_finite = [row[:1] + row[2:4] for row in rows], [row[:2] for row in rows]
    numpy_float = [row[:1] + [np.float64(row[2])] for row in rows]
    numpy_non_finite = [[np.float64(row[1]), np.float64(row[4])] for row in rows]
    paths = np.array([row[1::3] for row in rows], dtype=float).reshape(2, 2, 2)
    tables = (rows, rows[:1], finite, non_finite, numpy_float, numpy_non_finite,
              experiments.PathRows(paths, 0.1), default_envelope("zeno-continuous").rows)
    for table in tables:
        got, want = io.StringIO(), io.StringIO()
        experiments._write_rows(table, layout, got)
        write_rows(table, layout, want)
        assert got.getvalue() == want.getvalue()


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


def assert_same_moment_bits(finals):
    expected = sample_moments(finals)
    got = experiments._sample_moments(finals)
    for want, have in zip(expected, got):
        assert have.shape == want.shape and have.dtype == np.float64
        assert np.array_equal(have.view(np.uint64), want.view(np.uint64))


# 8193 and 16385 end in a ragged sampler chunk, 16384 fills one exactly
@pytest.mark.parametrize("n", [2, 3, 8193, 16384, 16385, 100000])
@pytest.mark.parametrize("r", [0.0, 0.5, -0.7])
def test_sample_moments_have_numpy_bits_on_ensembles(n, r):
    cfg = ObservedRunConfig(
        z0=PhaseVector(3.0, -1.5),
        params=EvolutionParams(0.1, 0.5 * (3.0**2 + 1.5**2), 0.1, 2),
        spec=MeasurementSpec(r),
        n_trajectories=n,
        master_seed=17,
    )
    assert_same_moment_bits(run_ensemble(cfg))


def test_sample_moments_have_numpy_bits_on_crafted_finals():
    rng = np.random.default_rng(5)
    # a large common offset, where each running sum rounds
    assert_same_moment_bits(1e8 + rng.standard_normal((20001, 2)))
    # magnitudes from 1e-300 to 1e150 in both columns, and signed zeros
    mixed = rng.standard_normal((5000, 2)) * 10.0 ** rng.integers(-300, 150, (5000, 2))
    mixed[::7] = -0.0
    mixed[::11, 1] = 0.0
    assert_same_moment_bits(mixed)
    # numpy's sum of a column of -0.0 alone is +0.0
    assert_same_moment_bits(np.full((9, 2), -0.0))
    assert_same_moment_bits(np.array([[-0.0, 0.0], [-0.0, -0.0], [-0.0, 1.0]]))
    # one row: its mean, and zeros for the covariance
    for row in ([[-0.0, 2.5]], [[1e300, -3.0]], [[5e-324, -0.0]]):
        assert_same_moment_bits(np.array(row))


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
        rows = envelope.rows
        assert len(rows) == len(expected)
        assert list(rows) == expected
        assert [rows[i] for i in (0, n_steps, -1, -len(rows))] == [
            expected[i] for i in (0, n_steps, -1, -len(rows))
        ]
        with pytest.raises(IndexError):
            rows[len(rows)]
        for row in rows:
            assert [type(v) for v in row] == [int, int, float, float, float]


@pytest.mark.parametrize("n_steps", [20, experiments.observed._VECTOR_MAX_STEPS + 1])
def test_trajectories_run_samples_each_trajectory_once(monkeypatch, n_steps):
    # the finals and the recorded paths come out of one sampler pass
    calls = []
    sample_chains = experiments.observed._sample_chains

    def counting_sample_chains(cfg, lo, hi, *args, **kwargs):
        calls.append((lo, hi))
        return sample_chains(cfg, lo, hi, *args, **kwargs)

    monkeypatch.setattr(experiments.observed, "_sample_chains", counting_sample_chains)
    params = {"n_steps": n_steps, "n_trajectories": 30, "record_paths": 4}
    envelope = run_experiment(make_config("trajectories", params, master_seed=5))
    assert calls == [(0, 30)]
    assert len(envelope.rows) == 4 * n_steps


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
        model = TwoLevelModel(0.3, 0.05, n)
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
    assert list(map(strip_wall_time, block_outputs(a))) == list(
        map(strip_wall_time, block_outputs(b))
    )


def test_seed_changes_rows():
    base = make_config("trajectories", {"n_trajectories": 50, "n_steps": 2})
    config, _ = validate_config(
        {
            "experiment": "trajectories",
            "master_seed": 1,
            "parameters": {"n_trajectories": 50, "n_steps": 2},
        }
    )
    assert list(run_experiment(base).rows) != list(run_experiment(config).rows)


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


@functools.cache
def default_envelope(name):
    return run_experiment(make_config(name))


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_default_rows_hold_only_csv_native_cells(name):
    # the writers write int cells as ints and float cells by float.__repr__;
    # a bool or numpy scalar would change bytes
    envelope = default_envelope(name)
    assert {type(v) for row in envelope.rows for v in row} <= {int, float, str}
    buf = io.StringIO()
    write_csv(envelope, buf)
    parsed = list(csv.reader(io.StringIO(buf.getvalue())))
    assert parsed[1:] == [
        [v if isinstance(v, str) else repr(v) for v in row] for row in envelope.rows
    ]


def oracle_outputs(envelope, rows):
    """CSV and JSON as csv.writer and one json.dumps write ``rows``."""
    csv_text = io.StringIO()
    oracle_write_csv(envelope.columns, rows, csv_text)
    return csv_text.getvalue(), json_payload({**envelope_json_dict(envelope), "rows": rows})


def block_outputs(envelope):
    outputs = []
    for write in (write_csv, write_json):
        buf = io.StringIO()
        write(envelope, buf)
        outputs.append(buf.getvalue())
    return tuple(outputs)


def oracle_rows(envelope):
    """The envelope's rows as the list-of-lists row builder makes them."""
    if envelope.experiment != "trajectories":
        return list(envelope.rows)
    p = envelope.parameters
    return recorded_rows(envelope.rows.paths, p["n_steps"], p["tau"])


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_default_outputs_match_whole_payload_writers(name):
    envelope = default_envelope(name)
    rows = oracle_rows(envelope)
    assert list(envelope.rows) == rows
    assert block_outputs(envelope) == oracle_outputs(envelope, rows)


@pytest.mark.parametrize("block_rows", [3, 7, 64, experiments._BLOCK_ROWS])
@pytest.mark.parametrize(
    "parameters",
    [
        {"n_trajectories": 50, "n_steps": 7, "record_paths": 0},  # no rows
        {"n_trajectories": 50, "n_steps": 7, "record_paths": 1},
        {"n_trajectories": 50, "n_steps": 7, "record_paths": 5},
        {"n_trajectories": 9, "n_steps": 1, "record_paths": 9},
        {"n_trajectories": 4, "n_steps": 65, "r": 0.3, "record_paths": 3},
    ],
)
def test_recorded_outputs_match_whole_payload_writers(monkeypatch, parameters, block_rows):
    # small blocks split paths into step slices (7 and 64 rows) or group
    # whole paths into a block (3 rows of 1-step paths)
    monkeypatch.setattr(experiments, "_BLOCK_ROWS", block_rows)
    envelope = run_experiment(make_config("trajectories", parameters, master_seed=5))
    rows = oracle_rows(envelope)
    assert list(envelope.rows) == rows
    assert block_outputs(envelope) == oracle_outputs(envelope, rows)


@pytest.mark.parametrize("block_rows", [2, 3, experiments._BLOCK_ROWS])
def test_recorded_outputs_spell_non_finite_cells(monkeypatch, block_rows):
    monkeypatch.setattr(experiments, "_BLOCK_ROWS", block_rows)
    paths = np.array(
        [[[math.nan, -0.0], [math.inf, 1e300]], [[-math.inf, 5e-324], [0.1, -2.5]]]
    )
    rows = experiments.PathRows(paths, 1e308)
    envelope = experiments.ResultEnvelope(
        "trajectories", {}, "0", 0, 0.5, ["trajectory", "step", "time", "q", "p"], rows
    )
    with np.errstate(over="ignore"):  # the second step's time overflows
        expected = recorded_rows(paths, 2, 1e308)
        assert repr(list(rows)) == repr(expected)  # nan is not equal to itself
        assert block_outputs(envelope) == oracle_outputs(envelope, expected)


@pytest.mark.parametrize("block_rows", [1, 2, experiments._BLOCK_ROWS])
def test_list_outputs_match_whole_payload_writers(monkeypatch, block_rows):
    monkeypatch.setattr(experiments, "_BLOCK_ROWS", block_rows)
    rows = [
        [0, math.nan, math.inf],
        [-0.0, -math.inf, 10**30],
        [-(2**70), 5e-324, 1.7976931348623157e308],
        [7, 0.1, -1e-7],
    ]
    envelope = experiments.ResultEnvelope(
        "two-level", {"n_max": 4}, "0", 0, 0.5, ["a", "b", "c"], rows, {"x": math.nan}
    )
    assert block_outputs(envelope) == oracle_outputs(envelope, rows)
    empty = dataclasses.replace(envelope, rows=[], summary=None)
    assert block_outputs(empty) == oracle_outputs(empty, [])


class ByteCounter:
    def __init__(self):
        self.count = 0

    def write(self, text):
        self.count += len(text)


def test_recorded_rows_are_written_in_bounded_memory(monkeypatch):
    # 60000 recorded rows, 3 paths of 20000 steps, written in blocks of 1024
    # rows.  While running, the traced peak is the path arrays and one
    # slice's noise, at most 1 MB; while writing, the path arrays and one
    # block of rows' text and cells, at most 1 KB a row.  Rows as Python
    # lists (13 MB), or a whole CSV payload (7.8 MB), exceed that.
    monkeypatch.setattr(experiments, "_BLOCK_ROWS", 1024)
    config = make_config(
        "trajectories", {"n_trajectories": 3, "n_steps": 20_000, "record_paths": 3}
    )
    run_experiment(make_config("trajectories", {"n_trajectories": 2, "n_steps": 70}))
    paths = 3 * 20_000 * 2 * 8
    tracemalloc.start()
    try:
        envelope = run_experiment(config)
        peaks = {"run": tracemalloc.get_traced_memory()[1]}
        for write in (write_csv, write_json):
            tracemalloc.reset_peak()
            sink = ByteCounter()
            write(envelope, sink)
            peaks[write.__name__] = tracemalloc.get_traced_memory()[1]
            assert sink.count > 50 * len(envelope.rows)
    finally:
        tracemalloc.stop()
    assert peaks["run"] < paths + 2**20, peaks
    block = experiments._BLOCK_ROWS * 1024
    assert peaks["write_csv"] < paths + block, peaks
    assert peaks["write_json"] < paths + block, peaks


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


@pytest.mark.parametrize(
    "experiment, parameters, dim",
    [
        ("revival", {"alpha": 1e5}, 10001000021),
        ("revival", {"alpha": 1.0, "dim": 2**20 + 1}, 2**20 + 1),
        ("zeno-dichotomic", {"alpha0_re": 1100.0}, 1221021),
        # a cutoff of more than 16 digits is shown in :.3e form
        ("revival", {"alpha": -1e153}, "1.000e+306"),
        ("revival", {"alpha": 1.0, "dim": 10**400}, "1.000e+400"),
    ],
    ids=["revival-rule", "revival-dim", "zeno-dichotomic-rule", "revival-rule-1e306",
         "revival-dim-1e400"],
)
def test_cli_cutoff_over_budget_exits_numeric_before_allocating(
    tmp_path, capsys, monkeypatch, experiment, parameters, dim
):
    def ladder(*args):
        raise AssertionError("the ladder ran on an over-budget cutoff")

    monkeypatch.setattr(fock, "_ladder_amplitudes", ladder)
    config_path = write_config(
        tmp_path, {"experiment": experiment, "parameters": parameters}
    )
    assert cli.main(["run", config_path]) == 3
    err = capsys.readouterr().err
    assert err == f"numeric error: dim={dim} exceeds the budget of 1048576 levels\n"
    assert len(err) < 80


IDENTITY_ARRAY = "elements (gram, ring or radii), over the budget of 1048576"
IDENTITY_WORK = "ladder amplitudes and gram entries over both grids, over the budget of 268435456"


@pytest.mark.parametrize(
    "parameters, message",
    [
        # the gram, one ring of the doubled grid, and its radii
        ({"dim_check": 100000},
         f"dim_check=100000, n_r=200, n_phi=128 need an array of 10000200001 {IDENTITY_ARRAY}"),
        ({"n_phi": 10**9},
         f"dim_check=10, n_r=200, n_phi=1000000000 need an array of 22000000000 {IDENTITY_ARRAY}"),
        ({"n_r": 10**9, "n_phi": 1},
         f"dim_check=10, n_r=1000000000, n_phi=1 need an array of 2000000000 {IDENTITY_ARRAY}"),
        ({"dim_check": 1024, "n_r": 1, "n_phi": 1},
         f"dim_check=1024, n_r=1, n_phi=1 need an array of 1050625 {IDENTITY_ARRAY}"),
        # ladder amplitudes and gram entries of both grids,
        # (dim_check + 1) n_r (5 n_phi + 3 (dim_check + 1))
        ({"n_r": 200000}, f"dim_check=10, n_r=200000, n_phi=128 need 1480600000 {IDENTITY_WORK}"),
        ({"n_r": 36261}, f"dim_check=10, n_r=36261, n_phi=128 need 268440183 {IDENTITY_WORK}"),
        ({"dim_check": 101, "n_r": 8463, "n_phi": 1},
         f"dim_check=101, n_r=8463, n_phi=1 need 268463286 {IDENTITY_WORK}"),
    ],
)
def test_cli_identity_check_budget_is_checked_before_the_ladder_runs(
    tmp_path, capsys, monkeypatch, parameters, message
):
    def ladder(*args):
        raise AssertionError("the ladder ran on an over-budget identity check")

    monkeypatch.setattr(fock, "_ladder_amplitudes", ladder)
    config_path = write_config(
        tmp_path, {"experiment": "identity-check", "parameters": parameters}
    )
    assert cli.main(["run", config_path]) == 3
    assert capsys.readouterr().err == f"numeric error: {message}\n"


@pytest.mark.parametrize(
    "parameters",
    [
        {},  # the defaults
        {"n_r": 160, "n_phi": 128},  # the benchmark's identity ops
        {"dim_check": 30, "n_r": 160, "n_phi": 128, "r_max": 45.0},
        {"dim_check": 1023, "n_r": 1, "n_phi": 1},  # the largest gram
        {"n_r": 1, "n_phi": 47662},  # the largest ring, 11 x 95324
        {"n_r": 36260},  # the most work at the default n_phi
        {"dim_check": 101, "n_r": 8462, "n_phi": 1},  # the most work on narrow rings
    ],
)
def test_identity_check_budget_admits(parameters):
    p = make_config("identity-check", parameters).parameters
    experiments._check_identity_budget(p)


@pytest.mark.parametrize(
    "parameters, need",
    [
        # 32 bytes a final plus 16 a recorded row, against 2**31
        ({"n_trajectories": 10**12, "n_steps": 2},
         "need about 32000000000320 bytes for 1000000000000 finals and 20 recorded rows"),
        ({"n_steps": 10**11},
         "need about 16000000320000 bytes for 10000 finals and 1000000000000 recorded rows"),
        ({"n_trajectories": 1, "n_steps": 2**27 - 1, "record_paths": 2},
         "need about 2147483664 bytes for 1 finals and 134217727 recorded rows"),
        ({"n_trajectories": 2**26 + 1, "n_steps": 2, "record_paths": 0},
         "need about 2147483680 bytes for 67108865 finals and 0 recorded rows"),
        # integers past 16 digits print as their first four digits in e-notation
        ({"n_trajectories": 10**400, "n_steps": 10**15},
         "n_trajectories=1.000e+400, n_steps=1000000000000000, record_paths=10 need "
         "about 3.200e+401 bytes for 1.000e+400 finals and 1.000e+16 recorded rows"),
    ],
)
def test_cli_trajectories_budget_is_checked_before_sampling(
    tmp_path, capsys, monkeypatch, parameters, need
):
    def sample(*args, **kwargs):
        raise AssertionError("the sampler ran on an over-budget trajectories run")

    monkeypatch.setattr(experiments.observed, "_sample_chains", sample)
    config_path = write_config(
        tmp_path, {"experiment": "trajectories", "parameters": parameters}
    )
    assert cli.main(["run", config_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: n_trajectories=") and need in err
    assert "n_steps=" in err and "record_paths=" in err
    assert err.endswith("over the budget of 2147483648\n")


@pytest.mark.parametrize(
    "parameters",
    [
        {},  # the defaults
        {"n_trajectories": 100_000, "n_steps": 2},  # the benchmark's wide ops
        {"n_trajectories": 10_000, "n_steps": 1000, "record_paths": 40},  # its long ops
        {"n_trajectories": 2**26, "n_steps": 2, "record_paths": 0},  # the most finals
        {"n_trajectories": 1, "n_steps": 2**27 - 2, "record_paths": 1},  # the most rows
        {"n_trajectories": 2**17, "n_steps": 2**17, "record_paths": 0},  # the most steps
    ],
)
def test_trajectories_budget_admits(parameters):
    p = make_config("trajectories", parameters).parameters
    experiments._check_trajectories_budget(p)


@pytest.mark.parametrize(
    "parameters, need",
    [
        ({"n_trajectories": 1, "n_steps": 10**11, "record_paths": 0},
         "n_trajectories=1, n_steps=100000000000 need 100000000000 trajectory-steps, "
         "about 2.5 h at 90 ns each"),
        ({"n_trajectories": 2**17, "n_steps": 2**17 + 1, "record_paths": 0},
         "n_trajectories=131072, n_steps=131073 need 17180000256 trajectory-steps, "
         "about 0.43 h at 90 ns each"),
        # past 16 digits n_steps and the step count print as their first four digits
        # in e-notation; the 16-digit n_steps just below keeps all its digits
        ({"n_trajectories": 1, "n_steps": 10**15 + 1, "record_paths": 0},
         "n_trajectories=1, n_steps=1000000000000001 need 1000000000000001 "
         "trajectory-steps, about 2.5e+04 h at 90 ns each"),
        ({"n_trajectories": 3, "n_steps": 10**16, "record_paths": 0},
         "n_trajectories=3, n_steps=1.000e+16 need 3.000e+16 trajectory-steps, "
         "about 7.5e+05 h at 90 ns each"),
        # past the float range, the hours estimate is not formed as a float
        pytest.param({"n_trajectories": 1, "n_steps": 10**400, "record_paths": 0},
                     "n_trajectories=1, n_steps=1.000e+400 need 1.000e+400 trajectory-steps, "
                     "about 2.50e+389 h at 90 ns each", id="steps-past-the-float-range"),
    ],
)
def test_cli_trajectories_time_budget_is_checked_before_sampling(
    tmp_path, capsys, monkeypatch, parameters, need
):
    def sample(*args, **kwargs):
        raise AssertionError("the sampler ran on an over-budget trajectories run")

    monkeypatch.setattr(experiments.observed, "_sample_chains", sample)
    config_path = write_config(
        tmp_path, {"experiment": "trajectories", "parameters": parameters}
    )
    assert cli.main(["run", config_path]) == 3
    err = capsys.readouterr().err
    assert err == f"numeric error: {need}, over the budget of 17179869184\n"
    assert len(err) < 200


@pytest.mark.parametrize(
    "experiment, parameters, message",
    [
        # at most 2**20 rows a grid or a sweep
        ("revival", {"n_points": 10**8},
         "n_points=100000000, dim=78 need 100000000 rows, over the budget of 1048576"),
        ("revival", {"n_points": 2**20 + 1, "alpha": 0.0, "dim": 2},
         "n_points=1048577, dim=2 need 1048577 rows, over the budget of 1048576"),
        ("covariance-growth", {"n_max": 10**8},
         "n_max=100000000 need 100000000 rows, over the budget of 1048576"),
        ("zeno-continuous", {"n_max": 2**20 + 1},
         "n_max=1048577 need 1048577 rows, over the budget of 1048576"),
        # at most 2**26 propagated amplitudes, n_points * dim
        ("revival", {"alpha": 0.0, "dim": 2**16, "n_points": 1025},
         "n_points=1025, dim=65536 need 67174400 propagated amplitudes, over the "
         "budget of 67108864"),
        # two-level's n_max, at most 2**20 rows like the sweeps'
        ("two-level", {"n_max": 10**8},
         "n_max=100000000 need 100000000 rows, over the budget of 1048576"),
    ],
)
def test_cli_sweeps_are_checked_before_allocating(
    tmp_path, capsys, monkeypatch, experiment, parameters, message
):
    def allocate(*args, **kwargs):
        raise AssertionError("an over-budget grid or sweep was allocated")

    for name in ("arange", "linspace"):
        monkeypatch.setattr(np, name, allocate)
    monkeypatch.setattr(experiments.two_level, "TwoLevelModel", allocate)
    config_path = write_config(
        tmp_path, {"experiment": experiment, "parameters": parameters}
    )
    assert cli.main(["validate", config_path]) == 0
    capsys.readouterr()
    assert cli.main(["run", config_path]) == 3
    assert capsys.readouterr().err == f"numeric error: {message}\n"


@pytest.mark.parametrize(
    "points, work",
    [
        (512, 512 * 78),  # revival's defaults, as the benchmark runs them
        (2000, 0),  # the benchmark's sweeps
        (2**20, 2**26),  # the most rows, at dim 64
        (2**20, 0),  # two-level's largest n_max, about 5 s
        (64, 2**26),  # the most amplitudes, at dim 2**20
    ],
)
def test_sweep_budget_admits(points, work):
    experiments._require_within({}, points, experiments._SWEEP_POINTS, "{need} rows")
    experiments._require_within({}, work, experiments._REVIVAL_WORK, "{need} amplitudes")


@pytest.mark.parametrize(
    "payload, validate_status, run_status",
    [
        # refused at run: the row and work budgets, a check count past the
        # float range, and a sweep N past the double range
        ({"experiment": "revival", "parameters": {"n_points": 10**400}}, 0, 3),
        ({"experiment": "covariance-growth", "parameters": {"n_max": 10**400}}, 0, 3),
        ({"experiment": "identity-check", "parameters": {"n_r": 10**400}}, 0, 3),
        ({"experiment": "zeno-continuous", "parameters": {"n_max": 10**400}}, 0, 3),
        ({"experiment": "two-level", "parameters": {"n_max": 10**400}}, 0, 3),
        ({"experiment": "zeno-dichotomic", "parameters": {"n_list": [10**400]}}, 0, 3),
        ({"experiment": "two-level-sweep", "parameters": {"n_list": [10**400]}}, 0, 3),
        # refused at validate, by a field's range or the seed's
        ({"experiment": "covariance-growth", "parameters": {"n_max": -(10**400)}}, 2, 2),
        ({"experiment": "zeno-continuous", "parameters": {"m": 10**400}}, 2, 2),
        ({"experiment": "revival", "master_seed": 10**400}, 2, 2),
        # a float field given an integer that no float holds
        ({"experiment": "revival", "parameters": {"alpha": 10**400}}, 2, 2),
        # a gram size of 5001 digits, past the 4300 that str prints
        ({"experiment": "identity-check", "parameters": {"dim_check": 10**2500}}, 0, 3),
    ],
    ids=["revival-n_points", "covariance-growth-n_max", "identity-check-n_r",
         "zeno-continuous-n_max", "two-level-n_max", "zeno-dichotomic-n_list",
         "two-level-sweep-n_list", "negative-n_max", "zeno-continuous-m", "master_seed",
         "float-field", "identity-check-dim_check"],
)
def test_cli_refuses_integers_past_the_float_range_on_one_short_line(
    tmp_path, capsys, payload, validate_status, run_status
):
    # integers past 16 digits print as their sign and first four digits in e-notation
    config_path = write_config(tmp_path, payload)
    for command, status in (("validate", validate_status), ("run", run_status)):
        assert cli.main([command, config_path]) == status
        err = capsys.readouterr().err
        if status:
            assert err.count("\n") == 1 and len(err) <= 201, err
            assert "1.000e+" in err and "int too large" not in err and "4300" not in err
        else:
            assert err == ""


@pytest.mark.parametrize("tau", [0, -0.0, -5e-324, -0.1])
def test_cli_trajectories_refuses_nonpositive_tau_at_validate(tmp_path, capsys, tau):
    config_path = write_config(
        tmp_path, {"experiment": "trajectories", "parameters": {"tau": tau}}
    )
    for command in ("validate", "run"):
        assert cli.main([command, config_path]) == 2
        assert capsys.readouterr().err == (
            f"config error at parameters.tau: must be >= 4.94066e-324, got {float(tau)}\n"
        )


def test_cli_trajectories_runs_at_the_smallest_tau(tmp_path):
    config_path = write_config(
        tmp_path,
        {"experiment": "trajectories", "parameters": {"tau": 5e-324, "n_trajectories": 10}},
    )
    assert cli.main(["run", config_path, "--output", str(tmp_path / "out.json")]) == 0


def test_cli_trajectories_refuses_overflowing_times_before_sampling(
    tmp_path, capsys, monkeypatch
):
    # theta = chi n_bar tau is finite, but the time column n_steps tau is not
    def sample(*args, **kwargs):
        raise AssertionError("the sampler ran on a trajectories run with infinite times")

    monkeypatch.setattr(experiments.observed, "_sample_chains", sample)
    config_path = write_config(
        tmp_path,
        {"experiment": "trajectories", "parameters": {"tau": 1e308, "chi": 1e-310, "n_steps": 3}},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", config_path]) == 3
    assert capsys.readouterr().err == (
        "numeric error: n_steps=3, tau=1e+308 put the last step at a time that overflows\n"
    )


def test_cli_identity_check_has_no_dim(tmp_path, capsys):
    # the ladder is exact, so the gram needs only dim_check + 1 rows
    config_path = write_config(
        tmp_path, {"experiment": "identity-check", "parameters": {"dim": 60}}
    )
    assert cli.main(["run", config_path]) == 2
    assert "parameters.dim: unknown parameter" in capsys.readouterr().err


CHI_T_MAX = sys.float_info.max / 4
R_MAX = math.sqrt(sys.float_info.max / (2.0 * math.pi))


@pytest.mark.parametrize(
    "experiment, parameters",
    [
        # omega = 2 chi n_bar overflows, so theta = omega tau is not finite
        ("trajectories", {"chi": 1e308}),
        ("two-level-sweep", {"c": 10, "beta": 0}),
        ("identity-check", {"r": -800.0}),
        ("revival", {"chi_t_min": CHI_T_MAX, "chi_t_max": CHI_T_MAX, "n_points": 2}),
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
        # the largest chi_t span: linspace stays finite, kerr_propagate refuses
        ("revival", {"chi_t_min": -CHI_T_MAX, "chi_t_max": CHI_T_MAX, "n_points": 1000}),
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
        # cosh(2r) overflows in the step covariance, which names r
        ("covariance-growth", {"r": 400.0},
         "r must keep cosh(2r) and sinh(2r) finite, got 400.0"),
        ("zeno-continuous", {"r": 400.0},
         "r must keep cosh(2r) and sinh(2r) finite, got 400.0"),
        # the literal step covariance cancels to a non-positive determinant
        ("covariance-growth", {"r": 10.0, "theta": 1e-8},
         "c1 must be symmetric positive-definite"),
        ("zeno-continuous", {"r": 10.0}, "c1 must be symmetric positive-definite"),
        # the measurement seed refuses cosh(r) overflow
        ("zeno-continuous", {"r": 701.0},
         "r must satisfy |r| <= 700 (cosh r finite), got 701.0"),
        # the trajectories closed form refuses cosh(2r) overflow before sampling
        ("trajectories", {"r": 400.0},
         "r must keep cosh(2r) and sinh(2r) finite, got 400.0"),
        # the step angle 2 chi n_bar tau overflows to inf; its inputs are named
        ("trajectories", {"chi": 1e308},
         "the step angle theta = 2 chi n_bar tau must satisfy |theta| <= max_float / 2, "
         "got chi=1e+308, n_bar=4.5, tau=0.1, theta=inf"),
        # 2 chi overflows and times n_bar = 0 gives a nan angle
        ("trajectories", {"chi": 1e308, "n_bar": 0.0},
         "the step angle theta = 2 chi n_bar tau must satisfy |theta| <= max_float / 2, "
         "got chi=1e+308, n_bar=0.0, tau=0.1, theta=nan"),
        # a null n_bar is derived from q0 and p0, whose squares overflow
        ("trajectories", {"q0": 1e200},
         "the mean photon number (q0^2 + p0^2) / 2 derived for a null n_bar must be "
         "finite, got q0=1e+200, p0=0.0"),
        # C_N overflows at an N before the first N whose C_1 cancels to a
        # non-positive determinant; N by N, the first failure is named
        ("zeno-continuous", {"r": 177.0, "m": 1000000000},
         "2x2 determinant overflows double precision (largest entry 1.650e+154)"),
        # C_1 passes, and C_2 cancels to a non-positive determinant
        ("covariance-growth", {"r": 10.7, "theta": 1e-8},
         "cov must be symmetric positive-definite"),
        ("covariance-growth", {"r": -10.7, "theta": math.pi},
         "cov must be symmetric positive-definite"),
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


@pytest.mark.parametrize(
    "experiment, parameters, named",
    [
        # the default cutoff rule's |alpha|^2 or sinh(r)^2 overflows
        ("revival", {"alpha": 2e154}, "alpha=(2e+154+0j), r=0.0"),
        ("zeno-dichotomic", {"alpha0_re": 1e300}, "alpha=(1e+300+0j), r=0.0"),
        ("zeno-dichotomic", {"r": 360}, "alpha=(2+0j), r=360.0"),
        # chi_t^2 of the Gaussian bound overflows
        ("zeno-dichotomic", {"chi_t": 1e160}, "chi_t=1e+160"),
        # cos(2 omega_tau) of the closed form, at N = 1
        ("two-level", {"omega_tau": 1e308}, "omega_tau=1e+308 at N=1"),
        ("two-level-sweep", {"omega_t": 1e308}, "omega_tau=1e+308 at N=1"),
        # the finals are finite and the 4-SE mean error overflows
        ("trajectories", {"q0": 1e154, "n_trajectories": 50},
         "n_trajectories=50 finals from q0=1e+154, p0=0.0"),
        ("trajectories", {"p0": 1e154, "n_trajectories": 50},
         "n_trajectories=50 finals from q0=3.0, p0=1e+154"),
    ],
)
def test_cli_overflows_exit_numeric_with_a_named_refusal(
    tmp_path, capsys, experiment, parameters, named
):
    config_path = write_config(
        tmp_path, {"experiment": experiment, "parameters": parameters}
    )
    assert cli.main(["validate", config_path]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", config_path]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and caught == []
    assert captured.err.startswith("numeric error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    for bare in ("(34,", "math domain error", "encountered in"):
        assert bare not in captured.err


@settings(max_examples=60, deadline=None)
@given(
    experiment=st.sampled_from(["covariance-growth", "zeno-continuous"]),
    r=st.floats(-20.0, 20.0),
    theta=st.floats(-sys.float_info.max / 2, sys.float_info.max / 2),
    m=st.one_of(st.integers(1, 1000), st.integers(1, int(experiments._TURNS_MAX))),
    n_max=st.integers(1, 64),
)
@example("covariance-growth", 10.7, 1e-8, 1, 64)
@example("covariance-growth", -10.7, 1e-8, 1, 64)
@example("covariance-growth", 10.7, math.pi, 1, 64)
@example("covariance-growth", -10.7, math.pi, 1, 64)
@example("zeno-continuous", 177.0, 0.01, 10**9, 64)
def test_cli_sweeps_run_or_refuse_without_warnings(
    tmp_path_factory, experiment, r, theta, m, n_max
):
    # each sweep N by N either writes its rows or names the first refusal on one line
    angle = {"theta": theta} if experiment == "covariance-growth" else {"m": m}
    config_path = write_config(
        tmp_path_factory.mktemp("sweep"),
        {"experiment": experiment, "parameters": {"r": r, "n_max": n_max, **angle}},
    )
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(["run", config_path, "--format", "csv"])
    assert [str(w.message) for w in caught] == []
    assert status in (0, 3)
    if status == 3:
        assert out.getvalue() == ""
        assert re.fullmatch(r"numeric error: [^\n]+\n", err.getvalue())
    else:
        assert err.getvalue() == ""
        assert out.getvalue().count("\n") == n_max + 1
        assert "nan" not in out.getvalue()


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
    # N**beta underflows to 0 at N = 10, or overflows at N = 2
    for parameters, message in (
        ({"c": 1.0, "beta": -400}, "alpha(N=10): N**beta leaves the double range"),
        ({"c": 1e-300, "beta": 1e308, "n_list": [1, 2]},
         "alpha(N=2): N**beta leaves the double range"),
    ):
        path = write_config(
            tmp_path, {"experiment": "two-level-sweep", "parameters": parameters}
        )
        assert cli.main(["run", path]) == 3
        assert capsys.readouterr().err == f"numeric error: {message}\n"


QUARTER_TURN_OF_MAX = {"q0": 1.7e308, "p0": 1.7e308, "n_bar": 1.0, "chi": 0.5,
                       "tau": math.pi / 4}


@pytest.mark.parametrize(
    "parameters, moments",
    [
        # a quarter turn of (1.7e308, 1.7e308) overflows on the first step, on
        # either side of the vectorized-sampler threshold
        pytest.param({**QUARTER_TURN_OF_MAX, "n_steps": 20}, None, id="20"),
        pytest.param({**QUARTER_TURN_OF_MAX, "n_steps": 65}, None, id="65"),
        # a finite chain whose sample moments overflow in the summary
        pytest.param({"q0": 1e200, "n_bar": 1.0, "n_steps": 3},
                     "n_trajectories=10000 finals from q0=1e+200, p0=0.0", id="moments"),
        # finite finals near max_float whose column sum overflows
        pytest.param({"q0": 1e308, "n_bar": 1.0, "n_steps": 1, "chi": 1e-9,
                      "n_trajectories": 10},
                     "n_trajectories=10 finals from q0=1e+308, p0=0.0", id="mean"),
    ],
)
def test_cli_overflowing_chain_exits_numeric_without_warnings(
    tmp_path, capsys, parameters, moments
):
    config_path = write_config(
        tmp_path, {"experiment": "trajectories", "parameters": parameters}
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", config_path]) == 3
    err = capsys.readouterr().err
    assert "numeric error" in err
    if moments is not None:
        assert err.startswith(f"numeric error: the sample moments of {moments} overflow (")
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


def test_cli_integer_past_the_parser_limit_is_a_config_error(tmp_path, capsys):
    # json refuses an integer of more than 4300 digits as it reads it
    path = tmp_path / "config.json"
    path.write_text('{"experiment": "revival", "master_seed": 1' + "0" * 5000 + "}")
    for command in ("validate", "run"):
        assert cli.main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("record_paths", [0, 3])
def test_cli_stdout_matches_file_output(tmp_path, capsys, fmt, record_paths):
    config_path = write_config(
        tmp_path,
        {
            "experiment": "trajectories",
            "parameters": {"n_trajectories": 20, "n_steps": 40, "record_paths": record_paths},
            "output": {"format": fmt},
        },
    )
    out = tmp_path / f"t.{fmt}"
    assert cli.main(["run", config_path, "--output", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["run", config_path]) == 0
    stdout = capsys.readouterr().out
    assert strip_wall_time(stdout) == strip_wall_time(out.read_bytes().decode("utf-8"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_write_error_exits_io(tmp_path, capsys, monkeypatch, fmt):
    # the disk fills after the first block of rows
    monkeypatch.setattr(experiments, "_BLOCK_ROWS", 5)
    written = []

    class FullFile(io.StringIO):
        def write(self, text):
            if len(written) > 3:
                raise OSError(28, "No space left on device")
            written.append(text)
            return len(text)

    def open_output(path, mode="r", **kwargs):
        return FullFile() if mode == "w" else builtins.open(path, mode, **kwargs)

    monkeypatch.setattr(cli, "open", open_output, raising=False)
    config_path = write_config(
        tmp_path,
        {"experiment": "trajectories", "parameters": {"n_trajectories": 20, "n_steps": 40}},
    )
    out = tmp_path / "t.out"
    assert cli.main(["run", config_path, "--output", str(out), "--format", fmt]) == 4
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: [Errno 28] No space left on device\n"
    )


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
        "numeric error: the step angle theta = 2 chi n_bar tau must satisfy |theta| <= "
        "max_float / 2, got chi=1e+307, n_bar=4.5, tau=1.0, theta=9e+307\n"
    )


def test_cli_zeno_continuous_runs_up_to_the_largest_m(tmp_path):
    out = str(tmp_path / "out.csv")
    for m in (1, int(sys.float_info.max / (4.0 * math.pi))):
        config_path = write_config(
            tmp_path, {"experiment": "zeno-continuous", "parameters": {"m": m, "n_max": 50}}
        )
        assert cli.main(["run", config_path, "--output", out]) == 0


@pytest.mark.parametrize(
    "experiment, field, value",
    [
        # an identity-grid node weight, and |alpha|^2 in the ladder, overflow
        ("identity-check", "r_max", math.nextafter(R_MAX, math.inf)),
        ("identity-check", "r_max", 1e160),
        # revival's linspace span overflows
        ("revival", "chi_t_min", math.nextafter(CHI_T_MAX, math.inf)),
        ("revival", "chi_t_min", -math.nextafter(CHI_T_MAX, math.inf)),
        ("revival", "chi_t_max", math.nextafter(CHI_T_MAX, math.inf)),
        ("revival", "chi_t_max", -1e308),
    ],
)
def test_cli_refuses_overflowing_grid_extent_at_validate(
    tmp_path, capsys, experiment, field, value
):
    config_path = write_config(
        tmp_path, {"experiment": experiment, "parameters": {field: value}}
    )
    for command in ("validate", "run"):
        assert cli.main([command, config_path]) == 2
        assert f"parameters.{field}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("r", [0.0, 0.5, -1.2])
def test_cli_identity_check_runs_at_the_largest_r_max(tmp_path, r):
    out = tmp_path / "out.csv"
    config_path = write_config(
        tmp_path,
        {"experiment": "identity-check",
         "parameters": {"r": r, "r_max": R_MAX, "n_r": 3, "n_phi": 7}},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = cli.main(["run", config_path, "--output", str(out), "--format", "csv"])
    assert status == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert [row[:3] for row in rows] == [["1", "3", "7"], ["2", "6", "14"]]
    assert all(math.isfinite(float(row[3])) for row in rows)


def test_cli_two_level_runs_past_the_squared_rabi_range(tmp_path):
    out = tmp_path / "out.csv"
    config_path = write_config(
        tmp_path,
        {"experiment": "two-level", "parameters": {"omega_tau": 1e200, "n_max": 3}},
    )
    assert cli.main(["run", config_path, "--output", str(out), "--format", "csv"]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert [row[3] for row in rows] == ["0.5", "0.5", "0.5"]
    model = TwoLevelModel(0.3, 1e200, 2)
    assert float(rows[1][2]) == survival_closed_form(model)


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


# Public class members whose only caller outside the tests is bench/workloads.py.
_BENCH_MEMBERS = {("fock", "MeasurementSpec.vacuum")}


def test_public_functions_are_reached_by_the_cli(tmp_path, capsys, monkeypatch):
    # Every function and method a kerrzeno module names in __all__ runs when
    # the CLI runs each experiment at its defaults, or the benchmark holds it
    # in place: bench/layertrace.py wraps it by name, or bench/ calls it.  A
    # public function that only tests call belongs in tests/oracles.py.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    targets = set(importlib.import_module("layertrace").TARGETS)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    statuses = []
    sys.setprofile(profile)
    try:
        for name in EXPERIMENTS:
            for fmt in ("json", "csv"):
                payload = {"experiment": name, "output": {"format": fmt}}
                out = str(tmp_path / f"{name}.{fmt}")
                statuses.append(cli.main(["run", write_config(tmp_path, payload), "--output", out]))
    finally:
        sys.setprofile(None)
    assert statuses == [0] * (2 * len(EXPERIMENTS))

    package = importlib.import_module("kerrzeno")
    unreached = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"kerrzeno.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                members = {name: obj}
            elif inspect.isclass(obj):
                members = {
                    f"{name}.{key}": getattr(value, "fget", getattr(value, "__func__", value))
                    for key, value in vars(obj).items()
                    if not key.startswith("__")
                }
            else:
                continue
            for qualified, func in members.items():
                if not inspect.isfunction(func) or func.__code__ in entered:
                    continue
                if (info.name, qualified) not in targets | _BENCH_MEMBERS:
                    unreached.append(f"{info.name}.{qualified}")
    assert not unreached, "public but unreached: " + ", ".join(unreached)
