"""
Benchmark workloads: the fixed batch of CLI operations each one runs.

Every parameter is drawn from the workload seed alone, so two commits run
with the same seed see identical inputs.  Sizes (trajectory counts, steps,
working dims, sweep lengths, grid sizes) are fixed; the seed draws
values that leave the work unchanged (initial points, angles, phases,
master seeds), so the spread between seeds is the host's.  Each operation
carries the cross-check the test-suite asserts for its experiment, at the
same tolerance; ``check`` returns None when the output passes, else a
message.  The output of ``trajectories`` holds a summary (JSON) or only the
recorded paths (CSV), so ``check_ensemble_finals`` also checks every final
point that ``observed.run_ensemble`` returned in the op.

``ensemble-wide``
    ``trajectories`` at 100k trajectories x 2 steps, vacuum and r = 0.5
    seeds, JSON.  Cost is per-trajectory stream set-up in ``observed``;
    ``fock`` is bypassed and ``phase_space`` is called O(1) times per op.
``ensemble-long``
    ``trajectories`` at 10k x 1000 steps with tens of recorded paths, CSV.
    Cost is the per-step chain loop and Box-Muller over (steps x
    trajectories) arrays, plus serialising tens of thousands of rows.
``exact-vs-closed``
    No RNG: dense ``expm`` in ``fock`` (identity quadratures, dichotomic
    survival at working dim 200-400) and the O(N^2) covariance sweep in
    ``phase_space`` (``covariance-growth``, ``zeno-continuous``), plus the
    cheap revival and two-level checks.  ``run.py`` clears kerrzeno's
    caches before each pass, as in a fresh process, and the identity grids
    differ per call, so the radial-displacement cache of ``fock`` is cold
    on most calls; the last identity call repeats the previous grid, a
    fixed warm share.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

Rows = list[list]
Check = Callable[[Rows, dict | None], str | None]



@dataclass(frozen=True)
class Op:
    """One CLI run: a config written at set-up and the check of its output."""

    name: str
    config: dict
    check: Check

    @property
    def output_format(self) -> str:
        return self.config["output"]["format"]


def _config(experiment: str, params: dict, fmt: str, seed: int = 0) -> dict:
    return {
        "experiment": experiment,
        "master_seed": seed,
        "output": {"format": fmt},
        "parameters": params,
    }


# ---------------------------------------------------------------------------
# cross-checks, one per experiment, at the test-suite's tolerances


def _check_trajectories_summary(rows: Rows, summary: dict | None) -> str | None:
    if summary is None:
        return "missing summary"
    if not summary["mean_error"] < summary["mean_error_limit_4se"]:
        return f"mean error {summary['mean_error']:.3g} beyond 4 SE"
    if not summary["max_cov_deviation_se"] < 5.0:
        return f"covariance {summary['max_cov_deviation_se']:.3g} SE off"
    return None


def _check_path_count(n_paths: int, n_steps: int) -> Check:
    def check(rows: Rows, summary: dict | None) -> str | None:
        if len(rows) != n_paths * n_steps:
            return f"{len(rows)} rows, expected {n_paths * n_steps}"
        want = [(ti, j) for ti in range(n_paths) for j in range(1, n_steps + 1)]
        if [(int(r[0]), int(r[1])) for r in rows] != want:
            return "rows out of (trajectory, step) order"
        return None

    return check


def _all(*checks: Check) -> Check:
    def check(rows: Rows, summary: dict | None) -> str | None:
        for c in checks:
            problem = c(rows, summary)
            if problem is not None:
                return problem
        return None

    return check


def _gaussian_fit_problem(points, mean, cov) -> str | None:
    """Sample mean within 4 SE and covariance within 5 SE of a 2D Gaussian.

    The bounds of the test-suite's ensemble check; ``points`` is (n, 2).
    """
    points, mean, cov = np.asarray(points), np.asarray(mean), np.asarray(cov)
    n = len(points)
    err = float(np.linalg.norm(points.mean(axis=0) - mean))
    limit = 4.0 * math.sqrt(float(np.trace(cov)) / n)
    if not err < limit:
        return f"mean error {err:.3g} beyond 4 SE ({limit:.3g})"
    diag = np.diag(cov)
    se = np.sqrt((np.outer(diag, diag) + cov**2) / n)
    deviation = float(np.max(np.abs(np.cov(points.T, ddof=1) - cov) / se))
    if not deviation < 5.0:
        return f"covariance {deviation:.3g} SE off"
    return None


def _check_final_points(expected_mean, expected_cov) -> Check:
    """Recorded paths' final outcomes against the closed-form distribution.

    Used where the output is CSV and carries no summary.
    """

    def check(rows: Rows, summary: dict | None) -> str | None:
        last = max(int(r[1]) for r in rows)
        finals = [(r[3], r[4]) for r in rows if int(r[1]) == last]
        problem = _gaussian_fit_problem(finals, expected_mean, expected_cov)
        return None if problem is None else f"recorded finals: {problem}"

    return check


def check_ensemble_finals(cfg, finals) -> str | None:
    """Every final point ``observed.run_ensemble`` returned for ``cfg``
    against ``observed.analytic_final_distribution``, at 4 SE / 5 SE."""
    from kerrzeno import observed

    target = observed.analytic_final_distribution(cfg)
    problem = _gaussian_fit_problem(finals, target.mean.as_array(), target.cov)
    return None if problem is None else f"ensemble finals: {problem}"


def _check_revival(rows: Rows, summary: dict | None) -> str | None:
    gap = max(abs(exact - closed) for _, exact, closed in rows)
    return None if gap < 1e-8 else f"|exact - closed| = {gap:.3g}"


def _check_covariance_growth(rows: Rows, summary: dict | None) -> str | None:
    n, sqrt_det, asymptote = rows[-1]
    ratio = sqrt_det / asymptote
    return None if 0.95 <= ratio <= 1.05 else f"sqrt(det C_N)/N cosh 2r = {ratio:.4f}"


def _check_zeno_continuous(rows: Rows, summary: dict | None) -> str | None:
    worst = max(abs(2.0 * math.pi * product - 1.0) for _, _, product in rows)
    return None if worst < 1e-12 else f"|2 pi N p - 1| = {worst:.3g}"


def _check_zeno_dichotomic(rows: Rows, summary: dict | None) -> str | None:
    survivals = [row[1] for row in rows]
    if not all(a < b for a, b in zip(survivals, survivals[1:])):
        return f"survival not rising: {survivals}"
    if not 0.99 < survivals[-1] <= 1.0:
        return f"survival {survivals[-1]:.6f} does not approach 1"
    for n, survival, bound in rows:
        if n >= 100 and not survival >= bound * (1.0 - 1e-9):
            return f"survival {survival:.6f} below the Gaussian bound {bound:.6f} at N = {n}"
    return None


def _check_two_level(rows: Rows, summary: dict | None) -> str | None:
    gap = max(abs(row[1] - row[2]) for row in rows)
    return None if gap < 1e-12 else f"|exact - closed| = {gap:.3g}"


def _check_two_level_sweep(rows: Rows, summary: dict | None) -> str | None:
    last = rows[-1][2]
    return None if last > 0.99 else f"survival {last:.6f} does not freeze"


def _check_identity(rows: Rows, summary: dict | None) -> str | None:
    base, doubled = rows[0][3], rows[1][3]
    return None if doubled < 0.5 * base else f"doubled defect {doubled:.3g} vs {base:.3g}"


# ---------------------------------------------------------------------------
# workloads


def _ensemble_wide(rng: random.Random) -> list[Op]:
    ops = []
    for r in (0.0, 0.5):
        params = {
            "q0": round(rng.uniform(2.0, 4.0), 6),
            "p0": round(rng.uniform(-1.0, 1.0), 6),
            "tau": round(rng.uniform(0.05, 0.2), 6),
            "n_steps": 2,
            "r": r,
            "n_trajectories": 100_000,
            "record_paths": 10,
        }
        ops.append(
            Op(
                f"trajectories-r{r}",
                _config("trajectories", params, "json", rng.randrange(2**31)),
                _all(
                    _check_trajectories_summary,
                    _check_path_count(params["record_paths"], 2),
                ),
            )
        )
    return ops


def _ensemble_long(rng: random.Random) -> list[Op]:
    from kerrzeno import fock, observed, phase_space

    params = {
        "q0": round(rng.uniform(2.0, 4.0), 6),
        "p0": round(rng.uniform(-1.0, 1.0), 6),
        "tau": round(rng.uniform(0.05, 0.2), 6),
        "chi": 0.1,
        "n_steps": 1000,
        "r": 0.0,
        "n_trajectories": 10_000,
        "record_paths": 40,
    }
    n_bar = 0.5 * (params["q0"] ** 2 + params["p0"] ** 2)
    target = observed.analytic_final_distribution(
        observed.ObservedRunConfig(
            z0=phase_space.PhaseVector(params["q0"], params["p0"]),
            params=phase_space.EvolutionParams(
                params["chi"], n_bar, params["tau"], params["n_steps"]
            ),
            spec=fock.MeasurementSpec.vacuum(),
        )
    )
    check = _all(
        _check_path_count(params["record_paths"], params["n_steps"]),
        _check_final_points(target.mean.as_array().tolist(), target.cov.tolist()),
    )
    return [
        Op(
            "trajectories-long",
            _config("trajectories", params, "csv", rng.randrange(2**31)),
            check,
        )
    ]


def _dichotomic_params(rng: random.Random, n_bar: float, r: float) -> dict:
    phase = rng.uniform(0.2, 1.3)
    amp = math.sqrt(n_bar)
    # Var(n^2) ~ 4 n_bar^3 for a coherent state; chi_t puts the N = 1
    # survival far below 1 and the N = 10^4 survival above 0.99.
    chi_t = math.sqrt(rng.uniform(10.0, 25.0) / (4.0 * n_bar**3))
    return {
        "alpha0_re": round(amp * math.cos(phase), 6),
        "alpha0_im": round(amp * math.sin(phase), 6),
        "r": r,
        "chi_t": float(f"{chi_t:.6g}"),
        "n_list": [1, 10, 100, 1000, 10000],
    }


def _exact_vs_closed(rng: random.Random) -> list[Op]:
    ops = []
    # Distinct radial extents keep the displacement cache cold within a
    # pass; grid sizes are fixed, so every seed does the same work in the
    # same memory.
    r_max = rng.uniform(9.0, 9.6)
    extents = [round(r_max + 0.1 * i, 6) for i in range(3)]
    extents.append(extents[-1])
    for i, extent in enumerate(extents):
        ops.append(
            Op(
                f"identity-check#{i}",
                _config(
                    "identity-check", {"n_r": 160, "n_phi": 128, "r_max": extent}, "json"
                ),
                _check_identity,
            )
        )
    ops.append(
        Op(
            "zeno-dichotomic-vacuum",
            _config(
                "zeno-dichotomic",
                _dichotomic_params(rng, 170.0, 0.0),
                "json",
            ),
            _check_zeno_dichotomic,
        )
    )
    ops.append(
        Op(
            "zeno-dichotomic-squeezed",
            _config(
                "zeno-dichotomic",
                _dichotomic_params(rng, 95.0, 0.3),
                "json",
            ),
            _check_zeno_dichotomic,
        )
    )
    ops.append(Op("revival", _config("revival", {}, "json"), _check_revival))
    ops.append(
        Op(
            "covariance-growth",
            _config(
                "covariance-growth",
                {
                    "r": round(rng.uniform(0.3, 0.6), 6),
                    "theta": round(rng.uniform(0.008, 0.015), 6),
                    "n_max": 2000,
                },
                "json",
            ),
            _check_covariance_growth,
        )
    )
    ops.append(
        Op(
            "zeno-continuous",
            _config(
                "zeno-continuous",
                {"n_max": 2000, "m": rng.randint(1, 3)},
                "json",
            ),
            _check_zeno_continuous,
        )
    )
    ops.append(
        Op(
            "two-level",
            _config(
                "two-level",
                {
                    "alpha": round(rng.uniform(0.1, 0.6), 6),
                    "omega_tau": round(rng.uniform(0.01, 0.1), 6),
                },
                "json",
            ),
            _check_two_level,
        )
    )
    ops.append(
        Op(
            "two-level-sweep",
            _config(
                "two-level-sweep",
                {"c": round(rng.uniform(0.5, 1.0), 6), "beta": 1.0},
                "json",
            ),
            _check_two_level_sweep,
        )
    )
    return ops


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "ensemble-wide": _ensemble_wide,
    "ensemble-long": _ensemble_long,
    "exact-vs-closed": _exact_vs_closed,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's batch, drawn from the workload seed alone."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def repeat_share(ops: list[Op]) -> float:
    """Share of identity-check calls that repeat the previous call's grid."""
    grids = [
        op.config["parameters"] for op in ops if op.config["experiment"] == "identity-check"
    ]
    repeats = sum(a == b for a, b in zip(grids, grids[1:]))
    return repeats / len(grids) if grids else 0.0


def write_inputs(ops: list[Op], workdir: Path) -> list[Path]:
    """Write each op's config file; returns their paths in batch order."""
    paths = []
    for i, op in enumerate(ops):
        path = workdir / f"{i:02d}-{op.name}.json"
        path.write_text(json.dumps(op.config, indent=2) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
