"""
kerrzeno benchmark: one workload's fixed batch of CLI operations.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The batch runs in-process through ``kerrzeno.cli.main``, in a closed loop,
one operation at a time, in one process pinned to one CPU and one
BLAS/OpenMP thread (the settings are exported before numpy loads, and
every child inherits them).  A first pass is the warm-up and the
reference: every later pass must reproduce its output bytes
(``wall_time_s`` excluded), and every pass must exit 0 and hold the
experiment's cross-check.  ``observed.run_ensemble`` is wrapped for the
whole run, so every ``trajectories`` op also has all its final points
checked against the closed form and compared with the first pass.
Before each pass, outside the timed region, every ``lru_cache`` in the
kerrzeno modules is cleared, so each pass starts from a fresh process's
cache state.

The host's speed drifts by tens of percent within seconds, for every
process alike (CPU time tracks wall time).  So each operation and each
cold start is timed between two runs of ``ReferenceKernel``, a fixed
mix of interpreter, numpy, BLAS and memory work that runs no kerrzeno
code and allocates nothing while timed, and its time is scaled by
REFERENCE_S over their mean: times are seconds at the host speed where
that kernel takes REFERENCE_S.  A change to kerrzeno moves them as it
moves wall time; host drift mostly cancels.  The measured seconds are
kept in the metadata.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median time of one pass at reference speed, over the passes
  after the first that fit in ``--seconds`` (at least three);
* ``setup_s``: median over five cold starts, at reference speed, of a
  fresh interpreter that imports ``kerrzeno`` and writes the workload's
  inputs (one more cold start before them fills the bytecode and page
  caches);
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` instead alternates traced and untraced passes and reports,
per wrapped function (see ``layertrace.py``), calls and self seconds per
pass (measured, not scaled), plus layer counters, ``trace.overhead_s``
(median over pairs of a traced pass minus the untraced pass after it, at
reference speed) and ``trace.inner_self_share``: the self times of the
listed functions other than the catch-all spans ``cli.main`` and
``experiments.run_experiment``, over the traced pass time.  The rest of
the pass is code no listed function covers.

Each metric is printed with its unit and sample count, then run metadata,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outputs, spans and the result go under
``bench/out/``.
"""

import os

THREAD_SETTINGS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "KERRZENO_THREADS": "1",
}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Reference-kernel time at the host speed wall_s is scaled to (its median
# on a 2-core x86-64 VM with Python 3.11, numpy 2.4, one OpenBLAS thread).
REFERENCE_S = 0.032
COLD_STARTS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Spans whose self time is all code under them that no listed function covers.
CATCH_ALL_SPANS = ("cli.main", "experiments.run_experiment")
COLD_START_TIMEOUT_S = 120
_WALL_TIME_LINE = re.compile(rb'\n *"wall_time_s": [^\n]*')


class Batch:
    """A workload's operations with their inputs, outputs and reference."""

    def __init__(self, ops, config_paths, workdir: Path, kernel) -> None:
        self.ops = ops
        self.kernel = kernel
        self.finals = FinalsProbe()
        self.config_paths = config_paths
        self.out_paths = [
            workdir / f"{p.stem}.out.{op.output_format}"
            for op, p in zip(ops, config_paths)
        ]
        self.reference: list[tuple | None] = [None] * len(ops)
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, cli, tracer=None) -> tuple[float, float, int]:
        """Run every op once, with ``tracer`` installed around the ops.

        Returns the seconds spent in the ops, the same at reference host
        speed (each op scaled by REFERENCE_S over the mean of the reference
        kernel timed just before and just after it), and the output bytes.
        """
        clear_caches()
        gc.collect()
        spent = scaled = 0.0
        codes = []
        ref = self.kernel()
        if tracer is not None:
            tracer.install()
        try:
            for cfg, out in zip(self.config_paths, self.out_paths):
                out.unlink(missing_ok=True)
                self.finals.calls.clear()
                stderr = io.StringIO()
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stderr(stderr):
                        code = cli.main(["run", str(cfg), "--output", str(out)])
                except (Exception, SystemExit) as exc:  # a traceback is a failed op
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                ref_after = self.kernel()
                spent += elapsed
                scaled += elapsed * REFERENCE_S * 2.0 / (ref + ref_after)
                ref = ref_after
                codes.append((code, stderr.getvalue(), list(self.finals.calls)))
        finally:
            if tracer is not None:
                tracer.uninstall()
        return spent, scaled, self._check(codes)

    def _check(self, codes) -> int:
        from workloads import check_ensemble_finals

        total_bytes = 0
        for i, (op, out, (code, err, ensembles)) in enumerate(
            zip(self.ops, self.out_paths, codes)
        ):
            self.attempted += 1
            problem = None
            if code != 0:
                problem = f"exit {code}: {err.strip()}"
            else:
                data = out.read_bytes()
                total_bytes += len(data)
                rows, summary = _parse(data, op.output_format)
                problem = op.check(rows, summary)
                if op.config["experiment"] == "trajectories":
                    if len(ensembles) != 1:
                        problem = problem or f"{len(ensembles)} run_ensemble calls, expected 1"
                    else:
                        problem = problem or check_ensemble_finals(*ensembles[0])
                digests = [hashlib.sha256(f.tobytes()).hexdigest() for _, f in ensembles]
                stable = (_WALL_TIME_LINE.sub(b"", data), digests)
                if self.reference[i] is None:
                    self.reference[i] = stable
                elif problem is None and stable != self.reference[i]:
                    problem = "output or ensemble finals differ from the first pass"
            if problem is not None:
                self.failures.append(f"{op.name}: {problem}")
        return total_bytes


class FinalsProbe:
    """Keeps the config and final points of each ``observed.run_ensemble``
    call, for checks made after the op, outside its timed region."""

    def __init__(self) -> None:
        self.calls: list[tuple[object, object]] = []

    def install(self) -> None:
        from kerrzeno import observed
        from layertrace import replace_everywhere

        original, calls = observed.run_ensemble, self.calls

        @functools.wraps(original)
        def run_ensemble(cfg, *args, **kwargs):
            result = original(cfg, *args, **kwargs)
            calls.append((cfg, result))
            return result

        replace_everywhere(original, run_ensemble)


def clear_caches() -> None:
    """Clear every ``functools.lru_cache`` bound in a kerrzeno module."""
    for key, module in list(sys.modules.items()):
        if module is not None and (key == "kerrzeno" or key.startswith("kerrzeno.")):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _parse(data: bytes, fmt: str):
    if fmt == "json":
        envelope = json.loads(data)
        return envelope["rows"], envelope.get("summary")
    lines = data.decode("utf-8").split("\r\n")[1:]
    return [[float(x) for x in line.split(",")] for line in lines if line], None


def cold_starts(
    workload: str, seed: int, workdir: Path, kernel
) -> tuple[list[float], list[float]]:
    """Seconds from process launch to ready, one warm-up then COLD_STARTS.

    Returns the measured seconds and the same at reference host speed,
    scaled like the ops in ``Batch.run_pass``.
    """
    workdir.mkdir()
    cmd = [sys.executable, str(HERE / "ready.py"), workload, str(seed), str(workdir)]
    raw, scaled = [], []
    ref = kernel()
    for _ in range(COLD_STARTS + 1):
        start = time.monotonic()
        done = subprocess.run(
            cmd, capture_output=True, text=True, check=True, timeout=COLD_START_TIMEOUT_S
        )
        elapsed = float(done.stdout.split()[-1]) - start
        ref_after = kernel()
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_S * 2.0 / (ref + ref_after))
        ref = ref_after
    return raw[1:], scaled[1:]


class ReferenceKernel:
    """Times a fixed mix of interpreter, numpy-dispatch, BLAS and
    memory-bound work that runs no kerrzeno code; it tracks host speed.

    Every array is allocated and touched once, here, so the kernel adds a
    constant to the resident set and allocates nothing while timed.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.eye = np.eye(2)
        self.small = [np.empty((2, 2)), np.empty((2, 2))]
        self.dense0 = np.linspace(0.0, 1.0, 300 * 300).reshape(300, 300)
        self.dense = [np.empty((300, 300)), np.empty((300, 300)), np.empty((300, 300))]
        self.data = np.sin(np.arange(1_000_000, dtype=float) * 12.9898)
        self.sort_buffer = self.data.copy()
        self()

    def __call__(self) -> float:
        np = self.np
        small, other = self.small
        np.copyto(small, self.eye)
        small *= 0.5
        dense, other_dense, magnitude = self.dense
        np.copyto(dense, self.dense0)
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        for _ in range(2000):
            np.matmul(small, small, out=other)
            other += self.eye
            other /= np.trace(other)
            small, other = other, small
        for _ in range(6):
            np.matmul(dense, dense, out=other_dense)
            np.abs(other_dense, out=magnitude)
            other_dense /= magnitude.max()
            dense, other_dense = other_dense, dense
        np.copyto(self.sort_buffer, self.data)
        self.sort_buffer.sort()
        return time.perf_counter() - start


def _fits(start: float, step_s: float, seconds: float) -> bool:
    """Whether one more step of about ``step_s`` ends within ``seconds``."""
    return time.perf_counter() - start + step_s <= seconds


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(traced: list[dict], untraced_at_reference: list[float]) -> dict:
    """Per-layer metrics from per-pass trace records; see the module doc."""
    from layertrace import TARGETS

    metrics = {}

    def put(name, values, unit):
        metrics[name] = (_median(values), unit, len(values))

    for module, func in TARGETS:
        name = f"{module}.{func}"
        put(f"{name}.calls", [p["layers"][name]["calls"] for p in traced], "count")
        put(f"{name}.self_s", [p["layers"][name]["self_s"] for p in traced], "s")
    counters = (
        ("observed.run_ensemble.trajectories", "count"),
        ("observed.run_ensemble.trajectory_steps", "count"),
        ("fock.displacement_matrix.dim_max", "count"),
        ("experiments.rows", "count"),
    )
    for name, unit in counters:
        put(name, [p["counters"].get(name, 0) for p in traced], unit)
    for name, per, scale, unit in (
        ("us_per_trajectory", "trajectories", 1e6, "us"),
        ("ns_per_trajectory_step", "trajectory_steps", 1e9, "ns"),
    ):
        put(
            f"observed.run_ensemble.{name}",
            [
                scale * p["layers"]["observed.run_ensemble"]["total_s"]
                / p["counters"][f"observed.run_ensemble.{per}"]
                if p["counters"].get(f"observed.run_ensemble.{per}")
                else 0.0
                for p in traced
            ],
            unit,
        )
    put("cli.output_bytes", [p["output_bytes"] for p in traced], "bytes")
    put(
        "trace.overhead_s",
        [p["at_reference_s"] - u for p, u in zip(traced, untraced_at_reference)],
        "s",
    )
    put(
        "trace.inner_self_share",
        [
            sum(v["self_s"] for k, v in p["layers"].items() if k not in CATCH_ALL_SPANS)
            / p["seconds"]
            for p in traced
        ],
        "ratio",
    )
    return metrics


def metadata(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "os_threads": len(os.listdir("/proc/self/task")),
        "thread_settings": THREAD_SETTINGS,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for this process and its children, so the reference kernel
    # sees the same core as the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "kerrzeno" / "__init__.py").is_file():
        print(f"error: no kerrzeno sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, make_ops, repeat_share, write_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    kernel = ReferenceKernel()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{tag}-") as tmp:
        workdir = Path(tmp)
        setup_raw, setup = (
            ([], [])
            if args.trace
            else cold_starts(args.workload, args.seed, workdir / "cold", kernel)
        )

        from kerrzeno import cli

        ops = make_ops(args.workload, args.seed)
        batch = Batch(ops, write_inputs(ops, workdir), workdir, kernel)
        batch.finals.install()
        first_s = batch.run_pass(cli)[0]

        raw, scaled, traced = [], [], []
        start = time.perf_counter()
        if not args.trace:
            while len(raw) < MIN_PASSES or _fits(start, raw[-1], args.seconds):
                seconds, at_reference, _ = batch.run_pass(cli)
                raw.append(seconds)
                scaled.append(at_reference)
        else:
            from layertrace import Tracer

            spans = []
            while len(traced) < MIN_TRACED_PASSES or _fits(
                start, traced[-1]["seconds"] + raw[-1], args.seconds
            ):
                tracer = Tracer()
                seconds, at_reference, output_bytes = batch.run_pass(cli, tracer)
                traced.append(
                    {
                        "seconds": seconds,
                        "at_reference_s": at_reference,
                        "output_bytes": output_bytes,
                        "layers": tracer.layer_times(),
                        "counters": dict(tracer.counters),
                    }
                )
                spans.append(tracer.spans)
                seconds, at_reference, _ = batch.run_pass(cli)
                raw.append(seconds)
                scaled.append(at_reference)

    if args.trace:
        metrics = layer_metrics(traced, scaled)
        (OUT / f"spans-{tag}.json").write_text(
            json.dumps({"columns": ["id", "parent", "name", "start_s", "end_s"],
                        "passes": spans}),
            encoding="utf-8",
        )
    else:
        metrics = {
            "wall_s": (_median(scaled), "s", len(scaled)),
            "setup_s": (_median(setup), "s", len(setup)),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
            ),
        }

    meta = metadata(args.workload, args.seed)
    meta["first_pass_s"] = first_s
    meta["pass_s"] = raw
    meta["pass_at_reference_s"] = scaled
    meta["setup_samples_s"] = setup_raw
    meta["setup_at_reference_s"] = setup
    meta["identity_repeat_share"] = repeat_share(ops)
    for failure in batch.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit:6s} samples={samples}")
    print("meta " + json.dumps(meta))
    result = {
        "correct": not batch.failures,
        "attempted": batch.attempted,
        "failed": len(batch.failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
        },
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({**result, "meta": meta, "failures": batch.failures}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
