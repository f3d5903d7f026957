"""
Interleaved runs of the benchmark on two checkouts (or one, twice).

    python3 bench/compare.py A_DIR B_DIR [--runs 10] [--seed 1]

Pair i runs every workload in BENCHMARK.json, for its ``run_seconds``,
with seed ``--seed + i`` on both sides, one run after the other,
alternating which side goes first, so host drift falls on both sides
alike.  Per workload and end-to-end metric it prints each
side's median, quartiles and spread (quartile distance over median), and
B's median against A's as a share, next to the bound in BENCHMARK.json.
Every run's result line is appended to ``bench/out/compare.jsonl``.
Pass the same directory twice to check that the benchmark is steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{checkout} {workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, quartiles, and the quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {(side, w): [] for side in "ab" for w in workloads}
    log = HERE / "out" / "compare.jsonl"
    log.parent.mkdir(exist_ok=True)
    for i in range(args.runs):
        seed = args.seed + i
        for w in workloads:
            order = (("a", args.a), ("b", args.b))
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                out = run_once(checkout.resolve(), w, seed, spec["run_seconds"])
                results[side, w].append(out)
                with log.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"side": side, "workload": w, "seed": seed, **out}) + "\n")
                values = " ".join(
                    f"{k}={v['value']:.4f}" for k, v in out["metrics"].items()
                )
                print(f"run {i} {side} {w:16s} failed={out['failed']}/{out['attempted']} "
                      f"{values}", flush=True)

    print(f"\n{'workload':16s} {'metric':12s} {'side':4s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'b/a-1':>7s} {'bound':>6s}")
    for w in workloads:
        for name, bound in bounds.items():
            medians = {}
            for side in "ab":
                values = [o["metrics"][name]["value"] for o in results[side, w]]
                med, q1, q3, rel = spread(values)
                medians[side] = med
                shift = "" if side == "a" else f"{medians['b'] / medians['a'] - 1:+7.3f}"
                print(f"{w:16s} {name:12s} {side:4s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                      f"{rel:7.3f} {shift:>7s} {bound:6.2f}")
    failed = sum(o["failed"] for outs in results.values() for o in outs)
    print(f"\nfailed ops: {failed}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
