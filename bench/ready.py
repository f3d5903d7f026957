"""
One cold start, timed by ``run.py`` for ``setup_s``.

    python3 bench/ready.py <workload> <seed> <workdir>

Imports the package from the checkout's ``src/``, writes the workload's
inputs into ``workdir`` and prints the monotonic clock when ready.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import kerrzeno.cli  # noqa: E402,F401  (the import is what is timed)
from workloads import make_ops, write_inputs  # noqa: E402

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    write_inputs(make_ops(workload, seed), workdir)
    print(time.monotonic(), flush=True)
