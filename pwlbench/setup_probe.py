"""Set-up probe: one fresh interpreter does the benchmark's set-up and exits.

    python3 pwlbench/setup_probe.py WORKLOAD SEED WORKDIR

It prints time.monotonic() when set-up is done; run.py subtracts the moment
it spawned the process, so the figure covers interpreter start, the package
import, input generation and the input files.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (imports pwlannulus: part of what is timed)

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.setup(name, seed, workdir)
    print(time.monotonic())
