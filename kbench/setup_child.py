"""One set-up measurement in a fresh process: import the package and build
what workloads.setup() builds, then print the elapsed seconds and the speed
scale (run.SpeedProbe) measured in this process right afterwards.

Usage: python3 kbench/setup_child.py CHECKOUT_ROOT
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(sys.argv[1], "src"))

import workloads  # noqa: E402

PROBE_SAMPLES = 5

workloads.setup()
seconds = time.perf_counter() - START

from run import SpeedProbe  # noqa: E402

probe = SpeedProbe()
for _ in range(PROBE_SAMPLES):
    probe.sample()
print(seconds, probe.scale())
