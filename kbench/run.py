"""The kleincode benchmark.

Usage, from the root of a checkout:

    python3 kbench/run.py --workload {oracle,algebra,symbolic} --seed N \
        --seconds S --trace {0,1}

With --trace 0 it runs passes of the workload's call list (see
workloads.py) in this process, on one thread, until the next pass would end
after S seconds.  Between passes, spread over those S seconds, it measures
set-up in fresh processes (setup_child.py).  Every call is checked against
its reference.  It prints a report and, as the last line, one JSON object
with the end-to-end metrics of BENCHMARK.json:

    setup_s      median set-up time in a fresh process (import, field
                 tables, klein_basis, klein_footprint, variety, bound map)
    wall_s       median time of one pass (see pass_median)
    job1_s       median time of the pass's first job
    job2_s       median time of the pass's second job
    peak_rss_mb  peak resident memory of this process

The four times are scaled to a reference machine speed (see SpeedProbe):
setup_s by probes taken in each set-up process, the others call by call by
probes taken during and around each call.  The report prints them unscaled
too, with the median scale factors.

With --trace 1 it runs set-up traced, one pass untraced and the same pass
traced (tracer.py), prints the per-layer metrics of BENCHMARK.json, and
writes the spans to .kbench_out/.  End-to-end numbers never come from a
traced run.

It exits 1 when any check failed (after printing the result), and 2 without
a result when the checkout lacks the package sources or the goldens.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from bisect import bisect_left, bisect_right  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from operator import itemgetter  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REQUIRED = ("src/kleincode/__init__.py", "tests/golden/bound.json", "tests/golden/table.json")
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
PROBE_PERIOD_S = 0.25
PROBE_STEPS = 20_000
REFERENCE_KERNEL_S = 0.010
clock = time.perf_counter
# The end-to-end metrics of BENCHMARK.json, with their units.
END_TO_END = {"setup_s": "s", "wall_s": "s", "job1_s": "s", "job2_s": "s", "peak_rss_mb": "MB"}


def percentile(samples, q: float, min_beyond: int = 10):
    """Nearest-rank q-quantile of samples and the number of samples above it.

    Raises ValueError when fewer than min_beyond samples lie beyond it, so a
    tail percentile is only reported when it rests on enough samples.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    value = xs[max(math.ceil(q * len(xs)), 1) - 1]
    beyond = sum(1 for x in xs if x > value)
    if beyond < min_beyond:
        raise ValueError(f"only {beyond} of {len(xs)} samples beyond the {q} quantile")
    return value, beyond


@dataclass
class PassRecord:
    wall: float = 0.0                            # sum of the calls' times
    calls: list = field(default_factory=list)   # (part, key, seconds, (t0, t1))


def pass_median(passes, part=None, scale=None) -> float:
    """Median time of one pass, or of one of its two jobs, taken call by call.

    Calls with the same key do the same work, in one pass or across passes,
    because every pass repeats one call list drawn from the seed.  The
    estimate is the sum over keys of (calls per pass) x (median time of the
    key's calls), so that each median filters the short slow-downs of a
    shared machine over every sample of that work.  With scale, a function
    of a call's (t0, t1), each call's time is first multiplied by it.
    """
    samples = defaultdict(list)
    for p in passes:
        for call_part, key, seconds, span in p.calls:
            if part is None or call_part == part:
                samples[key].append(seconds * (scale(span) if scale else 1.0))
    return sum(len(xs) / len(passes) * median(xs) for xs in samples.values())


class Summary:
    """Times, work and failures of every call made in one run."""

    def __init__(self):
        self.passes: list[PassRecord] = []
        self.times = defaultdict(list)
        self.work = defaultdict(float)
        self.work_time = defaultdict(float)
        self.attempted = 0
        self.failed = 0

    def record(self, kind: str, seconds: float, ok: bool, detail: str, work: dict):
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"FAILED {kind}: {detail}\n")
        self.times[kind].append(seconds)
        for key, n in work.items():
            self.work[key] += n
            self.work_time[key] += seconds

    def rate(self, key: str) -> float:
        return self.work[key] / self.work_time[key]

    def count(self, *keys) -> float:
        return sum(self.work[k] for k in keys)

    @property
    def total_wall(self) -> float:
        return sum(p.wall for p in self.passes)

    def percentile(self, kind: str, q: float):
        return percentile(self.times[kind], q)

    def pass_median(self, part=None, scale=None) -> float:
        return pass_median(self.passes, part, scale)


def probe_kernel() -> dict:
    """Integer and dictionary work in pure Python, like most of the package,
    so that its speed follows the package's.  It makes no object the garbage
    collector tracks and runs with collection off, so that its time does not
    depend on the size of the package's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        x, acc = 1, {}
        for _ in range(PROBE_STEPS):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            acc[x & 1023] = acc.get(x & 1023, 0) ^ (x >> 10)
        return acc
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Times probe_kernel, which the benchmark owns, to track the machine's
    speed.

    The shared machine the benchmark was built on changes speed by up to a
    factor of two within minutes.  Multiplying a time by REFERENCE_KERNEL_S /
    (kernel time measured alongside it) reports it at one reference speed.
    No change to the package can move the kernel's time.

    Inside running(), a timer signal takes a sample every PROBE_PERIOD_S,
    also in the middle of a long call; run_pass takes the samples' time out
    of the call's time and scales each call by the samples taken during it
    and next to it (local_scale).  Each set-up is scaled by samples its own
    process takes right after set-up (scale).
    """

    def __init__(self):
        self.samples = []   # (start, end) of each kernel run, in time order

    def sample(self) -> None:
        t0 = clock()
        probe_kernel()
        self.samples.append((t0, clock()))

    def _tick(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)  # re-armed after, never nested

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy(self, mark: int, t0: float, t1: float) -> float:
        """Kernel time within t0..t1, from the samples after the first mark."""
        return sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in self.samples[mark:])

    def scale(self) -> float:
        return REFERENCE_KERNEL_S / median(e - s for s, e in self.samples)

    def local_scale(self, span: tuple) -> float:
        """Scale for a call that ran from t0 to t1: from the samples started
        within it, the last one before it and the first one after it."""
        t0, t1 = span
        lo = bisect_left(self.samples, t0, key=itemgetter(0))
        hi = bisect_right(self.samples, t1, key=itemgetter(0))
        around = self.samples[max(lo - 1, 0):hi + 1]
        return REFERENCE_KERNEL_S * len(around) / sum(e - s for s, e in around)


def run_pass(calls, summary: Summary, tracer=None, probe=None):
    """Runs the calls once, each timed without the probe's samples."""
    rec = PassRecord()
    for call in calls:
        mark = len(probe.samples) if probe is not None else 0
        t0 = clock()
        try:
            with tracer.job(call.kind) if tracer else nullcontext():
                ok, detail, work = call.run()
        except Exception:  # a call that raises is a failed call
            ok, detail, work = False, traceback.format_exc(limit=4), {}
        t1 = clock()
        seconds = t1 - t0 - (probe.busy(mark, t0, t1) if probe is not None else 0.0)
        rec.calls.append((call.part, call.key, seconds, (t0, t1)))
        rec.wall += seconds
        summary.record(call.kind, seconds, ok, detail, work)
    summary.passes.append(rec)
    return rec


def measure_setup(root: Path) -> tuple:
    """(set-up seconds, speed scale) of one fresh process."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_child.py"), str(root)],
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    seconds, scale = proc.stdout.split()[-2:]
    return float(seconds), float(scale)


def check_setup(prog, refs, summary: Summary) -> None:
    ok = prog.delta == refs.delta
    summary.record("setup", 0.0, ok, "bound map differs from tests/golden/bound.json", {})


def parse_args(argv):
    p = argparse.ArgumentParser(description="kleincode benchmark")
    p.add_argument("--workload", required=True, choices=("oracle", "algebra", "symbolic"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def emit(summary: Summary, metrics: dict) -> int:
    print(json.dumps({"correct": summary.failed == 0, "attempted": summary.attempted,
                      "failed": summary.failed, "metrics": metrics}))
    return 0 if summary.failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        sys.stderr.write(f"error: not a kleincode checkout, missing {', '.join(missing)}\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    import kleincode
    import workloads

    if not Path(kleincode.__file__).resolve().is_relative_to((root / "src").resolve()):
        sys.stderr.write(f"error: kleincode imported from {kleincode.__file__}\n")
        return 2
    refs = workloads.load_references(root)
    workload = workloads.WORKLOADS[args.workload]()
    summary = Summary()
    if args.trace:
        return traced_run(args, root, workloads, refs, workload, summary)

    prog = workloads.setup()
    check_setup(prog, refs, summary)
    workload.prepare(prog, refs)
    calls = workload.calls(args.seed)  # inputs are made before the clock starts
    probe = SpeedProbe()
    setups = []
    t0 = clock()
    while True:
        while len(setups) < SETUP_REPEATS * (clock() - t0) / args.seconds:
            setups.append(measure_setup(root))
        with probe.running():
            run_pass(calls, summary, probe=probe)
        if clock() - t0 + median(p.wall for p in summary.passes) > args.seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(root))
    jobs = {"wall_s": None, "job1_s": 1, "job2_s": 2}
    raw = {"setup_s": median(seconds for seconds, _ in setups)}
    raw |= {name: summary.pass_median(part) for name, part in jobs.items()}
    values = {"setup_s": median(seconds * scale for seconds, scale in setups)}
    values |= {name: summary.pass_median(part, probe.local_scale)
               for name, part in jobs.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    report = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    report.append(("speed_scale", probe.scale(), "1"))
    report.append(("set-up speed_scale", median(scale for _, scale in setups), "1"))
    report += [(f"unscaled {name}", seconds, "s") for name, seconds in raw.items()]
    report.append(("fail_ratio", summary.failed / summary.attempted, "1"))
    report += workload.report(summary)
    print(f"workload {args.workload}, seed {args.seed}: {len(summary.passes)} passes "
          f"({', '.join(f'{p.wall:.3f}' for p in summary.passes)} s), "
          f"{summary.attempted} calls, {len(setups)} set-ups, "
          f"{len(probe.samples)} speed samples")
    for name, value, unit in report:
        print(f"  {name} = {value:.6g} {unit}")
    return emit(summary, metrics)


def traced_run(args, root, workloads, refs, workload, summary) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.job("setup"):
            prog = workloads.setup()
    finally:
        tracer.uninstall()
    check_setup(prog, refs, summary)
    workload.prepare(prog, refs)
    calls = workload.calls(args.seed)
    plain = run_pass(calls, summary)
    tracer.install()
    try:
        traced = run_pass(calls, summary, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced.wall / plain.wall - 1)
    out = root / ".kbench_out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"spans-{args.workload}-{args.seed}.npz")
    print(f"workload {args.workload}, seed {args.seed}: traced set-up and one pass "
          f"({len(tracer.start)} spans, untraced pass {plain.wall:.3f} s, "
          f"traced {traced.wall:.3f} s)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return emit(summary, metrics)


if __name__ == "__main__":
    sys.exit(main())
