"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest kbench -q
"""

import json
import signal
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from kleincode import casebound, cli, codes, gf, groebner, klein, params  # noqa: E402
from kleincode.poly import Polynomial  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return workloads.setup()


def test_percentile_rule():
    samples = list(range(1, 101))
    assert run.percentile(samples, 0.5) == (50, 50)
    assert run.percentile(samples, 0.9) == (90, 10)
    with pytest.raises(ValueError):
        run.percentile(samples[:99], 0.9)   # 99 samples: only 9 beyond p90
    with pytest.raises(ValueError):
        run.percentile([], 0.5)


def test_pass_median_sums_per_key_medians():
    # two passes of keys a, a, b; pass 2 ran slow on one a and on b
    passes = [run.PassRecord(calls=[(1, "a", 1.0, 1), (1, "a", 1.0, 1), (2, "b", 5.0, 2)]),
              run.PassRecord(calls=[(1, "a", 1.0, 3), (1, "a", 9.0, 3), (2, "b", 7.0, 4)])]
    assert run.pass_median(passes, 1) == 2 * 1.0
    assert run.pass_median(passes, 2) == 6.0
    assert run.pass_median(passes) == 8.0
    assert run.pass_median(passes, 2, scale=lambda mark: 10.0 / mark) == (25.0 + 17.5) / 2


def test_local_scale_uses_the_samples_around_a_call():
    probe = run.SpeedProbe()
    probe.samples = [(0.0, 0.01), (1.0, 1.02), (2.0, 2.04)]
    ref = run.REFERENCE_KERNEL_S
    assert probe.local_scale((-1.0, -0.5)) == pytest.approx(ref / 0.01)
    assert probe.local_scale((0.5, 0.6)) == pytest.approx(ref / 0.015)
    assert probe.local_scale((1.5, 2.5)) == pytest.approx(ref / 0.03)
    assert probe.local_scale((3.0, 4.0)) == pytest.approx(ref / 0.04)
    assert probe.busy(0, 0.005, 1.01) == pytest.approx(0.015)
    assert probe.busy(1, 0.005, 1.01) == pytest.approx(0.01)


def test_probe_samples_inside_a_long_call_and_its_time_is_taken_out():
    probe = run.SpeedProbe()
    summary = run.Summary()

    def spin():
        end = run.clock() + 4 * run.PROBE_PERIOD_S
        while run.clock() < end:
            pass
        return True, "", {}

    with probe.running():
        rec = run.run_pass([workloads.Call(1, "spin", spin)], summary, probe=probe)
    _, _, seconds, (t0, t1) = rec.calls[0]
    inside = [s for s, _ in probe.samples if t0 <= s <= t1]
    assert len(inside) >= 2
    assert seconds == pytest.approx(t1 - t0 - probe.busy(0, t0, t1))
    assert seconds < t1 - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_times_of_nested_spans():
    # job 0..10 holds a 1..4 and b 5..9; b holds c 6..8; d 12..13 is a root.
    names = ["job", "a", "b", "c", "d"]
    name_of = np.array([0, 1, 2, 3, 4])
    parent = np.array([-1, 0, 0, 2, -1])
    start = np.array([0.0, 1.0, 5.0, 6.0, 12.0])
    end = np.array([10.0, 4.0, 9.0, 8.0, 13.0])
    calls, self_s = tracer.self_times(name_of, parent, end - start, len(names))
    assert calls.tolist() == [1, 1, 1, 1, 1]
    assert self_s.tolist() == [3.0, 3.0, 2.0, 2.0, 1.0]


def _bindings():
    mods = [casebound, cli, codes, groebner, klein, params]
    return {(m.__name__, a): v for m in mods for a, v in vars(m).items() if callable(v)}, \
        {a: v for a, v in vars(params.ConstraintStore).items()}


def test_wrappers_restore_originals():
    before_mods, before_cls = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        # names bound with `from .x import y` are wrapped too
        assert codes.buchberger is not before_mods[("kleincode.codes", "buchberger")]
        assert casebound.buchberger is groebner.buchberger
        assert cli.coset_min_weight is codes.coset_min_weight
        assert cli.coset_min_weight.__wrapped__ is before_mods[("kleincode.cli", "coset_min_weight")]
        assert params.ConstraintStore.reduce is not before_cls["reduce"]
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.uninstall()
    after_mods, after_cls = _bindings()
    assert all(after_mods[k] is v for k, v in before_mods.items())
    assert all(after_cls[k] is v for k, v in before_cls.items())


def test_traced_calls_nest_under_their_job(prog):
    F = Polynomial(prog.dom, 2, {(0, 1): 1, (0, 0): 1})
    t = tracer.Tracer()
    t.install()
    try:
        with t.job("identity"):
            codes.weight_via_footprint(F, prog.gb)
    finally:
        t.uninstall()
    totals = t.layer_totals()
    assert totals["job.identity"][0] == 1
    assert totals["codes.weight_via_footprint"][0] == 1
    assert totals["groebner.buchberger"][0] == 1
    assert totals["groebner.footprint"][0] == 2
    _, parent, _, _ = t.span_arrays()
    assert parent.tolist() == [-1, 0, 1, 1, 1]


def test_counts_accumulate_over_installs():
    spec = gf.gf8()
    t = tracer.Tracer()
    for _ in range(2):
        t.install()
        try:
            spec.mul(3, 5)
            spec.mul(2, 7)
        finally:
            t.uninstall()
    assert t.counts["gf.FieldSpec.mul"] == 4
    assert t.metrics(0.0)["gf.FieldSpec.mul.calls"]["value"] == 4


def test_call_list_repeats_the_seeds_work(prog):
    refs = workloads.load_references(ROOT)
    algebra = workloads.Algebra()
    algebra.prepare(prog, refs)
    first, again, other = (algebra.calls(s) for s in (7, 7, 8))
    identity = [c for c in first if c.kind == "identity"]
    assert len({c.key for c in identity}) == len(identity) == workloads.ALGEBRA_IDENTITY_CHECKS
    assert [c.key for c in first] == [c.key for c in again]
    assert [c.run.args for c in first] == [c.run.args for c in again]
    assert [c.run.args for c in first] != [c.run.args for c in other]


def test_planted_wrong_reference_is_a_failure(prog):
    M = (0, 1)
    support = [m for m in prog.fp.descending() if prog.order.compare(m, M) < 0]
    summary = run.Summary()
    right = partial(workloads._coset, prog, M, support, "exhaustive", 18)
    wrong = partial(workloads._coset, prog, M, support, "exhaustive", 17)
    run.run_pass([workloads.Call(1, "planted", right)], summary)
    assert (summary.attempted, summary.failed) == (1, 0)
    run.run_pass([workloads.Call(1, "planted", wrong)], summary)
    assert (summary.attempted, summary.failed) == (2, 1)

    def raises():
        raise ValueError("boom")

    run.run_pass([workloads.Call(1, "planted", raises)], summary)
    assert (summary.attempted, summary.failed) == (3, 2)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
