import json
from pathlib import Path

import pytest

from kleincode import autosearch
from kleincode.autosearch import SearchBudget, auto_search
from kleincode.casebound import Branch, TraceError, UnjustifiedClaim, verify_trace
from kleincode.klein import CLASS_MINIMUM, klein_footprint, parse_monomial
from kleincode.poly import format_monomial

GOLDEN_DELTA = json.loads((Path(__file__).parent / "golden" / "bound.json")
                          .read_text())["delta_map"]


def test_depth_zero_is_baseline(fp):
    rep = auto_search((0, 1), SearchBudget(max_depth=0))
    assert rep.bound == rep.baseline == 14


def test_corner_class_trivial():
    rep = auto_search((6, 2), SearchBudget(max_depth=1, max_work=2000))
    assert rep.baseline == 1
    assert rep.bound == 1


def test_rediscovers_y_bound():
    rep = auto_search((0, 1), SearchBudget(max_depth=2, max_work=20_000))
    assert rep.bound == 18
    assert rep.baseline == 14
    assert all(leaf.count >= 18 for leaf in rep.leaves)


def test_deterministic():
    b = SearchBudget(max_depth=2, max_work=10_000)
    r1 = auto_search((1, 1), b)
    r2 = auto_search((1, 1), b)
    assert r1.bound == r2.bound
    assert list(r1.leaf_rows()) == list(r2.leaf_rows())
    assert r1.bound >= r1.baseline == 12


def test_searches_reproduce_the_recorded_reports():
    """Every class's search at max_work=2000 gives the bound, baseline, leaf
    rows and step tree recorded in tests/data: a change to the arithmetic the
    search explores with must not change what it finds."""
    recorded = json.loads((Path(__file__).parent / "data" / "auto_search_w2000.json")
                          .read_text())
    budget = SearchBudget(max_work=recorded["max_work"])
    assert len(recorded["classes"]) == 22
    for M in klein_footprint():
        rep = auto_search(M, budget)
        assert {"bound": rep.bound, "baseline": rep.baseline,
                "leaves": list(rep.leaf_rows()), "steps": repr(rep.steps)} \
            == recorded["classes"][format_monomial(M)], format_monomial(M)


def _first_branch_to_nonzero(steps):
    """The tree with its first Branch replaced by its nonzero block alone."""
    for i, step in enumerate(steps):
        if isinstance(step, Branch):
            return steps[:i] + step.nonzero
    raise AssertionError("no branch in the search's steps")


def test_report_is_verified_replay():
    rep = auto_search((0, 1), SearchBudget(max_depth=2, max_work=20_000))
    replay = verify_trace((0, 1), rep.steps)
    assert replay.bound == rep.bound == 18
    assert [leaf.constraints.summary() for leaf in replay.leaves] == \
        [leaf.constraints.summary() for leaf in rep.leaves]
    # without the case split the nonzero side's claims are not justified
    with pytest.raises(UnjustifiedClaim):
        verify_trace((0, 1), _first_branch_to_nonzero(rep.steps))


def test_ceiling_bounds_every_golden_delta():
    """The search's ceiling, the least weight in each class coset, is the
    proved bound of every class: the traces and the witness words of
    tests/data/class_witnesses.json (test_klein) meet."""
    assert len(GOLDEN_DELTA) == len(CLASS_MINIMUM) == 22
    for name, delta in GOLDEN_DELTA.items():
        assert CLASS_MINIMUM[parse_monomial(name)] == delta, name


def _count_reductions(monkeypatch):
    calls = [0]
    divide = autosearch.divide

    def counting(*args, **kwargs):
        calls[0] += 1
        return divide(*args, **kwargs)

    monkeypatch.setattr(autosearch, "divide", counting)
    return calls


def test_cutoff_stops_at_the_ceiling(monkeypatch):
    calls = _count_reductions(monkeypatch)
    rep = auto_search((0, 1))
    assert rep.bound == 18 and calls[0] <= 100
    calls[0] = 0
    rep = auto_search((6, 2))
    assert rep.bound == rep.baseline == 1 and calls[0] == 0


def test_bound_above_the_ceiling_raises(monkeypatch):
    monkeypatch.setitem(CLASS_MINIMUM, (0, 1), 17)
    with pytest.raises(TraceError):
        auto_search((0, 1))
