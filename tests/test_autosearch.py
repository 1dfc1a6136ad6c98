import pytest

from kleincode.autosearch import SearchBudget, auto_search
from kleincode.casebound import Branch, UnjustifiedClaim, verify_trace


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
