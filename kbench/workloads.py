"""Set-up, references and job lists of the three benchmark workloads.

Each workload is a closed loop with one caller: run.py runs one pass of the
workload's call list after another, and each call starts only after the
previous one has returned.  A pass holds two jobs, part 1 and part 2, that
stress different layers; run.py reports their times as job1_s and job2_s.
Every call checks its own output against a reference that does not come
from the code under test, and returns (ok, detail, work), where work counts
what the call did (codewords weighed, checks made, ...).

Inputs come only from the workload seed: a workload draws its sub-seeds and
random polynomials once, from random.Random keyed by workload and seed, and
every pass repeats that call list.  So a call's key names the same work in
every pass, which run.py's per-key medians rely on.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

from kleincode import autosearch, casebound, cli, codes, gf, klein, verify
from kleincode.poly import Polynomial

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Call:
    part: int                  # 1 or 2: the job of the pass it belongs to
    kind: str                  # what it is, for the report and the trace
    run: Callable[[], tuple]   # () -> (ok, detail, work)
    key: str = ""              # calls with one key do the same work; default kind

    def __post_init__(self):
        self.key = self.key or self.kind


# ---------------------------------------------------------------------------
# set-up and references

@dataclass
class Program:
    """The state every workload builds before its first pass."""
    spec: object
    order: object
    dom: object
    gb: object
    fp: object
    variety: object
    delta: dict


def setup() -> Program:
    """Field tables, klein_basis, klein_footprint, the variety and the bound
    map; setup_s times this, together with the package import, in a fresh
    process."""
    spec = gf.gf8()
    spec.mul_table()
    gb = klein.klein_basis()
    fp = klein.klein_footprint()
    variety = codes.enumerate_variety(list(klein.ideal_generators()), spec, 2)
    delta = casebound.full_bound_map()
    return Program(spec, klein.klein_order(), klein.klein_domain(), gb, fp,
                   variety, delta)


def monomial(text: str) -> tuple:
    """'X^2*Y' -> (2, 1) and '1' -> (0, 0), parsed here rather than by the
    package, so that references do not depend on the code under test."""
    exps = [0, 0]
    if text != "1":
        for factor in text.split("*"):
            var, _, e = factor.partition("^")
            exps["XY".index(var)] += int(e or 1)
    return tuple(exps)


@dataclass
class References:
    bound_json: str
    table_json: str
    delta: dict          # golden bound map
    baselines: dict      # golden divisibility baselines of the traced classes
    rows: list           # golden table rows as (k, s, d)
    live_leaves: int     # golden count of non-vacuous leaves
    coset_minima: dict
    exact_distance: dict
    auto_bound: dict


def load_references(root: Path) -> References:
    golden = root / "tests" / "golden"
    bound_json = (golden / "bound.json").read_text()
    table_json = (golden / "table.json").read_text()
    bound = json.loads(bound_json)
    fixed = json.loads((BENCH_DIR / "references.json").read_text())
    return References(
        bound_json=bound_json,
        table_json=table_json,
        delta={monomial(m): d for m, d in bound["delta_map"].items()},
        baselines={monomial(c["monomial"]): c["baseline"] for c in bound["classes"]},
        rows=[(r["k"], r["s"], r["d"]) for r in json.loads(table_json)["rows"]],
        live_leaves=sum(1 for c in bound["classes"] for leaf in c["leaves"]
                        if not leaf["vacuous"]),
        coset_minima={monomial(m): w for m, w in fixed["coset_minima"].items()},
        exact_distance={int(k): d for k, d in fixed["exact_distance_by_k"].items()},
        auto_bound={monomial(m): b for m, b in fixed["auto_search_bound"].items()},
    )


def seed_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _support(prog: Program, M: tuple) -> list:
    return [m for m in prog.fp.descending() if prog.order.compare(m, M) < 0]


# ---------------------------------------------------------------------------
# oracle: codeword scans in codes and verify

ORACLE_COSETS = (("Y", "exhaustive"), ("Y^2", "exhaustive"), ("X*Y", "exhaustive"),
                 ("X^2*Y", "exhaustive"), ("X*Y^2", "gray"))
ORACLE_EXACT_MAX_K = 8
ORACLE_SAMPLED_MIN_K = 10
ORACLE_SAMPLE_COUNT = 100_000
# verify's quick suites draw a fixed number of codewords; their detail
# strings pin that number, so a change that draws fewer fails the check.
SUITE_QUICK = {"suite_bound_soundness": ("2000 samples x 22 classes", 2000 * 22),
               "suite_x7_claim": ("100000 samples", 100_000)}


def _coset(prog, M, support, mode, expected):
    w, exact = codes.coset_min_weight(M, support, prog.variety, mode,
                                      order=prog.order, fp=prog.fp)
    return (exact and w == expected, f"coset {M} min weight {w}, expected {expected}",
            {"exact_words": prog.spec.q ** len(support)})


def _exact_distance(code, q, expected, proved):
    d, exact = codes.min_distance(code, "exhaustive")
    return (exact and d == expected and d >= proved,
            f"k={code.k}: d={d}, expected {expected}, proved {proved}",
            {"exact_words": q ** code.k - 1})


def _sampled_distance(code, seed, proved):
    w, exact = codes.min_distance(code, "sample", seed=seed, count=ORACLE_SAMPLE_COUNT)
    return (not exact and proved <= w <= code.n,
            f"k={code.k}: sampled weight {w}, proved {proved}",
            {"sampled_words": ORACLE_SAMPLE_COUNT})


def _suite(name, seed):
    ok, detail = getattr(verify, name)(seed, True)
    expected, words = SUITE_QUICK[name]
    return ok and detail == expected, f"{name}: {ok} {detail}", {"sampled_words": words}


class Oracle:
    """Ordered enumeration (part 1) and seeded random sampling (part 2)."""

    def prepare(self, prog: Program, refs: References):
        self.prog, self.refs = prog, refs
        self.codes = {k: codes.code_for_threshold(refs.delta, s, prog.fp, prog.variety)
                      for k, s, _ in refs.rows}

    def calls(self, seed: int) -> list:
        prog, refs = self.prog, self.refs
        rng = seed_rng("oracle", seed)
        out = []
        for name, mode in ORACLE_COSETS:
            M = monomial(name)
            out.append(Call(1, "coset", partial(_coset, prog, M, _support(prog, M), mode,
                                                refs.coset_minima[M]), f"coset {name}"))
        for k, _, d in refs.rows:
            if k <= ORACLE_EXACT_MAX_K:
                out.append(Call(1, "exact_distance", partial(
                    _exact_distance, self.codes[k], prog.spec.q, refs.exact_distance[k], d),
                    f"exact_distance k={k}"))
        for name in SUITE_QUICK:
            out.append(Call(2, name, partial(_suite, name, rng.getrandbits(32))))
        for k, _, d in refs.rows:
            if k >= ORACLE_SAMPLED_MIN_K:
                out.append(Call(2, "sampled_distance", partial(
                    _sampled_distance, self.codes[k], rng.getrandbits(32), d),
                    f"sampled_distance k={k}"))
        return out

    def report(self, summary) -> list:
        return [
            ("exact_words_per_s", summary.rate("exact_words"), "words/s"),
            ("sampled_words_per_s", summary.rate("sampled_words"), "words/s"),
        ]


# ---------------------------------------------------------------------------
# algebra: Groebner bases over concrete GF(8) coefficients

ALGEBRA_IDENTITY_CHECKS = 100
ALGEBRA_LEAF_SAMPLES = 4


def _identity(prog, F):
    w_groebner = codes.weight_via_footprint(F, prog.gb)
    w_eval = int(np.count_nonzero(codes.evaluation_vector(F, prog.variety)))
    return (w_groebner == w_eval, f"weight identity {w_groebner} vs {w_eval}",
            {"checks": 1})


def _leaf(M, leaf, seed):
    out = casebound.instantiate_and_check(M, leaf, ALGEBRA_LEAF_SAMPLES, seed)
    return (out["samples"] == ALGEBRA_LEAF_SAMPLES, f"{out['leaf']}: {out['samples']} samples",
            {"assignments": out["samples"]})


class Algebra:
    """Weight identity on dense random codewords (part 1) and instantiation
    of every non-vacuous trace leaf on sparser, constrained ones (part 2)."""

    def prepare(self, prog: Program, refs: References):
        self.prog = prog
        self.leaves = [(M, leaf) for M, rep in sorted(casebound.verify_all_traces().items())
                       for leaf in rep.leaves if not leaf.vacuous]
        if len(self.leaves) != refs.live_leaves:
            raise RuntimeError(f"{len(self.leaves)} non-vacuous leaves, "
                               f"golden has {refs.live_leaves}")

    def calls(self, seed: int) -> list:
        prog = self.prog
        rng = seed_rng("algebra", seed)
        out = []
        while len(out) < ALGEBRA_IDENTITY_CHECKS:
            terms = {m: c for m in prog.fp if (c := rng.randrange(prog.spec.q))}
            if terms:
                F = Polynomial(prog.dom, 2, terms)
                out.append(Call(1, "identity", partial(_identity, prog, F),
                                f"identity {len(out)}"))
        for i, (M, leaf) in enumerate(self.leaves):
            out.append(Call(2, "leaf", partial(_leaf, M, leaf, rng.getrandbits(32)),
                            f"leaf {i}"))
        return out

    def report(self, summary) -> list:
        p50, _ = summary.percentile("identity", 0.5)
        p90, beyond = summary.percentile("identity", 0.9)
        n = len(summary.times["identity"])
        return [
            ("checks_per_s", summary.count("checks", "assignments") / summary.total_wall,
             "1/s"),
            ("check_p50_ms", 1000 * p50, "ms"),
            (f"check_p90_ms ({n} samples, {beyond} beyond)", 1000 * p90, "ms"),
        ]


# ---------------------------------------------------------------------------
# symbolic: the proof engine in params, casebound and autosearch

SYMBOLIC_REPLAYS = 10
DEFAULT_MOVES = ((1, 0), (0, 1), (0, 2), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0))
# Budgets are spelled out so that a change to SearchBudget's defaults cannot
# change the workload.  The corner class is capped: uncapped it runs for
# minutes and still ends at its baseline.
SYMBOLIC_SEARCHES = (
    ("Y", dict(max_depth=3, max_branches=8, move_set=DEFAULT_MOVES, max_work=60_000)),
    ("X^6*Y^2", dict(max_depth=3, max_branches=8, move_set=DEFAULT_MOVES, max_work=5_000)),
)


def _cli(argv, golden):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return (code == 0 and buf.getvalue() == golden,
            f"{' '.join(argv)}: exit {code}, golden match {buf.getvalue() == golden}", {})


def _search(M, budget, expected, baseline):
    rep = autosearch.auto_search(M, autosearch.SearchBudget(**budget))
    return (rep.bound == expected and rep.baseline == baseline,
            f"auto_search {M}: bound {rep.bound} (expected {expected}), "
            f"baseline {rep.baseline} (expected {baseline})",
            {"gain": rep.bound - rep.baseline})


class Symbolic:
    """Trace replay through the CLI (part 1) and auto-search (part 2).  The
    job list has no random input, so the seed does not change it."""

    def prepare(self, prog: Program, refs: References):
        self.refs = refs

    def calls(self, seed: int) -> list:
        refs = self.refs
        out = []
        for _ in range(SYMBOLIC_REPLAYS):
            out.append(Call(1, "bound", partial(_cli, ["bound", "--format", "json"],
                                                refs.bound_json)))
            out.append(Call(1, "table", partial(_cli, ["table", "--format", "json"],
                                                refs.table_json)))
        for name, budget in SYMBOLIC_SEARCHES:
            M = monomial(name)
            # an untraced class's golden bound is its divisibility baseline
            baseline = refs.baselines.get(M, refs.delta[M])
            out.append(Call(2, "auto_search", partial(
                _search, M, budget, refs.auto_bound[M], baseline), f"auto_search {name}"))
        return out

    def report(self, summary) -> list:
        return [
            ("bound_map_s", median(summary.times["bound"]), "s"),
            ("table_s", median(summary.times["table"]), "s"),
            ("auto_s", summary.pass_median(2), "s"),
            ("proved_gain", summary.count("gain") / len(summary.passes), "count"),
        ]


WORKLOADS = {"oracle": Oracle, "algebra": Algebra, "symbolic": Symbolic}
