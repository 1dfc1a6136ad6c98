"""klein.CLASS_MINIMUM, the least weight of a word in each class coset, is
certified from both sides: a witness word per class, committed in
tests/data/class_witnesses.json, reaches the weight, and the golden bound
map, proved by the traces, says that no coset word is lighter.  The exact
scanner recomputes every class that it can scan."""

import json
from pathlib import Path

import numpy as np

from kleincode.codes import EXACT_LIMIT_COEFFS, coset_min_weight, evaluation_vector
from kleincode.klein import CLASS_MINIMUM, class_support
from kleincode.poly import format_monomial, parse_poly

DATA = Path(__file__).parent
GOLDEN_DELTA = json.loads((DATA / "golden" / "bound.json").read_text())["delta_map"]
WITNESSES = json.loads((DATA / "data" / "class_witnesses.json").read_text())["classes"]


def test_every_class_minimum_has_a_witness_word(dom, fp, variety):
    assert len(WITNESSES) == len(CLASS_MINIMUM) == 22
    for M in fp:
        name = format_monomial(M)
        F = parse_poly(WITNESSES[name], dom)
        assert F.leading_term() == (M, 1), name
        support = set(class_support(M))
        assert all(m in support for m in F.terms if m != M), name
        weight = int(np.count_nonzero(evaluation_vector(F, variety)))
        assert weight == CLASS_MINIMUM[M] == GOLDEN_DELTA[name], name


def test_scanned_class_minima_match_the_table(fp, variety):
    scanned = [M for M in fp if len(class_support(M)) <= EXACT_LIMIT_COEFFS]
    assert len(scanned) == 11
    for M in scanned:
        assert coset_min_weight(M, class_support(M), variety) == (CLASS_MINIMUM[M], True), M
