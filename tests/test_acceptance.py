"""Acceptance suite: one test per reproduction criterion, tolerance zero.

``silt paper-suite`` is the one place the seven criteria are computed,
against the frozen tables in ``silt.cli``.  Each test reads its
criterion's rows from one cached ``cli._suite_rows()`` call and asserts
that there are as many as frozen (20, 21, 5, 20, 50, 20 and 10 rows for
criteria 1-7) and that each row's computed value equals its expected
value.  Criterion 3 also checks what no row does: the five strictly shod
presentations match five distinct classes.  ``pytest -v`` reports one
pass/fail line per criterion through the test names; each test also
prints an explicit ``CRITERION n: PASS`` line on success (visible with
``pytest -s``).
"""

from functools import cache

import silt.cli as cli
from silt.classify import classify, matches_presentation
from silt.cli import STRICTLY_SHOD_PRESENTATIONS
from silt.silting import silting_alg2


@cache
def _suite_rows():
    return tuple(cli._suite_rows())


def _passes(criterion, count, title):
    rows = [r for r in _suite_rows() if r[0] == criterion]
    assert len(rows) == count
    for _, check, expected, computed, _ in rows:
        assert computed == expected, check
    print(f"CRITERION {criterion} ({title}): PASS")


def test_criterion_1_enumeration_counts():
    _passes(1, 20, "enumeration counts")


def test_criterion_2_classification_counts():
    _passes(2, 21, "classification class counts")


def test_criterion_3_strictly_shod_structure():
    matched = []
    for _, name, arrows, rels in STRICTLY_SHOD_PRESENTATIONS:
        q = cli._fixture_quiver(name)
        records = (classify(q, t) for t in silting_alg2(q))
        matched += {
            (name, r.fingerprint)
            for r in records
            if not r.is_tilted and matches_presentation(r.algebra, arrows, rels)
        }
    assert len(set(matched)) == len(matched) == 5
    _passes(3, 5, "strictly shod structure s1-s5")


def test_criterion_4_oracle_equivalence():
    _passes(4, 20, "oracle equivalence")


def test_criterion_5_homological_invariants():
    _passes(5, 50, "homological invariant suite")


def test_criterion_6_opposite_duality():
    _passes(6, 20, "invariance under quiver opposition")


def test_criterion_7_unshifted_or_projective_free_is_tilted_of_type_q():
    _passes(7, 10, "unshifted/projective-free objects tilted of type Q")
