"""The fingerprint's refinement search against the n! reference loop."""

import tracemalloc
from importlib.resources import files

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fingerprint_reference import fingerprint_reference, least_key_reference
from dynkin_orientations import E6
from silt.classify import classify, fingerprint, homology, least_relabelling
from silt.cli import FIXTURE_NAMES
from silt.endo import endomorphism_algebra
from silt.quivers import parse_quiver
from silt.silting import silting_alg2, silting_label


def test_fingerprint_matches_reference_on_every_fixture_algebra():
    for name in FIXTURE_NAMES:
        q = parse_quiver(
            files("silt").joinpath("fixtures", f"{name}.quiver").read_text()
        )
        for t in silting_alg2(q):
            rec = classify(q, t)
            assert rec.fingerprint == fingerprint_reference(rec.algebra), (
                name,
                silting_label(q, t),
            )


def test_fingerprint_matches_reference_on_every_twentieth_e6_object():
    objs = silting_alg2(E6)
    assert len(objs) == 833
    for t in objs[::20]:
        b = endomorphism_algebra(E6, t)
        got = fingerprint(b, homology(b))
        assert got == fingerprint_reference(b), silting_label(E6, t)


def _relabel(m, sigma):
    n = len(m)
    return [[m[sigma[i]][sigma[j]] for j in range(n)] for i in range(n)]


@st.composite
def labelled_data(draw):
    """adj, Cartan, Ext^1, Ext^2 and pds with small entries, so that ties
    and symmetric vertices are common."""
    n = draw(st.integers(0, 6))
    mat = st.lists(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
    sparse = st.lists(
        st.lists(st.sampled_from((0, 0, 0, 1)), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
    return (
        draw(sparse),
        draw(mat),
        draw(sparse),
        draw(sparse),
        draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
    )


NO_ARROWS_6 = [[0] * 6 for _ in range(6)]
# A2 ⊔ A2 ⊔ A1 as KQ: arrows 0->1 and 2->3, vertex 4 alone
A2A2A1 = [
    [1 if (i, j) in {(0, 1), (2, 3)} else 0 for j in range(5)]
    for i in range(5)
]
A2A2A1_CARTAN = [
    [A2A2A1[i][j] + (i == j) for j in range(5)] for i in range(5)
]


@settings(max_examples=80, deadline=None)
@given(labelled_data(), st.randoms(use_true_random=False))
@example(([], [], [], [], []), None)
@example(
    (NO_ARROWS_6, NO_ARROWS_6, NO_ARROWS_6, NO_ARROWS_6, [0] * 6), None
)
@example(
    (A2A2A1, A2A2A1_CARTAN, A2A2A1, [[0] * 5] * 5, [1, 0, 1, 0, 0]), None
)
def test_least_relabelling_matches_reference(data, rnd):
    adj, cart, e1, e2, pds = data
    n = len(adj)
    least = least_relabelling(adj, (cart, e1, e2), pds)
    assert least == least_key_reference(adj, cart, e1, e2, pds)
    # one simultaneous relabelling of the input leaves the tuple unchanged
    sigma = list(range(n))
    if rnd is not None:
        rnd.shuffle(sigma)
    moved = least_relabelling(
        _relabel(adj, sigma),
        (_relabel(cart, sigma), _relabel(e1, sigma), _relabel(e2, sigma)),
        [pds[sigma[i]] for i in range(n)],
    )
    assert moved == least


def test_arrowless_search_keeps_no_list_of_keys():
    # all 6! = 720 permutations are leaves; only the least key is kept,
    # so the traced peak is the leaves themselves, well under 1 MB
    unit = [[int(i == j) for j in range(6)] for i in range(6)]
    tracemalloc.start()
    try:
        least = least_relabelling(
            NO_ARROWS_6, (unit, NO_ARROWS_6, NO_ARROWS_6), [0] * 6
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert least == least_key_reference(
        NO_ARROWS_6, unit, NO_ARROWS_6, NO_ARROWS_6, [0] * 6
    )
    assert peak < 1_000_000, peak

