"""Tests for labelled matchings, skein rewriting, and the bijection."""

import itertools
import json
import math
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supertorus import cohomology as co
from supertorus import exterior as ex
from supertorus import linalg as la
from supertorus import matchings as ma


def nc_coordinates(n, m):
    """Independent oracle: expand the invariant of m over the noncrossing
    basis of its bidegree by exact linear algebra."""
    d = m.bidegree
    basis_ms = [x for x in ma.noncrossing_matchings(n) if x.bidegree == d]
    order = co.bidegree_monomials(n, d)
    cols = [co.element_coordinates(ma.matching_invariant(x), order) for x in basis_ms]
    mat = la.Matrix.from_columns(cols, nrows=len(order))
    vec = co.element_coordinates(ma.matching_invariant(m), order)
    x = mat.coordinates(vec)
    assert x is not None
    return {bm: c for bm, c in zip(basis_ms, x) if c}


# ---------------------------------------------------------------------------
# the type itself

def test_validation_rejects_overlaps():
    with pytest.raises(ValueError):
        ma.LabelledMatching(4, arcs=((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        ma.LabelledMatching(4, arcs=((1, 2),), alpha=(2,))
    with pytest.raises(ValueError):
        ma.LabelledMatching(4, alpha=(3,), alphatheta=(3,))
    with pytest.raises(ValueError):
        ma.LabelledMatching(4, arcs=((2, 2),))
    with pytest.raises(ValueError):
        ma.LabelledMatching(2, alpha=(5,))


def test_canonical_sorting():
    m = ma.LabelledMatching(6, arcs=((4, 2), (1, 6)), alpha=(5, 3))
    assert m.arcs == ((1, 6), (2, 4))
    assert m.alpha == (3, 5)
    assert m == ma.LabelledMatching(6, arcs=((1, 6), (2, 4)), alpha=(3, 5))


def test_degree_and_bidegree():
    m = ma.LabelledMatching(8, arcs=((4, 6), (5, 7)), alpha=(1,), alphatheta=(2,))
    assert m.degree == 1 + 2 + 4
    assert m.bidegree == (4, 3)
    assert ma.LabelledMatching(3).degree == 0


# ---------------------------------------------------------------------------
# invariants

def test_matching_invariant_frozen_example():
    m = ma.LabelledMatching(8, arcs=((4, 6), (5, 7)), alpha=(1,), alphatheta=(2,))
    got = ma.matching_invariant(m)
    expected = (
        ex.generator_product(8, [ex.alpha(1)])
        * ex.generator_product(8, [ex.alpha(2), ex.theta(2)])
        * (
            ex.generator_product(8, [ex.alpha(4), ex.theta(6)])
            + ex.generator_product(8, [ex.alpha(6), ex.theta(4)])
        )
        * (
            ex.generator_product(8, [ex.alpha(5), ex.theta(7)])
            + ex.generator_product(8, [ex.alpha(7), ex.theta(5)])
        )
    )
    assert got == expected


def test_matching_invariant_trivia():
    assert ma.matching_invariant(ma.LabelledMatching(2)) == ex.Element.one(2)
    arc = ma.LabelledMatching(2, arcs=((1, 2),))
    assert ma.matching_invariant(arc) == ex.parse_element("1*a1 t2 + 1*a2 t1", 2)


def test_matching_invariants_are_translation_invariant():
    rng = random.Random(3)
    pool = list(ma.labelled_matchings(4))
    for m in rng.sample(pool, 25):
        f = ma.matching_invariant(m)
        assert ex.raising(f).is_zero()
        assert ex.translate(f) == f


# ---------------------------------------------------------------------------
# statistics

def test_crossings_examples():
    assert ma.crossings(ma.LabelledMatching(4, arcs=((1, 2), (3, 4)))) == 0
    assert ma.crossings(ma.LabelledMatching(4, arcs=((1, 3), (2, 4)))) == 1
    m = ma.LabelledMatching(6, arcs=((1, 4), (2, 5), (3, 6)))
    assert ma.crossings(m) == 3


def test_alpha_nestings_examples():
    m = ma.LabelledMatching(3, arcs=((1, 3),), alpha=(2,))
    assert ma.alpha_nestings(m) == 1
    assert ma.alpha_nestings(ma.LabelledMatching(3, arcs=((1, 2),), alpha=(3,))) == 0


# ---------------------------------------------------------------------------
# skein rules

def test_uncross_frozen():
    m = ma.LabelledMatching(4, arcs=((1, 3), (2, 4)))
    combo = ma.skein_uncross(m, (1, 2, 3, 4))
    assert combo.coefficient(ma.LabelledMatching(4, arcs=((1, 2), (3, 4)))) == -1
    assert combo.coefficient(ma.LabelledMatching(4, arcs=((1, 4), (2, 3)))) == -1
    assert len(combo) == 2


def test_uncross_expansion_identity():
    for m in ma.labelled_matchings(4):
        for quad in ma.crossing_quadruples(m):
            combo = ma.skein_uncross(m, quad)
            assert combo.expand() == ma.matching_invariant(m)


def test_uncross_rejects_noncrossing():
    m = ma.LabelledMatching(4, arcs=((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        ma.skein_uncross(m, (1, 2, 3, 4))


def test_move_alpha_frozen():
    m = ma.LabelledMatching(3, arcs=((1, 3),), alpha=(2,))
    combo = ma.skein_move_alpha(m, (1, 3), 2)
    assert combo.coefficient(ma.LabelledMatching(3, arcs=((1, 2),), alpha=(3,))) == -1
    assert combo.coefficient(ma.LabelledMatching(3, arcs=((2, 3),), alpha=(1,))) == -1


def test_move_alpha_interfering_label_sign():
    # another label between the moved endpoints flips one coefficient
    m = ma.LabelledMatching(5, arcs=((2, 5),), alpha=(3, 4))
    combo = ma.skein_move_alpha(m, (2, 5), 3)
    assert combo.coefficient(ma.LabelledMatching(5, arcs=((2, 3),), alpha=(4, 5))) == 1
    assert combo.coefficient(ma.LabelledMatching(5, arcs=((3, 5),), alpha=(2, 4))) == -1
    assert combo.expand() == ma.matching_invariant(m)


def test_move_alpha_expansion_identity():
    for m in ma.labelled_matchings(5):
        for arc, vertex in ma.nested_alpha_patterns(m):
            combo = ma.skein_move_alpha(m, arc, vertex)
            assert combo.expand() == ma.matching_invariant(m)


def test_move_alpha_rejects_bad_patterns():
    m = ma.LabelledMatching(3, arcs=((1, 3),), alphatheta=(2,))
    with pytest.raises(ValueError):
        ma.skein_move_alpha(m, (1, 3), 2)
    m2 = ma.LabelledMatching(4, arcs=((1, 2),), alpha=(3,))
    with pytest.raises(ValueError):
        ma.skein_move_alpha(m2, (1, 2), 3)


# ---------------------------------------------------------------------------
# normal form

def test_normal_form_noncrossing_is_identity():
    m = ma.LabelledMatching(4, arcs=((1, 2),), alpha=(4,), alphatheta=(3,))
    assert ma.normal_form(m) == ma.MatchingCombination.single(m)


def test_normal_form_uncross_frozen():
    m = ma.LabelledMatching(4, arcs=((1, 3), (2, 4)))
    combo = ma.normal_form(m)
    assert dict(combo.items()) == {
        ma.LabelledMatching(4, arcs=((1, 2), (3, 4))): Fraction(-1),
        ma.LabelledMatching(4, arcs=((1, 4), (2, 3))): Fraction(-1),
    }


def test_normal_form_lands_in_reduced_support():
    for m in ma.labelled_matchings(4):
        combo = ma.normal_form(m)
        for t in combo.support():
            assert ma.crossings(t) == 0
            assert ma.alpha_nestings(t) == 0


def test_normal_form_under_threads(monkeypatch):
    # overlapping crossing matchings: their rewrites meet in shared children,
    # so the threads race to fill the same memo entries
    literals = [
        "n=8; arcs=(1,5),(2,6),(3,7),(4,8)",
        "n=8; arcs=(1,5),(2,6),(3,7); a=4; at=8",
        "n=8; arcs=(1,4),(2,6),(3,7); at=5; a=8",
        "n=9; arcs=(1,5),(2,6),(3,7),(4,8); a=9",
        "n=9; arcs=(1,6),(2,7),(3,8); a=4; at=5,9",
        "n=10; arcs=(1,6),(2,7),(3,8),(4,9),(5,10)",
        "n=10; arcs=(1,6),(2,7),(3,8),(4,9); a=5; at=10",
        "n=10; arcs=(1,3),(2,7),(4,9),(5,10); a=6,8",
    ]
    matchings = [ma.parse_matching(text) for text in literals] * 3

    monkeypatch.setattr(ma, "_normal_form_cache", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = [f.result(timeout=120).items()
                        for f in [pool.submit(ma.normal_form, m) for m in matchings]]
    finally:
        sys.setswitchinterval(interval)

    monkeypatch.setattr(ma, "_normal_form_cache", {})
    assert threaded == [ma.normal_form(m).items() for m in matchings]


def test_normal_form_sound_and_matches_oracle_small():
    for n in (1, 2, 3):
        for m in ma.labelled_matchings(n):
            combo = ma.normal_form(m)
            assert combo.expand() == ma.matching_invariant(m)
            assert dict(combo.items()) == nc_coordinates(n, m)


def test_normal_form_oracle_spot_checks_n4():
    rng = random.Random(17)
    pool = [m for m in ma.labelled_matchings(4) if ma.crossings(m) or ma.alpha_nestings(m)]
    for m in rng.sample(pool, min(12, len(pool))):
        combo = ma.normal_form(m)
        assert combo.expand() == ma.matching_invariant(m)
        assert dict(combo.items()) == nc_coordinates(4, m)


# ---------------------------------------------------------------------------
# enumeration

def test_noncrossing_n1():
    ms = ma.noncrossing_matchings(1)
    assert len(ms) == 3
    for k, size in ((0, 1), (1, 1), (2, 1)):
        assert len(ma.noncrossing_matchings(1, k)) == size


def test_noncrossing_counts():
    for n in range(1, 7):
        total = 0
        for k in range(0, 2 * n + 1):
            size = len(ma.noncrossing_matchings(n, k))
            assert size == math.comb(n, k // 2) * math.comb(n, (k + 1) // 2)
            total += size
        assert total == math.comb(2 * n + 1, n)


def test_noncrossing_top_degree_unique():
    for n in (1, 2, 3, 4):
        (m,) = ma.noncrossing_matchings(n, 2 * n)
        assert m.alphatheta == tuple(range(1, n + 1))
        assert not m.arcs and not m.alpha


def test_labelled_matchings_count():
    # arc sets weighted by three label choices per free vertex
    def phi_size(n):
        total = 0
        for arcs in ma.partial_matchings(n):
            total += 3 ** (n - 2 * len(arcs))
        return total

    for n in (1, 2, 3, 4):
        assert sum(1 for _ in ma.labelled_matchings(n)) == phi_size(n)


# ---------------------------------------------------------------------------
# bijection

def test_bijection_frozen_example():
    m = ma.matching_from_subsets({1, 2, 4, 5}, {3, 4, 6, 7, 8}, 8)
    assert m.arcs == ((1, 7), (2, 3), (5, 6))
    assert m.alphatheta == (4,)
    assert m.alpha == (8,)
    pair = ma.subsets_from_matching(m)
    assert sorted(pair.A) == [1, 2, 4, 5]
    assert sorted(pair.B) == [3, 4, 6, 7, 8]


def test_bijection_equal_sets():
    m = ma.matching_from_subsets({1, 3}, {1, 3}, 4)
    assert m == ma.LabelledMatching(4, alphatheta=(1, 3))


def test_bijection_single_b():
    m = ma.matching_from_subsets(set(), {2}, 3)
    assert m == ma.LabelledMatching(3, alpha=(2,))


def test_bijection_size_validation():
    with pytest.raises(ValueError):
        ma.matching_from_subsets({1, 2}, set(), 3)


def test_bijection_round_trip_small():
    for n in range(1, 6):
        for m in ma.noncrossing_matchings(n):
            pair = ma.subsets_from_matching(m)
            assert ma.matching_from_subsets(pair.A, pair.B, n) == m


def test_subset_round_trip_small():
    import itertools

    n = 5
    for k in range(0, 2 * n + 1):
        for A in itertools.combinations(range(1, n + 1), k // 2):
            for B in itertools.combinations(range(1, n + 1), (k + 1) // 2):
                m = ma.matching_from_subsets(A, B, n)
                assert m.degree == k
                pair = ma.subsets_from_matching(m)
                assert (sorted(pair.A), sorted(pair.B)) == (sorted(A), sorted(B))


def test_subsets_from_matching_rejects_unreduced():
    with pytest.raises(ValueError):
        ma.subsets_from_matching(ma.LabelledMatching(4, arcs=((1, 3), (2, 4))))
    with pytest.raises(ValueError):
        ma.subsets_from_matching(ma.LabelledMatching(3, arcs=((1, 3),), alpha=(2,)))


# ---------------------------------------------------------------------------
# presentation

def test_presentation_relations_frozen():
    n = 2
    at1 = ex.parse_element("1*a1 t1", n)
    at2 = ex.parse_element("1*a2 t2", n)
    cross = ex.parse_element("1*a1 t2 + 1*a2 t1", n)
    a1 = ex.parse_element("1*a1", n)
    a2 = ex.parse_element("1*a2", n)
    assert (a1 * a1).is_zero()
    assert (at1 * at1).is_zero()
    assert (at1 * cross).is_zero()
    assert cross * cross == (at1 * at2).scale(-2)
    assert a1 * cross == -(a2 * at1)


def test_verify_presentation_clean():
    report = ma.verify_presentation(4)
    assert report.ok
    assert report.checked > 20


# ---------------------------------------------------------------------------
# literals and serialization

def test_parse_matching_example():
    m = ma.parse_matching("n=8; arcs=(4,6),(5,7); a=1; at=2")
    assert m == ma.LabelledMatching(8, arcs=((4, 6), (5, 7)), alpha=(1,), alphatheta=(2,))


def test_parse_matching_whitespace_insensitive():
    a = ma.parse_matching("n=4;arcs=(1,3),(2,4)")
    b = ma.parse_matching("  n = 4 ;  arcs = ( 1 , 3 ) , ( 2 , 4 )  ")
    assert a == b


def test_parse_matching_sections_optional():
    m = ma.parse_matching("n=3")
    assert m == ma.LabelledMatching(3)


def test_parse_matching_errors_carry_position():
    with pytest.raises(ex.LiteralParseError) as info:
        ma.parse_matching("n=4; arcs=(1,3,(2,4)")
    assert "^" in info.value.caret_diagnostic()
    with pytest.raises(ex.LiteralParseError):
        ma.parse_matching("arcs=(1,2)")
    with pytest.raises(ex.LiteralParseError):
        ma.parse_matching("n=4; bogus=3")
    with pytest.raises(ex.LiteralParseError):
        ma.parse_matching("n=4; n=5")


def test_parse_matching_invalid_structure_is_value_error():
    with pytest.raises(ValueError) as info:
        ma.parse_matching("n=4; arcs=(1,2),(2,3)")
    assert not isinstance(info.value, ex.LiteralParseError)


def test_literal_round_trip():
    for m in ma.noncrossing_matchings(3):
        assert ma.parse_matching(m.literal()) == m


def test_json_round_trip():
    m = ma.LabelledMatching(8, arcs=((4, 6), (5, 7)), alpha=(1,), alphatheta=(2,))
    data = json.loads(json.dumps(m.to_json_dict()))
    assert ma.LabelledMatching.from_json_dict(data) == m


@st.composite
def labelled_matchings(draw):
    """Any valid labelled matching, crossing or not, with n <= 10."""
    n = draw(st.integers(0, 10))
    vertices = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(0, n // 2))
    arcs = [(vertices[2 * t], vertices[2 * t + 1]) for t in range(k)]
    roles = draw(st.lists(st.sampled_from(("a", "at", None)),
                          min_size=n - 2 * k, max_size=n - 2 * k))
    rest = vertices[2 * k:]
    return ma.LabelledMatching(
        n,
        arcs=tuple(arcs),
        alpha=tuple(v for v, role in zip(rest, roles) if role == "a"),
        alphatheta=tuple(v for v, role in zip(rest, roles) if role == "at"),
    )


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(labelled_matchings())
def test_literal_and_json_round_trip_property(m):
    assert ma.parse_matching(m.literal()) == m
    assert ma.LabelledMatching.from_json_dict(m.to_json_dict()) == m
    data = json.loads(json.dumps(m.to_json_dict()))
    assert ma.LabelledMatching.from_json_dict(data) == m


def test_combination_json():
    m = ma.LabelledMatching(4, arcs=((1, 3), (2, 4)))
    combo = ma.normal_form(m)
    payload = combo.to_json()
    assert payload == [
        {"coeff": "-1", "matching": {"n": 4, "arcs": [[1, 2], [3, 4]], "alpha": [], "alphatheta": []}},
        {"coeff": "-1", "matching": {"n": 4, "arcs": [[1, 4], [2, 3]], "alpha": [], "alphatheta": []}},
    ]


# ---------------------------------------------------------------------------
# oracles: the routes that the bidegree-keyed enumeration, the direct
# expansion, the lean formatter and the one-pass bijection replaced, kept
# here so every fast path is checked bit for bit at small n

def old_noncrossing_matchings(n):
    """Filter every partial matching, then every labelling."""
    out = []
    for arcs in ma.partial_matchings(n):
        if ma.crossings(ma.LabelledMatching(n, arcs)):
            continue
        matched = {v for arc in arcs for v in arc}
        covered = {v for i, j in arcs for v in range(i + 1, j) if v not in matched}
        free = [v for v in range(1, n + 1) if v not in matched]
        for labels in itertools.product(("", "a", "at"), repeat=len(free)):
            if any(l == "a" and v in covered for v, l in zip(free, labels)):
                continue
            out.append(
                ma.LabelledMatching(
                    n,
                    arcs,
                    tuple(v for v, l in zip(free, labels) if l == "a"),
                    tuple(v for v, l in zip(free, labels) if l == "at"),
                )
            )
    out.sort(key=ma.LabelledMatching.sort_key)
    return out


def old_matching_invariant(m):
    """Multiply the factors out one Element product at a time."""
    n = m.n
    out = ex.generator_product(n, [ex.alpha(v) for v in m.alpha])
    for v in m.alphatheta:
        out = out * ex.generator_product(n, [ex.alpha(v), ex.theta(v)])
    for i, j in m.arcs:
        out = out * (
            ex.generator_product(n, [ex.alpha(i), ex.theta(j)])
            + ex.generator_product(n, [ex.alpha(j), ex.theta(i)])
        )
    return out


def old_format_element(f):
    """Format through Monomial and Generator objects."""
    if f.is_zero():
        return "0"
    parts = []
    for m, c in f.terms():
        c_abs = abs(c)
        body = (
            str(c_abs.numerator)
            if c_abs.denominator == 1
            else f"{c_abs.numerator}/{c_abs.denominator}"
        )
        if m.mask:
            body += "*" + " ".join(str(g) for g in m.generators())
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def old_matching_from_subsets(A, B, n):
    """Count the A and B elements between every candidate pair."""
    A, B = set(A), set(B)
    for v in A | B:
        if not 1 <= v <= n:
            raise ValueError(f"index {v} out of range 1..{n}")
    if not (len(B) - 1 <= len(A) <= len(B)):
        raise ValueError(
            f"sizes |A|={len(A)}, |B|={len(B)} do not fit a degree "
            f"{len(A) + len(B)} index pair"
        )
    right_candidates = sorted(B - A)
    taken = set()
    arcs, alphas = [], []
    for a in sorted(A - B):
        partner = None
        for b in right_candidates:
            if b <= a:
                continue
            between = range(a + 1, b)
            if sum(1 for x in between if x in A) == sum(1 for x in between if x in B):
                partner = b
                break
        if partner is None:
            alphas.append(a)
        else:
            assert partner not in taken
            taken.add(partner)
            arcs.append((a, partner))
    alphas.extend(b for b in right_candidates if b not in taken)
    return ma.LabelledMatching(n, tuple(arcs), tuple(alphas), tuple(sorted(A & B)))


@pytest.mark.parametrize("n", range(0, 8))
def test_noncrossing_by_bidegree_matches_filter_oracle(n):
    old = old_noncrossing_matchings(n)
    for i in range(n + 1):
        for j in range(n + 1):
            expected = [m for m in old if m.bidegree == (i, j)]
            assert ma.noncrossing_matchings(n, bidegree=(i, j)) == expected
    assert ma.noncrossing_matchings(n) == old
    for k in range(2 * n + 1):
        assert ma.noncrossing_matchings(n, k) == [m for m in old if m.degree == k]


def test_noncrossing_by_bidegree_closed_form():
    def formula(n, i, j):
        below = math.comb(n, i + 1) * math.comb(n, j - 1) if j else 0
        return math.comb(n, i) * math.comb(n, j) - below

    for n in range(0, 9):
        for i in range(n + 1):
            for j in range(n + 1):
                size = len(ma.noncrossing_matchings(n, bidegree=(i, j)))
                assert size == (formula(n, i, j) if i >= j else 0)
    assert len(ma.noncrossing_matchings(10, bidegree=(5, 5))) == formula(10, 5, 5) == 19404


def test_noncrossing_by_bidegree_edges():
    assert ma.noncrossing_matchings(6, bidegree=(2, 3)) == []
    assert ma.noncrossing_matchings(0, bidegree=(0, 0)) == [ma.LabelledMatching(0)]
    assert ma.noncrossing_matchings(0) == [ma.LabelledMatching(0)]
    assert ma.noncrossing_matchings(4, 5, bidegree=(3, 2)) == ma.noncrossing_matchings(
        4, bidegree=(3, 2)
    )
    for bad in ((5, 0), (0, 5), (-1, 0), (2, -1)):
        with pytest.raises(ValueError):
            ma.noncrossing_matchings(4, bidegree=bad)
    with pytest.raises(ValueError):
        ma.noncrossing_matchings(4, 4, bidegree=(3, 2))
    with pytest.raises(ValueError):
        ma.noncrossing_matchings(4, 9)


def _expansion_pool():
    for n in range(0, 6):
        yield from ma.labelled_matchings(n)
    yield from ma.noncrossing_matchings(6)


def test_matching_invariant_and_format_match_oracles():
    pool = list(_expansion_pool())
    assert any(ma.crossings(m) for m in pool)
    assert any(ma.alpha_nestings(m) for m in pool)
    for m in pool:
        f = ma.matching_invariant(m)
        expected = old_matching_invariant(m)
        assert f == expected
        assert f.n == expected.n and len(f) == 2 ** len(m.arcs)
        assert ex.format_element(f) == old_format_element(expected)


def test_format_element_matches_oracle_on_rationals():
    rng = random.Random(29)
    for n in range(0, 5):
        for _ in range(30):
            terms = {
                rng.randrange(1 << (2 * n)): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                for _ in range(rng.randint(0, 6))
            }
            f = ex.Element(n, terms)
            assert ex.format_element(f) == old_format_element(f)


@pytest.mark.parametrize("n", range(0, 8))
def test_matching_from_subsets_matches_quadratic_oracle(n):
    subsets = [
        s for r in range(n + 1) for s in itertools.combinations(range(1, n + 1), r)
    ]
    for A in subsets:
        for B in subsets:
            try:
                expected = old_matching_from_subsets(A, B, n)
            except ValueError as err:
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    ma.matching_from_subsets(A, B, n)
                continue
            assert ma.matching_from_subsets(A, B, n) == expected
