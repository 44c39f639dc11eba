"""Tests for labelled matchings, skein rewriting, and the bijection."""

import heapq
import itertools
import json
import math
import random
import re
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supertorus import exterior as ex
from supertorus import matchings as ma
from supertorus import verify as vf


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


@pytest.mark.parametrize("build, error, message", [
    (lambda: ma.LabelledMatching(20, arcs=((1, 20),)), ValueError, "rank 20 exceeds the guard 14"),
    (lambda: ma.LabelledMatching(-1), ValueError, "rank must be nonnegative"),
    (lambda: ma.LabelledMatching(2.0), TypeError, "rank must be an integer"),
    (lambda: ma.LabelledMatching(3, alpha=(1.0,)), TypeError, "vertex must be an integer"),
    (lambda: ma.LabelledMatching(3, alpha=(True,)), TypeError, "vertex must be an integer"),
    (lambda: ma.LabelledMatching(3, alphatheta=(2, True)), TypeError, "vertex must be an integer"),
    (lambda: ma.LabelledMatching(3, arcs=((1.0, 3),)), TypeError, "vertex must be an integer"),
    (lambda: ma.LabelledMatching.from_json_dict({"n": 3, "alpha": [1.5]}), TypeError,
     "vertex must be an integer"),
    (lambda: ma.matching_from_subsets([1], [2], 20), ValueError, "rank 20 exceeds the guard 14"),
    (lambda: ma.matching_from_subsets([1], [2], -1), ValueError, "rank must be nonnegative"),
    (lambda: ma.matching_from_subsets([True], [2], 3), TypeError, "index must be an integer"),
    (lambda: ma.noncrossing_matchings(3, 1.0), TypeError, "degree must be an integer"),
    (lambda: ma.noncrossing_matchings(3, True), TypeError, "degree must be an integer"),
    (lambda: ma.noncrossing_matchings(3, bidegree=(True, 0)), TypeError,
     "bidegree part must be an integer"),
    (lambda: ma.noncrossing_matchings(3, bidegree=(2, True)), TypeError,
     "bidegree part must be an integer"),
    (lambda: ma.MatchingCombination(-3), ValueError, "rank must be nonnegative"),
    (lambda: ma.MatchingCombination(True), TypeError, "rank must be an integer"),
], ids=["rank-over-guard", "rank-negative", "rank-float", "label-float", "label-bool",
        "at-label-bool", "arc-float", "json-float", "subsets-rank-over-guard",
        "subsets-rank-negative", "subsets-bool", "degree-float", "degree-bool",
        "bidegree-bool-i", "bidegree-bool-j", "combination-rank-negative",
        "combination-rank-bool"])
def test_validation_checks_rank_and_vertex_type(build, error, message):
    # each of these was accepted once: the rank past the guard reached
    # matching_invariant, a=1.0 printed a literal parse_matching refuses,
    # noncrossing_matchings(3, 1.0) returned the three matchings of degree 1,
    # and MatchingCombination(-3) built an empty sum
    with pytest.raises(error, match=message):
        build()


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


@dataclass(frozen=True)
class _DataclassMatching:
    """``LabelledMatching`` as a @dataclass, sorting its fields but checking
    nothing, the oracle of the hand-written class."""

    n: int
    arcs: tuple[tuple[int, int], ...] = ()
    alpha: tuple[int, ...] = ()
    alphatheta: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(sorted(tuple(sorted(a)) for a in self.arcs)))
        object.__setattr__(self, "alpha", tuple(sorted(self.alpha)))
        object.__setattr__(self, "alphatheta", tuple(sorted(self.alphatheta)))


_DataclassMatching.__name__ = _DataclassMatching.__qualname__ = "LabelledMatching"


def test_matching_behaves_as_its_dataclass(like_dataclass):
    fields = [
        (0, (), (), ()), (3, (), (), ()), (3, (), (2,), ()), (3, (), (), (2,)),
        (6, ((4, 2), (1, 6)), (5, 3), ()), (6, ((1, 6), (2, 4)), (3, 5), ()),
        (8, ((4, 6), (5, 7)), (1,), (2,)), (8, ((6, 4), (7, 5)), (1,), (2,)),
    ]
    pairs = [(ma.LabelledMatching(*f), _DataclassMatching(*f)) for f in fields]
    keywords = {"n": 5, "alphatheta": [4, 1], "arcs": [[3, 2]]}
    pairs.append((ma.LabelledMatching(**keywords), _DataclassMatching(**keywords)))
    # built by _trusted, which skips the constructor
    pairs += [(m, _DataclassMatching(m.n, m.arcs, m.alpha, m.alphatheta))
              for m in ma.noncrossing_matchings(4, bidegree=(3, 2))]
    like_dataclass(*zip(*pairs))


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


def coefficient_types(*combos):
    return {type(c) for combo in combos for _, c in combo.items()}


def test_normal_forms_and_skein_rules_hold_int_coefficients():
    forms = [ma.normal_form(m) for n in range(1, 6) for m in ma.labelled_matchings(n)]
    assert coefficient_types(*forms) == {int} and max(map(len, forms)) > 2
    rules = [ma.skein_uncross(m, quad) for m in ma.labelled_matchings(5)
             for quad in ma.crossing_quadruples(m)]
    rules += [ma.skein_move_alpha(m, arc, v) for m in ma.labelled_matchings(5)
              for arc, v in ma.nested_alpha_patterns(m)]
    assert coefficient_types(*rules) == {int} and {c for r in rules for _, c in r.items()} == {1, -1}
    m = ma.LabelledMatching(4, arcs=((1, 3), (2, 4)))
    assert coefficient_types(ma.MatchingCombination(4, {m: Fraction(2, 3)})) == {Fraction}
    assert coefficient_types(ma.MatchingCombination.single(m).scale(Fraction(1, 2))) == {Fraction}
    assert type(ma.MatchingCombination(4).coefficient(m)) is int


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


def test_normal_form_equals_skein_oracle():
    # every labelled matching with n <= 6 (2,364 at n = 6), against the skein
    # rewriting, which shares one memo per n
    for n in range(7):
        memo = {}
        for m in ma.labelled_matchings(n):
            assert ma.normal_form(m).items() == vf.skein_normal_form(m, memo).items(), m


def loop_lead_matching(mask, n, right_end=True):
    """The loop ``matchings._lead_matching`` ran before it called
    ``linalg._bracket_scan``, as its oracle: one vertex at a time, both bits
    make an 'at' label.  On right-end leads 't' alone opens an arc and 'a'
    alone closes the nearest open one or, with none open, is an 'a' label;
    an arc left open raises.  On left-end leads, the rule ``normal_form``
    once straightened on, 'a' and 't' trade places, the arcs left open carry
    the 'a' labels, and a 't' with no open arc raises."""
    opener, closer = (2, 1) if right_end else (1, 2)
    arcs, opened, stray, at = [], [], [], []
    for v in range(1, n + 1):
        bits = mask >> (2 * v - 2) & 3
        if bits == opener:
            opened.append(v)
        elif bits == 3:
            at.append(v)
        elif bits == closer:
            if opened:
                arcs.append((opened.pop(), v))
            else:
                stray.append(v)
    alpha, unmatched = (stray, opened) if right_end else (opened, stray)
    if unmatched:
        raise AssertionError(f"monomial {mask:#x} on 1..{n} leads no reduced matching")
    return ma.LabelledMatching._trusted(n, tuple(sorted(arcs)), tuple(alpha), tuple(at))


def left_end_normal_form(m):
    """The straightening ``matchings.normal_form`` ran on left-end leads, as
    its oracle.  Monomial x comes before y when the lowest set bit of x ^ y
    is x's, which is a larger bit reversal over 2n bits; there a reduced
    matching's lead, each arc's 'a' at its left end, comes first in its
    invariant with coefficient +1.  The heap pops the largest key first."""
    width = f"0{2 * m.n}b"

    def key(mask):  # undoes itself
        return int(format(mask, width)[::-1], 2)

    rest = ma._invariant_terms(m)
    heap = [-key(mask) for mask in rest]
    heapq.heapify(heap)
    out = {}
    while heap:
        mask = key(-heapq.heappop(heap))
        c = rest[mask]
        if not c:
            continue
        lead = loop_lead_matching(mask, m.n, right_end=False)
        out[lead] = c
        for mono, s in ma._invariant_terms(lead).items():
            if mono not in rest:
                rest[mono] = 0
                heapq.heappush(heap, -key(mono))
            rest[mono] -= c * s
    return ma.MatchingCombination(m.n, out)


def typed_items(combo):
    return [(m, c, type(c)) for m, c in combo.items()]


def test_normal_form_matches_the_left_end_oracle():
    # every labelled matching with n <= 6: the same combination on the other
    # lead rule, bit for bit, coefficient types too; crossing ones with
    # n = 7..12 in test_normal_form_equals_skein_oracle_property
    for n in range(7):
        for m in ma.labelled_matchings(n):
            assert typed_items(ma.normal_form(m)) == typed_items(left_end_normal_form(m)), m


def test_lead_matching_matches_the_loop_oracle():
    # every monomial mask with n <= 6: the matching it leads, field types
    # too, or the same AssertionError
    def outcome(lead, mask, n):
        try:
            m = lead(mask, n)
        except AssertionError as err:
            return str(err)
        return repr(m), (m.arcs, m.alpha, m.alphatheta)

    for n in range(7):
        for mask in range(4**n):
            assert outcome(ma._lead_matching, mask, n) == outcome(loop_lead_matching, mask, n)


def test_matchings_holds_no_module_state():
    # independent normal forms may run in parallel threads, so no module
    # value may be a mutable container; the tracer's name stays, empty
    mutable = [name for name, value in vars(ma).items() if not name.startswith("__")
               and isinstance(value, (dict, list, set, bytearray))]
    assert mutable == []
    assert isinstance(ma._normal_form_cache, types.MappingProxyType)
    assert len(ma._normal_form_cache) == 0


# ---------------------------------------------------------------------------
# enumeration

def test_noncrossing_n1():
    ms = ma.noncrossing_matchings(1)
    assert len(ms) == 3
    for k, size in ((0, 1), (1, 1), (2, 1)):
        assert len(ma.noncrossing_matchings(1, k)) == size


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


# One literal per LiteralParseError branch of the matching grammar, with the
# exact position and message: whitespace is skipped before a position is
# taken, and a missing n= points past the end.
@pytest.mark.parametrize("text, position, message", [
    ("n=4; b=1", 5, "expected a section like n=, arcs=, a=, at="),
    ("  ; n=3", 2, "expected a section like n=, arcs=, a=, at="),
    # between a section name and its '=' any whitespace is skipped, a
    # no-break space too, so the second a= is a duplicate
    ("n=4; a\u00a0=1; a\u00a0=2", 11, "duplicate section 'a'"),
    ("n=3;;", 4, "expected a section like n=, arcs=, a=, at="),
    ("n=4;  at = 1; at=2", 14, "duplicate section 'at'"),
    ("n=4; n=5", 5, "duplicate section 'n'"),
    ("", 0, "missing required section n="),
    ("arcs=(1,2) ", 11, "missing required section n="),
    ("a=1;", 4, "missing required section n="),
    ("n=4 arcs=(1,2)", 4, "expected ';'"),
    ("n=4; arcs=1,2)", 10, "expected '('"),
    ("n=4; arcs=(1,2), ", 17, "expected '('"),
    ("n=4; arcs=(1 2)", 13, "expected ','"),
    ("n=4; arcs=(1,2", 14, "expected ')'"),
    ("n=", 2, "expected an integer"),
    ("n= x", 3, "expected an integer"),
    ("n=4; a=1,", 9, "expected an integer"),
    ("n=4; arcs=( ,2)", 12, "expected an integer"),
    ("n=\u00b2", 2, "expected an integer"),
    ("n=" + "9" * 5000, 2, "integer too long"),
    ("n=4; at=2, " + "7" * 5000, 11, "integer too long"),
    ("n=4; arcs=(1, " + "7" * 5000 + ")", 14, "integer too long"),
], ids=lambda v: v[:12] if isinstance(v, str) else None)
def test_parse_matching_error_positions(text, position, message):
    with pytest.raises(ex.LiteralParseError) as info:
        ma.parse_matching(text)
    assert (info.value.position, info.value.message) == (position, message)
    assert info.value.text == text


def test_parse_matching_skips_unicode_whitespace_before_equals():
    assert ma.parse_matching("n=4; a\u00a0=1") == ma.parse_matching("n=4; a =1")
    assert ma.parse_matching("n\u2003=4;\u3000arcs\u00a0=(1,2)") == ma.parse_matching(
        "n=4; arcs=(1,2)")


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
def labelled_matchings(draw, min_n=0, max_n=10):
    """Any valid labelled matching, crossing or not, with min_n <= n <= max_n."""
    n = draw(st.integers(min_n, max_n))
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


@pytest.mark.parametrize("build", [
    lambda m: ma.MatchingCombination(m.n, {m: 0.5}),
    lambda m: ma.MatchingCombination.single(m, 0.1),
    lambda m: ma.MatchingCombination.single(m).scale(0.1),
    lambda m: ma.MatchingCombination.single(m) + 0.5,
], ids=["init", "single", "scale", "add"])
def test_combination_refuses_floats(build):
    with pytest.raises(TypeError):
        build(ma.LabelledMatching(2, arcs=((1, 2),)))


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


def old_reduced_labellings(lo, hi, p, q, memo):
    """The memoized interval recursion that the arc-set walk replaced:
    (arcs, alpha, alphatheta) on vertices lo..hi-1, noncrossing, with p 'a'
    labels none of which lies under an arc, and q arcs plus 'at' labels.

    The first vertex is unlabelled, labelled 'a', labelled 'at', or the left
    end of an arc (lo, w); the inside of an arc carries no 'a' label and is
    generated independently of the rest.
    """
    key = (lo, hi, p, q)
    if key in memo:
        return memo[key]
    out = []
    if lo == hi:
        if p == q == 0:
            out.append(((), (), ()))
    elif p + q <= hi - lo:
        out.extend(old_reduced_labellings(lo + 1, hi, p, q, memo))
        if p:
            for arcs, a, at in old_reduced_labellings(lo + 1, hi, p - 1, q, memo):
                out.append((arcs, (lo,) + a, at))
        if q:
            for arcs, a, at in old_reduced_labellings(lo + 1, hi, p, q - 1, memo):
                out.append((arcs, a, (lo,) + at))
            for w in range(lo + 1, hi):
                for q_in in range(q):
                    inside = old_reduced_labellings(lo + 1, w, 0, q_in, memo)
                    if not inside:
                        continue
                    rest = old_reduced_labellings(w + 1, hi, p, q - 1 - q_in, memo)
                    for arcs, a, at in rest:
                        for in_arcs, _, in_at in inside:
                            out.append((((lo, w),) + in_arcs + arcs, a, in_at + at))
    memo[key] = out
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


def set_matching_from_subsets(A, B, n):
    """The set-based route that the mask core replaced: the same stack pass
    over sorted sets, checked with the quadratic crossing and nesting counts."""
    A, B = set(A), set(B)
    for v in A | B:
        if not 1 <= v <= n:
            raise ValueError(f"index {v} out of range 1..{n}")
    if not (len(B) - 1 <= len(A) <= len(B)):
        raise ValueError(
            f"sizes |A|={len(A)}, |B|={len(B)} do not fit a degree "
            f"{len(A) + len(B)} index pair"
        )
    arcs = []
    alphas = []
    opened = []
    for v in sorted(A ^ B):
        if v in A:
            opened.append(v)
        elif opened:
            arcs.append((opened.pop(), v))
        else:
            alphas.append(v)
    alphas.extend(opened)
    ends = [v for arc in arcs for v in arc]
    if len(set(ends)) != len(ends):
        raise AssertionError(
            f"subset pair ({sorted(A)}, {sorted(B)}) produced a clash in {arcs}"
        )
    m = ma.LabelledMatching(n, tuple(arcs), tuple(alphas), tuple(sorted(A & B)))
    if ma.crossings(m) or ma.alpha_nestings(m):
        raise AssertionError(
            f"subset pair ({sorted(A)}, {sorted(B)}) produced a non-reduced matching {m}"
        )
    unmatched_b = [v for v in m.alpha if v in B]
    unmatched_a = [v for v in m.alpha if v in A]
    if unmatched_b and unmatched_a and max(unmatched_b) > min(unmatched_a):
        raise AssertionError(
            f"subset pair ({sorted(A)}, {sorted(B)}) violates the left-right rule"
        )
    return m


def set_subsets_from_matching(m):
    """The set-based inverse that the mask core replaced."""
    if ma.crossings(m):
        raise ValueError(f"{m} has a crossing")
    if ma.alpha_nestings(m):
        raise ValueError(f"{m} has an 'a' label under an arc")
    k = m.degree
    A = {i for i, _ in m.arcs} | set(m.alphatheta)
    B = {j for _, j in m.arcs} | set(m.alphatheta)
    to_b = (k + 1) // 2 - len(B)
    labels = sorted(m.alpha)
    if not 0 <= to_b <= len(labels):
        raise AssertionError(f"label split failed for {m}")
    B.update(labels[:to_b])
    A.update(labels[to_b:])
    if len(A) != k // 2 or len(B) != (k + 1) // 2:
        raise AssertionError(f"subset sizes failed for {m}")
    return ma.SubsetPair(A, B)


def same_as_public(m):
    """The matching equals, and hashes like, its rebuild through the public,
    checking constructor."""
    public = ma.LabelledMatching(m.n, m.arcs, m.alpha, m.alphatheta)
    return public == m and hash(public) == hash(m)


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


@pytest.mark.parametrize("n", [8, 9])
def test_noncrossing_by_bidegree_matches_recursion_oracle(n):
    memo = {}
    for i in range(n + 1):
        for j in range(i + 1):
            expected = sorted(old_reduced_labellings(1, n + 1, i - j, j, memo))
            got = ma.noncrossing_matchings(n, bidegree=(i, j))
            assert [m.sort_key() for m in got] == expected


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


def test_one_bidegree_walks_only_arc_sets_that_hold_a_row(monkeypatch):
    # A matching of bidegree (12, 6) with m arcs uses 12 + m of the 14
    # vertices, so only the 2,094 noncrossing sets of at most 2 arcs are
    # walked, not the 113,205 of at most 6.  Each row is stood in for by its
    # (arcs, alpha, alphatheta) triple, its sort_key: the walk yields them
    # in order, and nothing sorts them.
    walk, walked = ma._noncrossing_arc_sets, []

    def counted(n, most):
        for arcs in walk(n, most):
            walked.append(arcs)
            yield arcs

    monkeypatch.setattr(ma, "_noncrossing_arc_sets", counted)
    monkeypatch.setattr(ma.LabelledMatching, "_trusted", lambda n, *triple: triple)
    rows = ma.noncrossing_matchings(14, bidegree=(12, 6))
    assert len(walked) == 2094
    assert len(rows) == math.comb(14, 12) * math.comb(14, 6) - 14 * math.comb(14, 5)
    assert rows == sorted(set(rows))


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


@pytest.mark.parametrize("n", range(0, 8))
def test_bijection_mask_core_matches_set_routes(n):
    vertices = range(1, n + 1)
    for k in range(2 * n + 1):
        for A in itertools.combinations(vertices, k // 2):
            for B in itertools.combinations(vertices, (k + 1) // 2):
                a, b = ma._mask(A), ma._mask(B)
                m = set_matching_from_subsets(A, B, n)
                core = ma._matching_from_masks(a, b, n)
                assert core == m and ma.matching_from_subsets(A, B, n) == m
                assert same_as_public(core)
                assert ma._masks_from_matching(m) == (a, b)
                pair = ma.subsets_from_matching(m)
                assert pair == set_subsets_from_matching(m) == ma.SubsetPair(A, B)


def scanned_matching(a, b, n):
    """The stack scan ``matchings._matching_from_masks`` ran before it called
    ``linalg._bracket_scan``, as its oracle: A - B opens an arc, B - A closes
    the nearest open one or takes an 'a' label, and the arcs left open take
    'a' labels after those."""
    arcs, alphas, opened = [], [], []
    rest = a ^ b
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length()
        if a & low:
            opened.append(v)
        elif opened:
            arcs.append((opened.pop(), v))
        else:
            alphas.append(v)
    return ma.LabelledMatching._trusted(
        n, tuple(sorted(arcs)), tuple(alphas + opened), ma._vertices(a & b))


def test_bijection_mask_core_matches_the_scan_oracle():
    # every mask pair the core accepts with n <= 8; equal fields are equal
    # tuples of ints
    for n in range(9):
        for k in range(2 * n + 1):
            for a in map(ma._mask, itertools.combinations(range(1, n + 1), k // 2)):
                for b in map(ma._mask, itertools.combinations(range(1, n + 1), (k + 1) // 2)):
                    assert ma._matching_from_masks(a, b, n) == scanned_matching(a, b, n)


def test_bijection_errors_match_set_routes():
    def outcome(fn, *args):
        try:
            return fn(*args)
        except (ValueError, AssertionError) as err:
            return type(err), str(err)

    subsets = [s for r in range(5) for s in itertools.combinations(range(0, 6), r)]
    for A in subsets:
        for B in subsets:
            assert outcome(ma.matching_from_subsets, A, B, 4) == outcome(
                set_matching_from_subsets, A, B, 4
            )
    for n in range(0, 6):
        for m in ma.labelled_matchings(n):
            expected = outcome(set_subsets_from_matching, m)
            assert outcome(ma.subsets_from_matching, m) == expected


def test_enumerated_matchings_equal_public_ones():
    for n in range(0, 9):
        for m in ma.noncrossing_matchings(n):
            assert same_as_public(m)
    for n in range(0, 7):
        for m in ma.labelled_matchings(n):
            assert same_as_public(m)


def assert_patterns_match_oracle(m):
    """The pattern lists, order included, against the quadratic definitions:
    every i<j<k<l with arcs (i,k) and (j,l), and every arc over an 'a'."""
    arcs = set(m.arcs)
    quads = [(i, j, k, l) for i, j, k, l in itertools.combinations(range(1, m.n + 1), 4)
             if (i, k) in arcs and (j, l) in arcs]
    assert ma.crossing_quadruples(m) == sorted(quads)
    nested = [(arc, v) for arc in arcs for v in set(m.alpha) if arc[0] < v < arc[1]]
    assert ma.nested_alpha_patterns(m) == sorted(nested)


def test_pattern_lists_match_oracle():
    for n in range(0, 7):
        for m in ma.labelled_matchings(n):
            assert_patterns_match_oracle(m)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(labelled_matchings(min_n=7, max_n=14))
def test_pattern_lists_match_oracle_property(m):
    assert_patterns_match_oracle(m)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(labelled_matchings(min_n=6, max_n=9))
def test_normal_form_expands_to_the_invariant_property(m):
    combo = ma.normal_form(m)
    assert combo.expand() == ma.matching_invariant(m)
    assert all(ma.crossings(s) == 0 and ma.alpha_nestings(s) == 0 for s in combo.support())


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(labelled_matchings(min_n=7, max_n=12).filter(ma.crossings))
def test_normal_form_equals_skein_oracle_property(m):
    assert ma.normal_form(m).items() == vf.skein_normal_form(m, {}).items()
    assert typed_items(ma.normal_form(m)) == typed_items(left_end_normal_form(m))


@st.composite
def subset_pairs(draw, min_n, max_n):
    """(n, A, B) with |A| = k // 2 and |B| = (k + 1) // 2 for some degree k."""
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(0, 2 * n))
    A = draw(st.sets(st.integers(1, n), min_size=k // 2, max_size=k // 2))
    B = draw(st.sets(st.integers(1, n), min_size=(k + 1) // 2, max_size=(k + 1) // 2))
    return n, A, B


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(subset_pairs(9, 14))
def test_bijection_round_trip_property(case):
    n, A, B = case
    m = ma.matching_from_subsets(A, B, n)
    assert m == set_matching_from_subsets(A, B, n)
    assert same_as_public(m)
    assert m.degree == len(A) + len(B)
    assert ma.crossings(m) == 0 and ma.alpha_nestings(m) == 0
    assert ma.subsets_from_matching(m) == set_subsets_from_matching(m) == ma.SubsetPair(A, B)


# ---------------------------------------------------------------------------
# the row helpers behind the CLI's basis and bijection

def old_literal(m):
    """``LabelledMatching.literal`` as it was written before the text tables."""
    parts = [f"n={m.n}"]
    if m.arcs:
        parts.append("arcs=" + ",".join(f"({i},{j})" for i, j in m.arcs))
    if m.alpha:
        parts.append("a=" + ",".join(str(v) for v in m.alpha))
    if m.alphatheta:
        parts.append("at=" + ",".join(str(v) for v in m.alphatheta))
    return "; ".join(parts)


def test_literal_matches_the_formatted_route():
    for n in range(0, 6):
        for m in ma.labelled_matchings(n):
            assert m.literal() == old_literal(m)
    for m in ma.noncrossing_matchings(14, bidegree=(13, 1)):
        assert m.literal() == old_literal(m)
    m = ma.LabelledMatching(14, ((1, 14), (10, 13)), (2, 9), (11, 12))
    assert m.literal() == old_literal(m) == "n=14; arcs=(1,14),(10,13); a=2,9; at=11,12"


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(labelled_matchings(max_n=14))
def test_literal_matches_the_formatted_route_property(m):
    assert m.literal() == old_literal(m)


@pytest.mark.parametrize("n", range(0, 9))
def test_element_rows_match_the_invariant_route(n):
    # every reduced matching on n vertices, every bidegree in one pass
    matchings = ma.noncrossing_matchings(n)
    rows = list(ma._element_rows(n, matchings))
    assert [m for m, _, _ in rows] == matchings
    for m, literal, text in rows:
        assert literal == old_literal(m), m
        assert text == ex.format_element(ma.matching_invariant(m)), m


def test_element_rows_frozen_examples():
    def text(*args):
        [(_, _, out)] = ma._element_rows(args[0], [ma.LabelledMatching(*args)])
        return out

    assert text(0) == "1"
    assert text(3, (), (2,), (3,)) == "1*a2 a3 t3"
    assert text(4, ((2, 3),), (1,), (4,)) == "1*a1 a2 t3 a4 t4 - 1*a1 t2 a3 a4 t4"
    assert text(4, ((1, 4), (2, 3))) == (
        "1*a1 a2 t3 t4 - 1*a1 t2 a3 t4 - 1*t1 a2 t3 a4 + 1*t1 t2 a3 a4"
    )


@pytest.mark.parametrize("n", range(0, 8))
def test_pair_matchings_match_the_mask_core(n):
    matching = ma._pair_matchings(n)
    vertices = range(1, n + 1)
    for k in range(2 * n + 1):
        for A in itertools.combinations(vertices, k // 2):
            for B in itertools.combinations(vertices, (k + 1) // 2):
                a, b = ma._mask(A), ma._mask(B)
                fields, literal, round_trip = matching(a, b)
                expected = ma._matching_from_masks(a, b, n)
                m = ma.LabelledMatching._trusted(n, *fields)
                assert m == expected and same_as_public(m)
                assert literal == old_literal(expected)
                assert round_trip is (ma._masks_from_matching(expected) == (a, b))


def test_pair_matchings_keep_their_memo_to_themselves():
    # the same masks on more vertices: a shared memo would hand back n=4
    a, b = ma._mask((1, 2)), ma._mask((2, 3))
    assert ma._pair_matchings(4)(a, b)[1] == "n=4; arcs=(1,3); at=2"
    assert ma._pair_matchings(5)(a, b)[1] == "n=5; arcs=(1,3); at=2"


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(subset_pairs(8, 14))
def test_pair_matchings_match_the_public_bijection_property(case):
    # past the exhaustive sweeps, which stop at n = 7
    n, A, B = case
    m = ma.matching_from_subsets(A, B, n)
    expected = ((m.arcs, m.alpha, m.alphatheta), m.literal(),
                ma.subsets_from_matching(m) == ma.SubsetPair(A, B))
    assert ma._pair_matchings(n)(ma._mask(A), ma._mask(B)) == expected
