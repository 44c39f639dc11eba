"""Unit tests for the exterior algebra core.

Expected values are frozen from hand computation or from independent
oracles coded inline (bubble-sort sign counts, set-based transition sums).
"""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supertorus import cohomology as co
from supertorus import exterior as ex
from supertorus import linalg as la
from supertorus import matchings as ma
from supertorus import verify as vf

from matrices import from_rows


def elem(text, n=None):
    return ex.parse_element(text, n)


def bubble_sign(positions):
    """Independent sign oracle: parity of the bubble sort of the sequence."""
    seq = list(positions)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    if len(set(seq)) != len(seq):
        return 0
    return sign


# ---------------------------------------------------------------------------
# generators, monomials, canonical order

def test_canonical_positions():
    assert ex.alpha(1).position == 0
    assert ex.theta(1).position == 1
    assert ex.alpha(3).position == 4
    assert ex.theta(3).position == 5


def test_monomial_bidegree():
    m = ex.subset_monomial({2, 3, 5}, {1, 3, 4, 6}, 8)
    assert m.bidegree() == (3, 4)
    assert str(m) == "t1 a2 a3 t3 t4 a5 t6"


def test_subset_monomial_trivia():
    assert ex.subset_monomial(set(), set(), 3) == ex.Monomial.one(3)
    assert str(ex.subset_monomial({1}, set(), 3)) == "a1"


def test_rank_guard():
    with pytest.raises(ValueError):
        ex.Monomial(15, 0)


# ---------------------------------------------------------------------------
# the value types: copies, pickles and frozen fields

_MATCHING = ma.LabelledMatching(6, ((3, 2), (4, 5)), (1,), (6,))

# One value of each type the package hands out, built on first use.
_VALUES = {
    "Monomial": lambda: ex.Monomial(3, 0b100111),
    "Permutation": lambda: ex.Permutation([3, 1, 2]),
    "Element": lambda: ex.parse_element("1 - 3*a2 + 1/2*a1 t2", 2),
    "Matrix": lambda: from_rows([[1, Fraction(1, 2)], [0, 3], [0, 0]]),
    "LabelledMatching": lambda: _MATCHING,
    "MatchingCombination": lambda: ma.MatchingCombination(6, {
        _MATCHING: Fraction(2, 3), ma.LabelledMatching(6, ((1, 2),), (3,), (4,)): -1}),
    "BidegreeBasis": lambda: co.invariants_basis(3, (2, 1)),
    "SubsetPair": lambda: ma.subsets_from_matching(_MATCHING),
    "CheckResult": lambda: vf.CheckResult("core", "product laws", False, "n=3", 0.25),
}

# The containers that hold the unfrozen types' values.
_STORAGE = {
    ex.Element: lambda v: [v._terms],
    la.Matrix: lambda v: [v._rows, *v._rows],
    ma.MatchingCombination: lambda v: [v._terms],
}


@pytest.mark.parametrize("name", _VALUES)
def test_value_round_trips_through_copy_and_pickle(name):
    value = _VALUES[name]()
    twins = [copy.copy(value), copy.deepcopy(value),
             *(pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1))]
    for twin in twins:
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
        storage = _STORAGE.get(type(value), lambda v: [])
        assert all(a is not b for a, b in zip(storage(twin), storage(value)))


@pytest.mark.parametrize("name", ["Monomial", "Permutation", "LabelledMatching", "BidegreeBasis"])
def test_record_fields_are_frozen(name):
    value = _VALUES[name]()
    before = (repr(value), hash(value))
    for field in (*type(value).__slots__, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(value, field)
    assert (repr(value), hash(value)) == before


def test_subset_pair_takes_no_attributes():
    pair = ma.SubsetPair({1}, {2})
    for field in ("A", "B", "extra"):
        with pytest.raises(AttributeError):
            setattr(pair, field, None)
    assert pair == (frozenset({1}), frozenset({2}))


# ---------------------------------------------------------------------------
# products

def test_square_vanishes():
    a1 = elem("1*a1", 2)
    assert (a1 * a1).is_zero()


def test_product_order_signs():
    assert elem("1*a1", 1) * elem("1*t1", 1) == elem("1*a1 t1")
    assert elem("1*t1", 1) * elem("1*a1", 1) == elem("-1*a1 t1")


def test_product_signs_against_bubble_oracle():
    rng = random.Random(2)
    n = 4
    for _ in range(120):
        ga = [ex._generator_at(p) for p in rng.sample(range(2 * n), rng.randint(0, 4))]
        gb = [ex._generator_at(p) for p in rng.sample(range(2 * n), rng.randint(0, 4))]
        pa = [g.position for g in ga]
        pb = [g.position for g in gb]
        prod = ex.generator_product(n, ga) * ex.generator_product(n, gb)
        expected_sign = bubble_sign(sorted(pa)) * bubble_sign(sorted(pb)) * bubble_sign(pa + pb)
        if expected_sign == 0:
            assert prod.is_zero()
        else:
            mono = ex.Monomial(n, sum(1 << p for p in set(pa + pb)))
            assert prod == ex.Element.from_monomial(mono, expected_sign)


def loop_merge_sign(a_mask, b_mask):
    """The loop form of ``_merge_sign``, kept as its oracle: one step per bit
    of a, each counting the bits of b below it."""
    sign = 1
    a = a_mask
    while a:
        low = a & -a
        if (b_mask & (low - 1)).bit_count() & 1:
            sign = -sign
        a ^= low
    return sign


def test_merge_sign_matches_loop_oracle():
    for a in range(1 << 10):  # every disjoint pair of 10-bit masks
        rest = b = ~a & 0x3FF
        while True:
            assert ex._merge_sign(a, b) == loop_merge_sign(a, b), (a, b)
            if not b:
                break
            b = (b - 1) & rest
    rng = random.Random(17)
    for _ in range(200_000):  # masks of the full 2 * MAX_RANK = 28 bits
        a = rng.getrandbits(28)
        b = rng.getrandbits(28) & ~a
        assert ex._merge_sign(a, b) == loop_merge_sign(a, b), (a, b)


def test_supercommutativity_exhaustive_n2():
    for a, b in itertools.product(ex.all_monomials(2), repeat=2):
        fa, fb = ex.Element.from_monomial(a), ex.Element.from_monomial(b)
        assert fb * fa == (fa * fb).scale((-1) ** (a.degree * b.degree))


def test_associativity_random():
    rng = random.Random(5)
    from supertorus.verify import random_element

    for _ in range(40):
        f, g, h = (random_element(rng, 3) for _ in range(3))
        assert (f * g) * h == f * (g * h)


def product_laws_oracle(n_max, rng):
    """``verify.check_product_laws`` as it was before the monomial table,
    kept as its verdict oracle: it multiplies elements for every pair and
    again for every sampled triple."""
    from supertorus.verify import random_element

    for n in range(0, min(3, n_max) + 1):
        monos = [(m, ex.Element.from_monomial(m)) for m in ex.all_monomials(n)]
        for (a, fa), (b, fb) in itertools.product(monos, repeat=2):
            ab = fa * fb
            p, q = a.degree, b.degree
            if (fb * fa) != ab.scale((-1) ** (p * q)):
                return False
        for (_, fa), (_, fb), (_, fc) in itertools.islice(
            itertools.product(monos, repeat=3), 0, None, max(1, len(monos) // 8)
        ):
            if (fa * fb) * fc != fa * (fb * fc):
                return False
    n = min(6, n_max) if n_max >= 4 else n_max
    if n >= 1:
        for _ in range(30):
            f, g, h = (random_element(rng, n) for _ in range(3))
            if (f * g) * h != f * (g * h):
                return False
    return True


@pytest.mark.parametrize("n", range(4))
def test_monomial_products_match_loop_oracle(n):
    from supertorus.verify import _monomial_products

    size = 4 ** n
    expected = [[0 if a & b else loop_merge_sign(a, b) * ((a | b) + 1) for b in range(size)]
                for a in range(size)]
    assert _monomial_products(n) == expected


@pytest.mark.parametrize(
    "fault", [None, "sign_free_product", "reversed_merge_sign", "flipped_pair_sign"])
@pytest.mark.parametrize("n_max", range(5))
def test_product_laws_verdict_matches_oracle(request, fault, n_max):
    # the reversed merge sign yields the opposite algebra, so both hold there
    from supertorus.verify import check_product_laws

    if fault:
        request.getfixturevalue(fault)
    assert check_product_laws(n_max, random.Random(n_max)) == product_laws_oracle(
        n_max, random.Random(n_max))


def test_product_laws_refuse_a_monomial_product_off_its_sign(monkeypatch):
    # f g + (f - f0)(g - g0), with f0 the constant term of f, is the exterior
    # product carried over by x -> 2x on every monomial but 1, so it keeps
    # both laws; only the table's rule that a product of monomials is a sign
    # times a monomial can refuse it
    from supertorus.verify import check_product_laws

    mul = ex.Element.__mul__

    def shifted(f, g):
        if not isinstance(g, ex.Element):
            return mul(f, g)
        f1, g1 = (h - ex.Element(h.n, {0: h.coefficient(ex.Monomial.one(h.n))})
                  for h in (f, g))
        return mul(f, g) + mul(f1, g1)

    monkeypatch.setattr(ex.Element, "__mul__", shifted)
    assert product_laws_oracle(2, random.Random(0))
    assert not check_product_laws(2, random.Random(0))


def test_rank_mismatch_is_error():
    with pytest.raises(ValueError):
        elem("1*a1", 1) * elem("1*a1", 2)


def test_constructor_drops_zero_coefficients():
    e = ex.Element(2, {0: Fraction(0), 3: Fraction(1)})
    assert len(e) == 1
    assert e == ex.Element(2, {3: Fraction(1)})
    assert (e - e) == ex.Element.zero(2)


@pytest.mark.parametrize("build", [
    lambda: ex.Element(2, {1: 0.5}),
    lambda: ex.Element(2, {1: Fraction(1), 2: 2.0}),
    lambda: ex.Element.from_monomial(ex.Monomial(2, 1), 0.1),
    lambda: ex.Element.one(2).scale(0.25),
    lambda: ex.Element.one(2) * 0.5,
    lambda: 0.5 * ex.Element.one(2),
    lambda: ex.Element.one(2) * "2",
    lambda: ex.Element.one(2) + 1,
    lambda: ex.Element.one(2) - Fraction(1),
], ids=["init", "init-mixed", "from-monomial", "scale", "mul", "rmul", "mul-str", "add",
        "sub"])
def test_element_refuses_floats_and_other_scalars(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("n, mask", [(2, 99), (2, 16), (2, -1), (0, 1)])
def test_element_refuses_out_of_range_masks(n, mask):
    with pytest.raises(ValueError) as monomial:
        ex.Monomial(n, mask)
    with pytest.raises(ValueError) as element:
        ex.Element(n, {mask: Fraction(1)})
    assert str(element.value) == str(monomial.value)


def test_element_keeps_exact_coefficient_types():
    m = ex.Monomial(2, 0b1001)
    assert type(ex.Element(2, {m.mask: 3}).coefficient(m)) is int
    assert type(ex.Element(2, {m.mask: Fraction(1, 2)}).coefficient(m)) is Fraction
    assert type(ex.Element.from_monomial(m, 3).coefficient(m)) is int
    assert type(ex.Element.from_monomial(m).scale(2).coefficient(m)) is int
    assert type(ex.Element.from_monomial(m, Fraction(1, 2)).coefficient(m)) is Fraction
    assert type(ex.Element.from_monomial(m).scale(Fraction(1, 2)).coefficient(m)) is Fraction
    assert ex.Element(2, {15: Fraction(1)}) == ex.Element.from_monomial(ex.Monomial(2, 15))
    assert 2 * ex.Element.one(2) == ex.Element.one(2) * Fraction(2) == ex.Element.one(2).scale(2)


def coefficient_types(*elements):
    return {type(c) for f in elements for c in f._terms.values()}


def test_integer_producers_hold_int_coefficients():
    """The integral objects of the calculus carry ``int`` coefficients."""
    n = 5
    assert coefficient_types(*co.invariants_basis(n, (3, 2)).vectors) == {int}
    assert coefficient_types(*co.coinvariants_representatives(n, (2, 3)).vectors) == {int}
    m = ma.parse_matching("n=5; arcs=(2,4),(3,5); at=1")
    assert coefficient_types(ma.matching_invariant(m)) == {int}
    assert coefficient_types(ex.lefschetz_element(n)) == {int}
    gens = [ex.theta(2), ex.alpha(1), ex.theta(1)]
    assert coefficient_types(ex.generator_product(n, gens)) == {int}
    assert coefficient_types(ex.Element.one(n)) == {int}
    assert coefficient_types(elem("2*a1 t2 - 3*a2 t1")) == {int}
    assert coefficient_types(elem("1/2*a1 t2 - 3*a2 t1")) == {Fraction, int}


def as_fractions(f):
    return ex.Element._make(f.n, {m: Fraction(c) for m, c in f._terms.items()})


def test_int_route_matches_fraction_route():
    """Every operator gives the same terms on int coefficients as on the
    same values held as Fractions, and keeps ints ints, except the 1/k of
    ``exp_raising``; the scalar results stay Fractions either way."""
    rng = random.Random(34)
    for n in range(6):
        for _ in range(6):
            f, g = (ex.Element(n, {rng.getrandbits(2 * n): rng.randint(-3, 3)
                                   for _ in range(5)}) for _ in range(2))
            ff, gf = as_fractions(f), as_fractions(g)
            w = ex.Permutation(rng.sample(range(1, n + 1), n))
            gen = ex.Generator(rng.choice(["alpha", "theta"]), rng.randint(1, max(n, 1)))
            d = (rng.randint(0, n), rng.randint(0, n))
            k = rng.randint(-3, 3)
            ops = [
                lambda a, b: a + b,
                lambda a, b: a - b,
                lambda a, b: -a,
                lambda a, b: a * b,
                lambda a, b: a.scale(k),
                lambda a, b: ex.raising(a),
                lambda a, b: ex.lowering(a),
                lambda a, b: ex.weight(a),
                lambda a, b: ex.translate(a),
                lambda a, b: ex.permute(w, a),
                lambda a, b: a.bidegree_component(d),
            ]
            if n:
                ops.append(lambda a, b: ex.derivative(a, gen))
            for op in ops:
                out = op(f, g)
                assert out._terms == op(ff, gf)._terms
                assert coefficient_types(out) <= {int}
            assert ex.exp_raising(f)._terms == ex.exp_raising(ff)._terms
            assert type(ex.pairing(f, g)) is Fraction
            assert ex.pairing(f, g) == ex.pairing(ff, gf)
        for i in range((n + 1) // 2, n + 1):
            basis = co.invariants_basis(n, (i, n - i))
            twin = co.BidegreeBasis(n, basis.bidegree, tuple(map(as_fractions, basis)))
            trace = co.trace_on_basis(w, basis)
            assert type(trace) is Fraction
            assert trace == co.trace_on_basis(w, twin)


# ---------------------------------------------------------------------------
# derivatives

def test_derivative_examples():
    assert ex.derivative(elem("1*t1", 1), ex.theta(1)) == ex.Element.one(1)
    f = elem("1*a1 t1 t2", 2)
    assert ex.derivative(f, ex.theta(2)) == elem("1*a1 t1", 2)
    assert ex.derivative(elem("1*t1", 2), ex.alpha(2)).is_zero()


def test_derivative_position_sign():
    # removing from an odd slot flips the sign
    f = elem("1*a1 t1", 1)
    assert ex.derivative(f, ex.theta(1)) == elem("-1*a1", 1)
    assert ex.derivative(f, ex.alpha(1)) == elem("1*t1", 1)


# ---------------------------------------------------------------------------
# the operator triple and translation

def test_raising_single():
    assert ex.raising(elem("1*t1", 1)) == elem("1*a1", 1)


def test_raising_transition_is_sign_free():
    n = 4
    rng = random.Random(9)
    for _ in range(40):
        A = {v for v in range(1, n + 1) if rng.random() < 0.5}
        B = {v for v in range(1, n + 1) if rng.random() < 0.5}
        image = ex.raising(ex.Element.from_monomial(ex.subset_monomial(A, B, n)))
        expected = ex.Element.zero(n)
        for c in sorted(B - A):
            expected = expected + ex.Element.from_monomial(
                ex.subset_monomial(A | {c}, B - {c}, n)
            )
        assert image == expected


def test_raising_kills_lefschetz():
    for n in range(0, 5):
        assert ex.raising(ex.lefschetz_element(n)).is_zero()


def test_lowering_and_weight():
    assert ex.lowering(elem("1*a1", 1)) == elem("1*t1", 1)
    assert ex.lowering(elem("1*t1", 1)).is_zero()
    assert ex.weight(elem("1*a1", 2)) == elem("1*a1", 2)
    assert ex.weight(elem("1*t1 t2", 2)) == elem("-2*t1 t2", 2)
    assert ex.weight(elem("1*a1 t1", 2)).is_zero()


def test_translate_fixes_alphas():
    for i in (1, 2, 3):
        f = ex.generator_element(ex.alpha(i), 3)
        assert ex.translate(f) == f


def test_translate_expansion_frozen():
    got = ex.translate(elem("1*t1 t2", 2))
    assert got == elem("1*t1 t2 + 1*t1 a2 + 1*a1 t2 + 1*a1 a2", 2)


def test_translate_fixes_basic_invariant():
    f = elem("1*a1 t2 + 1*a2 t1", 2)
    assert ex.translate(f) == f


def test_translate_is_algebra_map():
    rng = random.Random(11)
    from supertorus.verify import random_element

    for _ in range(25):
        f, g = random_element(rng, 3), random_element(rng, 3)
        assert ex.translate(f * g) == ex.translate(f) * ex.translate(g)


def test_exp_raising_scalar():
    assert ex.exp_raising(ex.Element.one(3)) == ex.Element.one(3)


# ---------------------------------------------------------------------------
# lefschetz element and the paired basis

def test_lefschetz_element_small():
    assert ex.lefschetz_element(1) == elem("1*a1 t1", 1)
    assert ex.lefschetz_element(0) == ex.Element.zero(0)


def test_lefschetz_power_vanishes():
    for n in (1, 2, 3):
        ell = ex.lefschetz_element(n)
        assert not (ell ** n).is_zero()
        assert (ell ** (n + 1)).is_zero()


def test_paired_element_frozen_example():
    # (a4 t4 a7 t7) a2 a5 t3, with the reordering sign folded in
    got = ex.paired_element({2, 4, 5, 7}, {3, 4, 7}, 8)
    gens = [ex.alpha(4), ex.theta(4), ex.alpha(7), ex.theta(7),
            ex.alpha(2), ex.alpha(5), ex.theta(3)]
    sign = bubble_sign([g.position for g in gens])
    mono = ex.subset_monomial({2, 4, 5, 7}, {3, 4, 7}, 8)
    assert sign == -1
    assert got == ex.Element.from_monomial(mono, sign)


def test_paired_element_trivia():
    assert ex.paired_element({1}, {1}, 1) == elem("1*a1 t1", 1)
    assert ex.paired_element({1}, {2}, 2) == elem("1*a1 t2", 2)


def test_paired_underlying_monomial_bijection():
    # the pair determines the underlying monomial and conversely
    n = 3
    seen = {}
    for bits_a in range(8):
        for bits_b in range(8):
            A = {i + 1 for i in range(3) if bits_a >> i & 1}
            B = {i + 1 for i in range(3) if bits_b >> i & 1}
            f = ex.paired_element(A, B, n)
            (mono, coeff) = f.terms()[0]
            assert coeff in (1, -1)
            assert mono == ex.subset_monomial(A, B, n)
            assert mono.mask not in seen
            seen[mono.mask] = (A, B)
    assert len(seen) == 64


def test_lefschetz_transition_sign_free():
    n = 3
    ell = ex.lefschetz_element(n)
    for bits_a in range(8):
        for bits_b in range(8):
            A = {i + 1 for i in range(3) if bits_a >> i & 1}
            B = {i + 1 for i in range(3) if bits_b >> i & 1}
            image = ell * ex.paired_element(A, B, n)
            expected = ex.Element.zero(n)
            for c in range(1, n + 1):
                if c not in A and c not in B:
                    expected = expected + ex.paired_element(A | {c}, B | {c}, n)
            assert image == expected


# ---------------------------------------------------------------------------
# permutation action

def test_permute_identity():
    f = elem("1*a1 t2 - 3/2*t1", 2)
    assert ex.permute(ex.Permutation.identity(2), f) == f


def test_permute_relabels():
    w = ex.Permutation((2, 1))
    assert ex.permute(w, elem("1*a1 t2", 2)) == elem("1*a2 t1", 2)
    assert ex.permute(w, elem("1*a1 a2", 2)) == elem("-1*a1 a2", 2)


def test_permute_is_algebra_automorphism():
    rng = random.Random(3)
    from supertorus.verify import random_element, random_permutation

    for _ in range(20):
        f, g = random_element(rng, 3), random_element(rng, 3)
        w = random_permutation(rng, 3)
        assert ex.permute(w, f * g) == ex.permute(w, f) * ex.permute(w, g)


def permute_oracle(w, f):
    """The generator-object route: relabel each generator, count inversions."""
    acc = {}
    for mask, c in f._terms.items():
        positions = [
            ex.Generator(g.kind, w(g.index)).position
            for g in ex.Monomial(f.n, mask).generators()
        ]
        inversions = sum(a > b for a, b in itertools.combinations(positions, 2))
        new = sum(1 << p for p in positions)
        acc[new] = acc.get(new, Fraction(0)) + (-1) ** inversions * c
    return ex.Element(f.n, acc)


def assert_same_element(got, want):
    assert got.n == want.n
    assert got._terms == want._terms
    assert all(type(got._terms[m]) is type(want._terms[m]) for m in want._terms)


@pytest.mark.parametrize("n", range(5))
def test_permute_matches_oracle_on_monomials(n):
    for w in itertools.permutations(range(1, n + 1)):
        w = ex.Permutation(w)
        for m in ex.all_monomials(n):
            f = ex.Element.from_monomial(m, Fraction(-3, 2))
            assert_same_element(ex.permute(w, f), permute_oracle(w, f))


def test_permute_matches_oracle_random():
    rng = random.Random(11)
    from supertorus.verify import random_element, random_permutation

    for _ in range(1000):
        n = rng.randint(5, 9)
        f, w = random_element(rng, n), random_permutation(rng, n)
        assert_same_element(ex.permute(w, f), permute_oracle(w, f))


# The generic routes the sl2 triple replaced: raising and lowering through n
# generator elements, derivatives, products and sums, and bidegrees through
# an alpha mask parsed for the rank at hand.

def raising_oracle(f):
    out = ex.Element.zero(f.n)
    for i in range(1, f.n + 1):
        out = out + ex.generator_element(ex.alpha(i), f.n) * ex.derivative(f, ex.theta(i))
    return out


def lowering_oracle(f):
    out = ex.Element.zero(f.n)
    for i in range(1, f.n + 1):
        out = out + ex.generator_element(ex.theta(i), f.n) * ex.derivative(f, ex.alpha(i))
    return out


def bidegree_oracle(n, mask):
    alpha_bits = mask & (int("01" * n, 2) if n else 0)
    return ex.Bidegree(alpha_bits.bit_count(), mask.bit_count() - alpha_bits.bit_count())


def weight_oracle(f):
    acc = {}
    for mask, c in f._terms.items():
        i, j = bidegree_oracle(f.n, mask)
        if i != j:
            acc[mask] = (i - j) * c
    return ex.Element._make(f.n, acc)


def assert_triple_matches_oracles(f):
    assert_same_element(ex.raising(f), raising_oracle(f))
    assert_same_element(ex.lowering(f), lowering_oracle(f))
    assert_same_element(ex.weight(f), weight_oracle(f))
    assert f.bidegrees() == {bidegree_oracle(f.n, m) for m in f._terms}
    for d in f.bidegrees():
        want = {m: c for m, c in f._terms.items() if bidegree_oracle(f.n, m) == d}
        assert f.bidegree_component(d)._terms == want


@pytest.mark.parametrize("n", range(6))
def test_sl2_triple_matches_oracle_on_monomials(n):
    for m in ex.all_monomials(n):
        assert m.bidegree() == bidegree_oracle(n, m.mask)
        for coeff in (3, Fraction(-3, 2)):
            assert_triple_matches_oracles(ex.Element(n, {m.mask: coeff}))


def test_sl2_triple_matches_oracle_random():
    rng = random.Random(12)
    from supertorus.verify import random_element

    for _ in range(1000):
        assert_triple_matches_oracles(random_element(rng, rng.randint(5, 9), terms=6))


def test_equivariance_with_raising():
    rng = random.Random(4)
    from supertorus.verify import random_element, random_permutation

    for _ in range(20):
        f = random_element(rng, 4)
        w = random_permutation(rng, 4)
        assert ex.permute(w, ex.raising(f)) == ex.raising(ex.permute(w, f))


@pytest.mark.parametrize("images", [(2.0, 1.0), (True, 2), ("1",)])
def test_permutation_refuses_non_integer_images(images):
    with pytest.raises(TypeError, match="image must be an integer"):
        ex.Permutation(images)


@pytest.mark.parametrize("build, error, message", [
    (lambda: ex.Element(True), TypeError, "rank must be an integer"),
    (lambda: ex.Monomial(True, 0), TypeError, "rank must be an integer"),
    (lambda: ex.Monomial(2, 1.0), TypeError, "mask must be an integer"),
    (lambda: ex.Monomial(2, True), TypeError, "mask must be an integer"),
    (lambda: ex.Element(2, {True: 1}), TypeError, "mask must be an integer"),
    (lambda: ex.Element(2, {1.0: 1}), TypeError, "mask must be an integer"),
    (lambda: ex.Permutation([2, 1, 3])(0), ValueError, r"index 0 out of range 1\.\.3"),
    (lambda: ex.Permutation([2, 1, 3])(4), ValueError, r"index 4 out of range 1\.\.3"),
    (lambda: ex.Permutation([2, 1, 3])(True), TypeError, "index must be an integer"),
    (lambda: ex.subset_monomial({True}, (), 2), TypeError, "index must be an integer"),
    (lambda: ex.generator_product(2, [ex.alpha(True)]), TypeError,
     "index must be an integer"),
    (lambda: ex.generator_element(ex.theta(True), 2), TypeError, "index must be an integer"),
    (lambda: ex.generator_element(ex.theta(3), 2), ValueError,
     "generator t3 out of range for rank 2"),
    (lambda: ex.derivative(ex.Element.one(2), ex.theta(True)), TypeError,
     "index must be an integer"),
    (lambda: ex.Element.one(2) ** True, TypeError, "exponent must be an integer"),
], ids=["element-rank-bool", "monomial-rank-bool", "monomial-mask-float",
        "monomial-mask-bool", "element-mask-bool", "element-mask-float", "call-0",
        "call-past-n", "call-bool", "subset-monomial-bool", "generator-product-bool",
        "generator-element-bool", "generator-element-past-n", "derivative-bool",
        "power-bool"])
def test_ranks_masks_and_indices_must_be_ints(build, error, message):
    # each was accepted once: Element(True) had rank True, Monomial(2, 1.0)
    # failed only when printed, Permutation(...)(0) gave the last image,
    # subset_monomial({True}, (), 2) built a1 and f ** True returned f
    with pytest.raises(error, match=message):
        build()


def test_cycle_type():
    assert ex.Permutation((2, 1, 3)).cycle_type() == (2, 1)
    assert ex.Permutation((2, 3, 1)).cycle_type() == (3,)
    assert ex.Permutation.identity(4).cycle_type() == (1, 1, 1, 1)


# ---------------------------------------------------------------------------
# pairing

def test_pairing_volume():
    for n in (0, 1, 2, 3):
        one = ex.Element.one(n)
        vol = ex.Element.from_monomial(ex.volume_form(n))
        assert ex.pairing(one, vol) == 1


def test_pairing_wrong_bidegree_vanishes():
    assert ex.pairing(elem("1*a1", 2), elem("1*t1", 2)) == 0


def test_pairing_antisymmetry_of_raising():
    # the raising operator is adjoint to minus itself; frozen counterexample
    # to the naive sign: <raising t1, t1> = 1 while <t1, raising t1> = -1
    t1 = elem("1*t1", 1)
    assert ex.pairing(ex.raising(t1), t1) == 1
    assert ex.pairing(t1, ex.raising(t1)) == -1
    rng = random.Random(6)
    from supertorus.verify import random_element

    for n in (1, 2, 3, 4):
        for _ in range(30):
            f, g = random_element(rng, n), random_element(rng, n)
            assert ex.pairing(ex.raising(f), g) == -ex.pairing(f, ex.raising(g))


def test_pairing_perfect_on_monomials():
    n = 2
    vol = (1 << (2 * n)) - 1
    for m in ex.all_monomials(n):
        comp = ex.Monomial(n, vol ^ m.mask)
        val = ex.pairing(ex.Element.from_monomial(m), ex.Element.from_monomial(comp))
        assert val in (1, -1)


# ---------------------------------------------------------------------------
# components and literals

def test_bidegree_component_partition():
    rng = random.Random(8)
    from supertorus.verify import random_element

    f = random_element(rng, 3, terms=8)
    total = ex.Element.zero(3)
    for i in range(4):
        for j in range(4):
            total = total + f.bidegree_component((i, j))
    assert total == f
    assert f.bidegree_component((9, 9)).is_zero()


def test_component_out_of_support():
    f = elem("1*a1 + 1*t1", 1)
    assert f.bidegree_component((1, 0)) == elem("1*a1", 1)
    assert f.bidegree_component((1, 1)).is_zero()


def test_parse_element_examples():
    f = elem("1*a1 t2 - 1*a2 t1")
    assert f.n == 2
    assert f.coefficient(ex.subset_monomial({1}, {2}, 2)) == 1
    # -1 * (a2 t1) reorders to +1 * (t1 a2) in canonical storage
    assert f.coefficient(ex.subset_monomial({2}, {1}, 2)) == 1
    assert f == elem("1*a1 t2 + 1*t1 a2", 2)


def test_parse_element_coefficients():
    assert elem("3/2*a1", 1) == ex.Element.from_monomial(
        ex.subset_monomial({1}, set(), 1), Fraction(3, 2)
    )
    assert elem("2", 1) == ex.Element.one(1).scale(2)
    assert elem("a1 t1", 1) == elem("1*a1 t1", 1)


def test_parse_element_errors():
    with pytest.raises(ex.LiteralParseError):
        ex.parse_element("")
    with pytest.raises(ex.LiteralParseError):
        ex.parse_element("1*")
    with pytest.raises(ex.LiteralParseError):
        ex.parse_element("1*a1 % t2")
    with pytest.raises(ex.LiteralParseError):
        ex.parse_element("a1 +")
    err = None
    try:
        ex.parse_element("1*a1 t2 - 1*a9 t1", n=2)
    except ex.LiteralParseError as e:
        err = e
    assert err is not None and "exceeds rank" in str(err)


def test_parse_element_reports_an_index_over_the_guard_at_its_generator():
    with pytest.raises(ex.LiteralParseError) as info:
        ex.parse_element("1*a1 + t99")
    assert info.value.position == 7
    assert info.value.caret_diagnostic() == (
        "1*a1 + t99\n       ^ generator index 99 exceeds the guard 14"
    )
    ex.parse_element("t14")  # the guard itself is admitted
    with pytest.raises(ex.LiteralParseError) as info:
        ex.parse_element("a1 + 2/" + "3" * 5000)
    assert info.value.position == 7
    assert info.value.message == "integer too long"


@pytest.mark.parametrize("text", ["\u0663*a1", "2*a\u0661", "1/\u00b2*a1", "a\uff11"])
def test_parse_element_takes_ascii_digits_only(text):
    with pytest.raises(ex.LiteralParseError):
        ex.parse_element(text)


# One literal per LiteralParseError branch of the element grammar, with the
# exact position and message: whitespace is skipped before a position is
# taken, except that the rank and denominator failures point at their term.
@pytest.mark.parametrize("text, n, position, message", [
    ("a1 + 2/0*a2", None, 5, "zero denominator"),
    ("a1 + 12/ 0 t2", None, 5, "zero denominator"),
    ("1 + 3*  %", None, 8, "expected a generator after '*'"),
    ("1*", None, 2, "expected a generator after '*'"),
    ("3*a1 t0", None, 5, "generator index must be >= 1"),
    ("a1 -  t15", None, 6, "generator index 15 exceeds the guard 14"),
    ("a1 t2 3*a2", None, 6, "expected '+' or '-' between terms"),
    # '/' is read across any whitespace, a no-break space too, so the
    # first term ends after a1
    ("1\u00a0/\u00a02*a1 3", None, 9, "expected '+' or '-' between terms"),
    ("a1 + %", None, 5, "expected a term"),
    ("a1 +  ", None, 6, "expected a term"),
    ("", None, 0, "empty element literal"),
    (" \t ", None, 3, "empty element literal"),
    ("a1 - \t1*a9 t1", 2, 6, "generator index 9 exceeds rank 2"),
    ("7" * 5000 + "*a1", None, 0, "integer too long"),
    ("a1 + 2/" + "3" * 5000, None, 7, "integer too long"),
    ("a1 t" + "1" * 5000, None, 4, "integer too long"),
], ids=lambda v: v[:12] if isinstance(v, str) else None)
def test_parse_element_error_positions(text, n, position, message):
    with pytest.raises(ex.LiteralParseError) as info:
        ex.parse_element(text, n)
    assert (info.value.position, info.value.message) == (position, message)
    assert info.value.text == text


def test_parse_element_skips_unicode_whitespace_around_a_slash():
    assert elem("1\u00a0/2*a1") == elem("1 /2*a1") == elem("1/2*a1")
    assert elem("3\u2003/\u30004 t2") == elem("3/4 t2")


def test_format_parse_round_trip():
    rng = random.Random(13)
    from supertorus.verify import random_element

    for _ in range(40):
        f = random_element(rng, 3, terms=5)
        assert ex.parse_element(ex.format_element(f), 3) == f
    assert ex.format_element(ex.Element.zero(2)) == "0"


@st.composite
def elements(draw, max_rank=6, min_rank=0):
    """Random elements of rank ``min_rank`` to ``max_rank``: rational
    coefficients of either sign, the constant term among the masks, and the
    zero element when the drawn terms are empty or cancel."""
    n = draw(st.integers(min_rank, max_rank))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    terms = draw(st.lists(st.tuples(st.integers(0, (1 << (2 * n)) - 1), coeffs), max_size=6))
    f = ex.Element.zero(n)
    for mask, c in terms:
        f = f + ex.Element(n, {mask: c})
    return f


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(elements())
@example(ex.Element.zero(0))
@example(ex.Element.zero(3))
@example(ex.Element(2, {0: Fraction(-3, 4)}))
@example(ex.Element(3, {0: Fraction(5, 2), 0b100110: Fraction(-7, 3), 0b1: Fraction(-1)}))
def test_format_parse_round_trip_property(f):
    text = ex.format_element(f)
    assert ex.parse_element(text, f.n) == f
    assert (text == "0") == f.is_zero()


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(elements(8))
def test_translate_is_exp_raising_property(f):
    assert ex.translate(f) == ex.exp_raising(f)


@st.composite
def same_rank_elements(draw, count, max_rank=8):
    """``count`` elements, each drawn by ``elements``, of one rank n <= max_rank."""
    n = draw(st.integers(0, max_rank))
    return [draw(elements(n, min_rank=n)) for _ in range(count)]


def parity_part(f, parity):
    """The terms of f whose total degree has the given parity."""
    return ex.Element(f.n, {m.mask: c for m, c in f.terms() if m.degree % 2 == parity})


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(same_rank_elements(3))
def test_product_is_associative_property(fgh):
    f, g, h = fgh
    assert (f * g) * h == f * (g * h)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(same_rank_elements(2))
def test_product_is_graded_commutative_property(fg):
    f, g = fg
    for p, q in itertools.product((0, 1), repeat=2):
        fp, gq = parity_part(f, p), parity_part(g, q)
        assert fp * gq == (gq * fp).scale((-1) ** (p * q))
