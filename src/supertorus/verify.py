"""Named invariant checks and the CLI verification suites.

Each check replays one structural fact as an exact computation; a suite is a
list of named checks, and the acceptance tests call the same functions.
Every check takes ``n_max`` and covers these ranks n:

* 0..min(6, n_max): translate equals exp, rank profile, dimension formulas;
  1..min(6, n_max): complementary bijection, matching invariants, duality
  gram, lefschetz.
* 1..min(5, n_max): fixed points, bidegree shifts, sl2, equivariance,
  adjointness, sign-free bases, iterated raising blocks, noncrossing
  independence, the census's brute-force diagonal.
* 1..min(4, n_max): characters, normal form; 0..min(4, n_max): invariant
  bases fixed.
* 0..min(3, n_max): product laws exhaustively, with random associativity
  at min(6, n_max) if n_max >= 4, else at n_max.
* 1..min(8, max(n_max, 4)): noncrossing counts, bijection round trip, the
  census's closed forms; duality dimensions from 0.
* Relations up to min(6, max(2, n_max)) for presentation, its rule sweeps
  at min(that, 5).
* Regardless of n_max: Boolean incidence n = 1..12; random matrices of at
  most 6 rows and columns for the rank and kernel checks.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from . import cohomology as co
from . import exterior as ex
from . import linalg as la
from . import matchings as ma


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def random_element(rng: random.Random, n: int, terms: int = 4) -> ex.Element:
    """A seeded random element with small rational coefficients."""
    acc = {}
    for _ in range(terms):
        mask = rng.getrandbits(2 * n) if n else 0
        num = rng.randint(-4, 4)
        den = rng.randint(1, 3)
        if num:
            acc[mask] = acc.get(mask, Fraction(0)) + Fraction(num, den)
    return ex.Element._make(n, acc)


def random_invariant(rng: random.Random, n: int) -> ex.Element:
    """A seeded random element of the translation-invariant subalgebra."""
    out = ex.Element.zero(n)
    for _ in range(3):
        i = rng.randint(0, n)
        j = rng.randint(0, i)
        basis = co.invariants_basis(n, (i, j))
        if len(basis) == 0:
            continue
        v = basis[rng.randrange(len(basis))]
        out = out + v.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


def random_permutation(rng: random.Random, n: int) -> ex.Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return ex.Permutation(images)


# ---------------------------------------------------------------------------
# Core exterior-algebra checks.

def check_product_laws(n_max: int, rng: random.Random) -> bool:
    for n in range(0, min(3, n_max) + 1):
        monos = list(ex.all_monomials(n))
        for a, b in itertools.product(monos, repeat=2):
            fa, fb = ex.Element.from_monomial(a), ex.Element.from_monomial(b)
            ab = fa * fb
            p, q = a.degree, b.degree
            if (fb * fa) != ab.scale((-1) ** (p * q)):
                return False
        for a, b, c in itertools.islice(
            itertools.product(monos, repeat=3), 0, None, max(1, len(monos) // 8)
        ):
            fa, fb, fc = (ex.Element.from_monomial(x) for x in (a, b, c))
            if (fa * fb) * fc != fa * (fb * fc):
                return False
    n = min(6, n_max) if n_max >= 4 else n_max
    if n >= 1:
        for _ in range(30):
            f, g, h = (random_element(rng, n) for _ in range(3))
            if (f * g) * h != f * (g * h):
                return False
    return True


def check_translate_is_exp(n_max: int, rng: random.Random) -> bool:
    for n in range(0, min(6, n_max) + 1):
        for m in ex.all_monomials(n):
            f = ex.Element.from_monomial(m)
            if ex.translate(f) != ex.exp_raising(f):
                return False
    return True


def check_fixed_points(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(5, n_max) + 1):
        for _ in range(20):
            f = random_invariant(rng, n)
            if not (ex.raising(f).is_zero() and ex.translate(f) == f):
                return False
            g = random_element(rng, n)
            if ex.raising(g).is_zero() != (ex.translate(g) == g):
                return False
    return True


def check_bidegree_shifts(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(5, n_max) + 1):
        for _ in range(10):
            f = random_element(rng, n, terms=1)
            if f.is_zero():
                continue
            (d,) = f.bidegrees()
            for op, di, dj in ((ex.raising, 1, -1), (ex.lowering, -1, 1)):
                img = op(f)
                if not img.is_zero():
                    (e,) = img.bidegrees()
                    if e != (d.i + di, d.j + dj):
                        return False
    return True


def check_sl2_relations(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(5, n_max) + 1):
        for m in ex.all_monomials(n):
            f = ex.Element.from_monomial(m)
            lhs = ex.raising(ex.lowering(f)) - ex.lowering(ex.raising(f))
            if lhs != ex.weight(f):
                return False
            if ex.weight(ex.raising(f)) - ex.raising(ex.weight(f)) != ex.raising(f).scale(2):
                return False
            if ex.weight(ex.lowering(f)) - ex.lowering(ex.weight(f)) != ex.lowering(f).scale(-2):
                return False
    return True


def check_equivariance(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(5, n_max) + 1):
        for _ in range(10):
            f = random_element(rng, n)
            w = random_permutation(rng, n)
            if ex.permute(w, ex.raising(f)) != ex.raising(ex.permute(w, f)):
                return False
    return True


def check_adjointness(n_max: int, rng: random.Random) -> bool:
    """Raising is adjoint to minus itself for the volume pairing.

    The operator is an even derivation killing the top component, so
    <raising f, g> + <f, raising g> = 0 exactly; in particular the pairing of
    a kernel element against any image element vanishes.
    """
    for n in range(1, min(5, n_max) + 1):
        for _ in range(20):
            f = random_element(rng, n)
            g = random_element(rng, n)
            if ex.pairing(ex.raising(f), g) + ex.pairing(f, ex.raising(g)) != 0:
                return False
            u = random_invariant(rng, n)
            if ex.pairing(u, ex.raising(g)) != 0:
                return False
    return True


def check_sign_free_bases(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(5, n_max) + 1):
        indices = list(range(1, n + 1))
        ell = ex.lefschetz_element(n)
        for _ in range(20):
            A = {v for v in indices if rng.random() < 0.5}
            B = {v for v in indices if rng.random() < 0.5}
            image = ex.raising(ex.Element.from_monomial(ex.subset_monomial(A, B, n)))
            expect = ex.Element.zero(n)
            for c in sorted(B - A):
                expect = expect + ex.Element.from_monomial(
                    ex.subset_monomial(A | {c}, B - {c}, n)
                )
            if image != expect:
                return False
            image = ell * ex.paired_element(A, B, n)
            expect = ex.Element.zero(n)
            for c in indices:
                if c not in A and c not in B:
                    expect = expect + ex.paired_element(A | {c}, B | {c}, n)
            if image != expect:
                return False
    return True


# ---------------------------------------------------------------------------
# Exact linear algebra checks.

def _random_matrix(rng: random.Random, nrows: int, ncols: int) -> la.Matrix:
    entries = [
        Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(nrows * ncols)
    ]
    return la.Matrix(nrows, ncols, entries)


def check_rank_transpose(n_max: int, rng: random.Random) -> bool:
    for _ in range(15):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        if m.rank() != m.transpose().rank():
            return False
    return True


def check_kernel_exact(n_max: int, rng: random.Random) -> bool:
    for _ in range(15):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        kernel = m.kernel_basis()
        if len(kernel) != m.ncols - m.rank():
            return False
        for v in kernel:
            if any(m.mat_vec(v)):
                return False
    return True


def check_boolean_invertible(n_max: int, rng: random.Random) -> bool:
    for n in range(1, 13):
        for i in range(0, n // 2 + 1):
            m = la.boolean_incidence(n, i, n - i)
            if not m.nrows == m.ncols == math.comb(n, i) or not m.is_invertible():
                return False
    return True


def check_iterated_raising_blocks(n_max: int, rng: random.Random) -> bool:
    """The iterated raising matrix between complementary bidegrees splits,
    after grouping source pairs by union and intersection, into factorial
    multiples of transposed Boolean incidence blocks."""
    blocks = {}  # (d0, i0, j0) -> incidence block, its row and column subsets
    for n in range(1, min(5, n_max) + 1):
        for j in range(n + 1):
            for i in range(j + 1):
                for A, B in itertools.product(la.subsets_lex(n, i), la.subsets_lex(n, j)):
                    f = ex.Element.from_monomial(ex.subset_monomial(A, B, n))
                    for _ in range(j - i):
                        f = ex.raising(f)
                    D, I = set(A) | set(B), set(A) & set(B)
                    free = sorted(D - I)
                    relabel = {v: k + 1 for k, v in enumerate(free)}
                    seen = set()
                    for mono, coeff in f.terms():
                        A2 = {g.index for g in mono.generators() if g.kind == "alpha"}
                        B2 = {g.index for g in mono.generators() if g.kind == "theta"}
                        # nothing leaks out of the (D, I) class; every entry is r!
                        if A2 | B2 != D or A2 & B2 != I or not set(A) <= A2:
                            return False
                        if coeff != math.factorial(j - i):
                            return False
                        seen.add(tuple(sorted(relabel[v] for v in A2 - I)))
                    # the column is the row of A's free part in the incidence block
                    d0, i0, j0 = key = (len(free), i - len(I), j - len(I))
                    if key not in blocks:
                        blocks[key] = (la.boolean_incidence(*key), la.subsets_lex(d0, i0),
                                       la.subsets_lex(d0, j0))
                    inc, rows, cols = blocks[key]
                    row = rows.index(tuple(sorted(relabel[v] for v in set(A) - I)))
                    for col, T in enumerate(cols):
                        if (T in seen) != (inc[row, col] != 0):
                            return False
    return True


# ---------------------------------------------------------------------------
# Cohomology checks.

def check_rank_profile(n_max: int, rng: random.Random) -> bool:
    for n in range(0, min(6, n_max) + 1):
        for i in range(n + 1):
            for j in range(n + 1):
                m = co.raising_matrix(n, (i, j))
                r = m.rank()
                if i < j and r != m.ncols:
                    return False
                if i >= j and r != m.nrows:
                    return False
    return True


def check_complementary_bijection(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(6, n_max) + 1):
        for j in range(n + 1):
            for i in range(j + 1):
                source = co.bidegree_monomials(n, (i, j))
                target = co.bidegree_monomials(n, (j, i))
                cols = []
                for mono in source:
                    f = ex.Element.from_monomial(mono)
                    for _ in range(j - i):
                        f = ex.raising(f)
                    cols.append(co.element_coordinates(f, target))
                mat = la.Matrix.from_columns(cols, nrows=len(target))
                if mat.nrows != mat.ncols or not mat.is_invertible():
                    return False
    return True


def check_dimension_formulas(n_max: int, rng: random.Random) -> bool:
    for n in range(0, min(6, n_max) + 1):
        for i in range(n + 1):
            for j in range(n + 1):
                m = co.raising_matrix(n, (i, j))
                if m.ncols - m.rank() != co.invariants_dimension(n, i, j):
                    return False
                into = co.raising_matrix(n, (i - 1, j + 1))
                dim = len(co.bidegree_monomials(n, (i, j)))
                if dim - into.rank() != co.coinvariants_dimension(n, i, j):
                    return False
    return True


def check_duality_dimensions(n_max: int, rng: random.Random) -> bool:
    for n in range(0, min(8, max(n_max, 4)) + 1):
        for i in range(n + 1):
            for j in range(n + 1):
                if co.invariants_dimension(n, i, j) != co.coinvariants_dimension(
                    n, n - i, n - j
                ):
                    return False
    return True


def check_duality_gram(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(6, n_max) + 1):
        for i in range(n + 1):
            for j in range(i + 1):
                g = co.duality_gram(n, i, j)
                if g.nrows != g.ncols:
                    return False
                if g.nrows and not g.is_invertible():
                    return False
        for _ in range(20):
            u = random_invariant(rng, n)
            v = random_element(rng, n)
            if ex.pairing(u, ex.raising(v)) != 0:
                return False
    return True


def check_lefschetz(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(6, n_max) + 1):
        for i in range(n + 1):
            for j in range(n + 1 - i):
                m = co.lefschetz_matrix(n, i, j)
                if not m.nrows == m.ncols == co.invariants_dimension(n, i, j):
                    return False
                if m.nrows and not m.is_invertible():
                    return False
    return True


def check_characters(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(4, n_max) + 1):
        for i in range(n + 1):
            for j in range(i + 1):
                basis = co.invariants_basis(n, (i, j))
                if len(basis) == 0:
                    continue
                for w in co.symmetric_group(n):
                    if co.trace_on_basis(w, basis) != co.invariants_character(
                        n, i, j, w.cycle_type()
                    ):
                        return False
    return True


def check_invariant_bases_fixed(n_max: int, rng: random.Random) -> bool:
    for n in range(0, min(4, n_max) + 1):
        for i in range(n + 1):
            for j in range(i + 1):
                for v in co.invariants_basis(n, (i, j)):
                    if ex.translate(v) != v:
                        return False
    return True


def check_census(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(8, max(n_max, 4)) + 1):
        census = co.diagonal_census(n)
        if census.diagonal_total != census.catalan:
            return False
        if census.total != census.central_binomial:
            return False
        if census.diagonal != tuple(
            co.narayana(n + 1, i + 1) for i in range(n + 1)
        ):
            return False
    for n in range(1, min(5, n_max) + 1):
        diag = []
        for i in range(n + 1):
            m = co.raising_matrix(n, (i, i))
            diag.append(m.ncols - m.rank())
        if tuple(diag) != co.diagonal_census(n).diagonal:
            return False
    return True


# ---------------------------------------------------------------------------
# Matching checks.

def check_matching_invariants_translation(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(6, n_max) + 1):
        pool = ma.noncrossing_matchings(n)
        for _ in range(10):
            m = pool[rng.randrange(len(pool))]
            f = ma.matching_invariant(m)
            if ex.translate(f) != f or not ex.raising(f).is_zero():
                return False
    return True


def check_nc_counts(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(8, max(n_max, 4)) + 1):
        total = 0
        for k in range(0, 2 * n + 1):
            size = len(ma.noncrossing_matchings(n, k))
            if size != math.comb(n, k // 2) * math.comb(n, (k + 1) // 2):
                return False
            total += size
        if total != math.comb(2 * n + 1, n):
            return False
    return True


def check_bijection_round_trip(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(8, max(n_max, 4)) + 1):
        for m in ma.noncrossing_matchings(n):
            pair = ma.subsets_from_matching(m)
            if ma.matching_from_subsets(pair.A, pair.B, n) != m:
                return False
    return True


def normal_form_matches_oracle(n: int) -> bool:
    """Every labelled matching of size n: its normal form expands to its
    invariant, is noncrossing without nested labels, and has the coordinates
    that exact linear algebra finds over the noncrossing basis."""
    by_d = defaultdict(list)
    for m in ma.noncrossing_matchings(n):
        by_d[m.bidegree].append(m)
    bases = {}
    for d, ms in by_d.items():
        order = co.bidegree_monomials(n, d)
        cols = [co.element_coordinates(ma.matching_invariant(m), order) for m in ms]
        bases[d] = (ms, order, la.Matrix.from_columns(cols, nrows=len(order)))
    groups = defaultdict(list)
    for m in ma.labelled_matchings(n):
        groups[m.bidegree].append(m)
    for d, ms in groups.items():
        basis_ms, order, B = bases[d]
        vecs = [co.element_coordinates(ma.matching_invariant(m), order) for m in ms]
        for m, x in zip(ms, B.solve_many(vecs)):
            if x is None:
                return False
            nf = ma.normal_form(m)
            if nf.expand() != ma.matching_invariant(m):
                return False
            if any(ma.crossings(t) or ma.alpha_nestings(t) for t in nf.support()):
                return False
            if {bm: c for bm, c in zip(basis_ms, x) if c} != dict(nf.items()):
                return False
    return True


def check_normal_form(n_max: int, rng: random.Random) -> bool:
    return all(normal_form_matches_oracle(n) for n in range(1, min(4, n_max) + 1))


def check_nc_independence(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(5, n_max) + 1):
        for k in range(0, 2 * n + 1):
            ms = ma.noncrossing_matchings(n, k)
            if not ms:
                continue
            order = [
                mono
                for mono in ex.all_monomials(n)
                if mono.degree == k
            ]
            index = {mono.mask: r for r, mono in enumerate(order)}
            cols = []
            for m in ms:
                f = ma.matching_invariant(m)
                col = [Fraction(0)] * len(order)
                for mono, c in f.terms():
                    col[index[mono.mask]] = c
                cols.append(col)
            mat = la.Matrix.from_columns(cols, nrows=len(order))
            if mat.rank() != len(ms):
                return False
            kernel_dim = sum(
                co.invariants_dimension(n, i, k - i)
                for i in range(max(0, k - n), min(n, k) + 1)
                if 0 <= k - i <= n and i >= k - i
            )
            if len(ms) != kernel_dim:
                return False
    return True


def check_presentation(n_max: int, rng: random.Random) -> bool:
    return ma.verify_presentation(min(6, max(2, n_max))).ok


# ---------------------------------------------------------------------------
# Suite registry.

_CORE = [
    ("product laws", check_product_laws),
    ("translate equals exp of raising", check_translate_is_exp),
    ("fixed points of translation", check_fixed_points),
    ("bidegree shifts", check_bidegree_shifts),
    ("sl2 relations", check_sl2_relations),
    ("permutation equivariance", check_equivariance),
    ("raising adjoint to minus itself", check_adjointness),
    ("sign-free transition bases", check_sign_free_bases),
]

_LINALG = [
    ("rank equals transpose rank", check_rank_transpose),
    ("kernel vectors are exact", check_kernel_exact),
    ("boolean incidence invertible", check_boolean_invertible),
    ("iterated raising block decomposition", check_iterated_raising_blocks),
]

_COHOMOLOGY = [
    ("injective or surjective per bidegree", check_rank_profile),
    ("complementary bidegrees in bijection", check_complementary_bijection),
    ("dimension formulas match ranks", check_dimension_formulas),
    ("duality dimension match", check_duality_dimensions),
    ("duality gram invertible", check_duality_gram),
    ("lefschetz invertible", check_lefschetz),
    ("characters match trace oracle", check_characters),
    ("invariant bases are fixed points", check_invariant_bases_fixed),
    ("narayana catalan census", check_census),
]

_MATCHINGS = [
    ("matching invariants are invariant", check_matching_invariants_translation),
    ("noncrossing counts", check_nc_counts),
    ("bijection round trip", check_bijection_round_trip),
    ("normal form sound and matches oracle", check_normal_form),
    ("noncrossing independence and basis count", check_nc_independence),
    ("presentation relations", check_presentation),
]

SUITES = {
    "core": _CORE,
    "linalg": _LINALG,
    "cohomology": _COHOMOLOGY,
    "matchings": _MATCHINGS,
}


def suite_names(suite: str) -> list[str]:
    """The suites that ``suite`` names: one key of SUITES, or "all"."""
    if suite == "all":
        return list(SUITES)
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick from {', '.join(SUITES)}, all")
    return [suite]


def run_suite(suite: str, n_max: int = 4, seed: int = 0) -> list[CheckResult]:
    """Run one named suite (or "all"); deterministic for a fixed seed."""
    results = []
    for name in suite_names(suite):
        for check_name, fn in SUITES[name]:
            rng = random.Random(seed)
            try:
                passed = fn(n_max, rng)
                detail = ""
            except Exception as exc:  # surfaced as a failure, not a crash
                passed = False
                detail = f"{type(exc).__name__}: {exc}"
            results.append(CheckResult(name, check_name, passed, detail))
    return results
