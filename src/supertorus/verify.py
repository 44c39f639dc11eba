"""Named invariant checks and the CLI verification suites.

Each check replays one structural fact as an exact computation; a suite is a
list of named checks, and the acceptance tests call the same functions.
Every check takes ``n_max`` and covers these ranks n:

* 0..min(6, n_max): translate equals exp, rank profile, dimension formulas;
  1..min(6, n_max): complementary bijection, matching invariants.
* 1..min(8, n_max): duality gram, lefschetz, noncrossing independence.
* 1..min(5, n_max): fixed points, bidegree shifts, sl2, equivariance,
  adjointness, sign-free bases, iterated raising blocks, the census's
  brute-force diagonal.
* 1..min(4, n_max): characters, normal form; 0..min(4, n_max): invariant
  bases fixed.  The normal-form check compares three routes on every
  labelled matching: ``matchings.normal_form`` (straightening on leading
  terms), the skein rewriting of ``skein_normal_form`` and the exact solve
  over the noncrossing basis.
* 0..min(3, n_max): product laws, read off one table of the products of
  every ordered pair of monomials, each of which must be a sign times a
  monomial or zero: graded commutativity on every pair, associativity on
  every eighth triple; then associativity of 30 random triples with
  rational coefficients at min(6, n_max) if n_max >= 4, else at n_max.
* 1..min(8, max(n_max, 4)): noncrossing counts, bijection round trip, the
  census's closed forms; duality dimensions from 0.
* Relations up to min(6, max(2, n_max)) for presentation, its rule sweeps
  at min(that, 5).
* Regardless of n_max: Boolean incidence n = 1..12; random matrices of at
  most 6 rows and columns for the rank and kernel checks.

Each complementary Boolean block W = ``boolean_incidence(n, i, n - i)`` is
certified invertible by ``linalg.certify_complementary_block``, not by a
rank: it builds an integer matrix N from a triangular counting system and
checks every entry of W N = L I exactly, which alone proves det W != 0.

``run_suite`` runs its checks in worker processes made by ``os.fork``, one
per usable CPU, and returns their results in suite order, so the order and
bytes of the output are those of a run in one process.  The workers take
the checks' indices one byte at a time from one shared pipe, so a faster
worker takes more checks, and send each pickled result back on a pipe of
their own; the parent runs no check.  A worker ends with ``os._exit`` and
flushes none of the parent's buffers.  The checks run in-process instead
when fewer than two CPUs are usable, when the platform has no ``os.fork``,
or when the process has other Python threads, which a fork would copy
mid-lock.  Peak memory can reach one check's peak in every worker at once.
Starting the workers costs about 4 ms a call, 15 ms for a process's first.
A worker that dies fails the check it held, with a detail naming its exit
status or signal; the checks still queued run on the workers left, or fail
with the same kind of detail when none is left.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import threading
import time
from collections import defaultdict
from fractions import Fraction

from . import cohomology as co
from . import exterior as ex
from . import linalg as la
from . import matchings as ma


class CheckResult:
    """One check's outcome; ``seconds`` is its wall time where it ran, never
    printed and left out of equality.  Unhashable, as ``__eq__`` makes it."""

    def __init__(self, suite: str, name: str, passed: bool, detail: str = "",
                 seconds: float = 0.0):
        self.suite = suite
        self.name = name
        self.passed = passed
        self.detail = detail
        self.seconds = seconds

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(suite={self.suite!r}, name={self.name!r}, "
                f"passed={self.passed!r}, detail={self.detail!r}, seconds={self.seconds!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.suite, self.name, self.passed, self.detail) == (
            other.suite, other.name, other.passed, other.detail)


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


def random_invariant(rng: random.Random, n: int, bases: dict) -> ex.Element:
    """A seeded random element of the translation-invariant subalgebra.

    ``bases`` keeps the invariant bases it builds, keyed by (n, i, j), for
    later draws; the draws do not depend on what it already holds.
    """
    out = ex.Element.zero(n)
    for _ in range(3):
        i = rng.randint(0, n)
        j = rng.randint(0, i)
        basis = bases.get((n, i, j))
        if basis is None:
            basis = bases[n, i, j] = co.invariants_basis(n, (i, j))
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

def _monomial_products(n: int) -> list[list[int]] | None:
    """The product of every ordered pair of rank-n monomials, indexed by
    mask (a monomial's place in ``all_monomials``): entry [a][b] is k + 1
    or -(k + 1) when a times b is 1 or -1 times monomial k, and 0 when it
    is zero.  None when some product is anything else."""
    monos = [ex.Element.from_monomial(m) for m in ex.all_monomials(n)]
    table = []
    for fa in monos:
        row = []
        for fb in monos:
            terms = (fa * fb)._terms
            if not terms:
                row.append(0)
                continue
            if len(terms) != 1:
                return None
            ((k, c),) = terms.items()
            if c not in (1, -1):
                return None
            row.append(int(c) * (k + 1))
        table.append(row)
    return table


def check_product_laws(n_max: int, rng: random.Random) -> bool:
    """Graded commutativity and associativity, read off
    ``_monomial_products``, which multiplies each ordered pair of monomials
    once.  This relies on the product being bilinear: when a b = s k for a
    sign s and a monomial k, (a b) c = s (k c) is s times a table entry,
    and so is a (b c)."""
    for n in range(0, min(3, n_max) + 1):
        table = _monomial_products(n)
        if table is None:
            return False
        odd = [m.bit_count() & 1 for m in range(len(table))]
        for a, row in enumerate(table):
            for b, ab in enumerate(row):
                if table[b][a] != (-ab if odd[a] & odd[b] else ab):
                    return False
        for a, b, c in itertools.islice(
            itertools.product(range(len(table)), repeat=3), 0, None, max(1, len(table) // 8)
        ):
            ab, bc = table[a][b], table[b][c]
            left = ab and (table[ab - 1][c] if ab > 0 else -table[-ab - 1][c])
            right = bc and (table[a][bc - 1] if bc > 0 else -table[a][-bc - 1])
            if left != right:
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
    bases: dict = {}
    for n in range(1, min(5, n_max) + 1):
        for _ in range(20):
            f = random_invariant(rng, n, bases)
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
    bases: dict = {}
    for n in range(1, min(5, n_max) + 1):
        for _ in range(20):
            f = random_element(rng, n)
            g = random_element(rng, n)
            if ex.pairing(ex.raising(f), g) + ex.pairing(f, ex.raising(g)) != 0:
                return False
            u = random_invariant(rng, n, bases)
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
            if not m.nrows == m.ncols == math.comb(n, i):
                return False
            if not la.certify_complementary_block(m, n, i):
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
                images = []
                for mono in co.bidegree_monomials(n, (i, j)):
                    f = ex.Element.from_monomial(mono)
                    for _ in range(j - i):
                        f = ex.raising(f)
                    images.append(f)
                mat = co.coordinate_matrix(images, co.bidegree_monomials(n, (j, i)))
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
    bases: dict = {}
    for n in range(1, min(8, n_max) + 1):
        for i in range(n + 1):
            for j in range(i + 1):
                g = co.duality_gram(n, i, j)
                if g.nrows != g.ncols:
                    return False
                if g.nrows and not g.is_invertible():
                    return False
        for _ in range(20):
            u = random_invariant(rng, n, bases)
            v = random_element(rng, n)
            if ex.pairing(u, ex.raising(v)) != 0:
                return False
    return True


def check_lefschetz(n_max: int, rng: random.Random) -> bool:
    for n in range(1, min(8, n_max) + 1):
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


def skein_normal_form(
    m: ma.LabelledMatching, memo: dict[ma.LabelledMatching, ma.MatchingCombination]
) -> ma.MatchingCombination:
    """The normal form by skein rewriting, memoized in ``memo``: while
    crossings remain, uncross the lexicographically smallest quadruple; once
    crossing free, slide the leftmost nested 'a' label against the shortest
    arc above it.  Both steps strictly decrease their statistic, so the
    rewriting terminates."""
    done = memo.get(m)
    if done is not None:
        return done
    quads = ma.crossing_quadruples(m)
    if quads:
        step = ma.skein_uncross(m, quads[0])
    else:
        patterns = ma.nested_alpha_patterns(m)
        if not patterns:
            memo[m] = ma.MatchingCombination.single(m)
            return memo[m]
        vertex = min(v for _, v in patterns)
        arc = min((a for a, v in patterns if v == vertex), key=lambda a: (a[1] - a[0], a))
        step = ma.skein_move_alpha(m, arc, vertex)
    result = ma.MatchingCombination(m.n)
    for child, coeff in step.items():
        result = result + skein_normal_form(child, memo).scale(coeff)
    memo[m] = result
    return result


def normal_form_matches_oracle(n: int) -> bool:
    """Every labelled matching of size n: its normal form expands to its
    invariant, is noncrossing without nested labels, equals the skein
    rewriting's (with a memo for this call alone), and has the coordinates
    that exact linear algebra finds over the noncrossing basis."""
    memo: dict[ma.LabelledMatching, ma.MatchingCombination] = {}
    groups = defaultdict(list)
    for m in ma.labelled_matchings(n):
        groups[m.bidegree].append(m)
    for d, ms in groups.items():
        order = co.bidegree_monomials(n, d)
        basis_ms = ma.noncrossing_matchings(n, bidegree=d)
        B = co.coordinate_matrix([ma.matching_invariant(m) for m in basis_ms], order)
        vecs = co.coordinate_matrix([ma.matching_invariant(m) for m in ms], order)
        for m, x in zip(ms, B.solve_many(vecs.transpose().rows())):
            if x is None:
                return False
            nf = ma.normal_form(m)
            if nf.expand() != ma.matching_invariant(m):
                return False
            if any(ma.crossings(t) or ma.alpha_nestings(t) for t in nf.support()):
                return False
            if skein_normal_form(m, memo) != nf:
                return False
            if {bm: c for bm, c in zip(basis_ms, x) if c} != dict(nf.items()):
                return False
    return True


def check_normal_form(n_max: int, rng: random.Random) -> bool:
    return all(normal_form_matches_oracle(n) for n in range(1, min(4, n_max) + 1))


def check_nc_independence(n_max: int, rng: random.Random) -> bool:
    """Raising kills each noncrossing invariant, whose smallest mask, its
    right-end lead, has coefficient (-1)**arcs; in each bidegree the leads are
    distinct and are the free monomials of ``cohomology._kernel_vectors``, as
    many as the kernel's dimension, so the invariants are a basis of it."""
    for n in range(1, min(8, n_max) + 1):
        for d in (ex.Bidegree(i, j) for i in range(n + 1) for j in range(i + 1)):
            source, kernel = co._kernel_vectors(n, d)
            leads = set()
            for m in ma.noncrossing_matchings(n, bidegree=d):
                f = ma.matching_invariant(m)
                lead = min(f._terms)
                if f._terms[lead] != (-1) ** len(m.arcs) or lead in leads or ex.raising(f):
                    return False
                leads.add(lead)
            if leads != {source[k.free] for k in kernel}:
                return False
    return True


def check_presentation(n_max: int, rng: random.Random) -> bool:
    """The quadratic relations among the basic invariants, and both
    rewriting rules as expanded identities over all applicable patterns.

    The displayed relations run over all index pairs i < j <= n, with
    n = min(6, max(2, n_max)).  The rule sweeps run over every labelled
    matching of size min(n, 5), keeping the sweep affordable.  One displayed
    relation appears twice in the source presentation; it is checked once
    here.
    """
    n = min(6, max(2, n_max))
    a = {i: ex.generator_product(n, [ex.alpha(i)]) for i in range(1, n + 1)}
    at = {i: ex.generator_product(n, [ex.alpha(i), ex.theta(i)]) for i in a}
    if any(a[i] * a[i] or at[i] * at[i] for i in a):
        return False
    for i, j in itertools.combinations(a, 2):
        cross = ex.generator_product(n, [ex.alpha(i), ex.theta(j)]) + ex.generator_product(
            n, [ex.alpha(j), ex.theta(i)]
        )
        if at[i] * cross or cross * cross != (at[i] * at[j]).scale(-2):
            return False
        if a[i] * cross != -(a[j] * at[i]):
            return False
    for m in ma.labelled_matchings(min(n, 5)):
        rewrites = [ma.skein_uncross(m, quad) for quad in ma.crossing_quadruples(m)]
        rewrites += [ma.skein_move_alpha(m, arc, v) for arc, v in ma.nested_alpha_patterns(m)]
        if any(combo.expand() != ma.matching_invariant(m) for combo in rewrites):
            return False
    return True


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


def _run_check(suite: str, index: int, n_max: int, seed: int) -> CheckResult:
    """Check ``index`` of ``suite`` with a fresh generator; an exception is a
    failure whose detail names it, not a crash.  Workers look the check up in
    their own forked ``SUITES``, so a check replaced in the parent is the one
    they run."""
    check_name, fn = SUITES[suite][index]
    rng = random.Random(seed)
    start = time.perf_counter()
    try:
        passed = fn(n_max, rng)
        detail = ""
    except Exception as exc:  # surfaced as a failure, not a crash
        passed = False
        detail = f"{type(exc).__name__}: {exc}"
    return CheckResult(suite, check_name, passed, detail, time.perf_counter() - start)


def _pool_size(tasks: int) -> int:
    """Worker processes for ``tasks`` checks; below 2 they run in-process."""
    if threading.active_count() > 1 or not hasattr(os, "fork"):
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, tasks)


def run_suite(suite: str, n_max: int = 4, seed: int = 0) -> list[CheckResult]:
    """Run one named suite (or "all"); deterministic for a fixed seed."""
    tasks = [(name, index, n_max, seed)
             for name in suite_names(suite) for index in range(len(SUITES[name]))]
    workers = _pool_size(len(tasks))
    if workers < 2:
        return [_run_check(*task) for task in tasks]
    return _run_forked(tasks, workers)


def _serve(tasks: list, queue: int, out: int) -> None:
    """A worker's loop: take the next check's index from ``queue``, write
    it to ``out``, run the check, then write the pickled result's length in
    8 bytes and the result; stop when the queue is empty."""
    import pickle

    while taken := os.read(queue, 1):
        os.write(out, taken)
        result = pickle.dumps(_run_check(*tasks[taken[0]]))
        view = memoryview(len(result).to_bytes(8, "little") + result)
        while view:
            view = view[os.write(out, view):]


def _gather(stream, results: list) -> int | None:
    """Read one worker's results from ``stream`` into ``results`` by index;
    the index of the check it held when its stream ended, else None."""
    import pickle

    while taken := stream.read(1):
        size = int.from_bytes(stream.read(8), "little")
        payload = stream.read(size)
        if not size or len(payload) < size:
            return taken[0]
        results[taken[0]] = pickle.loads(payload)
    return None


def _death(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"worker exited with status {code}" if code >= 0 else f"worker killed by signal {-code}"


def _failed(task: tuple, detail: str) -> CheckResult:
    name, index, _, _ = task
    return CheckResult(name, SUITES[name][index][0], False, detail)


def _run_forked(tasks: list, workers: int) -> list[CheckResult]:
    """``tasks`` on ``workers`` forked processes, which take the checks'
    indices one byte at a time from one pipe and send their results back on
    a pipe each; the parent runs none.  A worker that dies fails the check
    it held and, when it was the last one, every check still queued."""
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(tasks))))  # one byte an index: at most 256 checks
    os.close(feed)
    results: list = [None] * len(tasks)
    pids, streams = [], []
    try:
        for _ in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # a worker never returns into the caller's frames
                status = 1
                try:
                    _serve(tasks, queue, write)
                    status = 0
                finally:
                    os._exit(status)  # flushes none of the parent's buffers
            pids.append(pid)
            os.close(write)
            streams.append(open(read, "rb"))
        for k, stream in enumerate(streams):
            index = _gather(stream, results)
            death = _death(os.waitpid(pids[k], 0)[1])
            pids[k] = None
            if index is not None:  # the check it held when it died
                results[index] = _failed(tasks[index], death)
    finally:
        os.close(queue)
        for stream in streams:
            stream.close()
        live = [pid for pid in pids if pid is not None]
        if live:
            import signal

            for pid in live:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    # still queued when the last worker died
    return [result or _failed(task, death) for result, task in zip(results, tasks)]
