"""Reference answers the benchmark computes without calling the package.

Everything here is written from the definitions: dimensions from
``math.comb``, characters by summing over unions of cycles, matching
invariants as products of bitmask monomials, the raising operator on
bitmasks, ranks modulo a prime other than the one the package uses, and
parsers for the text the command line prints.  A check that fails here is
counted as a failed item.

Bit layout of a monomial, as in the package's public literals: generator
a_i sits at bit 2(i-1) and t_i at bit 2(i-1)+1; a product is ordered by
increasing bit.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np

# The largest prime below 2**31 - 1; the package certifies with 2**31 - 1.
RANK_PRIME = 2147483629


def comb(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def invariants_dim(n: int, i: int, j: int) -> int:
    if i < j:
        return 0
    return comb(n, i) * comb(n, j) - comb(n, i + 1) * comb(n, j - 1)


def coinvariants_dim(n: int, i: int, j: int) -> int:
    if i > j:
        return 0
    return comb(n, i) * comb(n, j) - comb(n, i - 1) * comb(n, j + 1)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def bijection_rows(n: int, k: int) -> int:
    return comb(n, k // 2) * comb(n, (k + 1) // 2)


# ---------------------------------------------------------------------------
# Characters.

def cycles_of(images: tuple[int, ...]) -> list[int]:
    """Cycle lengths of the permutation v -> images[v-1]."""
    seen, lengths = set(), []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            v = images[v - 1]
            length += 1
        lengths.append(length)
    return lengths


def wedge_trace(cycle_lengths: list[int], k: int) -> int:
    """Trace on the k-th exterior power of the permutation module.

    A basis k-subset is fixed up to sign only if it is a union of cycles;
    an L-cycle acts on its wedge by the sign (-1)**(L-1).
    """
    if k < 0:
        return 0
    total = 0
    for r in range(len(cycle_lengths) + 1):
        for chosen in combinations(cycle_lengths, r):
            if sum(chosen) == k:
                total += (-1) ** sum(L - 1 for L in chosen)
    return total


def invariants_character(cycle_lengths: list[int], i: int, j: int) -> int:
    return wedge_trace(cycle_lengths, i) * wedge_trace(cycle_lengths, j) - (
        wedge_trace(cycle_lengths, i + 1) * wedge_trace(cycle_lengths, j - 1)
    )


# ---------------------------------------------------------------------------
# Bitmask exterior algebra.

def a_bit(i: int) -> int:
    return 1 << (2 * (i - 1))


def t_bit(i: int) -> int:
    return 1 << (2 * (i - 1) + 1)


def _reorder_sign(left: int, right: int) -> int:
    """Sign of sorting the word left-then-right; masks are disjoint."""
    swaps = 0
    for bit in range(right.bit_length()):
        if right >> bit & 1:
            swaps += (left >> (bit + 1)).bit_count()
    return -1 if swaps & 1 else 1


def multiply(f: dict[int, Fraction], g: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for mf, cf in f.items():
        for mg, cg in g.items():
            if mf & mg:
                continue
            key = mf | mg
            out[key] = out.get(key, 0) + cf * cg * _reorder_sign(mf, mg)
    return {m: c for m, c in out.items() if c}


def matching_invariant(arcs, alpha, alphatheta) -> dict[int, Fraction]:
    """a_v over the 'a' labels in increasing order, times a_v t_v over the
    'at' labels, times a_i t_j + a_j t_i over the arcs."""
    word = {0: Fraction(1)}
    for v in sorted(alpha):
        word = multiply(word, {a_bit(v): Fraction(1)})
    for v in sorted(alphatheta):
        word = multiply(word, {a_bit(v) | t_bit(v): Fraction(1)})
    for i, j in sorted(arcs):
        # both terms are written a-first; reorder each into bit order
        factor = {
            a_bit(i) | t_bit(j): Fraction(_reorder_sign(a_bit(i), t_bit(j))),
            a_bit(j) | t_bit(i): Fraction(_reorder_sign(a_bit(j), t_bit(i))),
        }
        word = multiply(word, factor)
    return word


def raising_image(terms: dict[int, Fraction], n: int) -> dict[int, Fraction]:
    """Raising sends a_A t_B to the sum over c in B - A of a_(A+c) t_(B-c).

    Removing t_c and inserting a_c one slot lower passes the same
    generators, so every coefficient is +1.
    """
    out: dict[int, Fraction] = {}
    for mask, c in terms.items():
        for v in range(1, n + 1):
            if mask & t_bit(v) and not mask & a_bit(v):
                key = mask ^ t_bit(v) | a_bit(v)
                out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if c}


_ALPHA_BITS = int("01" * 32, 2)


def bidegree_of(mask: int) -> tuple[int, int]:
    alpha = (mask & _ALPHA_BITS).bit_count()
    return alpha, mask.bit_count() - alpha


# ---------------------------------------------------------------------------
# Ranks.

def full_rank_mod_p(rows: list[list[Fraction]], p: int = RANK_PRIME) -> bool:
    """True when the rank modulo p is min(rows, cols); this certifies the
    same rank over the rationals.  A False is reported as a failure."""
    if not rows or not rows[0]:
        return True
    ints = []
    for row in rows:
        scale = math.lcm(*(Fraction(x).denominator for x in row))
        ints.append([int(Fraction(x) * scale) % p for x in row])
    a = np.array(ints, dtype=np.int64)
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nonzero = np.flatnonzero(a[rank:, col])
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), p - 2, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1 :, col])
        if below.size:
            a[below] = (a[below] - a[below, col][:, None] * a[rank]) % p
        rank += 1
    return rank == min(nrows, ncols)


# ---------------------------------------------------------------------------
# Parsing what the package prints.

_LITERAL_SECTION = re.compile(r"^\s*(n|arcs|a|at)\s*=\s*(.*?)\s*$")
_TERM = re.compile(r"([+-]?)\s*(\d+)(?:/(\d+))?(?:\*([at0-9 ]+?))?\s*(?=[+-]|$)")


def parse_literal(text: str):
    """'n=8; arcs=(1,3),(2,4); a=5; at=6' -> (n, arcs, alpha, alphatheta)."""
    n, arcs, alpha, alphatheta = None, [], [], []
    for part in text.split(";"):
        match = _LITERAL_SECTION.match(part)
        if not match:
            raise ValueError(f"bad literal section {part!r}")
        key, body = match.groups()
        if key == "n":
            n = int(body)
        elif key == "arcs":
            arcs = [tuple(map(int, pair)) for pair in re.findall(r"\((\d+),(\d+)\)", body)]
        elif key == "a":
            alpha = [int(x) for x in body.split(",")]
        else:
            alphatheta = [int(x) for x in body.split(",")]
    if n is None:
        raise ValueError(f"literal without n: {text!r}")
    return n, arcs, alpha, alphatheta


def parse_element(text: str) -> dict[int, Fraction]:
    """'2*a1 t2 - 1/3*a2 t1 + 1' -> {mask: coefficient}; order is respected."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match:
            raise ValueError(f"cannot parse element at {text[pos:pos + 20]!r}")
        sign, num, den, gens = match.groups()
        coeff = Fraction(int(num), int(den or 1)) * (-1 if sign == "-" else 1)
        word = {0: coeff}
        for name in (gens or "").split():
            bit = a_bit(int(name[1:])) if name[0] == "a" else t_bit(int(name[1:]))
            word = multiply(word, {bit: Fraction(1)})
        for mask, c in word.items():
            out[mask] = out.get(mask, 0) + c
        pos = match.end()
        while pos < len(text) and text[pos] == " ":
            pos += 1
    return {m: c for m, c in out.items() if c}


def crosses(arcs) -> bool:
    return any(
        a < c < b < d or c < a < d < b for (a, b), (c, d) in combinations(arcs, 2)
    )


def nested_alpha(arcs, alpha) -> bool:
    return any(i < v < k for i, k in arcs for v in alpha)
