"""Labelled matchings, skein rewriting, and the noncrossing basis.

A labelled matching on n line vertices carries disjoint arcs plus 'a' and
'at' labels on unmatched vertices; unlabelled vertices are allowed.  Each
matching indexes a product of the basic translation invariants

    a_i,   a_i t_i,   a_i t_j + a_j t_i,

one factor per 'a' label, 'at' label, and arc.  Two local rewriting rules,
uncrossing a pair of arcs and sliding an 'a' label out from under an arc,
rewrite any such product into the span of the noncrossing matchings with no
nested 'a' label; those index a linear basis of the invariant ring.
``normal_form`` finds the coordinates in that basis by straightening on
leading terms instead; the rewriting rules serve as its oracle in ``verify``.
Its leads and the subset-pair bijection pair arcs by ``linalg._bracket_scan``.
A ``LabelledMatching`` is a frozen record (``exterior._Record``).
"""

from __future__ import annotations

import itertools
import operator
import re
import types
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .exterior import (
    _ALPHA_BITS,
    MAX_RANK,
    Element,
    _Reader,
    _Record,
    _check_bidegree,
    _check_int,
    _check_rank,
)
from .linalg import _bracket_scan, _rational

Rational = Fraction | int

# The literal text of every vertex and arc a matching can hold.
_VERTEX_TEXT = tuple(str(v) for v in range(MAX_RANK + 1))
_ARC_TEXT = tuple(tuple(f"({i},{j})" for j in range(MAX_RANK + 1)) for i in range(MAX_RANK + 1))


class LabelledMatching(_Record):
    """n vertices with disjoint arcs and labels; canonical and hashable.

    Arcs are stored sorted with each pair increasing; label sets are sorted
    tuples.  Equality is structural, and the fields cannot be reassigned.
    ``_trusted`` takes fields already in that form, every vertex in 1..n used
    at most once, without the constructor's sorting and checks.
    """

    __slots__ = ("n", "arcs", "alpha", "alphatheta")

    def __init__(
        self,
        n: int,
        arcs: tuple[tuple[int, int], ...] = (),
        alpha: tuple[int, ...] = (),
        alphatheta: tuple[int, ...] = (),
    ):
        object.__setattr__(self, "n", n)
        _check_rank(n)
        object.__setattr__(self, "arcs", tuple(sorted(tuple(sorted(arc)) for arc in arcs)))
        object.__setattr__(self, "alpha", tuple(sorted(alpha)))
        object.__setattr__(self, "alphatheta", tuple(sorted(alphatheta)))
        used: set[int] = set()
        for i, j in self.arcs:
            if i == j:
                raise ValueError(f"arc ({i}, {j}) joins a vertex to itself")
            self._claim(i, used)
            self._claim(j, used)
        for v in self.alpha + self.alphatheta:
            self._claim(v, used)

    def _claim(self, v: int, used: set[int]) -> None:
        """Check that v is a vertex in 1..n not yet in ``used``, and add it."""
        _check_int(v, "vertex")
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        if v in used:
            raise ValueError(f"vertex {v} appears in more than one role")
        used.add(v)

    @property
    def degree(self) -> int:
        return len(self.alpha) + 2 * len(self.alphatheta) + 2 * len(self.arcs)

    @property
    def bidegree(self) -> tuple[int, int]:
        j = len(self.alphatheta) + len(self.arcs)
        return (len(self.alpha) + j, j)

    def sort_key(self) -> tuple:
        return (self.arcs, self.alpha, self.alphatheta)

    def literal(self) -> str:
        text = "n=" + _VERTEX_TEXT[self.n]
        if self.arcs:
            text += "; arcs=" + ",".join([_ARC_TEXT[i][j] for i, j in self.arcs])
        if self.alpha:
            text += "; a=" + ",".join(map(_VERTEX_TEXT.__getitem__, self.alpha))
        if self.alphatheta:
            text += "; at=" + ",".join(map(_VERTEX_TEXT.__getitem__, self.alphatheta))
        return text

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "arcs": [list(arc) for arc in self.arcs],
            "alpha": list(self.alpha),
            "alphatheta": list(self.alphatheta),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LabelledMatching":
        return cls(
            n=data["n"],
            arcs=tuple(tuple(arc) for arc in data.get("arcs", ())),
            alpha=tuple(data.get("alpha", ())),
            alphatheta=tuple(data.get("alphatheta", ())),
        )

    def __str__(self) -> str:
        return self.literal()


class MatchingCombination:
    """A formal rational combination of labelled matchings of one size."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[LabelledMatching, Rational] | None = None):
        _check_rank(n)
        self.n = n
        self._terms: dict[LabelledMatching, Rational] = {}
        if terms:
            for m, c in terms.items():
                if m.n != n:
                    raise ValueError("matching size mismatch")
                c = _rational(c)
                if c:
                    self._terms[m] = c

    @classmethod
    def single(cls, m: LabelledMatching, coeff: Rational = 1) -> "MatchingCombination":
        return cls(m.n, {m: _rational(coeff)})

    def items(self) -> list[tuple[LabelledMatching, Rational]]:
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def coefficient(self, m: LabelledMatching) -> Rational:
        return self._terms.get(m, 0)

    def support(self) -> list[LabelledMatching]:
        return [m for m, _ in self.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "MatchingCombination") -> "MatchingCombination":
        if not isinstance(other, MatchingCombination):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("matching size mismatch")
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, 0) + c
        return MatchingCombination(self.n, acc)

    def scale(self, c: Rational) -> "MatchingCombination":
        c = _rational(c)
        return MatchingCombination(self.n, {m: c * v for m, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatchingCombination)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __reduce__(self):
        return (MatchingCombination, (self.n, self._terms))  # __init__ copies the terms

    def __repr__(self) -> str:
        body = " ".join(f"{c}*[{m}]" for m, c in self.items())
        return f"MatchingCombination({body or '0'})"

    def expand(self) -> Element:
        """The exterior-algebra element the combination stands for."""
        out = Element.zero(self.n)
        for m, c in self._terms.items():
            out = out + matching_invariant(m).scale(c)
        return out

    def to_json(self) -> list[dict]:
        return [
            {"coeff": str(c), "matching": m.to_json_dict()}
            for m, c in self.items()
        ]


def matching_invariant(m: LabelledMatching) -> Element:
    """Product of basic invariants indexed by the matching.

    The 'a' labels contribute a_i in increasing order, then each 'at' label
    contributes a_i t_i, then each arc (i, j) contributes a_i t_j + a_j t_i.
    The product is expanded straight into its 2**arcs monomials, one per
    choice of which end of each arc carries the 'a'; every coefficient is
    +1 or -1.  Works for crossing and nested matchings too.  The result is
    annihilated by the raising operator.
    """
    return Element._make(m.n, _invariant_terms(m))


def _invariant_terms(m: LabelledMatching) -> dict[int, int]:
    """``matching_invariant(m)`` as a dict from monomial mask to +1 or -1."""
    # Bit positions follow the canonical order a_1 < t_1 < a_2 < ...; the
    # sign flips once for every set bit above each newly appended bit.
    mask, sign = 0, 1
    word = [2 * v - 2 for v in m.alpha]
    for v in m.alphatheta:
        word += (2 * v - 2, 2 * v - 1)
    for pos in word:
        if (mask >> pos).bit_count() & 1:
            sign = -sign
        mask |= 1 << pos
    terms = {mask: sign}
    for i, j in m.arcs:
        step = {}
        for mask, sign in terms.items():
            for a_pos, t_pos in ((2 * i - 2, 2 * j - 1), (2 * j - 2, 2 * i - 1)):
                s = sign
                if (mask >> a_pos).bit_count() & 1:
                    s = -s
                new = mask | 1 << a_pos
                if (new >> t_pos).bit_count() & 1:
                    s = -s
                step[new | 1 << t_pos] = s
        terms = step
    return terms


_ARCS = operator.attrgetter("arcs")


def _element_rows(
    n: int, matchings: Iterable[LabelledMatching]
) -> Iterator[tuple[LabelledMatching, str]]:
    """Each matching on 1..n with ``format_element(matching_invariant(m))``,
    made by one ``str.format`` call from a template built once per arc set.

    The matchings must be reduced (noncrossing, no 'a' label under an arc)
    and come grouped by arc set, as ``noncrossing_matchings`` returns them.
    A term of the invariant picks, for each arc (i, j), a_i t_j or a_j t_i.
    Two facts fix the text of every term from the arc set alone:

    - Every coefficient is (-1)**r, r the number of arcs whose 'a' sits at
      the right end: moving t_i in front of a_j costs one sign, and what lies
      strictly under a reduced arc is an even number of generators.
    - The terms come in binary-counting order over the arcs sorted by left
      end, with the left-end 'a' first and the first arc most significant:
      the lowest generator where two terms differ is a_i against t_i of the
      leftmost arc (i, j) they orient differently.

    Labels change neither: 'a' labels lie outside every arc, and each 'at'
    label adds two adjacent bits.  So the template has one field per free
    vertex, which each row fills with its label's names or leaves empty.
    """
    for arcs, group in itertools.groupby(matchings, key=_ARCS):
        template, slot, a_text, at_text = _element_template(n, arcs)
        blank = [""] * (n - 2 * len(arcs))
        for m in group:
            fields = blank.copy()
            for v in m.alpha:
                fields[slot[v]] = a_text[v]
            for v in m.alphatheta:
                fields[slot[v]] = at_text[v]
            text = template.format(*fields)
            if not arcs:  # "1*" and the labels' names, each followed by a space
                text = text[:-1] if len(text) > 2 else "1"
            yield m, text


def _element_template(n: int, arcs: tuple[tuple[int, int], ...]):
    """``_element_rows``'s template for one arc set on 1..n, with the field
    index of each free vertex and the field's text for an 'a' and an 'at'
    label there, all three lists indexed by vertex.

    Names join with single spaces: a free vertex below the first arc writes
    each name followed by a space, any later one each preceded by one, so an
    empty field leaves no stray space.
    """
    first = arcs[0][0] if arcs else n + 1
    k = len(arcs)
    arc_of = [k] * (n + 1)  # the arc of each end; k for a free vertex
    for r, arc in enumerate(arcs):
        arc_of[arc[0]] = arc_of[arc[1]] = r
    free = [v for v in range(1, n + 1) if arc_of[v] == k]
    slot = [0] * (n + 1)
    a_text = [""] * (n + 1)
    at_text = [""] * (n + 1)
    # names[v]: vertex v's text in a term whose arc at v has its 'a' at the
    # left end, and at the right end
    names: list = [None] * (n + 1)
    for s, v in enumerate(free):
        slot[v] = s
        a_text[v] = f"a{v} " if v < first else f" a{v}"
        at_text[v] = f"a{v} t{v} " if v < first else f" a{v} t{v}"
        names[v] = ("{%d}" % s,) * 2
    for i, j in arcs:
        names[i] = (f" a{i}", f" t{i}")
        names[j] = (f" t{j}", f" a{j}")
    if arcs:  # no space before the first name
        names[first] = (names[first][0][1:], names[first][1][1:])
    terms = []
    for t, orient in enumerate(itertools.product((0, 1), repeat=k)):
        bits = orient + (0,)
        sign = "1*" if not t else " - 1*" if sum(orient) & 1 else " + 1*"
        terms.append(sign + "".join([names[v][bits[arc_of[v]]] for v in range(1, n + 1)]))
    return "".join(terms), slot, a_text, at_text


def crossing_quadruples(m: LabelledMatching) -> list[tuple[int, int, int, int]]:
    """All i<j<k<l with arcs (i,k) and (j,l), sorted lexicographically.

    The arcs are sorted and disjoint, so in every pair the first arc starts
    first, and the pairs come in order of (i, j), which fixes k and l.
    """
    return [
        (a, c, b, d)
        for (a, b), (c, d) in itertools.combinations(m.arcs, 2)
        if c < b < d
    ]


def crossings(m: LabelledMatching) -> int:
    return len(crossing_quadruples(m))


def nested_alpha_patterns(m: LabelledMatching) -> list[tuple[tuple[int, int], int]]:
    """All (arc, vertex) pairs with an 'a' label strictly under the arc,
    sorted: the walk takes the sorted arcs, then each one's sorted labels."""
    return [(arc, v) for arc in m.arcs for v in m.alpha if arc[0] < v < arc[1]]


def alpha_nestings(m: LabelledMatching) -> int:
    return len(nested_alpha_patterns(m))


def skein_uncross(
    m: LabelledMatching, quadruple: tuple[int, int, int, int]
) -> MatchingCombination:
    """Resolve the crossing arcs (i,k),(j,l) into the two planar pairings.

    Returns the rewrite of the matching's invariant: minus the (i,j),(k,l)
    resolution minus the (i,l),(j,k) resolution.
    """
    i, j, k, l = quadruple
    if not (i < j < k < l):
        raise ValueError(f"quadruple {quadruple} is not increasing")
    if (i, k) not in m.arcs or (j, l) not in m.arcs:
        raise ValueError(f"arcs ({i},{k}) and ({j},{l}) do not cross in {m}")
    rest = tuple(a for a in m.arcs if a not in ((i, k), (j, l)))
    m0 = LabelledMatching(m.n, rest + ((i, j), (k, l)), m.alpha, m.alphatheta)
    m1 = LabelledMatching(m.n, rest + ((i, l), (j, k)), m.alpha, m.alphatheta)
    return MatchingCombination(m.n, {m0: -1, m1: -1})


def skein_move_alpha(
    m: LabelledMatching, arc: tuple[int, int], vertex: int
) -> MatchingCombination:
    """Slide an 'a' label at `vertex` out from under `arc`.

    With arc (i, k) and the label at j between them, rewrites the invariant
    over the matching with arc (i, j) and the label at k, and the matching
    with arc (j, k) and the label at i.  Each coefficient is -1 times a
    parity correction from the other 'a' labels: the first picks up a sign
    for every other label strictly between j and k, the second for every
    other label strictly between i and j, because re-sorting the moved label
    into the increasing product crosses exactly those odd factors.
    """
    i, k = arc
    j = vertex
    if arc not in m.arcs:
        raise ValueError(f"{arc} is not an arc of {m}")
    if j not in m.alpha:
        raise ValueError(f"vertex {j} does not carry an 'a' label in {m}")
    if not i < j < k:
        raise ValueError(f"vertex {j} does not lie under the arc {arc}")
    rest = tuple(a for a in m.arcs if a != arc)
    others = tuple(v for v in m.alpha if v != j)
    labels0 = others + (k,)
    labels1 = others + (i,)
    sign0 = -1 if sum(1 for s in others if j < s < k) % 2 == 0 else 1
    sign1 = -1 if sum(1 for s in others if i < s < j) % 2 == 0 else 1
    m0 = LabelledMatching(m.n, rest + ((i, j),), labels0, m.alphatheta)
    m1 = LabelledMatching(m.n, rest + ((j, k),), labels1, m.alphatheta)
    return MatchingCombination(m.n, {m0: sign0, m1: sign1})


# Only the benchmark tracer reads this name (``in`` and ``len``): normal
# forms keep no cache, so it stays empty.
_normal_form_cache = types.MappingProxyType({})


def _lead_key(n: int) -> Callable[[int], int]:
    """Bit reversal over 2n bits, which undoes itself: monomial x comes before
    y, when the lowest set bit of x ^ y is x's, exactly when its key is larger."""
    width = f"0{2 * n}b"
    return lambda mask: int(format(mask, width)[::-1], 2)


def _lead_matching(mask: int, n: int) -> LabelledMatching:
    """The reduced matching on 1..n that the monomial ``mask`` leads, by
    ``linalg._bracket_scan`` over the even bits, bit 2v - 2 for vertex v: 'a'
    alone opens an arc, 't' alone closes the nearest open one, both make an
    'at' label, and the vertices left open carry 'a' labels."""
    a, t = mask & _ALPHA_BITS, mask >> 1 & _ALPHA_BITS
    arcs, stray, opened = _bracket_scan(a & ~t, t & ~a)
    if stray:
        raise AssertionError(f"monomial {mask:#x} on 1..{n} leads no reduced matching")
    arcs = tuple(sorted((i // 2 + 1, j // 2 + 1) for i, j in arcs))
    at = tuple((x + 1) // 2 for x in _vertices(a & t))
    return LabelledMatching._trusted(n, arcs, tuple(x // 2 + 1 for x in opened), at)


def normal_form(m: LabelledMatching) -> MatchingCombination:
    """Rewrite the matching's invariant into the noncrossing span by
    straightening on leading terms.  In ``_lead_key``'s order a reduced
    matching's lead, with each arc's 'a' at its left end, comes first in its
    invariant, with coefficient +1.  So the loop pops the first monomial left
    (the heap holds negated keys), keeps its integer coefficient c for the
    matching it leads, and subtracts c times that matching's invariant,
    until nothing is left.
    """
    import heapq

    key = _lead_key(m.n)
    rest = _invariant_terms(m)
    heap = [-key(mask) for mask in rest]
    heapq.heapify(heap)
    out = {}
    while heap:
        mask = key(-heapq.heappop(heap))
        c = rest[mask]
        if not c:
            continue
        lead = _lead_matching(mask, m.n)
        out[lead] = c
        for mono, s in _invariant_terms(lead).items():
            if mono not in rest:  # a mask stays in rest once seen, so it is pushed once
                rest[mono] = 0
                heapq.heappush(heap, -key(mono))
            rest[mono] -= c * s
    return MatchingCombination(m.n, out)


# ---------------------------------------------------------------------------
# Enumeration.

def partial_matchings(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All sets of pairwise disjoint arcs on 1..n, as sorted tuples."""

    def rec(free: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not free:
            yield ()
            return
        v, rest = free[0], free[1:]
        # v unmatched
        yield from rec(rest)
        # v matched to each later vertex
        for idx, u in enumerate(rest):
            head = (v, u)
            for tail in rec(rest[:idx] + rest[idx + 1 :]):
                yield (head,) + tail  # v is below every vertex of tail

    return rec(tuple(range(1, n + 1)))


def labelled_matchings(n: int) -> Iterator[LabelledMatching]:
    """The whole index set: every arc set with every labelling.  The arcs
    come sorted and the labels in the order of the free vertices, so each
    matching is canonical by construction."""
    _check_rank(n)
    for arcs in partial_matchings(n):
        matched = {v for arc in arcs for v in arc}
        free = [v for v in range(1, n + 1) if v not in matched]
        for labels in itertools.product(("", "a", "at"), repeat=len(free)):
            yield LabelledMatching._trusted(
                n,
                arcs,
                tuple(v for v, l in zip(free, labels) if l == "a"),
                tuple(v for v, l in zip(free, labels) if l == "at"),
            )


def _noncrossing_arc_sets(n: int, most: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The noncrossing sets of at most ``most`` arcs on 1..n, in
    lexicographic order of their sorted arc tuples.

    Each set comes first, then its extensions by one arc (i, j) whose left
    end lies beyond its last left end, in increasing order.  Every vertex
    between i and the nearest right end above it is free, and an arc from i
    crosses no other exactly when it stops short of that end.
    """

    def extend(arcs, start):
        yield arcs
        if len(arcs) == most:
            return
        ends = [j for _, j in arcs]
        for i in range(start, n):
            if i not in ends:
                limit = min((j for j in ends if j > i), default=n + 1)
                for j in range(i + 1, limit):
                    yield from extend(arcs + ((i, j),), i + 1)

    return extend((), 1)


def noncrossing_matchings(
    n: int, k: int | None = None, *, bidegree: tuple[int, int] | None = None
) -> list[LabelledMatching]:
    """Noncrossing matchings with no nested 'a' label, sorted by ``sort_key``.

    With ``bidegree=(i, j)`` only that component is generated: i - j 'a'
    labels and j arcs plus 'at' labels, C(n,i)C(n,j) - C(n,i+1)C(n,j-1)
    matchings (none when i < j).  Without it, the union over the bidegrees
    of degree k, or over all bidegrees.
    """
    _check_rank(n)
    if k is not None:
        _check_int(k, "degree")
        if not 0 <= k <= 2 * n:
            raise ValueError(f"degree {k} out of range 0..{2 * n}")
    if bidegree is None:
        degrees = [(i, j) for i in range(n + 1) for j in range(n + 1)]
        if k is not None:
            degrees = [(i, j) for i, j in degrees if i + j == k]
    else:
        i, j = bidegree
        _check_bidegree(n, i, j)
        if k is not None and k != i + j:
            raise ValueError(f"degree {k} disagrees with bidegree ({i}, {j})")
        degrees = [(i, j)]
    sizes = [(i - j, j) for i, j in degrees if i >= j]
    if not sizes:
        return []
    # A matching of bidegree (p + q, q) with m arcs uses m + p + q vertices,
    # so it has at most min(q, n - p - q) arcs.  Its (arcs, alpha,
    # alphatheta) triple is canonical and is its sort_key, and the walk
    # yields one bidegree's triples in that order.
    out = []
    for arcs in _noncrossing_arc_sets(n, max(min(q, n - p - q) for p, q in sizes)):
        matched = {v for arc in arcs for v in arc}
        free = [v for v in range(1, n + 1) if v not in matched]
        outside = [v for v in free if not any(i < v < j for i, j in arcs)]
        for p, q in sizes:
            if q < len(arcs):
                continue
            for alphas in itertools.combinations(outside, p):
                rest = [v for v in free if v not in alphas]
                for ats in itertools.combinations(rest, q - len(arcs)):
                    out.append(LabelledMatching._trusted(n, arcs, alphas, ats))
    if len(sizes) > 1:
        out.sort(key=LabelledMatching.sort_key)
    return out


# ---------------------------------------------------------------------------
# The subset-pair bijection.

class SubsetPair(tuple):
    """An ordered pair (A, B) of subsets of 1..n."""

    __slots__ = ()

    def __new__(cls, A: Iterable[int], B: Iterable[int]):
        return super().__new__(cls, (frozenset(A), frozenset(B)))

    @property
    def A(self) -> frozenset:
        return self[0]

    @property
    def B(self) -> frozenset:
        return self[1]

    def __getnewargs__(self):
        # tuple's would pass the pair to __new__ as one argument
        return (self.A, self.B)


# The bijection runs on vertex masks: bit v - 1 stands for vertex v.

def _mask(vertices: Iterable[int]) -> int:
    out = 0
    for v in vertices:
        out |= 1 << (v - 1)
    return out


def _vertices(mask: int) -> tuple[int, ...]:
    """The vertices of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _pair_text(a: int, b: int) -> str:
    return f"({list(_vertices(a))}, {list(_vertices(b))})"


def _matching_from_masks(a: int, b: int, n: int) -> LabelledMatching:
    """``matching_from_subsets`` on masks that the caller has checked: inside
    1..n, with |B| - 1 <= |A| <= |B|."""
    # A - B opens an arc, B - A closes the nearest open one, A & B is
    # neutral: equally many A and B elements lie between the two ends.
    # Shifted, the scan reads vertex v at bit v.
    arcs, alphas, opened = _bracket_scan((a & ~b) << 1, (b & ~a) << 1)
    arcs.sort()
    split = len(alphas)  # labels from B - A, then the arcs left open in A - B
    alphas.extend(opened)
    if 2 * len(arcs) + len(alphas) != (a ^ b).bit_count():
        raise AssertionError(f"subset pair {_pair_text(a, b)} produced a clash in {arcs}")
    m = LabelledMatching._trusted(n, tuple(arcs), tuple(alphas), _vertices(a & b))
    if crossing_quadruples(m) or nested_alpha_patterns(m):
        raise AssertionError(
            f"subset pair {_pair_text(a, b)} produced a non-reduced matching {m}"
        )
    if 0 < split < len(alphas) and max(alphas[:split]) > min(alphas[split:]):
        raise AssertionError(f"subset pair {_pair_text(a, b)} violates the left-right rule")
    return m


def _pair_matchings(n: int) -> Callable[[int, int], tuple[LabelledMatching, str]]:
    """``_matching_from_masks`` on 1..n with the matching's literal, for many
    mask pairs (a, b) that the caller has checked.

    ``_bracket_scan`` and the four assertions read only A - B and B - A, so
    the returned function runs them once per such pair, keeping the arcs,
    the 'a' labels and the literal up to its 'at' section; A & B adds the
    'at' labels and the literal's tail.  Both memos belong to the one
    function, and a failed assertion names the pair (A - B, B - A) it read.
    """
    scans: dict[tuple[int, int], tuple] = {}
    tails: dict[int, tuple] = {}

    def matching(a: int, b: int) -> tuple[LabelledMatching, str]:
        key = (a & ~b, b & ~a)
        scan = scans.get(key)
        if scan is None:
            core = _matching_from_masks(*key, n)
            scan = scans[key] = (core.arcs, core.alpha, core.literal())
        both = a & b
        tail = tails.get(both)
        if tail is None:
            at = _vertices(both)
            tail = tails[both] = (at, "; at=" + ",".join(map(_VERTEX_TEXT.__getitem__, at))
                                  if at else "")
        arcs, alpha, head = scan
        return LabelledMatching._trusted(n, arcs, alpha, tail[0]), head + tail[1]

    return matching


def _masks_from_matching(m: LabelledMatching) -> tuple[int, int]:
    """``subsets_from_matching`` as the masks (a, b), for a matching that
    the caller has checked is reduced."""
    k = m.degree
    a = b = _mask(m.alphatheta)
    for i, j in m.arcs:
        a |= 1 << (i - 1)
        b |= 1 << (j - 1)
    to_b = (k + 1) // 2 - b.bit_count()
    labels = m.alpha
    if not 0 <= to_b <= len(labels):
        raise AssertionError(f"label split failed for {m}")
    b |= _mask(labels[:to_b])
    a |= _mask(labels[to_b:])
    if a.bit_count() != k // 2 or b.bit_count() != (k + 1) // 2:
        raise AssertionError(f"subset sizes failed for {m}")
    return a, b


def matching_from_subsets(A: Iterable[int], B: Iterable[int], n: int) -> LabelledMatching:
    """The unique noncrossing matching attached to the subset pair (A, B).

    Vertices in both sets get 'at' labels; each left endpoint lies in A and
    each right endpoint in B.  An element a of A - B is matched to the
    smallest b > a in B - A such that A and B have equally many elements
    strictly between a and b; elements that find no partner keep an 'a'
    label, with every surviving B element left of every surviving A element.
    One left-to-right pass with a stack of open arcs finds every partner.
    """
    _check_rank(n)
    A, B = set(A), set(B)
    for v in A | B:
        _check_int(v, "index")
        if not 1 <= v <= n:
            raise ValueError(f"index {v} out of range 1..{n}")
    if not (len(B) - 1 <= len(A) <= len(B)):
        raise ValueError(
            f"sizes |A|={len(A)}, |B|={len(B)} do not fit a degree "
            f"{len(A) + len(B)} index pair"
        )
    return _matching_from_masks(_mask(A), _mask(B), n)


def subsets_from_matching(m: LabelledMatching) -> SubsetPair:
    """Inverse of ``matching_from_subsets``; rejects non-reduced matchings."""
    if crossings(m):
        raise ValueError(f"{m} has a crossing")
    if alpha_nestings(m):
        raise ValueError(f"{m} has an 'a' label under an arc")
    a, b = _masks_from_matching(m)
    return SubsetPair(_vertices(a), _vertices(b))


# ---------------------------------------------------------------------------
# Literals and JSON.

# ``\s`` is unicode, the whitespace ``_Reader.more`` skips
_SECTION_RE = re.compile(r"(n|arcs|a|at)\s*=")


def _arc(r: _Reader) -> tuple[int, int]:
    r.expect("(")
    i = r.integer()
    r.expect(",")
    j = r.integer()
    r.expect(")")
    return i, j


def parse_matching(text: str) -> LabelledMatching:
    """Parse a matching literal like ``n=8; arcs=(4,6),(5,7); a=1; at=2``.

    Whitespace insensitive; omitted sections mean empty.  Parse failures
    raise LiteralParseError with the offending position; a structurally
    invalid matching (overlapping arcs or labels) raises ValueError instead.
    """
    r = _Reader(text)
    seen: dict[str, object] = {}
    while r.more():
        if seen:
            r.expect(";")
            if not r.more():
                break
        section = r.match(_SECTION_RE)
        if not section:
            r.fail("expected a section like n=, arcs=, a=, at=")
        key = section.group(1)
        if key in seen:
            r.fail(f"duplicate section {key!r}", section.start())
        if key == "n":
            seen[key] = r.integer()
        else:
            values = []
            while not values or r.take(","):
                values.append(_arc(r) if key == "arcs" else r.integer())
            seen[key] = tuple(values)
    if "n" not in seen:
        r.fail("missing required section n=", len(text))
    return LabelledMatching(
        n=seen["n"],
        arcs=seen.get("arcs", ()),
        alpha=seen.get("a", ()),
        alphatheta=seen.get("at", ()),
    )
