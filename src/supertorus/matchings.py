"""Labelled matchings, skein rewriting, and the noncrossing basis.

A labelled matching on n line vertices carries disjoint arcs plus 'a' and
'at' labels on unmatched vertices; unlabelled vertices are allowed.  Each
matching indexes a product of the basic translation invariants

    a_i,   a_i t_i,   a_i t_j + a_j t_i,

one factor per 'a' label, 'at' label, and arc.  Two local rewriting rules,
uncrossing a pair of arcs and sliding an 'a' label out from under an arc,
rewrite any such product into the span of the noncrossing matchings with no
nested 'a' label; those index a linear basis of the invariant ring.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .exterior import (
    Element,
    LiteralParseError,
    alpha,
    generator_product,
    theta,
    _check_rank,
)

Rational = Fraction | int


@dataclass(frozen=True)
class LabelledMatching:
    """n vertices with disjoint arcs and labels; canonical and hashable.

    Arcs are stored sorted with each pair increasing; label sets are sorted
    tuples.  Equality is structural.
    """

    n: int
    arcs: tuple[tuple[int, int], ...] = ()
    alpha: tuple[int, ...] = ()
    alphatheta: tuple[int, ...] = ()

    def __post_init__(self):
        arcs = tuple(sorted(tuple(sorted(arc)) for arc in self.arcs))
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "alpha", tuple(sorted(self.alpha)))
        object.__setattr__(self, "alphatheta", tuple(sorted(self.alphatheta)))
        used: set[int] = set()
        for i, j in self.arcs:
            if i == j:
                raise ValueError(f"arc ({i}, {j}) joins a vertex to itself")
            for v in (i, j):
                self._check_vertex(v)
                if v in used:
                    raise ValueError(f"vertex {v} appears in more than one role")
                used.add(v)
        for name, group in (("a", self.alpha), ("at", self.alphatheta)):
            for v in group:
                self._check_vertex(v)
                if v in used:
                    raise ValueError(f"vertex {v} appears in more than one role")
                used.add(v)

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

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
        parts = [f"n={self.n}"]
        if self.arcs:
            parts.append("arcs=" + ",".join(f"({i},{j})" for i, j in self.arcs))
        if self.alpha:
            parts.append("a=" + ",".join(str(v) for v in self.alpha))
        if self.alphatheta:
            parts.append("at=" + ",".join(str(v) for v in self.alphatheta))
        return "; ".join(parts)

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

    def __init__(self, n: int, terms: dict[LabelledMatching, Fraction] | None = None):
        self.n = n
        self._terms: dict[LabelledMatching, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if m.n != n:
                    raise ValueError("matching size mismatch")
                c = Fraction(c)
                if c:
                    self._terms[m] = c

    @classmethod
    def single(cls, m: LabelledMatching, coeff: Rational = 1) -> "MatchingCombination":
        return cls(m.n, {m: Fraction(coeff)})

    def items(self) -> list[tuple[LabelledMatching, Fraction]]:
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def coefficient(self, m: LabelledMatching) -> Fraction:
        return self._terms.get(m, Fraction(0))

    def support(self) -> list[LabelledMatching]:
        return [m for m, _ in self.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "MatchingCombination") -> "MatchingCombination":
        if self.n != other.n:
            raise ValueError("matching size mismatch")
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, Fraction(0)) + c
        return MatchingCombination(self.n, acc)

    def scale(self, c: Rational) -> "MatchingCombination":
        c = Fraction(c)
        return MatchingCombination(self.n, {m: c * v for m, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatchingCombination)
            and self.n == other.n
            and self._terms == other._terms
        )

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
    return Element(m.n, {mask: Fraction(s) for mask, s in terms.items()})


def crossing_quadruples(m: LabelledMatching) -> list[tuple[int, int, int, int]]:
    """All i<j<k<l with arcs (i,k) and (j,l), sorted lexicographically."""
    quads = []
    for (a, b), (c, d) in itertools.combinations(m.arcs, 2):
        if a < c < b < d:
            quads.append((a, c, b, d))
        elif c < a < d < b:
            quads.append((c, a, d, b))
    return sorted(quads)


def crossings(m: LabelledMatching) -> int:
    return len(crossing_quadruples(m))


def nested_alpha_patterns(m: LabelledMatching) -> list[tuple[tuple[int, int], int]]:
    """All (arc, vertex) pairs with an 'a' label strictly under the arc."""
    out = []
    for arc in m.arcs:
        i, k = arc
        for v in m.alpha:
            if i < v < k:
                out.append((arc, v))
    return sorted(out)


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
    return MatchingCombination(m.n, {m0: Fraction(-1), m1: Fraction(-1)})


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
    return MatchingCombination(m.n, {m0: Fraction(sign0), m1: Fraction(sign1)})


_normal_form_cache: dict[LabelledMatching, MatchingCombination] = {}


def normal_form(m: LabelledMatching) -> MatchingCombination:
    """Rewrite the matching's invariant into the noncrossing span.

    Strategy: while crossings remain, uncross the lexicographically smallest
    quadruple; once crossing free, repeatedly slide the leftmost nested 'a'
    label against the shortest arc above it.  Both steps strictly decrease
    their statistic, so the rewriting terminates; results are memoized.
    """
    cached = _normal_form_cache.get(m)
    if cached is not None:
        return cached
    quads = crossing_quadruples(m)
    if quads:
        step = skein_uncross(m, quads[0])
    else:
        patterns = nested_alpha_patterns(m)
        if patterns:
            vertex = min(v for _, v in patterns)
            arc = min(
                (a for a, v in patterns if v == vertex),
                key=lambda a: (a[1] - a[0], a),
            )
            step = skein_move_alpha(m, arc, vertex)
        else:
            result = MatchingCombination.single(m)
            _normal_form_cache[m] = result
            return result
    result = MatchingCombination(m.n)
    for child, coeff in step.items():
        result = result + normal_form(child).scale(coeff)
    _normal_form_cache[m] = result
    return result


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
                yield tuple(sorted((head,) + tail))

    return rec(tuple(range(1, n + 1)))


def labelled_matchings(n: int) -> Iterator[LabelledMatching]:
    """The whole index set: every arc set with every labelling."""
    _check_rank(n)
    for arcs in partial_matchings(n):
        matched = {v for arc in arcs for v in arc}
        free = [v for v in range(1, n + 1) if v not in matched]
        for labels in itertools.product(("", "a", "at"), repeat=len(free)):
            yield LabelledMatching(
                n,
                arcs,
                tuple(v for v, l in zip(free, labels) if l == "a"),
                tuple(v for v, l in zip(free, labels) if l == "at"),
            )


def _reduced_labellings(lo: int, hi: int, p: int, q: int, memo: dict) -> list:
    """(arcs, alpha, alphatheta) on vertices lo..hi-1: noncrossing, with p
    'a' labels none of which lies under an arc, and q arcs plus 'at' labels.

    The first vertex is unlabelled, labelled 'a', labelled 'at', or the left
    end of an arc (lo, w); the inside of an arc carries no 'a' label and is
    generated independently of the rest.  Each tuple comes out sorted.
    ``memo`` holds the lists already built for other (lo, hi, p, q).
    """
    key = (lo, hi, p, q)
    if key in memo:
        return memo[key]
    out = []
    if lo == hi:
        if p == q == 0:
            out.append(((), (), ()))
    elif p + q <= hi - lo:
        out.extend(_reduced_labellings(lo + 1, hi, p, q, memo))
        if p:
            for arcs, a, at in _reduced_labellings(lo + 1, hi, p - 1, q, memo):
                out.append((arcs, (lo,) + a, at))
        if q:
            for arcs, a, at in _reduced_labellings(lo + 1, hi, p, q - 1, memo):
                out.append((arcs, a, (lo,) + at))
            for w in range(lo + 1, hi):
                for q_in in range(q):
                    inside = _reduced_labellings(lo + 1, w, 0, q_in, memo)
                    if not inside:
                        continue
                    rest = _reduced_labellings(w + 1, hi, p, q - 1 - q_in, memo)
                    for arcs, a, at in rest:
                        for in_arcs, _, in_at in inside:
                            out.append((((lo, w),) + in_arcs + arcs, a, in_at + at))
    memo[key] = out
    return out


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
    if k is not None and not 0 <= k <= 2 * n:
        raise ValueError(f"degree {k} out of range 0..{2 * n}")
    if bidegree is None:
        degrees = [(i, j) for i in range(n + 1) for j in range(n + 1)]
        if k is not None:
            degrees = [(i, j) for i, j in degrees if i + j == k]
    else:
        i, j = bidegree
        if not (0 <= i <= n and 0 <= j <= n):
            raise ValueError(f"bidegree ({i}, {j}) out of range for n={n}")
        if k is not None and k != i + j:
            raise ValueError(f"degree {k} disagrees with bidegree ({i}, {j})")
        degrees = [(i, j)]
    memo: dict = {}
    out = [
        LabelledMatching(n, arcs, a, at)
        for i, j in degrees
        if i >= j
        for arcs, a, at in _reduced_labellings(1, n + 1, i - j, j, memo)
    ]
    out.sort(key=LabelledMatching.sort_key)
    return out


# ---------------------------------------------------------------------------
# The subset-pair bijection.

class SubsetPair(tuple):
    """An ordered pair (A, B) of subsets of 1..n."""

    def __new__(cls, A: Iterable[int], B: Iterable[int]):
        return super().__new__(cls, (frozenset(A), frozenset(B)))

    @property
    def A(self) -> frozenset:
        return self[0]

    @property
    def B(self) -> frozenset:
        return self[1]


def matching_from_subsets(A: Iterable[int], B: Iterable[int], n: int) -> LabelledMatching:
    """The unique noncrossing matching attached to the subset pair (A, B).

    Vertices in both sets get 'at' labels; each left endpoint lies in A and
    each right endpoint in B.  An element a of A - B is matched to the
    smallest b > a in B - A such that A and B have equally many elements
    strictly between a and b; elements that find no partner keep an 'a'
    label, with every surviving B element left of every surviving A element.
    One left-to-right pass with a stack of open arcs finds every partner.
    """
    A, B = set(A), set(B)
    for v in A | B:
        if not 1 <= v <= n:
            raise ValueError(f"index {v} out of range 1..{n}")
    if not (len(B) - 1 <= len(A) <= len(B)):
        raise ValueError(
            f"sizes |A|={len(A)}, |B|={len(B)} do not fit a degree "
            f"{len(A) + len(B)} index pair"
        )
    # A - B opens an arc, B - A closes the nearest open one, A & B is
    # neutral: equally many A and B elements lie between the two ends.
    arcs = []
    alphas = []
    opened: list[int] = []
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
    m = LabelledMatching(n, tuple(arcs), tuple(alphas), tuple(sorted(A & B)))
    if crossings(m) or alpha_nestings(m):
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


def subsets_from_matching(m: LabelledMatching) -> SubsetPair:
    """Inverse of ``matching_from_subsets``; rejects non-reduced matchings."""
    if crossings(m):
        raise ValueError(f"{m} has a crossing")
    if alpha_nestings(m):
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
    return SubsetPair(A, B)


# ---------------------------------------------------------------------------
# Presentation checks.

@dataclass
class PresentationReport:
    n: int
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    def record(self, ok: bool, description: str) -> None:
        self.checked += 1
        if not ok:
            self.violations.append(description)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_presentation(n: int) -> PresentationReport:
    """Check the quadratic relations among the basic invariants, and both
    rewriting rules as expanded identities over all applicable patterns.

    The displayed relations run over all index pairs i < j <= n.  The rule
    sweeps run over every labelled matching of size min(n, 5), keeping the
    sweep affordable.  One displayed relation appears twice in the source
    presentation; it is checked once here.
    """
    report = PresentationReport(n)
    for i in range(1, n + 1):
        a_i = generator_product(n, [alpha(i)])
        at_i = generator_product(n, [alpha(i), theta(i)])
        report.record((a_i * a_i).is_zero(), f"a_{i}^2 = 0")
        report.record((at_i * at_i).is_zero(), f"(a_{i} t_{i})^2 = 0")
    for i, j in itertools.combinations(range(1, n + 1), 2):
        a_i = generator_product(n, [alpha(i)])
        a_j = generator_product(n, [alpha(j)])
        at_i = generator_product(n, [alpha(i), theta(i)])
        at_j = generator_product(n, [alpha(j), theta(j)])
        cross = generator_product(n, [alpha(i), theta(j)]) + generator_product(
            n, [alpha(j), theta(i)]
        )
        report.record(
            (at_i * cross).is_zero(),
            f"(a_{i} t_{i})(a_{i} t_{j} + a_{j} t_{i}) = 0",
        )
        report.record(
            cross * cross == (at_i * at_j).scale(-2),
            f"(a_{i} t_{j} + a_{j} t_{i})^2 = -2 (a_{i} t_{i})(a_{j} t_{j})",
        )
        report.record(
            a_i * cross == -(a_j * at_i),
            f"a_{i}(a_{i} t_{j} + a_{j} t_{i}) = -a_{j} (a_{i} t_{i})",
        )
    for m in labelled_matchings(min(n, 5)):
        for quad in crossing_quadruples(m):
            combo = skein_uncross(m, quad)
            report.record(
                matching_invariant(m) == combo.expand(),
                f"uncross rule at {quad} on {m}",
            )
        for arc, vertex in nested_alpha_patterns(m):
            combo = skein_move_alpha(m, arc, vertex)
            report.record(
                matching_invariant(m) == combo.expand(),
                f"label slide at {vertex} under {arc} on {m}",
            )
    return report


# ---------------------------------------------------------------------------
# Literals and JSON.

_SECTION_RE = re.compile(r"\s*(n|arcs|a|at)\s*=", re.ASCII)


def parse_matching(text: str) -> LabelledMatching:
    """Parse a matching literal like ``n=8; arcs=(4,6),(5,7); a=1; at=2``.

    Whitespace insensitive; omitted sections mean empty.  Parse failures
    raise LiteralParseError with the offending position; a structurally
    invalid matching (overlapping arcs or labels) raises ValueError instead.
    """
    pos = 0
    length = len(text)
    seen: dict[str, object] = {}

    def skip_ws() -> None:
        nonlocal pos
        while pos < length and text[pos].isspace():
            pos += 1

    def parse_int() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < length and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise LiteralParseError(text, start, "expected an integer")
        return int(text[start:pos])

    def expect(ch: str) -> None:
        nonlocal pos
        skip_ws()
        if pos >= length or text[pos] != ch:
            raise LiteralParseError(text, pos, f"expected {ch!r}")
        pos += 1

    first = True
    while True:
        skip_ws()
        if pos >= length:
            break
        if not first:
            expect(";")
            skip_ws()
            if pos >= length:
                break
        first = False
        m = _SECTION_RE.match(text, pos)
        if not m:
            raise LiteralParseError(text, pos, "expected a section like n=, arcs=, a=, at=")
        key = m.group(1)
        if key in seen:
            raise LiteralParseError(text, pos, f"duplicate section {key!r}")
        pos = m.end()
        if key == "n":
            seen["n"] = parse_int()
        elif key == "arcs":
            arcs = []
            while True:
                expect("(")
                i = parse_int()
                expect(",")
                j = parse_int()
                expect(")")
                arcs.append((i, j))
                skip_ws()
                if pos < length and text[pos] == ",":
                    pos += 1
                    continue
                break
            seen["arcs"] = tuple(arcs)
        else:
            values = [parse_int()]
            while True:
                skip_ws()
                if pos < length and text[pos] == ",":
                    pos += 1
                    values.append(parse_int())
                else:
                    break
            seen[key] = tuple(values)
    if "n" not in seen:
        raise LiteralParseError(text, length, "missing required section n=")
    return LabelledMatching(
        n=seen["n"],
        arcs=seen.get("arcs", ()),
        alpha=seen.get("a", ()),
        alphatheta=seen.get("at", ()),
    )
