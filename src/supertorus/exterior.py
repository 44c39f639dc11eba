"""Exact arithmetic in the exterior algebra on 2n anticommuting generators.

The algebra ``E_n`` is generated by ``a_1 .. a_n`` (alpha generators) and
``t_1 .. t_n`` (theta generators).  Monomials are stored as 2n-bit masks over
the canonical generator order

    a_1 < t_1 < a_2 < t_2 < ... < a_n < t_n

and every sign is an inversion count against that order.  Elements are sparse
maps from monomials to ``Fraction`` coefficients, so every operator identity
in the test suite is an exact equality, never a tolerance.

The two gradings track alpha-degree and theta-degree separately.  The key
operators are the algebra map ``translate`` (t_i -> t_i + a_i), its
infinitesimal form ``raising`` (sum of a_i * d/dt_i), the mirror operator
``lowering``, and the diagonal ``weight`` operator; together the last three
act as an sl2 triple.  As a_i and t_i are adjacent, raising and lowering only
move a lone t_i to a_i, or a lone a_i to t_i, in place and without a sign.

``Monomial``, ``Permutation``, ``matchings.LabelledMatching`` and
``cohomology.BidegreeBasis`` are frozen records on one base, ``_Record``,
with the equality, hash, repr and pickling of a frozen dataclass.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, NoReturn

from .linalg import _rational

Rational = Fraction | int

# Fractions are immutable, so every absent coefficient can share one zero.
_ZERO = Fraction(0)

# Largest rank n accepted; the algebra has 4**n monomials.
MAX_RANK = 14

# Bits of the alpha generators a_1 .. a_MAX_RANK: 0b...010101.
_ALPHA_BITS = int("01" * MAX_RANK, 2)


def _check_int(value: object, what: str) -> None:
    """Refuse anything but an ``int``; a ``bool`` or a float is refused too."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")


def _check_rank(n: int) -> None:
    _check_int(n, "rank")
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    if n > MAX_RANK:
        raise ValueError(f"rank {n} exceeds the guard {MAX_RANK}")


def _check_bidegree(n: int, i: int, j: int) -> None:
    _check_int(n, "rank")
    _check_int(i, "bidegree part")
    _check_int(j, "bidegree part")
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"bidegree ({i}, {j}) out of range for rank {n}")


class Generator(NamedTuple):
    """One of the 2n generators: kind 'alpha' or 'theta', index 1..n."""

    kind: str
    index: int

    @property
    def position(self) -> int:
        # 0-based slot in the canonical order a_1 < t_1 < a_2 < t_2 < ...
        return 2 * (self.index - 1) + (0 if self.kind == "alpha" else 1)

    def __str__(self) -> str:
        return ("a" if self.kind == "alpha" else "t") + str(self.index)


def alpha(i: int) -> Generator:
    return Generator("alpha", i)


def theta(i: int) -> Generator:
    return Generator("theta", i)


def _generator_at(position: int) -> Generator:
    kind = "alpha" if position % 2 == 0 else "theta"
    return Generator(kind, position // 2 + 1)


class Bidegree(NamedTuple):
    i: int  # alpha degree
    j: int  # theta degree


class _Record:
    """Base of the frozen records: a subclass's fields are its ``__slots__``,
    in order, and equality, hash and pickling act on the tuple of their
    values, as a frozen dataclass's do.  Fields refuse assignment, so
    constructors set them with ``object.__setattr__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        # attrgetter of one name returns the bare value, not a 1-tuple; the
        # slot descriptors set a field past the refusing __setattr__ faster
        # than object.__setattr__ does.
        get = operator.attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    @classmethod
    def _trusted(cls, *values):
        """The record of the given field values, unchecked: only builders
        whose values are canonical by construction call it."""
        out = object.__new__(cls)
        for set_field, value in zip(cls._setters, values):
            set_field(out, value)
        return out

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._values(self))


class Permutation(_Record):
    """A bijection of 1..n, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        for v in images:
            _check_int(v, "image")
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        _check_int(i, "index")
        if not 1 <= i <= len(self.images):
            raise ValueError(f"index {i} out of range 1..{len(self.images)}")
        return self.images[i - 1]

    def __repr__(self) -> str:
        return f"Permutation({self.images})"

    def cycle_type(self) -> tuple[int, ...]:
        """Multiset of cycle lengths, sorted decreasingly."""
        seen = [False] * self.n
        lengths = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            length = 0
            v = start
            while not seen[v - 1]:
                seen[v - 1] = True
                v = self.images[v - 1]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))


class Monomial(_Record):
    """A square-free product of generators, stored as an n-rank bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        _check_rank(n)
        _check_int(mask, "mask")
        if not 0 <= mask < (1 << (2 * n)):
            raise ValueError(f"mask {mask:#x} out of range for rank {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def one(cls, n: int) -> "Monomial":
        return cls(n, 0)

    def generators(self) -> tuple[Generator, ...]:
        """Generators in canonical order."""
        out = []
        mask = self.mask
        while mask:
            low = mask & -mask
            out.append(_generator_at(low.bit_length() - 1))
            mask ^= low
        return tuple(out)

    def positions(self) -> tuple[int, ...]:
        return tuple(g.position for g in self.generators())

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def bidegree(self) -> Bidegree:
        return _bidegree(self.mask)

    def sort_key(self) -> tuple:
        return (self.degree, self.positions())

    def __str__(self) -> str:
        if not self.mask:
            return "1"
        return " ".join(str(g) for g in self.generators())

    def __repr__(self) -> str:
        return f"Monomial(n={self.n}, {self})"


def _bidegree(mask: int) -> Bidegree:
    i = (mask & _ALPHA_BITS).bit_count()
    return Bidegree(i, mask.bit_count() - i)


def _merge_sign(a_mask: int, b_mask: int) -> int:
    """Sign of reordering the concatenation (a, b) into canonical order.

    Counts pairs (x in a, y in b) with y below x; the masks must be disjoint.
    Bit y of ``above`` is the parity of the bits of a above y: the shifts
    fold 32 bits, more than the 2 * MAX_RANK a mask holds.
    """
    above = a_mask >> 1
    above ^= above >> 1
    above ^= above >> 2
    above ^= above >> 4
    above ^= above >> 8
    above ^= above >> 16
    return -1 if (b_mask & above).bit_count() & 1 else 1


class Element:
    """A finitely supported map from monomials to nonzero Fractions.

    Not frozen, but no operation mutates one: all allocate fresh results.
    Internally terms are keyed by monomial masks.  Coefficients must be
    exact: a float is refused, as ``Matrix`` refuses it.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[int, Fraction] | None = None):
        _check_rank(n)
        self.n = n
        self._terms = {}
        for m, c in (terms or {}).items():
            _check_int(m, "mask")
            if not 0 <= m < (1 << (2 * n)):
                raise ValueError(f"mask {m:#x} out of range for rank {n}")
            if c := _rational(c):
                self._terms[m] = c

    @classmethod
    def _make(cls, n: int, terms: dict[int, Fraction]) -> "Element":
        out = cls.__new__(cls)
        out.n = n
        out._terms = {m: c for m, c in terms.items() if c}
        return out

    @classmethod
    def zero(cls, n: int) -> "Element":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Element":
        return cls(n, {0: Fraction(1)})

    @classmethod
    def from_monomial(cls, m: Monomial, coeff: Rational = 1) -> "Element":
        c = Fraction(_rational(coeff))
        return cls(m.n, {m.mask: c} if c else {})

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(m.mask, _ZERO)

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms sorted by (degree, generator positions)."""
        out = [(Monomial(self.n, mask), c) for mask, c in self._terms.items()]
        out.sort(key=lambda t: t[0].sort_key())
        return out

    def _require_same_rank(self, other: "Element") -> None:
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def __reduce__(self):
        return (Element._make, (self.n, self._terms))  # _make copies the terms

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_rank(other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, _ZERO) + c
        return Element._make(self.n, acc)

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_rank(other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, _ZERO) - c
        return Element._make(self.n, acc)

    def __neg__(self) -> "Element":
        return Element._make(self.n, {m: -c for m, c in self._terms.items()})

    def scale(self, c: Rational) -> "Element":
        c = Fraction(_rational(c))
        if not c:
            return Element.zero(self.n)
        return Element._make(self.n, {m: c * v for m, v in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Element):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        self._require_same_rank(other)
        acc: dict[int, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                if ma & mb:
                    continue
                mask = ma | mb
                c = ca * cb
                if _merge_sign(ma, mb) < 0:
                    c = -c
                acc[mask] = acc.get(mask, _ZERO) + c
        return Element._make(self.n, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "Element":
        _check_int(k, "exponent")
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = Element.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def bidegrees(self) -> set[Bidegree]:
        return {_bidegree(m) for m in self._terms}

    def bidegree_component(self, d: tuple[int, int]) -> "Element":
        d = Bidegree(*d)
        kept = {m: c for m, c in self._terms.items() if _bidegree(m) == d}
        return Element._make(self.n, kept)

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"Element(n={self.n}, {format_element(self)!r})"


def generator_element(g: Generator, n: int) -> Element:
    return generator_product(n, [g])


def generator_product(n: int, gens: Iterable[Generator]) -> Element:
    """Product of generators in the order given, canonicalized with sign."""
    mask = 0
    sign = 1
    for g in gens:
        _check_int(g.index, "index")
        if not 1 <= g.index <= n:
            raise ValueError(f"generator {g} out of range for rank {n}")
        bit = 1 << g.position
        if mask & bit:
            return Element.zero(n)
        sign *= _merge_sign(mask, bit)
        mask |= bit
    return Element(n, {mask: Fraction(sign)})


def derivative(f: Element, g: Generator) -> Element:
    """Fermionic partial derivative with respect to the generator g."""
    _check_int(g.index, "index")
    if not 1 <= g.index <= f.n:
        raise ValueError(f"generator {g} out of range for rank {f.n}")
    bit = 1 << g.position
    acc: dict[int, Fraction] = {}
    for mask, c in f._terms.items():
        if not mask & bit:
            continue
        # removing g from behind an odd number of factors changes the sign
        sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
        new = mask ^ bit
        acc[new] = acc.get(new, _ZERO) + sign * c
    return Element._make(f.n, acc)


def _pair_move(f: Element, source: int) -> Element:
    """Sum over the pairs (a_i, t_i) of each term holding only the one at
    bit ``source`` (0 for a_i, 1 for t_i) of the term with it swapped for the
    other; the two are adjacent, so the swap adds no sign."""
    acc: dict[int, Fraction] = {}
    for mask, c in f._terms.items():
        lone = (mask >> source) & ~(mask >> (1 - source)) & _ALPHA_BITS
        while lone:
            low = lone & -lone
            new = mask ^ (3 * low)
            acc[new] = acc.get(new, _ZERO) + c
            lone ^= low
    return Element._make(f.n, acc)


def raising(f: Element) -> Element:
    """Infinitesimal translation: sum over i of a_i times d/dt_i.

    Bihomogeneous of bidegree (+1, -1); its exponential is ``translate``.
    """
    return _pair_move(f, 1)


def lowering(f: Element) -> Element:
    """Mirror of ``raising``: sum over i of t_i times d/da_i."""
    return _pair_move(f, 0)


def weight(f: Element) -> Element:
    """Scale each bidegree (i, j) component by i - j."""
    acc: dict[int, Fraction] = {}
    for mask, c in f._terms.items():
        i, j = _bidegree(mask)
        if i != j:
            acc[mask] = (i - j) * c
    return Element._make(f.n, acc)


def translate(f: Element) -> Element:
    """The algebra map sending t_i to t_i + a_i and fixing a_i.

    Computed by expanding each monomial as a product of its factors, on
    bits: an alpha bit is its own image and a theta bit's image adds the
    alpha bit just below it.  It is deliberately independent of ``raising``
    so the two can be compared.
    """
    out: dict[int, Fraction] = {}
    for mask, coeff in f._terms.items():
        acc = {0: coeff}
        m = mask
        while m:
            low = m & -m
            m ^= low
            images = (low,) if low & _ALPHA_BITS else (low, low >> 1)
            step: dict[int, Fraction] = {}
            for part, c in acc.items():
                for bit in images:
                    if part & bit:
                        continue
                    new = part | bit
                    s = _merge_sign(part, bit)
                    step[new] = step.get(new, _ZERO) + s * c
            acc = step
        for m2, c2 in acc.items():
            out[m2] = out.get(m2, _ZERO) + c2
    return Element._make(f.n, out)


def exp_raising(f: Element) -> Element:
    """Exponential series of ``raising``; a finite sum by nilpotency."""
    out = f
    term = f
    k = 0
    while term:
        k += 1
        if k > 2 * f.n + 2:
            raise AssertionError("raising series did not terminate")
        term = raising(term).scale(Fraction(1, k))
        out = out + term
    return out


def lefschetz_element(n: int) -> Element:
    """The sum of a_i t_i over all i; annihilated by ``raising``."""
    acc: dict[int, Fraction] = {}
    for i in range(1, n + 1):
        acc[0b11 << (2 * (i - 1))] = Fraction(1)
    return Element(n, acc)


def volume_form(n: int) -> Monomial:
    return Monomial(n, (1 << (2 * n)) - 1)


def subset_monomial(A: Iterable[int], B: Iterable[int], n: int) -> Monomial:
    """The monomial with a_a for a in A and t_b for b in B, canonical order."""
    mask = 0
    for a in A:
        _check_int(a, "index")
        if not 1 <= a <= n:
            raise ValueError(f"index {a} out of range for rank {n}")
        mask |= 1 << alpha(a).position
    for b in B:
        _check_int(b, "index")
        if not 1 <= b <= n:
            raise ValueError(f"index {b} out of range for rank {n}")
        mask |= 1 << theta(b).position
    return Monomial(n, mask)


def paired_element(A: Iterable[int], B: Iterable[int], n: int) -> Element:
    """Signed product adapted to the Lefschetz element.

    Multiplies a_c t_c over the intersection, then the leftover a_a, then the
    leftover t_b, each group in increasing index order.  The result is plus or
    minus the monomial ``subset_monomial(A, B, n)``; in this indexing,
    multiplication by the Lefschetz element is free of signs.
    """
    A, B = set(A), set(B)
    gens: list[Generator] = []
    for c in sorted(A & B):
        gens.append(alpha(c))
        gens.append(theta(c))
    gens.extend(alpha(a) for a in sorted(A - B))
    gens.extend(theta(b) for b in sorted(B - A))
    return generator_product(n, gens)


def permute(w: Permutation, f: Element) -> Element:
    """Relabel generator indices by w; an algebra automorphism."""
    if w.n != f.n:
        raise ValueError(f"permutation degree {w.n} does not match rank {f.n}")
    # Bit p holds generator (p >> 1) + 1, an a when p is even; it moves to
    # the same kind at index w((p >> 1) + 1).  Placing the images in the
    # old order, the sign flips once for every set bit above each new bit.
    target = [2 * v - 2 + kind for v in w.images for kind in (0, 1)]
    acc: dict[int, Fraction] = {}
    for mask, c in f._terms.items():
        new, odd = 0, 0
        while mask:
            low = mask & -mask
            q = target[low.bit_length() - 1]
            odd ^= (new >> q).bit_count() & 1
            new |= 1 << q
            mask ^= low
        acc[new] = -c if odd else c
    return Element._make(f.n, acc)


def pairing(f: Element, g: Element) -> Fraction:
    """Coefficient of the volume form in f * g; a perfect bilinear pairing."""
    f._require_same_rank(g)
    vol = (1 << (2 * f.n)) - 1
    total = Fraction(0)
    for mask, c in f._terms.items():
        comp = vol ^ mask
        cg = g._terms.get(comp)
        if cg:
            total += c * cg * _merge_sign(mask, comp)
    return total


def all_monomials(n: int) -> Iterator[Monomial]:
    for mask in range(1 << (2 * n)):
        yield Monomial(n, mask)


# ---------------------------------------------------------------------------
# Element literals: terms joined by +/-, each "c*g g ..." with generators
# like a3 and t3, e.g. "1*a1 t2 - 1*a2 t1".

class LiteralParseError(ValueError):
    """Parse failure carrying the offending position in the source text."""

    def __init__(self, text: str, position: int, message: str):
        self.text = text
        self.position = position
        self.message = message
        super().__init__(f"parse error at position {position}: {message}")

    def caret_diagnostic(self) -> str:
        return f"{self.text}\n{' ' * self.position}^ {self.message}"


_INT_RE = re.compile(r"\d+", re.ASCII)


class _Reader:
    """A cursor over one literal, shared by the element and matching grammars.

    Whitespace is skipped before each token, integers are ASCII digits only,
    and every failure is a LiteralParseError at the cursor unless a position
    is given.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, position: int | None = None) -> NoReturn:
        at = self.pos if position is None else position
        raise LiteralParseError(self.text, at, message) from None

    def more(self) -> bool:
        """Skip whitespace; whether any text is left."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.pos < len(self.text)

    def match(self, pattern: re.Pattern) -> re.Match | None:
        """Consume what ``pattern`` matches at the cursor, if it matches."""
        found = pattern.match(self.text, self.pos)
        if found:
            self.pos = found.end()
        return found

    def take(self, chars: str) -> str:
        """Consume the next character if it is one of ``chars``; '' if not."""
        if self.more() and self.text[self.pos] in chars:
            self.pos += 1
            return self.text[self.pos - 1]
        return ""

    def expect(self, char: str) -> None:
        if not self.take(char):
            self.fail(f"expected {char!r}")

    def integer(self) -> int:
        """The next ASCII integer; a run longer than the interpreter converts
        fails at its first digit."""
        self.more()
        digits = self.match(_INT_RE)
        if not digits:
            self.fail("expected an integer")
        try:
            return int(digits.group())
        except ValueError:
            self.fail("integer too long", digits.start())


# Each is matched at a non-space cursor and ends before the digits of the
# integer it announces, so the ``integer()`` that follows cannot fail to
# find one.  ``\s`` is unicode, the whitespace ``_Reader.more`` skips.
_COEFF_RE = re.compile(r"(?=\d)", re.ASCII)
_SLASH_RE = re.compile(r"\s*/\s*(?=[0-9])")
_GEN_RE = re.compile(r"[at](?=\d)", re.ASCII)


def parse_element(text: str, n: int | None = None) -> Element:
    """Parse an element literal; generator order in each term is respected."""
    r = _Reader(text)
    terms: list[tuple[int, Fraction, list[Generator]]] = []
    while r.more():
        sign = r.take("+-")
        if terms and not sign:
            r.fail("expected '+' or '-' between terms")
        r.more()
        start = r.pos
        coeff = Fraction(-1 if sign == "-" else 1)
        star = False
        if r.match(_COEFF_RE):
            num = r.integer()
            den = r.integer() if r.match(_SLASH_RE) else 1
            if den == 0:
                r.fail("zero denominator", start)
            coeff *= Fraction(num, den)
            star = bool(r.take("*"))
        gens: list[Generator] = []
        while r.more() and (letter := r.match(_GEN_RE)):
            idx = r.integer()
            if idx < 1:
                r.fail("generator index must be >= 1", letter.start())
            if idx > MAX_RANK:
                r.fail(f"generator index {idx} exceeds the guard {MAX_RANK}", letter.start())
            gens.append(Generator("alpha" if letter.group() == "a" else "theta", idx))
        if star and not gens:
            r.fail("expected a generator after '*'")
        if r.pos == start:
            r.fail("expected a term")
        terms.append((start, coeff, gens))
    if not terms:
        r.fail("empty element literal")

    if n is None:
        indices = [g.index for _, _, gens in terms for g in gens]
        n = max(indices, default=0)
    _check_rank(n)
    out = Element.zero(n)
    for start, coeff, gens in terms:
        for g in gens:
            if g.index > n:
                r.fail(f"generator index {g.index} exceeds rank {n}", start)
        out = out + generator_product(n, gens).scale(coeff)
    return out


@functools.lru_cache(maxsize=64)
def _generator_names(n: int) -> tuple[str, ...]:
    """Generator names indexed by canonical position: a1, t1, a2, t2, ..."""
    return tuple(("t" if p & 1 else "a") + str(p // 2 + 1) for p in range(2 * n))


# bin() digits to 0/1 bytes, the selectors itertools.compress expects
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def format_element(f: Element) -> str:
    """Inverse of ``parse_element`` on canonical elements.

    Terms are ordered by (degree, generator positions), as ``terms()`` orders
    them, but read straight off the masks.
    """
    if f.is_zero():
        return "0"
    names = _generator_names(f.n)
    slots = range(2 * f.n)
    rows = []
    for mask, c in f._terms.items():
        bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
        positions = tuple(itertools.compress(slots, bits))
        rows.append((len(positions), positions, c))
    rows.sort()  # masks are distinct, so coefficients are never compared
    parts: list[str] = []
    for _, positions, c in rows:
        text = str(c)
        if positions:
            text += "*" + " ".join([names[p] for p in positions])
        if text[0] == "-":
            parts.append(("- " if parts else "-") + text[1:])
        else:
            parts.append(("+ " if parts else "") + text)
    return " ".join(parts)
