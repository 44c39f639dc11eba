"""The three workloads: their items, made from a seed, and each item's checks.

An item is one call a user would make: a library call for
``cohomology-api``, one command line through ``cli.main`` for the other two.
``run`` is the timed part.  ``canonical`` is the text whose sha256 must match
the digest captured from the reference commit (``golden.json``), and
``check`` compares the result with answers from ``oracle``, which never calls
the package.  Any mismatch fails the item.

Seeds only choose among inputs of about the same cost: bidegrees that mirror
each other, permutations, and crossing matchings of fixed sizes.  The
expensive calls are fixed, so the work in a run hardly depends on the seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import shlex
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import oracle

WORKLOADS = ("cohomology-api", "matchings-cli", "verify-cli")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def flip_first_byte(text: str) -> str:
    return chr(ord(text[0]) ^ 1) + text[1:] if text else "\x01"


class Sink(io.TextIOBase):
    """Stands in for the terminal: hashes and counts what is written and
    keeps the text only when the item's check has to parse it."""

    def __init__(self, keep: bool, corrupt: bool, wrap=None):
        self.keep = keep
        self.corrupt = corrupt
        self.chunks: list[str] = []
        self.hash = hashlib.sha256()
        self.nbytes = 0
        self.lines = 0
        self.tail = ""
        if wrap is not None:
            self.write = wrap(self.write)

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if self.corrupt and s:
            s, self.corrupt = flip_first_byte(s), False
        data = s.encode()
        self.hash.update(data)
        self.nbytes += len(data)
        self.lines += s.count("\n")
        if self.keep:
            self.chunks.append(s)
        else:
            self.tail = (self.tail + s)[-400:]
        return len(s)

    def text(self) -> str:
        return "".join(self.chunks)

    def last_line(self) -> str:
        body = self.text() if self.keep else self.tail
        return body.rstrip("\n").rsplit("\n", 1)[-1]


# ---------------------------------------------------------------------------
# Library items.

class ApiItem:
    """A library call; ``canonical`` is its result as the package prints it."""

    kind = "api"

    def run(self, env):
        raise NotImplementedError

    def canonical(self, result, env) -> str:
        raise NotImplementedError

    def check(self, result, env) -> list[str]:
        raise NotImplementedError


def _basis_text(basis, env) -> str:
    return "\n".join(env.ex.format_element(v) for v in basis)


class Invariants(ApiItem):
    def __init__(self, n, d):
        self.n, self.d = n, d
        self.key = f"invariants_basis({n},{d})"

    def run(self, env):
        return env.co.invariants_basis(self.n, self.d)

    def canonical(self, basis, env):
        return _basis_text(basis, env)

    def check(self, basis, env):
        n, (i, j) = self.n, self.d
        errors = []
        if len(basis) != oracle.invariants_dim(n, i, j):
            errors.append(f"{len(basis)} vectors, closed form {oracle.invariants_dim(n, i, j)}")
        for v in basis:
            terms = v._terms
            if not terms or any(oracle.bidegree_of(m) != (i, j) for m in terms):
                errors.append("a vector is zero or leaves the bidegree")
                break
            if oracle.raising_image(terms, n):
                errors.append("raising does not kill a kernel vector")
                break
        return errors


class Coinvariants(ApiItem):
    def __init__(self, n, d):
        self.n, self.d = n, d
        self.key = f"coinvariants_representatives({n},{d})"

    def run(self, env):
        return env.co.coinvariants_representatives(self.n, self.d)

    def canonical(self, basis, env):
        return _basis_text(basis, env)

    def check(self, basis, env):
        n, (i, j) = self.n, self.d
        errors = []
        if len(basis) != oracle.coinvariants_dim(n, i, j):
            errors.append(f"{len(basis)} representatives, closed form "
                          f"{oracle.coinvariants_dim(n, i, j)}")
        masks = set()
        for v in basis:
            terms = list(v._terms.items())
            if len(terms) != 1 or terms[0][1] != 1 or oracle.bidegree_of(terms[0][0]) != (i, j):
                errors.append("a representative is not a monomial of the bidegree")
                break
            masks.add(terms[0][0])
        if len(masks) != len(basis):
            errors.append("repeated representative")
        return errors


def _square_invertible(matrix, size, what) -> list[str]:
    if matrix.shape != (size, size):
        return [f"{what} has shape {matrix.shape}, closed form {size}x{size}"]
    if not oracle.full_rank_mod_p(matrix.rows()):
        return [f"{what} is not invertible modulo {oracle.RANK_PRIME}"]
    return []


class Gram(ApiItem):
    """``duality_gram(n, i, j).is_invertible()``, as a user would ask it."""

    def __init__(self, n, i, j):
        self.n, self.i, self.j = n, i, j
        self.key = f"duality_gram({n},{i},{j})"

    def run(self, env):
        gram = env.co.duality_gram(self.n, self.i, self.j)
        return gram, gram.is_invertible()

    def canonical(self, result, env):
        return result[0].to_csv()

    def check(self, result, env):
        gram, invertible = result
        n, i, j = self.n, self.i, self.j
        size = oracle.invariants_dim(n, i, j)
        errors = [] if invertible is True else ["is_invertible() is not True"]
        if size != oracle.coinvariants_dim(n, n - i, n - j):
            errors.append("closed forms disagree on the pairing's size")
        return errors + _square_invertible(gram, size, "Gram matrix")


class Lefschetz(ApiItem):
    def __init__(self, n, i, j):
        self.n, self.i, self.j = n, i, j
        self.key = f"lefschetz_matrix({n},{i},{j})"

    def run(self, env):
        return env.co.lefschetz_matrix(self.n, self.i, self.j)

    def canonical(self, matrix, env):
        return matrix.to_csv()

    def check(self, matrix, env):
        n, i, j = self.n, self.i, self.j
        size = oracle.invariants_dim(n, i, j)
        errors = []
        if size != oracle.invariants_dim(n, n - j, n - i):
            errors.append("closed forms disagree on the Lefschetz map's size")
        return errors + _square_invertible(matrix, size, "Lefschetz matrix")


class Trace(ApiItem):
    """The invariant basis of one bidegree, then a permutation's trace on it."""

    def __init__(self, n, d, images):
        self.n, self.d, self.images = n, d, tuple(images)
        self.key = f"trace_on_basis({list(self.images)},invariants_basis({n},{d}))"

    def run(self, env):
        basis = env.co.invariants_basis(self.n, self.d)
        return env.co.trace_on_basis(env.ex.Permutation(self.images), basis)

    def canonical(self, value, env):
        return str(value)

    def check(self, value, env):
        expected = oracle.invariants_character(oracle.cycles_of(self.images), *self.d)
        if value != expected:
            return [f"trace {value}, character formula {expected}"]
        return []


# ---------------------------------------------------------------------------
# Command-line items.

class CliItem:
    """One command line through ``cli.main``; the canonical text is stdout."""

    kind = "cli"

    def __init__(self, argv, key=None, keep=True):
        self.argv = list(argv)
        self.key = key or shlex.join(self.argv)
        self.keep = keep

    def run(self, env):
        out = Sink(self.keep, env.corrupt_next, env.emit_wrap)
        err = Sink(True, False)
        with redirect_stdout(out), redirect_stderr(err):
            code = env.cli.main(self.argv)
        return code, out, err

    def check(self, result, env) -> list[str]:
        code, out, err = result
        errors = []
        if code != 0:
            errors.append(f"exit code {code}")
        if err.text():
            errors.append(f"stderr: {err.text().strip()[:200]}")
        try:
            errors += self.check_output(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            errors.append(f"unparseable output: {type(exc).__name__}: {exc}")
        return errors

    def check_output(self, out: Sink) -> list[str]:
        return []


class BasisText(CliItem):
    def __init__(self, n, i, j):
        super().__init__(["basis", "--n", str(n), "--i", str(i), "--j", str(j)], keep=False)
        self.count = oracle.invariants_dim(n, i, j)

    def check_output(self, out):
        want = f"count {self.count} (formula {self.count})"
        if out.last_line() != want or out.lines != self.count + 2:
            return [f"{out.lines} lines ending {out.last_line()!r}, expected {want!r}"]
        return []


class BasisJson(CliItem):
    """Every row's element must be the matching's own invariant."""

    def __init__(self, n, i, j):
        super().__init__(["basis", "--n", str(n), "--i", str(i), "--j", str(j),
                          "--format", "json"])
        self.n, self.d = n, (i, j)

    def check_output(self, out):
        rows = json.loads(out.text())["rows"]
        errors = []
        if len(rows) != oracle.invariants_dim(self.n, *self.d):
            errors.append(f"{len(rows)} rows, closed form {oracle.invariants_dim(self.n, *self.d)}")
        literals = set()
        for row in rows:
            m = row["matching"]
            arcs = [tuple(a) for a in m["arcs"]]
            if oracle.crosses(arcs) or oracle.nested_alpha(arcs, m["alpha"]):
                errors.append(f"{row['literal']} is not a basis matching")
                break
            if oracle.parse_literal(row["literal"]) != (
                m["n"], arcs, m["alpha"], m["alphatheta"]
            ):
                errors.append(f"literal {row['literal']} disagrees with its JSON")
                break
            expected = oracle.matching_invariant(arcs, m["alpha"], m["alphatheta"])
            if oracle.parse_element(row["element"]) != expected:
                errors.append(f"element of {row['literal']} is not its invariant")
                break
            literals.add(row["literal"])
        if len(literals) != len(rows):
            errors.append("repeated basis matching")
        return errors


class BijectionCsv(CliItem):
    def __init__(self, n, k):
        super().__init__(["bijection", "--n", str(n), "--k", str(k), "--format", "csv"])
        self.n, self.k = n, k

    def check_output(self, out):
        rows = list(csv.reader(io.StringIO(out.text())))
        want = oracle.bijection_rows(self.n, self.k)
        errors = []
        if rows[0] != ["A", "B", "literal", "round_trip"] or len(rows) - 1 != want:
            errors.append(f"{len(rows) - 1} rows, closed form {want}")
        pairs = set()
        for a, b, literal, ok in rows[1:]:
            if ok != "True":
                errors.append(f"round trip failed for A={a} B={b}")
                break
            if len(a.split()) != self.k // 2 or len(b.split()) != (self.k + 1) // 2:
                errors.append(f"subset sizes wrong for A={a} B={b}")
                break
            pairs.add((a, b))
        if len(pairs) != len(rows) - 1:
            errors.append("repeated subset pair")
        return errors


class Dims(CliItem):
    def __init__(self, n):
        super().__init__(["dims", "--n", str(n)])
        self.n = n

    def check_output(self, out):
        n = self.n
        lines = out.text().splitlines()
        table = [list(map(int, line.split())) for line in lines[2:-3]]
        expected = [
            [i, j, oracle.invariants_dim(n, i, j), oracle.coinvariants_dim(n, i, j)]
            for i in range(n + 1)
            for j in range(n + 1)
        ]
        diagonal = [oracle.invariants_dim(n, i, i) for i in range(n + 1)]
        total = sum(row[2] for row in expected)
        tail = [
            f"diagonal: {diagonal}",
            f"diagonal total {sum(diagonal)} = catalan {oracle.catalan(n + 1)}",
            f"total h0 {total} = central binomial {oracle.comb(2 * n + 1, n)}",
        ]
        if table != expected or lines[-3:] != tail:
            return ["dimension table disagrees with the closed forms"]
        return []


class Character(CliItem):
    def __init__(self, n, i, j):
        super().__init__(["character", "--n", str(n), "--i", str(i), "--j", str(j)])
        self.n, self.d = n, (i, j)

    def check_output(self, out):
        rows = out.text().splitlines()[1:]
        seen = 0
        for row in rows:
            cycle_type, value = row.split(": ")
            lengths = [int(x) for x in cycle_type.strip("()").split(",")]
            if sum(lengths) != self.n:
                return [f"{cycle_type} is not a partition of {self.n}"]
            if int(value) != oracle.invariants_character(lengths, *self.d):
                return [f"character at {cycle_type} is {value}"]
            seen += 1
        if seen != _partition_count(self.n):
            return [f"{seen} cycle types, expected {_partition_count(self.n)}"]
        return []


def _partition_count(n: int, largest: int | None = None) -> int:
    largest = n if largest is None else largest
    if n == 0:
        return 1
    return sum(_partition_count(n - k, k) for k in range(1, min(n, largest) + 1))


class Reduce(CliItem):
    """The normal form must expand to the input's invariant, over
    noncrossing matchings with no 'a' label under an arc."""

    def __init__(self, literal, fmt):
        super().__init__(["reduce", literal, "--format", fmt])
        self.literal, self.fmt = literal, fmt

    def _terms(self, text):
        if self.fmt == "json":
            for term in json.loads(text)["terms"]:
                m = term["matching"]
                yield Fraction(term["coeff"]), (
                    m["n"], [tuple(a) for a in m["arcs"]], m["alpha"], m["alphatheta"])
        elif self.fmt == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            if rows[0] != ["coeff", "literal"]:
                raise ValueError("bad csv header")
            for coeff, literal in rows[1:]:
                yield Fraction(coeff), oracle.parse_literal(literal)
        else:
            for line in text.splitlines():
                if line == "0":
                    continue
                coeff, literal = line.split(" * ")
                yield Fraction(coeff), oracle.parse_literal(literal.strip("[]"))

    def check_output(self, out):
        n, arcs, alpha, alphatheta = oracle.parse_literal(self.literal)
        total: dict[int, Fraction] = {}
        for coeff, (tn, tarcs, talpha, tat) in self._terms(out.text()):
            if tn != n or oracle.crosses(tarcs) or oracle.nested_alpha(tarcs, talpha):
                return [f"term {tarcs} {talpha} is not a reduced matching of size {n}"]
            for mask, c in oracle.matching_invariant(tarcs, talpha, tat).items():
                total[mask] = total.get(mask, 0) + coeff * c
        total = {m: c for m, c in total.items() if c}
        if total != oracle.matching_invariant(arcs, alpha, alphatheta):
            return ["normal form does not expand to the input's invariant"]
        return []


class Verify(CliItem):
    def __init__(self, seed, checks):
        argv = ["verify", "--suite", "all", "--n-max", "4", "--seed", str(seed)]
        # A passing run prints the same text for every seed.
        super().__init__(argv, key="verify --suite all --n-max 4")
        self.checks = checks

    def check_output(self, out):
        lines = out.text().splitlines()
        failing = [line for line in lines[:-1] if not line.startswith("PASS [")]
        want = f"{self.checks}/{self.checks} checks passed"
        if failing or len(lines) != self.checks + 1 or lines[-1] != want:
            return [f"{len(failing)} failing lines, last line {lines[-1]!r}"] + failing[:3]
        return []


# ---------------------------------------------------------------------------
# Workloads.

def _permutation(rng: random.Random, n: int) -> list[int]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return images


# Each slot is one library call; a seed picks one of its argument tuples.
# Tuples in a slot mirror each other, (i, j) against (n-j, n-i), or cost
# about the same.
COHOMOLOGY_SLOTS = [
    (Invariants, [(7, (3, 3))]),  # the ROADMAP's named target
    (Invariants, [(6, (3, 3))]),
    (Coinvariants, [(6, (3, 3))]),
    (Gram, [(6, 3, 2)]),
    (Invariants, [(6, (3, 2)), (6, (4, 3))]),
    (Lefschetz, [(6, 2, 1), (6, 4, 1)]),
    (Invariants, [(5, (2, 2)), (5, (3, 3))]),
    (Invariants, [(5, (3, 2)), (5, (2, 1)), (5, (4, 3))]),
    (Coinvariants, [(5, (2, 2)), (5, (3, 3))]),
    (Gram, [(5, 2, 2), (5, 3, 2)]),
    (Lefschetz, [(5, 2, 1), (5, 3, 1)]),
]
# Traces of a seeded permutation: (n, the bidegrees to pick from).
TRACE_SLOTS = [(6, [(2, 2)]), (5, [(3, 2), (2, 2)])]


def cohomology_api(rng: random.Random):
    items = [cls(*rng.choice(options)) for cls, options in COHOMOLOGY_SLOTS]
    items += [Trace(n, rng.choice(ds), _permutation(rng, n)) for n, ds in TRACE_SLOTS]
    return items


def cohomology_pool():
    """Every library call any seed can draw except the traces, whose
    answers the character formula checks exactly."""
    return [cls(*args) for cls, options in COHOMOLOGY_SLOTS for args in options]


def crossing_literal(rng: random.Random, n: int) -> str:
    """A labelled matching on n vertices with at least one crossing."""
    while True:
        vertices = list(range(1, n + 1))
        rng.shuffle(vertices)
        k = rng.choice([n // 2 - 1, n // 2])
        arcs = sorted(tuple(sorted(vertices[2 * t : 2 * t + 2])) for t in range(k))
        if not oracle.crosses(arcs):
            continue
        labels = {"a": [], "at": []}
        for v in sorted(vertices[2 * k :]):
            label = rng.choice(["", "a", "at"])
            if label:
                labels[label].append(v)
        parts = [f"n={n}", "arcs=" + ",".join(f"({i},{j})" for i, j in arcs)]
        parts += [f"{name}=" + ",".join(map(str, vs)) for name, vs in labels.items() if vs]
        return "; ".join(parts)


def matchings_cli(rng: random.Random):
    items = [
        BasisText(9, 4, 4),
        BasisJson(8, 4, 4),
        BijectionCsv(9, 9),
        Dims(14),
        Character(10, 5, 3),
    ]
    formats = ("text", "json", "csv")
    items += [Reduce(crossing_literal(rng, 10 + k % 3), formats[k % 3]) for k in range(24)]
    return items


def build(workload: str, seed: int, env):
    rng = random.Random(seed)
    if workload == "cohomology-api":
        return cohomology_api(rng)
    if workload == "matchings-cli":
        return matchings_cli(rng)
    if workload == "verify-cli":
        return [Verify(seed, sum(len(s) for s in env.vf.SUITES.values()))]
    raise ValueError(f"unknown workload {workload!r}")
