"""Fault injections shared by the negative controls, and the check of the
hand-written record classes against the @dataclass each one replaced."""

import copy
import inspect
import pickle
import textwrap
from fractions import Fraction

import pytest

from supertorus import cohomology as co
from supertorus import exterior as ex
from supertorus import linalg as la
from supertorus import matchings as ma

from matrices import from_rows


def _mutant(module, name, old="", new="", **swapped):
    """``module.name`` rebuilt from its own source with ``old`` replaced by
    ``new``, or with the module globals in ``swapped`` rebound for it alone,
    so every other line of it, its checks too, stays and no other function
    sees the change; ``name`` may be a dotted method name such as
    ``Matrix.rank``."""
    target = module
    for part in name.split("."):
        target = getattr(target, part)
    source = textwrap.dedent(inspect.getsource(target))
    mutated = source.replace(old, new) if old else source
    assert mutated != source or swapped
    namespace = dict(vars(module)) | swapped
    exec(compile(mutated, module.__file__, "exec"), namespace)
    return namespace[part]


@pytest.fixture
def negated_raising(monkeypatch):
    """Negate the raising operator, which is what a negated derivative by
    every theta generator makes of it: a sign fault that the exponential and
    sl2 checks must catch.  Lowering is untouched."""
    raising = ex.raising
    monkeypatch.setattr(ex, "raising", lambda f: -raising(f))


@pytest.fixture
def oldest_arc_first(monkeypatch):
    """The bijection's mask core with one change: its bracket scan closes
    the oldest open arc instead of the newest.  The scan's other callers
    keep the right one."""
    scan = _mutant(la, "_bracket_scan", "opened.pop()", "opened.pop(0)")
    mutant = _mutant(ma, "_matching_from_masks", _bracket_scan=scan)
    monkeypatch.setattr(ma, "_matching_from_masks", mutant)


@pytest.fixture
def top_at_label_dropped(monkeypatch):
    """``matchings._pair_matchings`` with one change: the vertex list it
    reads from A & B lacks the highest vertex, so each row whose A and B
    meet gets one 'at' label too few.  No other caller of ``_vertices``
    sees it."""
    vertices = ma._vertices
    mutant = _mutant(ma, "_pair_matchings", _vertices=lambda mask: vertices(mask)[:-1])
    monkeypatch.setattr(ma, "_pair_matchings", mutant)


@pytest.fixture
def left_end_lead(monkeypatch):
    """``matchings._lead_matching`` with one change: it reads an arc's 'a'
    at the arc's left end, so a vertex with 'a' alone opens an arc and one
    with 't' alone closes the nearest open one; the scan's two masks swap
    for it alone."""
    scan = la._bracket_scan
    mutant = _mutant(ma, "_lead_matching",
                     _bracket_scan=lambda opens, closes: scan(closes, opens))
    monkeypatch.setattr(ma, "_lead_matching", mutant)


@pytest.fixture
def dropped_lead_sign(monkeypatch):
    """``matchings.normal_form`` with one change: it keeps the coefficient
    of each lead as popped, without the sign (-1)**arcs of the lead in its
    matching's invariant."""
    mutant = _mutant(ma, "normal_form", "if len(lead.arcs) & 1:", "if False:")
    monkeypatch.setattr(ma, "normal_form", mutant)


@pytest.fixture
def two_open_arcs_to_close(monkeypatch):
    """``linalg._bracket_scan`` with one change: a closing bit closes an arc
    only when at least two are open, bound in ``cohomology`` and
    ``matchings`` both, so every user of the shared scan gets it.

    A pop-order fault cannot serve here: a scan that closes the oldest open
    arc finds the same ballot subsets, and the product over its crossing
    arcs is still a kernel vector with the same lead, so back-substitution
    returns the same reduced basis, which is unique, and no block sees it.
    """
    scan = _mutant(la, "_bracket_scan", "elif opened:", "elif len(opened) > 1:")
    monkeypatch.setattr(co, "_bracket_scan", scan)
    monkeypatch.setattr(ma, "_bracket_scan", scan)
    yield
    # a block built meanwhile holds the fault
    co._kernel_block.cache_clear()
    co._cokernel_block.cache_clear()


@pytest.fixture
def reversed_merge_sign(monkeypatch):
    """``_merge_sign`` with one change: its shifts run the other way, so it
    counts the pairs (x in a, y in b) with y above x instead of below, which
    makes the product that of the opposite algebra.  Rebound in
    ``cohomology`` too, which imports it by name; returns the mutant."""
    mutant = _mutant(ex, "_merge_sign", ">>", "<<")
    monkeypatch.setattr(ex, "_merge_sign", mutant)
    monkeypatch.setattr(co, "_merge_sign", mutant)
    return mutant


@pytest.fixture
def sign_free_product(monkeypatch):
    """``_merge_sign`` with one change: it always returns 1, so no product
    reorders with a sign and the algebra becomes commutative.  Rebound in
    ``cohomology`` too, as ``reversed_merge_sign`` is."""
    mutant = _mutant(ex, "_merge_sign", "return -1 if", "return 1 if")
    monkeypatch.setattr(ex, "_merge_sign", mutant)
    monkeypatch.setattr(co, "_merge_sign", mutant)


@pytest.fixture
def flipped_pair_sign(monkeypatch):
    """``_merge_sign`` negated on the pair {a1, a2} only (masks 1 and 4, in
    both orders).  The flip is symmetric, so every pair still commutes with
    its graded sign, but (a1 a2) t2 = -a1 (a2 t2): only associativity can
    catch it.  Rebound in ``cohomology`` too, as ``reversed_merge_sign`` is."""
    merge_sign = ex._merge_sign

    def mutant(a_mask, b_mask):
        sign = merge_sign(a_mask, b_mask)
        return -sign if {a_mask, b_mask} == {1, 4} else sign

    monkeypatch.setattr(ex, "_merge_sign", mutant)
    monkeypatch.setattr(co, "_merge_sign", mutant)


@pytest.fixture
def first_stored_column(monkeypatch):
    """``linalg._echelon`` with one change: a row is cleared at, and kept
    under, its first stored column instead of its lowest, so an update that
    cancels that column leaves the row under a column it filled in last."""
    mutant = _mutant(la, "_echelon", "c = min(row)", "c = next(iter(row))")
    monkeypatch.setattr(la, "_echelon", mutant)


@pytest.fixture
def skipped_back_substitution(monkeypatch):
    """``linalg._integer_rref`` with one change: it skips back substitution,
    so the rows above each pivot keep their entries in its column."""
    mutant = _mutant(la, "_integer_rref", "for t in range(len(pivots) - 1, 0, -1):",
                     "for t in ():")
    monkeypatch.setattr(la, "_integer_rref", mutant)


@pytest.fixture
def dropped_ballot_vector(monkeypatch):
    """``cohomology._kernel_block`` with one change: each block loses its
    last vector, the one at its lexicographically last ballot subset."""
    mutant = _mutant(co, "_kernel_block", "for v in reduced.values())",
                     "for v in list(reduced.values())[:-1])")
    monkeypatch.setattr(co, "_kernel_block", mutant)


@pytest.fixture
def swapped_arc_signs(monkeypatch):
    """``cohomology._kernel_block`` with one change: the first arc's factor
    is e_left - e_right, so each product with an arc starts at -1 on its
    lead and the whole product is negated."""
    mutant = _mutant(co, "_kernel_block", "terms = {mask: 1}",
                     "terms = {mask: -1 if arcs else 1}")
    monkeypatch.setattr(co, "_kernel_block", mutant)


@pytest.fixture
def skipped_ballot_step(monkeypatch):
    """``cohomology._kernel_block`` with one change: back-substitution skips
    its first step, at the largest earlier lead a product touches."""
    mutant = _mutant(co, "_kernel_block", "reduced.keys(), reverse=True):",
                     "reduced.keys(), reverse=True)[1:]:")
    monkeypatch.setattr(co, "_kernel_block", mutant)


@pytest.fixture
def first_column_free(monkeypatch):
    """``cohomology._kernel_vectors`` with one change: each kernel vector's
    free column is its first column instead of its last, so the free
    monomials are no longer the ballot leads.  The vectors stay a basis of
    the kernel, as many as its dimension."""
    mutant = _mutant(co, "_kernel_vectors", "cols[v[-1][0]]", "cols[v[0][0]]")
    monkeypatch.setattr(co, "_kernel_vectors", mutant)


@pytest.fixture
def dropped_incidence(monkeypatch):
    """``boolean_incidence`` with one change: the block (12, 4, 8) loses the
    last incidence of its last row."""
    build = la.boolean_incidence

    def mutant(n, i, j):
        m = build(n, i, j)
        if (n, i, j) != (12, 4, 8):
            return m
        rows = m.rows()
        rows[-1][max(c for c, x in enumerate(rows[-1]) if x)] = 0
        return from_rows(rows)

    monkeypatch.setattr(la, "boolean_incidence", mutant)


@pytest.fixture
def shifted_coefficient(monkeypatch):
    """``linalg._complementary_coefficients`` with one change: c_2 of the
    block (12, 4) grows by 1/210, one unit of the scaled inverse's entries."""
    coefficients = la._complementary_coefficients

    def mutant(n, i):
        c = coefficients(n, i)
        if (n, i) == (12, 4):
            c[2] += Fraction(1, 210)
        return c

    monkeypatch.setattr(la, "_complementary_coefficients", mutant)


def _outcome(f, *args):
    """f(*args), or the error it raised as (type, message); any
    AttributeError, dataclasses.FrozenInstanceError too, as AttributeError."""
    try:
        return f(*args)
    except Exception as err:
        return AttributeError if isinstance(err, AttributeError) else type(err), str(err)


def _assert_like_dataclass(values, oracles):
    """Each of ``values`` behaves as the same record in ``oracles``, built by
    the @dataclass its class replaced (renamed to print as it does): ``==``
    and ``!=`` on every pair, ``hash``, ``repr``, assigning and deleting
    fields, and copy, deepcopy and pickle round trips."""
    for a, oa in zip(values, oracles, strict=True):
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        twins = [copy.copy(a), copy.deepcopy(a),
                 *(pickle.loads(pickle.dumps(a, p)) for p in protocols)]
        for x in (a, *twins):
            assert type(x) is type(a) and repr(x) == repr(oa)
            assert _outcome(hash, x) == _outcome(hash, oa)
            assert x.__eq__(oa) is NotImplemented and oa.__eq__(x) is NotImplemented
            for b, ob in zip(values, oracles):
                assert (x == b, x != b) == (oa == ob, oa != ob)
            for name in (*oa.__dataclass_fields__, "extra"):
                value = getattr(oa, name, None)
                assert (_outcome(setattr, copy.copy(x), name, value)
                        == _outcome(setattr, copy.copy(oa), name, value))
                assert (_outcome(delattr, copy.copy(x), name)
                        == _outcome(delattr, copy.copy(oa), name))
    if all(type(oa).__hash__ for oa in oracles):  # so sets list them in one order
        assert list(map(repr, set(values))) == list(map(repr, set(oracles)))


@pytest.fixture
def like_dataclass():
    return _assert_like_dataclass
