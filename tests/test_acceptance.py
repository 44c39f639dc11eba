"""Acceptance checklist for the whole package.

One test per acceptance item, every assertion an exact rational equality
(tolerance zero).  Each test prints a single PASS line on success; run with
``pytest -s tests/test_acceptance.py`` to see them.  Most items run a check
from ``supertorus.verify`` at a fixed ``n_max``, so the checklist and
``supertorus verify`` share one implementation of each theorem.
"""

import random

from supertorus import cohomology as co
from supertorus import exterior as ex
from supertorus import matchings as ma
from supertorus import verify as vf


def report(name):
    print(f"ACCEPTANCE PASS  {name}")


def holds(check, n_max):
    """Run one ``verify`` check; none of the checks run here draws from the rng."""
    return check(n_max, random.Random(0))


def test_01_translate_equals_exponential():
    assert holds(vf.check_translate_is_exp, 6)
    report("01 translation operator equals the exponential of raising, n = 0..6")


def test_02_fixed_point_criterion():
    rng = random.Random(20)
    for n in range(1, 6):
        for _ in range(100):
            f = vf.random_invariant(rng, n)
            assert ex.raising(f).is_zero()
            assert ex.translate(f) == f
        for _ in range(100):
            g = vf.random_element(rng, n, terms=5)
            assert ex.raising(g).is_zero() == (ex.translate(g) == g)
    report("02 raising kernel coincides with translation fixed points, 200 seeded "
           "elements per n = 1..5")


def test_03_dimension_tables_brute_force():
    assert holds(vf.check_dimension_formulas, 6)
    report("03 kernel and cokernel dimensions match the closed forms, all bidegrees, "
           "n = 0..6")


def test_04_narayana_catalan():
    # the brute-force total over all bidegrees follows from item 03's
    # per-bidegree ranks and the census's closed-form total checked here
    assert holds(vf.check_census, 8)
    report("04 diagonal dimensions are Narayana with Catalan total (n = 1..8 closed "
           "form, n = 1..5 brute force); total invariants match the central binomial")


def test_05_boolean_incidence_and_blocks():
    assert holds(vf.check_boolean_invertible, 12)
    assert holds(vf.check_iterated_raising_blocks, 5)
    report("05 Boolean incidence invertible for complementary ranks, n = 1..12; "
           "iterated raising is factorial times incidence blocks, n = 1..5")


def test_06_lefschetz_isomorphism():
    assert holds(vf.check_lefschetz, 5)
    report("06 Lefschetz powers give square invertible maps for i + j <= n, n = 1..5")


def test_07_duality_pairing():
    rng = random.Random(21)
    for n in range(1, 6):
        for i in range(n + 1):
            for j in range(n + 1):
                if co.invariants_dimension(n, i, j) == 0:
                    continue
                g = co.duality_gram(n, i, j)
                assert g.nrows == g.ncols == co.invariants_dimension(n, i, j)
                assert g.is_invertible(), (n, i, j)
        for _ in range(100):
            u = vf.random_invariant(rng, n)
            v = vf.random_element(rng, n, terms=5)
            assert ex.pairing(u, ex.raising(v)) == 0
    report("07 duality Gram matrices invertible for every nonzero bidegree, n = 1..5; "
           "kernel pairs to zero against the raising image, 100 seeded pairs per n")


def test_08_sl2_identities():
    assert holds(vf.check_sl2_relations, 5)
    report("08 sl2 commutation relations hold on every monomial, n = 1..5")


def test_09_characters_match_traces():
    assert holds(vf.check_characters, 4)
    report("09 characters equal the trace oracle for every permutation and nonzero "
           "bidegree, n = 1..4")


def test_10_skein_normal_form_oracle():
    for n in range(1, 6):
        assert vf.normal_form_matches_oracle(n), n
    report("10 skein normal form is expansion preserving and matches the exact "
           "linear-algebra coordinates over the full index set, n = 1..5")


def test_11_bijection_and_counts():
    assert holds(vf.check_nc_counts, 8)
    assert holds(vf.check_bijection_round_trip, 8)
    m = ma.matching_from_subsets({1, 2, 4, 5}, {3, 4, 6, 7, 8}, 8)
    assert m.arcs == ((1, 7), (2, 3), (5, 6))
    assert m.alphatheta == (4,) and m.alpha == (8,)
    pair = ma.subsets_from_matching(m)
    assert sorted(pair.A) == [1, 2, 4, 5] and sorted(pair.B) == [3, 4, 6, 7, 8]
    report("11 subset-pair bijection round trips with the product-of-binomials "
           "counts, n = 1..8, including the worked size-8 example")


def test_12_presentation_relations():
    assert holds(vf.check_presentation, 6)
    report("12 presentation relations hold identically for all index pairs up to 6")


def test_13_negative_control(negated_raising):
    assert not holds(vf.check_translate_is_exp, 2), (
        "fault injection left the exponential identity intact")
    assert not holds(vf.check_sl2_relations, 2), (
        "fault injection left the sl2 identity intact")
    report("13 a negated raising is caught by the exponential and sl2 checks")


def test_14_negative_control_label_slide(monkeypatch):
    slide = ma.skein_move_alpha
    monkeypatch.setattr(ma, "skein_move_alpha",
                        lambda m, arc, vertex: slide(m, arc, vertex).scale(-1))
    # an empty cache, so that normal forms computed earlier cannot hide the fault
    monkeypatch.setattr(ma, "_normal_form_cache", {})
    assert not holds(vf.check_normal_form, 3), (
        "fault injection left the normal form intact")
    assert not holds(vf.check_presentation, 3), (
        "fault injection left the presentation intact")
    report("14 a negated label slide is caught by the normal-form and presentation checks")
