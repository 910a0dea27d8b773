import math
import re
from itertools import permutations

import pytest

import corpus
from sgbricks import balanced, sgcore
from sgbricks.balanced import (
    BALANCED,
    NOT_BALANCED,
    UNITARY,
    Classification,
    _build_profile,
    apery_partition,
    boundary_sets,
    canonical_brick,
    classify,
    frobenius_formula_probe,
    frobenius_of_quad,
    frobenius_of_triple,
    unitary_family,
)
from sgbricks.errors import (
    InvalidInputError,
    NotUnitaryError,
    ResourceLimitError,
    WrongArityError,
)
from sgbricks.ideal import RelativeIdeal, brick_check
from sgbricks.sgcore import MAX_MASK_BITS, MAX_MULTIPLICITY, NumericalSemigroup

from corpus import balanced_profiles, naive_profiles, unitary_profiles
from oracles import brute_frobenius


# ---------------------------------------------------------------- classify

def test_classify_unitary_example():
    c = classify([14, 15, 20, 21])
    assert c.kind == UNITARY and c.is_unitary and c.is_balanced
    p = c.profile
    assert p.outer_gcd == 7 and p.inner_gcd == 5
    assert p.quotients == (2, 3, 4, 3)
    assert p.common_sum == 35 and p.common_quotient == 1
    assert p.shift == 1


def test_classify_balanced_not_unitary():
    c = classify([12, 15, 25, 28])
    assert c.kind == BALANCED and c.is_balanced and not c.is_unitary
    assert c.profile.common_quotient == 2
    assert c.profile.quotients == (3, 3, 5, 7)


def test_classify_not_balanced():
    c = classify([10, 14, 15, 21])
    assert c.kind == NOT_BALANCED and not c.is_balanced
    assert c.reason == "outer and inner pair sums differ"


def test_classify_permutation_invariant():
    base = classify([14, 15, 20, 21])
    for perm in permutations([14, 15, 20, 21]):
        assert classify(list(perm)) == base


def test_classify_rejects_each_condition():
    assert classify([5, 5, 8, 8]).reason == "values are not strictly ascending"
    assert classify([0, 5, 7, 12]).reason == "values must be positive"
    assert classify([4, 6, 8, 10]).reason == "overall gcd exceeds 1"
    # 5 divides 10; sums would even match
    assert classify([5, 7, 8, 10]).reason == "5 divides 10"
    assert classify([10, 14, 15, 21]).reason == "outer and inner pair sums differ"
    # 13 = 3*3 + 4 and 14 = 2*3 + 2*4 make the span collapse to <3, 4>
    assert classify([3, 4, 13, 14]).reason == "not a minimal generating set"


def _classify_by_table(gens):
    # classify as it stood when minimal generation was read off a whole
    # NumericalSemigroup (an Apery table): the reference for the bitset rule
    vals = list(gens)
    if len(vals) != 4:
        raise WrongArityError(f"expected exactly four values, got {len(vals)}")
    a = tuple(sorted(vals))
    if len(set(a)) != 4:
        return Classification(NOT_BALANCED, reason="values are not strictly ascending")
    if a[0] < 1:
        return Classification(NOT_BALANCED, reason="values must be positive")
    if math.gcd(math.gcd(a[0], a[1]), math.gcd(a[2], a[3])) != 1:
        return Classification(NOT_BALANCED, reason="overall gcd exceeds 1")
    for i in range(4):
        for j in range(i + 1, 4):
            if a[j] % a[i] == 0:
                return Classification(
                    NOT_BALANCED, reason=f"{a[i]} divides {a[j]}")
    if a[0] + a[3] != a[1] + a[2]:
        return Classification(
            NOT_BALANCED, reason="outer and inner pair sums differ")
    if NumericalSemigroup(a).min_gens != a:
        return Classification(
            NOT_BALANCED, reason="not a minimal generating set")

    profile = _build_profile(a)
    kind = UNITARY if profile.common_quotient == 1 else BALANCED
    return Classification(kind, profile=profile)


@pytest.mark.parametrize("build, bound, calls, non_minimal", [
    (unitary_profiles, 200, 3_632, 0),
    (balanced_profiles, 60, 14_161, 713),
    (naive_profiles, 40, 4_750, 191),
])
def test_classify_matches_the_table_rule(monkeypatch, build, bound, calls,
                                         non_minimal):
    # every quadruple the corpus builders classify, balanced or not
    seen = []

    def both(gens):
        got = classify(gens)
        assert got == _classify_by_table(gens), gens
        seen.append(got.reason)
        return got
    monkeypatch.setattr(corpus, "classify", both)
    build(bound)
    assert len(seen) == calls
    assert seen.count("not a minimal generating set") == non_minimal


def test_classify_builds_no_semigroup(monkeypatch):
    def refuse(gens):
        raise AssertionError(f"NumericalSemigroup({gens}) built")
    monkeypatch.setattr(balanced, "NumericalSemigroup", refuse)
    monkeypatch.setattr(sgcore, "NumericalSemigroup", refuse)
    members = [unitary_family(z) for z in range(3, 401)]
    members = [quad for quad in members if quad is not None]
    assert len(members) == 319
    for quad in members:
        assert classify(quad).is_unitary, quad
    assert classify((5, 7, 17, 19)).reason == "not a minimal generating set"


def test_classify_budget_is_the_bitset():
    # the bitset has a4 + 1 bits: over the budget it is refused before
    # allocating, while a multiplicity over MAX_MULTIPLICITY needs no table
    big = MAX_MASK_BITS + 7
    with pytest.raises(ResourceLimitError, match="reachability bitset"):
        classify((3, 5, big, big + 2))
    quad = unitary_family(16384)
    assert quad[0] > MAX_MULTIPLICITY
    assert classify(quad).is_unitary


def test_classify_wrong_arity():
    with pytest.raises(WrongArityError):
        classify([14, 15, 20])
    with pytest.raises(WrongArityError):
        classify([14, 15, 20, 21, 25])


def test_non_integer_input():
    # checked before sorting, so a string cannot raise TypeError from a
    # comparison; a float z would give a quadruple of floats
    for gens in (["1", 2, 3, 4], [14, 15, 20, 21.0], [True, 15, 20, 21]):
        with pytest.raises(InvalidInputError, match="is not an integer"):
            classify(gens)
    for z in (3.5, 3.0, True, "3"):
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"z {z!r} is not an integer")):
            unitary_family(z)


# --------------------------------------------------------- apery partition

def test_partition_counts_and_equality():
    p = classify([14, 15, 20, 21]).profile
    ap = apery_partition(p)
    assert len(ap.part1) == p.q1 == 2
    assert len(ap.part2) == p.q1 * p.q3 == 8
    assert len(ap.part3) == p.q1 * (p.q2 - 1) == 4
    assert ap.all_values() == set(NumericalSemigroup([14, 15, 20, 21]).apery_set())


def test_partition_overshoots_when_not_unitary():
    p = classify([12, 15, 25, 28]).profile
    ap = apery_partition(p)
    part3_values = {t.value for t in ap.part3}
    assert 106 in part3_values  # 2*a3 + 2*a4
    assert 106 not in set(NumericalSemigroup([12, 15, 25, 28]).apery_set())


def test_partition_part1_size_two_when_q1_two():
    for p in unitary_profiles(60):
        if p.q1 == 2:
            assert len(apery_partition(p).part1) == 2


@pytest.fixture(scope="module")
def unitary120():
    return unitary_profiles(120)


def test_partition_structure_over_unitary_corpus(unitary120):
    # disjoint parts, distinct residues modulo a1, union == apery set
    for p in unitary120:
        ap = apery_partition(p)
        s1, s2, s3 = ap.value_sets()
        assert not (s1 & s2) and not (s1 & s3) and not (s2 & s3)
        values = sorted(s1 | s2 | s3)
        assert len({v % p.a1 for v in values}) == len(values)
        assert set(values) == set(p.semigroup().apery_set())


def test_apery_forms_over_balanced_corpus():
    # every apery element of a balanced semigroup fits one of the three
    # coefficient shapes within the stated bounds
    for p in balanced_profiles(60):
        a2, a3, a4 = p.a2, p.a3, p.a4
        q1, q2, q3 = p.q1, p.q2, p.q3
        for s in p.semigroup().apery_set():
            ok = any(s == t4 * a4 for t4 in range(q1))
            ok = ok or any(
                (s - t4 * a4) % a2 == 0
                and 1 <= (s - t4 * a4) // a2 <= q3
                and s - t4 * a4 > 0
                for t4 in range(q1))
            ok = ok or any(
                (s - t4 * a4) % a3 == 0
                and 1 <= (s - t4 * a4) // a3 <= q2 - 1
                and s - t4 * a4 > 0
                for t4 in range(q1))
            assert ok, (p.gens, s)


# ------------------------------------------------------------ boundary sets

def test_boundary_counts_examples():
    p = classify([14, 15, 20, 21]).profile
    b = boundary_sets(p)
    assert b.predicted_size == 7
    assert len(b.all_values()) == 7

    p = classify([24, 25, 35, 36]).profile
    b = boundary_sets(p)
    assert b.predicted_size == 12
    assert len(b.all_values()) == 12


def test_boundary_part1_is_single_a4_when_q1_two():
    for p in unitary_profiles(60):
        if p.q1 == 2:
            b = boundary_sets(p)
            assert {t.value for t in b.part1} == {p.a4}


def test_boundary_requires_unitary():
    with pytest.raises(NotUnitaryError):
        boundary_sets(classify([12, 15, 25, 28]).profile)


def test_boundary_equals_set_difference(unitary120):
    for p in unitary120:
        S = p.semigroup()
        T = p.triple()
        g_t = T.frobenius
        diff = {x for x in range(g_t + 1) if x in S and x not in T}
        b = boundary_sets(p)
        assert b.all_values() == diff
        assert len(b.all_values()) == b.predicted_size


# ------------------------------------------------------- frobenius formulas

def test_frobenius_formula_examples():
    p = classify([14, 15, 20, 21]).profile
    assert frobenius_of_triple(p) == 81
    assert frobenius_of_quad(p) == 67

    p = classify([24, 25, 35, 36]).profile
    assert frobenius_of_triple(p) == 211
    assert frobenius_of_quad(p) == 187
    assert brute_frobenius([24, 25, 35]) == 211

    p = classify([15, 22, 33, 40]).profile
    assert frobenius_of_triple(p) == 161
    assert frobenius_of_quad(p) == 131
    assert brute_frobenius([15, 22, 33]) == 161
    assert brute_frobenius([15, 22, 33, 40]) == 131


def test_frobenius_requires_unitary():
    p = classify([12, 15, 25, 28]).profile
    with pytest.raises(NotUnitaryError, match="proved for unitary quadruples"):
        frobenius_of_triple(p)
    with pytest.raises(NotUnitaryError, match="proved for unitary quadruples"):
        frobenius_of_quad(p)


def test_frobenius_formulas_over_corpus(unitary120):
    for p in unitary120:
        T = p.triple()
        S = p.semigroup()
        assert frobenius_of_triple(p) == T.frobenius
        assert frobenius_of_quad(p) == S.frobenius
        assert T.is_symmetric()
        assert S.is_symmetric()
        # lower-bound identity holds with equality
        assert S.frobenius == T.frobenius - (p.q1 - 1) * p.a1


def test_formula_probe_reports_both_sides():
    # unitary: the probe must agree with itself
    p = classify([14, 15, 20, 21]).profile
    formula, exact = frobenius_formula_probe(p)
    assert formula == exact == 81
    # merely balanced: both numbers are reported, no relation asserted
    p = classify([12, 15, 25, 28]).profile
    formula, exact = frobenius_formula_probe(p)
    assert exact == NumericalSemigroup([12, 15, 25]).frobenius
    assert isinstance(formula, int)


# ----------------------------------------------------------- canonical brick

def test_canonical_brick_examples():
    cases = [
        ((24, 25, 35, 36), (0, 1), (24, 35)),
        ((15, 22, 33, 40), (0, 7), (15, 33)),
        ((28, 45, 81, 98), (0, 17), (28, 81)),
    ]
    for quad, igens, dual_gens in cases:
        p = classify(quad).profile
        assert canonical_brick(p) == (igens, dual_gens)
        S = NumericalSemigroup(quad)
        chk = brick_check(S, RelativeIdeal(S, igens))
        assert chk.is_brick and chk.is_perfect
        assert (chk.mu_ideal, chk.mu_dual) == (2, 2)
        assert chk.dual_ideal.min_gens == dual_gens
        assert chk.sum_ideal.min_gens == quad


def test_canonical_brick_requires_unitary():
    with pytest.raises(NotUnitaryError):
        canonical_brick(classify([12, 15, 25, 28]).profile)


def test_perfect_brick_over_corpus(unitary120):
    for p in unitary120:
        S = p.semigroup()
        igens, dual_gens = canonical_brick(p)
        chk = brick_check(S, RelativeIdeal(S, igens))
        assert chk.is_brick and chk.is_perfect
        assert chk.dual_ideal.min_gens == dual_gens
        assert chk.sum_ideal.min_gens == p.gens


# ------------------------------------------------------------------- family

def test_family_examples():
    assert unitary_family(3) == (14, 15, 20, 21)
    assert unitary_family(7) is None  # 2z + 1 = 15 is divisible by 5
    assert unitary_family(5) == (22, 25, 30, 33)
    assert unitary_family(2) is None


def test_family_members_classify_unitary():
    for z in range(3, 40):
        quad = unitary_family(z)
        if quad is None:
            assert (2 * z + 1) % 5 == 0
            continue
        c = classify(quad)
        assert c.is_unitary, (z, quad, c.reason)


def test_family_member_quotient_structure():
    p = classify(unitary_family(5)).profile
    assert p.outer_gcd == 11 and p.inner_gcd == 5
    assert p.q2 + p.q3 == p.outer_gcd == 11


# -------------------------------------------------------- profile invariants

def test_profile_gcd_relations():
    for p in balanced_profiles(60):
        a1, a2, a3, a4 = p.gens
        D, E = p.outer_gcd, p.inner_gcd
        q1, q2, q3, q4 = p.quotients
        assert a1 == q1 * D and a4 == q4 * D
        assert a2 == q2 * E and a3 == q3 * E
        for pair in [(q1, q4), (q2, q3), (D, E), (q1, E), (q2, D), (q3, D), (q4, E)]:
            assert math.gcd(*pair) == 1
        assert q1 < q4 and q2 < q3 and q1 > 1 and q2 > 1
        assert p.common_quotient * D * E == p.common_sum
        assert q1 + q4 == E * p.common_quotient
        assert q2 + q3 == D * p.common_quotient
        assert p.shift == a2 - a1 == a4 - a3


def test_corpus_shortcut_matches_naive_scan():
    fast = {p.gens for p in balanced_profiles(40)}
    naive = {p.gens for p in naive_profiles(40)}
    assert fast == naive
    fast_u = {p.gens for p in unitary_profiles(40)}
    naive_u = {p.gens for p in naive_profiles(40, unitary_only=True)}
    assert fast_u == naive_u
