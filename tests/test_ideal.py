import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgbricks.brickhunt import lift
from sgbricks.errors import EmptyInputError, InvalidInputError, ParentMismatchError
from sgbricks.ideal import (
    RelativeIdeal,
    _bits,
    _mask_min_gens,
    brick_check,
    maximal_ideal,
)
from sgbricks.sgcore import NumericalSemigroup

from oracles import (
    brute_dual_elements,
    brute_frobenius,
    brute_minimal_generators,
    coset_union,
    sieve_members,
)


@pytest.fixture(scope="module")
def S12():
    return NumericalSemigroup([10, 11, 13, 17, 19])


# ---------------------------------------------------------------- goldens

def test_worked_example_ideal(S12):
    I = RelativeIdeal(S12, [2, 5])
    assert I.min_gens == (2, 5)
    assert I.mu == 2


def test_worked_example_dual(S12):
    D = RelativeIdeal(S12, [2, 5]).dual()
    assert D.min_gens == (8, 15, 17, 22, 24)
    assert D.mu == 5


def test_worked_example_sum(S12):
    I = RelativeIdeal(S12, [2, 5])
    K = I + I.dual()
    assert K.min_gens == (10, 13, 17, 19, 22)
    assert K.mu == 5


def test_minimalization_of_raw_generators(S12):
    raw = [10, 13, 17, 20, 19, 22, 24, 27, 26, 29]
    assert RelativeIdeal(S12, raw).min_gens == (10, 13, 17, 19, 22)


def test_duplicate_coset(S12):
    assert RelativeIdeal(S12, [7, 7]).min_gens == (7,)


def test_principal_dual_is_negated_offset(S12):
    assert RelativeIdeal(S12, [7]).dual().min_gens == (-7,)
    assert RelativeIdeal(S12, [-4]).dual().min_gens == (4,)


def test_shift_pair_dual_two_outer_generators():
    S = NumericalSemigroup([14, 15, 20, 21])
    assert RelativeIdeal(S, [0, 1]).dual().min_gens == (14, 20)


def test_equals_and_canonicalization(S12):
    a, b = RelativeIdeal(S12, [2, 5]), RelativeIdeal(S12, [5, 2, 12])
    assert a == b and hash(a) == hash(b)
    assert repr(a) == ("RelativeIdeal((2, 5) over "
                       "NumericalSemigroup([10, 11, 13, 17, 19]))")
    S = NumericalSemigroup([14, 15, 20, 21])
    assert RelativeIdeal(S, [0, 1]) != RelativeIdeal(S, [0, 2])
    # element sets genuinely differ
    lo, hi = 0, S.frobenius + 3
    e1 = coset_union(S.min_gens, [0, 1], lo, hi)
    e2 = coset_union(S.min_gens, [0, 2], lo, hi)
    assert e1 != e2


def test_add_identity_and_naturals():
    S = NumericalSemigroup([14, 15, 20, 21])
    zero = RelativeIdeal(S, [0])
    assert (zero + zero).min_gens == (0,)
    assert (RelativeIdeal(S, [0, 1]) + RelativeIdeal(S, [14, 20])).min_gens == (14, 15, 20, 21)


def test_maximal_ideal_examples():
    for gens in [(14, 15, 20, 21), (2, 3), (10, 11, 13, 17, 19)]:
        S = NumericalSemigroup(gens)
        assert maximal_ideal(S).min_gens == gens


def test_ideal_over_naturals():
    N = NumericalSemigroup([1])
    I = RelativeIdeal(N, [3, 5, -2])
    assert I.min_gens == (-2,)
    assert I.dual().min_gens == (2,)
    chk = brick_check(N, I)
    assert not chk.is_brick and chk.mu_ideal == 1


# ------------------------------------------------------------ brick checks

def test_known_bricks():
    S = NumericalSemigroup([14, 15, 20, 21])
    chk = brick_check(S, RelativeIdeal(S, [0, 1]))
    assert (chk.mu_ideal, chk.mu_dual, chk.mu_sum) == (2, 2, 4)
    assert chk.is_brick and chk.is_perfect

    S = NumericalSemigroup([10, 14, 15, 21])
    chk = brick_check(S, RelativeIdeal(S, [0, 1]))
    assert (chk.mu_ideal, chk.mu_dual) == (2, 2)
    assert chk.is_brick and not chk.is_perfect

    S = NumericalSemigroup([14, 15, 20, 21, 25])
    chk = brick_check(S, RelativeIdeal(S, [0, 1]))
    assert (chk.mu_ideal, chk.mu_dual) == (2, 2)
    assert chk.is_brick and not chk.is_perfect


def test_worked_example_is_not_a_brick(S12):
    chk = brick_check(S12, RelativeIdeal(S12, [2, 5]))
    assert chk.mu_ideal * chk.mu_dual == 10
    assert chk.mu_sum == 5
    assert not chk.is_brick and not chk.is_perfect


CITED_BRICKS = [
    ((10, 15, 18, 27), (0, 2), (18, 25), 2, 2),
    ((21, 28, 36, 48), (0, 13), (36, 56, 63), 2, 3),
    ((15, 17, 21, 24, 27), (0, 8), (24, 30, 34, 36), 2, 4),
    ((21, 24, 38, 39), (0, 4, 6), (72, 77, 80), 3, 3),
    ((27, 30, 36, 44), (0, 1, 6), (87, 98, 101, 110), 3, 4),
]


@pytest.mark.parametrize("sgens,igens,dual_gens,k,m", CITED_BRICKS)
def test_cited_bricks_reproduce_exactly(sgens, igens, dual_gens, k, m):
    S = NumericalSemigroup(sgens)
    I = RelativeIdeal(S, igens)
    assert I.min_gens == igens
    chk = brick_check(S, I)
    assert chk.dual_ideal.min_gens == dual_gens
    assert (chk.mu_ideal, chk.mu_dual) == (k, m)
    assert chk.is_brick
    assert chk.mu_sum == k * m


# ---------------------------------------------------------------- errors

def test_empty_ideal(S12):
    with pytest.raises(EmptyInputError):
        RelativeIdeal(S12, [])


def test_non_integer_offsets(S12):
    # checked before sorting, so a string cannot raise TypeError from a
    # comparison; [False, True] would give min_gens (False, 1)
    for offsets in (["x", 3], [3, "x"], [False, True], [0, True], [0, 2.0]):
        with pytest.raises(InvalidInputError, match="is not an integer"):
            RelativeIdeal(S12, offsets)


def test_parent_built_twice_is_one_parent():
    # the same semigroup built twice is an equal parent, not a foreign one
    S = NumericalSemigroup([10, 14, 21, 25])
    S_copy = NumericalSemigroup(S.min_gens)
    assert S_copy is not S
    I = RelativeIdeal(S, (0, 4))
    D = I.dual()
    shared = brick_check(S, I)
    assert shared.is_perfect and shared.mu_dual == 2
    assert I + RelativeIdeal(S_copy, D.min_gens) == I + D == shared.sum_ideal
    assert RelativeIdeal(S_copy, I.min_gens) + D == I + D
    assert brick_check(S_copy, I) == shared
    assert lift(S_copy, I) == lift(S, I)


def test_parent_mismatch(S12):
    other = NumericalSemigroup([14, 15, 20, 21])
    with pytest.raises(ParentMismatchError):
        RelativeIdeal(S12, [0, 1]) + RelativeIdeal(other, [0, 1])
    with pytest.raises(ParentMismatchError):
        brick_check(S12, RelativeIdeal(other, [0, 1]))


# ------------------------------------------------------------- properties

def _random_instance(rng):
    while True:
        gens = sorted(rng.sample(range(2, 61), rng.randint(2, 5)))
        import math
        if math.gcd(*gens) == 1:
            break
    S = NumericalSemigroup(gens)
    hi = max(S.frobenius, 4)
    offsets = sorted(rng.sample(range(-15, hi + 10), rng.randint(1, 4)))
    return S, RelativeIdeal(S, offsets)


def test_randomized_star_inequality_and_double_dual():
    rng = random.Random(20260811)
    for _ in range(400):
        S, I = _random_instance(rng)
        chk = brick_check(S, I)
        assert chk.mu_sum <= chk.mu_ideal * chk.mu_dual
        # double dual contains the ideal: check element-by-element
        dd = chk.dual_ideal.dual()
        lo = I.min_gens[0]
        hi = I.min_gens[-1] + S.frobenius + S.multiplicity + 1
        for x in coset_union(S.min_gens, I.min_gens, lo, hi):
            assert x in dd


def test_randomized_dual_matches_element_oracle():
    rng = random.Random(97)
    for _ in range(40):
        S, I = _random_instance(rng)
        D = I.dual()
        lo = -I.min_gens[0] - 1
        hi = S.frobenius - I.min_gens[0] + S.multiplicity + 1
        oracle = brute_dual_elements(S.min_gens, I.min_gens, lo, hi)
        mine = {z for z in range(lo, hi + 1) if z in D}
        assert mine == oracle
        assert D.min_gens == brute_minimal_generators(S.min_gens, sorted(oracle))


def test_dual_containment_window():
    rng = random.Random(4242)
    for _ in range(60):
        S, I = _random_instance(rng)
        D = I.dual()
        hi = D.min_gens[-1] + S.multiplicity
        for z in range(D.min_gens[0], hi + 1):
            if z in D:
                for w in I.min_gens:
                    assert (z + w) in S


def test_new_ideal_preserves_element_set():
    rng = random.Random(7)
    for _ in range(60):
        S, I = _random_instance(rng)
        raw = list(I.min_gens) + [g + s for g in I.min_gens for s in (0, *S.min_gens[:2])]
        J = RelativeIdeal(S, raw)
        assert J == I
        lo, hi = min(raw), S.frobenius + max(raw) + 1
        assert coset_union(S.min_gens, raw, lo, hi) == coset_union(S.min_gens, J.min_gens, lo, hi)


def test_emitted_generator_lists_are_minimal():
    rng = random.Random(13)
    for _ in range(60):
        S, I = _random_instance(rng)
        chk = brick_check(S, I)
        for ideal in (I, chk.dual_ideal, chk.sum_ideal):
            gens = ideal.min_gens
            assert gens == tuple(sorted(set(gens)))
            for i, a in enumerate(gens):
                for j, b in enumerate(gens):
                    if i != j:
                        assert (b - a) not in S


small_gens = st.lists(st.integers(2, 30), min_size=2, max_size=4).filter(
    lambda gs: __import__("math").gcd(*gs) == 1
)


@given(small_gens, st.lists(st.integers(-10, 40), min_size=2, max_size=3, unique=True))
@settings(max_examples=120, deadline=None)
def test_hypothesis_star_inequality(gens, offsets):
    S = NumericalSemigroup(gens)
    I = RelativeIdeal(S, offsets)
    chk = brick_check(S, I)
    assert chk.mu_sum <= chk.mu_ideal * chk.mu_dual
    if chk.is_brick:
        assert chk.mu_ideal >= 2


@given(small_gens, st.lists(st.integers(0, 30), min_size=1, max_size=3, unique=True))
@settings(max_examples=120, deadline=None)
def test_hypothesis_sum_against_membership(gens, offsets):
    # membership in I + J decomposes through the generators of both sides
    S = NumericalSemigroup(gens)
    I = RelativeIdeal(S, offsets)
    D = I.dual()
    K = I + D
    for x in range(0, S.frobenius + max(offsets) + 5):
        direct = any((x - a - b) in S for a in I.min_gens for b in D.min_gens)
        assert (x in K) == direct


# ------------------------------------------- windows against the oracles

def _oracle_ideal_gens(sgens, offsets):
    return brute_minimal_generators(
        sgens, coset_union(sgens, offsets, min(offsets), max(offsets)))


def _check_against_oracle(sgens, offsets):
    # every generator set comes from element sets alone, over windows wider
    # than the package's frobenius + multiplicity bound
    S = NumericalSemigroup(sgens)
    I = RelativeIdeal(S, offsets)
    igens = _oracle_ideal_gens(sgens, offsets)
    assert I.min_gens == igens
    frob = brute_frobenius(sgens)
    lo = -igens[0] - 1
    hi = frob + max(sgens) + 1 - igens[0]
    dual_elems = brute_dual_elements(sgens, igens, lo, hi)
    dual_gens = brute_minimal_generators(sgens, dual_elems)
    sum_gens = _oracle_ideal_gens(sgens, [a + b for a in igens for b in dual_gens])
    D = I.dual()
    assert D.min_gens == dual_gens
    assert {z for z in range(lo, hi + 1) if z in D} == dual_elems
    assert (I + D).min_gens == sum_gens
    chk = brick_check(S, I)
    assert chk.dual_ideal.min_gens == dual_gens
    assert chk.sum_ideal.min_gens == sum_gens
    assert (chk.mu_ideal, chk.mu_dual, chk.mu_sum) == (
        len(igens), len(dual_gens), len(sum_gens))
    assert chk.is_perfect == (chk.is_brick and sum_gens == S.min_gens)


@pytest.mark.parametrize("sgens", [
    (14, 15, 20, 21), (18, 20, 25, 27), (22, 25, 30, 33),  # unitary family
    (3, 50), (5, 37, 41), (7, 60, 61),
], ids=str)
def test_dual_and_brick_check_when_frobenius_dwarfs_multiplicity(sgens):
    frob = brute_frobenius(sgens)
    m = min(sgens)
    for offsets in [(0, 1), (0, sgens[1] - sgens[0]), (-7, 3, frob + 5),
                    (-frob, 0, 2 * frob + 1), (2, frob - 1), (0, frob - m),
                    (-3 * frob, -frob - 1, 1, frob + m)]:
        _check_against_oracle(sgens, offsets)


near_frobenius = st.integers(3, 20).flatmap(lambda m: st.tuples(
    st.just(m), st.sets(st.integers(m + 1, 2 * m + 1), min_size=1)))


@given(near_frobenius, st.lists(st.integers(-60, 90), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_dual_and_brick_check_when_multiplicity_nears_frobenius(shape, offsets):
    # generators packed into (m, 2m + 1] keep the Frobenius number below
    # 2m + 1; offsets are negative and reach far past the window
    m, rest = shape
    sgens = (m, *sorted(rest))
    assume(math.gcd(*sgens) == 1)
    _check_against_oracle(sgens, offsets)


def _check_sum_against_oracle(sgens, offsets_i, offsets_j):
    S = NumericalSemigroup(sgens)
    I, J = RelativeIdeal(S, offsets_i), RelativeIdeal(S, offsets_j)
    want = _oracle_ideal_gens(
        sgens, [a + b for a in I.min_gens for b in J.min_gens])
    assert (I + J).min_gens == want
    assert (J + I).min_gens == want


@pytest.mark.parametrize("sgens", [
    (1,), (2, 3), (14, 15, 20, 21), (10, 11, 13, 17, 19), (3, 50), (7, 60, 61),
], ids=str)
def test_sum_of_unrelated_ideals_against_oracle(sgens):
    # sums of ideals that are not each other's duals: negative and wide
    # offsets, and principal operands on either side
    frob = brute_frobenius(sgens)
    cases = [
        ((0,), (0,)), ((-5,), (3,)), ((-5,), (0, 1)), ((0, 1), (7,)),
        ((0, 1), (0, 2)), ((-3, 4), (-8, -1, 6)), ((0, 1, 2), (-4, 0, 3)),
        ((-frob, 0, frob + 1), (2, frob)), ((-2 * frob - 3, -1), (frob - 1,)),
    ]
    for offsets_i, offsets_j in cases:
        _check_sum_against_oracle(sgens, offsets_i, offsets_j)


@given(small_gens, st.lists(st.integers(-40, 60), min_size=1, max_size=4),
       st.lists(st.integers(-40, 60), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_hypothesis_sum_against_oracle(gens, offsets_i, offsets_j):
    _check_sum_against_oracle(gens, offsets_i, offsets_j)


@given(small_gens, st.lists(st.integers(-40, 80), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_reduction_matches_oracle(gens, offsets):
    S = NumericalSemigroup(gens)
    assert RelativeIdeal(S, offsets).min_gens == _oracle_ideal_gens(S.min_gens, offsets)


@pytest.mark.parametrize("sgens,offsets", [
    (tuple(range(25, 50)), (0, 1)),
    ((22, 23, 25, 26, 31, 33, 37, 39, 41), (0, 4, 5)),
    ((29, 30, 32, 33, 34, 37, 41, 43, 50, 51, 53, 56, 57), (0, 10, 14)),
    ((32, 33, 34, 37, 38, 39, 41, 42, 45, 47, 59, 61, 62), (0, 18, 22)),
], ids=str)
def test_mask_min_gens_on_duals_with_many_generators(sgens, offsets):
    # the bitset extraction against the oracle, on element sets the oracle
    # builds through the strip [0, F + m]: the dual of an ideal whose least
    # offset is 0, and its sum with the ideal
    S = NumericalSemigroup(sgens)
    top = brute_frobenius(sgens) + min(sgens)
    dual_elems = brute_dual_elements(sgens, offsets, 0, top)
    dual_gens = brute_minimal_generators(sgens, dual_elems)
    assert len(dual_gens) >= 20
    sums = [a + b for a in offsets for b in dual_gens]
    sum_elems = coset_union(sgens, sums, 0, top)
    assert len(brute_minimal_generators(sgens, sum_elems)) >= 20
    for elems in (dual_elems, sum_elems):
        mask = sum(1 << x for x in elems)
        want = list(brute_minimal_generators(sgens, elems))
        assert _mask_min_gens(mask, S) == want
        # a member past the strip whose neighbours below are missing, as in
        # a bitset built only through the strip, is no generator
        assert _mask_min_gens(mask | 1 << (top + 3), S) == want


def test_bits_against_brute_force():
    # the set-bit positions, ascending, against the binary digits: zero,
    # small masks, masks as wide as the benchmark's (about 2,300 bits),
    # and a sparse mask of 780,000 bits
    rng = random.Random(20)
    masks = [0, 1, 2, 3, 0b1011001, (1 << 150) - 1, 1 << 149]
    masks += [rng.getrandbits(150) for _ in range(20)]
    masks += [rng.getrandbits(2300) for _ in range(20)]
    masks += [rng.getrandbits(2300) & rng.getrandbits(2300)
              & rng.getrandbits(2300) for _ in range(5)]
    sparse = 1 << 779_999
    for _ in range(200):
        sparse |= 1 << rng.randrange(780_000)
    masks.append(sparse)
    for mask in masks:
        digits = bin(mask)[:1:-1]
        assert _bits(mask) == [i for i, c in enumerate(digits) if c == "1"]
