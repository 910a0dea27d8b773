import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgbricks.errors import (
    DomainError,
    EmptyInputError,
    IntegerOverflowError,
    InvalidInputError,
    NonCoprimeError,
    ResourceLimitError,
)
from sgbricks.sgcore import (
    MAX_MASK_BITS,
    MAX_MULTIPLICITY,
    NumericalSemigroup,
    coprime_pair_frobenius,
    is_minimal_ascending,
)

from oracles import (
    brute_apery,
    brute_frobenius,
    brute_min_gens,
    brute_n_count,
    sieve_members,
)

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------- goldens

def test_worked_example_fields():
    S = NumericalSemigroup([10, 11, 13, 17, 19])
    assert S.min_gens == (10, 11, 13, 17, 19)
    assert S.multiplicity == 10
    assert S.frobenius == 25
    assert S.n_count == 11
    assert not S.is_symmetric()
    assert S.apery_set() == (0, 11, 13, 17, 19, 22, 24, 26, 28, 35)


def test_worked_example_membership():
    S = NumericalSemigroup([10, 11, 13, 17, 19])
    assert 25 not in S
    assert 26 in S
    assert 0 in S
    assert -1 not in S
    members = {0, 10, 11, 13, 17, 19, 20, 21, 22, 23, 24}
    assert {x for x in range(26) if x in S} == members


def test_whole_naturals():
    # a generator 1 makes every other one redundant, through the general
    # table path: one residue class, whose least member is 0
    for gens in ([1], [1, 5, 7], [2, 1], [1, 2**62]):
        S = NumericalSemigroup(gens)
        assert S.min_gens == (1,), gens
        assert S.multiplicity == 1, gens
        assert S.apery_table == (0,), gens
        assert S.frobenius == -1, gens
        assert S.n_count == 0, gens
        assert S.element_mask(30) == (1 << 31) - 1, gens
        assert not S.is_symmetric(), gens
        assert S.apery_set() == (0,), gens
        assert 0 in S and 5 in S and -3 not in S, gens


def test_two_three():
    S = NumericalSemigroup([2, 3])
    assert S.frobenius == 1  # 2*3 - 2 - 3
    assert S.apery_set() == (0, 3)
    assert S.is_symmetric()


def test_three_generated_symmetric():
    T = NumericalSemigroup([14, 15, 20])
    assert T.frobenius == 81
    assert T.is_symmetric()


def test_coprime_pair_formula():
    assert coprime_pair_frobenius(2, 3) == 1
    assert coprime_pair_frobenius(14, 15) == 181
    with pytest.raises(NonCoprimeError):
        coprime_pair_frobenius(6, 9)
    with pytest.raises(InvalidInputError):
        coprime_pair_frobenius(1, 5)
    # math.gcd would raise TypeError on a float
    with pytest.raises(InvalidInputError, match="is not an integer"):
        coprime_pair_frobenius(2.5, 3)


@given(st.integers(2, 60), st.integers(2, 60))
@settings(max_examples=150, deadline=None)
def test_coprime_pair_formula_matches_construction(a, b):
    import math
    if math.gcd(a, b) != 1:
        return
    assert coprime_pair_frobenius(a, b) == NumericalSemigroup([a, b]).frobenius


def test_redundant_generator_dropped():
    assert NumericalSemigroup([4, 6, 9, 10]).min_gens == (4, 6, 9)
    # the edges of the rule "a is a sum of smaller generators iff a is at
    # least the least member of its class mod m":
    # 24 = 11 + 13 is the least member of class 4, which no smaller
    # generator holds
    assert NumericalSemigroup([10, 11, 13, 24]).min_gens == (10, 11, 13)
    # 13 = 6 + 7 is exactly the least member of its class
    assert NumericalSemigroup([5, 6, 7, 13]).min_gens == (5, 6, 7)
    # 34 lies strictly above 24, the least member of its class
    assert NumericalSemigroup([10, 11, 13, 34]).min_gens == (10, 11, 13)


def test_duplicates_collapsed():
    assert NumericalSemigroup([7, 7, 9]).min_gens == (7, 9)


def test_input_order_irrelevant():
    a = NumericalSemigroup([19, 10, 17, 11, 13])
    b = NumericalSemigroup([10, 11, 13, 17, 19])
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "NumericalSemigroup([10, 11, 13, 17, 19])"


# ---------------------------------------------------------------- errors

def test_empty_input():
    with pytest.raises(EmptyInputError):
        NumericalSemigroup([])


def test_non_coprime():
    with pytest.raises(NonCoprimeError):
        NumericalSemigroup([10, 20])


def test_non_positive():
    with pytest.raises(InvalidInputError):
        NumericalSemigroup([0, 3])
    with pytest.raises(InvalidInputError):
        NumericalSemigroup([-2, 3])


def test_non_integer():
    with pytest.raises(InvalidInputError):
        NumericalSemigroup([2.5, 3])
    # checked before sorting, so a string cannot raise TypeError from a
    # comparison; a bool is not the integer it subclasses
    for gens in (["a", 3], [3, "a"], [True, 3], [2, 3, False]):
        with pytest.raises(InvalidInputError, match="is not an integer"):
            NumericalSemigroup(gens)
    # element_mask shifts by its limit: a float would raise TypeError from
    # <<, and a bool would be read as 0 or 1
    S = NumericalSemigroup([3, 5])
    for limit in (10.5, True):
        with pytest.raises(InvalidInputError,
                           match=f"limit {limit!r} is not an integer"):
            S.element_mask(limit)


def test_overflow_guard():
    with pytest.raises(IntegerOverflowError):
        NumericalSemigroup([2**62, 2**62 + 1])
    with pytest.raises(IntegerOverflowError):
        NumericalSemigroup([2**63, 3])


# ------------------------------------------------------------- invariants

SMALL_SEMIGROUPS = [
    (2, 3), (3, 4), (3, 5), (4, 7, 9), (10, 11, 13, 17, 19),
    (14, 15, 20, 21), (10, 14, 15, 21), (12, 15, 25, 28), (5, 8, 11, 12),
]


@pytest.mark.parametrize("gens", SMALL_SEMIGROUPS)
def test_apery_table_invariants(gens):
    S = NumericalSemigroup(gens)
    m = S.multiplicity
    assert len(S.apery_table) == m
    assert S.apery_table[0] == 0
    assert len(set(S.apery_table)) == m
    for r, entry in enumerate(S.apery_table):
        assert entry % m == r
        assert entry in S
        assert (entry - m) not in S
    assert S.frobenius == max(S.apery_table) - m


@pytest.mark.parametrize("gens", SMALL_SEMIGROUPS)
def test_frobenius_cofiniteness_witness(gens):
    S = NumericalSemigroup(gens)
    assert S.frobenius not in S
    for k in range(1, S.multiplicity + 1):
        assert S.frobenius + k in S


@pytest.mark.parametrize("gens", SMALL_SEMIGROUPS)
def test_element_mask_matches_membership(gens):
    S = NumericalSemigroup(gens)
    limit = S.frobenius + 2 * S.multiplicity
    mask = S.element_mask(limit)
    for x in range(limit + 1):
        assert bool((mask >> x) & 1) == (x in S)
    # cached rebuilds keep lower bits intact
    bigger = S.element_mask(2 * limit)
    assert bigger & ((1 << (limit + 1)) - 1) == mask & ((1 << (limit + 1)) - 1)


gen_lists = st.lists(st.integers(2, 40), min_size=2, max_size=5).filter(
    lambda gs: __import__("math").gcd(*gs) == 1
)


@given(gen_lists)
@settings(max_examples=150, deadline=None)
def test_membership_agrees_with_sieve(gens):
    S = NumericalSemigroup(gens)
    limit = S.frobenius + S.multiplicity
    members = sieve_members(gens, max(limit, 0))
    for x in range(max(limit, 0) + 1):
        assert (x in S) == members[x]


@given(gen_lists)
@settings(max_examples=150, deadline=None)
def test_derived_fields_agree_with_oracles(gens):
    S = NumericalSemigroup(gens)
    assert S.frobenius == brute_frobenius(gens)
    assert list(S.apery_set()) == brute_apery(gens)
    assert S.n_count == brute_n_count(gens)
    assert S.min_gens == brute_min_gens(gens)


@given(gen_lists)
@settings(max_examples=100, deadline=None)
def test_minimality_of_min_gens(gens):
    S = NumericalSemigroup(gens)
    for a in S.min_gens:
        others = [b for b in S.min_gens if b != a]
        if not others:
            continue
        members = sieve_members(others, a)
        assert not members[a]


@given(gen_lists)
@settings(max_examples=100, deadline=None)
def test_symmetry_characterization(gens):
    # symmetric iff for every 0 <= x <= frobenius exactly one of x,
    # frobenius - x is a member; the degenerate frobenius == -1 case is
    # pinned to False by convention
    S = NumericalSemigroup(gens)
    g = S.frobenius
    if g < 0:
        assert not S.is_symmetric()
        return
    mirrored = all((x in S) != ((g - x) in S) for x in range(g + 1))
    assert S.is_symmetric() == mirrored


def _sieve_mask(gens, limit):
    members = sieve_members(gens, limit)
    return sum(1 << i for i, ok in enumerate(members) if ok)


@given(gen_lists, st.lists(st.integers(0, 6), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_element_mask_grown_in_steps_matches_fresh_build(gens, picks):
    # one cached mask grown below, at and past the Frobenius number, in any
    # order of requests, always equals a fresh build and the sieve through
    # the requested bit, and every bit it holds is a member
    S = NumericalSemigroup(gens)
    F, m = S.frobenius, S.multiplicity
    menu = [F // 2, F - 1, F, F + 1, F + m, 2 * F + 3 * m + 5, 1]
    for pick in picks:
        limit = menu[pick]
        mask = S.element_mask(limit)
        if limit < 0:
            assert mask == 0
            continue
        clip = (1 << (limit + 1)) - 1
        assert mask & clip == NumericalSemigroup(gens).element_mask(limit) & clip
        assert mask & clip == _sieve_mask(gens, limit)
        assert mask & ~_sieve_mask(gens, mask.bit_length()) == 0


@given(gen_lists, st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                     st.integers(1, 3)), max_size=6))
@settings(max_examples=150, deadline=None)
def test_min_gens_drop_redundant_inputs(gens, combos):
    # padded with sums and multiples of the inputs, the generating set still
    # reduces to the oracle's minimal one
    extra = [gens[i % len(gens)] + k * gens[j % len(gens)] for i, j, k in combos]
    S = NumericalSemigroup(gens + extra)
    assert S.min_gens == brute_min_gens(gens)
    assert S.min_gens == NumericalSemigroup(gens).min_gens


# ----------------------------------------- construction at realistic sizes

def _assert_matches_oracles(gens):
    S = NumericalSemigroup(gens)
    assert list(S.apery_set()) == brute_apery(gens)
    assert S.frobenius == brute_frobenius(gens)
    assert S.n_count == brute_n_count(gens)
    assert S.min_gens == brute_min_gens(gens)


@pytest.mark.parametrize("gens", [
    # inputs that are multiples of the multiplicity
    (120, 240, 263, 301, 360),
    (199, 200, 398, 597),
    # inputs sharing a residue mod the multiplicity
    (150, 157, 211, 307, 457),
    (97, 101, 198, 295, 392),
    # gcd(a % m, m) > 1 for the first input off the multiples of m, so the
    # closed-form seed fills one cycle of several; 255 then walks 15 cycles,
    # of which only those through a seeded residue are reachable yet
    (180, 190, 255, 397),
    (200, 210, 331),
    (196, 210, 238, 393, 589),
    # several of the above at once
    (168, 196, 336, 364, 425, 461),
], ids=str)
def test_construction_matches_oracles_at_realistic_sizes(gens):
    _assert_matches_oracles(gens)


@st.composite
def realistic_gen_lists(draw):
    # multiplicity up to 200.  The second input shares a factor with m, so
    # the seed may cover only some residue cycles; the others may be
    # multiples of m or repeat a residue mod m.
    m = draw(st.integers(2, 200))
    factor = draw(st.sampled_from([q for q in range(1, m) if m % q == 0]))
    first = factor * draw(st.integers(m // factor + 1, 3 * m // factor))
    rest = draw(st.lists(st.integers(m + 1, 2 * m), min_size=1, max_size=3))
    extra = draw(st.lists(st.sampled_from(["multiple", "repeat"]), max_size=2))
    gens = [m, first, *rest]
    for kind in extra:
        gens.append(2 * m if kind == "multiple" else rest[0] + m)
    assume(math.gcd(*gens) == 1)
    return gens


@given(realistic_gen_lists())
@settings(max_examples=60, deadline=None)
def test_construction_matches_oracles_hypothesis(gens):
    _assert_matches_oracles(gens)


@pytest.mark.parametrize("a,b", [
    (1000, 1001), (1009, 1999), (1024, 1537), (1582, 1975), (4001, 4003),
], ids=str)
def test_two_generators_at_large_multiplicity(a, b):
    # the closed forms for two coprime generators: F = ab - a - b, the
    # Apery set {0, b, ..., (a - 1) b}, and symmetry, so exactly half of
    # [0, F] are members
    S = NumericalSemigroup([a, b])
    assert S.min_gens == (a, b)
    assert S.frobenius == coprime_pair_frobenius(a, b)
    assert S.apery_set() == tuple(i * b for i in range(a))
    assert S.n_count == (S.frobenius + 1) // 2
    assert S.is_symmetric()


# ------------------------------------------------------- minimal generation

def test_minimal_ascending_against_oracle_every_quadruple():
    # every ascending 4-tuple up to 40, gcd 1 or not
    minimal = 0
    for gens in combinations(range(1, 41), 4):
        want = brute_min_gens(gens) == gens
        assert is_minimal_ascending(gens) == want, gens
        minimal += want
    assert minimal == 29_013


@st.composite
def ascending_quadruples(draw):
    a1 = draw(st.integers(1, 2000))
    steps = draw(st.lists(st.integers(1, 2 * a1), min_size=3, max_size=3))
    gens = [a1]
    for step in steps:
        gens.append(gens[-1] + step)
    return tuple(gens)


@given(ascending_quadruples())
@settings(max_examples=200, deadline=None)
def test_minimal_ascending_hypothesis(gens):
    # each generator outside the semigroup of the smaller ones, by sieve
    want = not any(sieve_members(gens[:j], gens[j])[gens[j]]
                   for j in range(1, 4))
    assert is_minimal_ascending(gens) == want
    if math.gcd(*gens) == 1:
        assert (NumericalSemigroup(gens).min_gens == gens) == want


def test_minimal_ascending_budget_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="reachability bitset"):
            is_minimal_ascending((3, 5, MAX_MASK_BITS, MAX_MASK_BITS + 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert not is_minimal_ascending((3, 5, MAX_MASK_BITS - 2))


# ------------------------------------------------------------ resource guard

def test_resource_limit_error_is_a_domain_error():
    assert issubclass(ResourceLimitError, DomainError)
    assert ResourceLimitError.code == "resource-limit"


def test_multiplicity_bound_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="multiplicity 100003"):
            NumericalSemigroup([100003, 100019])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    NumericalSemigroup([MAX_MULTIPLICITY, MAX_MULTIPLICITY + 1])
    with pytest.raises(ResourceLimitError):
        NumericalSemigroup([MAX_MULTIPLICITY + 1, MAX_MULTIPLICITY + 2])


def test_mask_budget_raises_before_allocating():
    # F = 10007 * 10009 - 10007 - 10009 is about 1.5 times the budget
    S = NumericalSemigroup([10007, 10009])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="element bitset"):
            S.element_mask(S.frobenius)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    with pytest.raises(ResourceLimitError):
        S.element_mask(MAX_MASK_BITS)
    assert S.element_mask(MAX_MASK_BITS - 1).bit_length() == MAX_MASK_BITS
    assert S.element_mask(-1) == 0


def test_overflow_guard_comes_before_the_budgets():
    # the product check keeps its own error for inputs both would reject
    with pytest.raises(IntegerOverflowError):
        NumericalSemigroup([2**40, 2**40 + 1, 2**23 + 1])


def test_internal_checks_raise_under_optimize():
    # the invariant checks in sgcore, ideal and balanced are explicit
    # errors, so python -O keeps them
    script = textwrap.dedent("""
        import dataclasses
        import sys
        from sgbricks import balanced, ideal, sgcore
        if __debug__:
            sys.exit(5)
        raised = []

        def expect(call, *args):
            try:
                call(*args)
            except RuntimeError as exc:
                raised.append(str(exc))

        # a generating set with gcd 2 leaves odd residues unreachable
        expect(sgcore._least_residue_table, [4, 6], 4)
        # a sum extraction that invents generators breaks mu_sum <= k * mu_dual
        real = ideal._mask_min_gens
        calls = []

        def inflated(emask, S):
            calls.append(emask)
            return real(emask, S) if len(calls) == 1 else list(range(50))
        ideal._mask_min_gens = inflated
        S = sgcore.NumericalSemigroup([10, 11, 13, 17, 19])
        expect(ideal.brick_check, S, ideal.RelativeIdeal(S, [2, 5]))
        ideal._mask_min_gens = real
        # 10 + 27 != 15 + 18: the gcd quotient laws fail
        expect(balanced._build_profile, (10, 15, 18, 27))
        profile = balanced.classify((14, 15, 20, 21)).profile
        q = profile.quotients
        bent = dataclasses.replace(profile, quotients=(q[0], q[1] + 1, q[2], q[3]))
        expect(balanced.frobenius_of_triple, bent)
        for message in raised:
            print(message)
        sys.exit(7 if len(raised) == 4 else 6)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 7, proc.stdout + proc.stderr
    assert "unreachable from [4, 6]" in proc.stdout
    assert "more than the 2 * 5 pairwise sums" in proc.stdout
    assert "breaks its gcd quotient laws" in proc.stdout
    assert "closed-form Frobenius shapes disagree" in proc.stdout
