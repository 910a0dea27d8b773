"""Exact arithmetic on numerical semigroups.

A numerical semigroup is a subset of the non-negative integers that contains
0, is closed under addition, and misses only finitely many integers.  The
constructor precomputes the table of least members per residue class modulo
the multiplicity m, which makes membership, the Frobenius number and the
element counts O(1) afterwards.

The table takes O(t * m) steps for t generators, by the round-robin
algorithm of Boecker and Liptak ("A fast and simple algorithm for the money
changing problem", Algorithmica 48, 2007).  The same pass finds the minimal
generating set: the generators go in ascending order, each round leaves the
exact table of the generators so far, so a generator a is a sum of smaller
ones iff a is at least the entry of its class a % m so far; only the others
are kept and added to the table.  The gap count follows from the sum of the
table by Selmer's formula (Rosales and Garcia-Sanchez, Numerical Semigroups,
Springer 2009, ch. 2).

Where only the members up to some bound matter, a reachability bitset is
cheaper than the table: _saturate closes it under adding one generator in
O(log(bound / generator)) shifts.  It is the one reachability primitive of
the package.  The semigroup walk of the search grows generator tuples by
integers outside it (the pruned tree of Fromentin and Hivert,
arXiv:1305.3831), and is_minimal_ascending decides minimal generation with
it, clipped at the largest generator, so balanced.classify needs no table.

Two budgets keep absurd inputs from exhausting memory: a multiplicity above
MAX_MULTIPLICITY and an element or reachability bitset of more than
MAX_MASK_BITS bits raise ResourceLimitError (a DomainError, exit 3 in the
CLI) before anything of that size is allocated.  Every bitset refusal, here
and in brickhunt.SearchConfig, is built by the one helper _over_budget.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import (
    EmptyInputError,
    IntegerOverflowError,
    InvalidInputError,
    NonCoprimeError,
    ResourceLimitError,
    require_ints,
)

INT64_MAX = 2**63 - 1
# Budgets on memory: the table holds m entries, and an element bitset of
# MAX_MASK_BITS bits takes 8 MiB.  The tests and the benchmark stay far
# below both: their largest multiplicity is 1,582 and their largest bitset
# has 784,866 bits (the family member (1582, 1975, 1980, 2373), whose
# Frobenius number is 782,891).
MAX_MULTIPLICITY = 2**16
MAX_MASK_BITS = 2**26


class NumericalSemigroup:
    """The numerical semigroup generated by a set of positive integers.

    Attributes:
        min_gens: the minimal generating set, ascending.  Redundant input
            generators are dropped; duplicates are collapsed.
        multiplicity: least positive member.
        apery_table: entry r is the least member congruent to r modulo the
            multiplicity, so the set of entries is the Apery set.
        frobenius: largest integer not in the semigroup; -1 when every
            non-negative integer belongs.
        n_count: number of members strictly below the Frobenius number.

    Instances are immutable after construction and safe to share between
    concurrent tasks (the lazily grown element bitset is a memo of derived
    values; racing builders would only repeat identical work).
    """

    __slots__ = ("min_gens", "multiplicity", "apery_table", "frobenius",
                 "n_count", "_mask", "_mask_limit")

    def __init__(self, gens: Iterable[int]):
        gens = sorted(set(require_ints(gens, "generator")))
        if not gens:
            raise EmptyInputError("at least one generator is required")
        if gens[0] < 1:
            raise InvalidInputError("generators must be positive")
        g = math.gcd(*gens)
        if g != 1:
            raise NonCoprimeError(
                f"generators have gcd {g}; the complement would be infinite")

        m = gens[0]
        # Every table entry is below multiplicity * max(gens); checking the
        # product up front keeps every generator (m >= 1) and all derived
        # values inside 64 bits.
        if m * gens[-1] > INT64_MAX:
            raise IntegerOverflowError(
                "apery table entries would exceed the signed 64-bit range")
        if m > MAX_MULTIPLICITY:
            raise ResourceLimitError(
                f"multiplicity {m} exceeds the bound of {MAX_MULTIPLICITY}")

        table, kept = _least_residue_table(gens, m)
        self.min_gens = tuple(kept)
        self.multiplicity = m
        self.apery_table = tuple(table)
        self.frobenius = frob = max(table) - m
        # Selmer: the table sum exceeds 0 + 1 + ... + (m - 1) by m per gap,
        # and every gap lies in [0, frob]
        self.n_count = frob + 1 - (sum(table) - m * (m - 1) // 2) // m
        self._mask = 1
        self._mask_limit = 0

    def __contains__(self, x: int) -> bool:
        if x < 0:
            return False
        return x >= self.apery_table[x % self.multiplicity]

    def apery_set(self) -> tuple[int, ...]:
        """Sorted least members per residue class modulo the multiplicity."""
        return tuple(sorted(self.apery_table))

    def is_symmetric(self) -> bool:
        """True iff the Frobenius number is odd and exactly half of the
        integers in [0, frobenius] are members.  False for the degenerate
        semigroup of all non-negative integers."""
        g = self.frobenius
        if g < 0:
            return False
        return g % 2 == 1 and self.n_count == (g + 1) // 2

    def element_mask(self, limit: int) -> int:
        """Bitset of members: bit i is set iff i is a member, complete through
        bit ``limit``.  Higher bits, when present from a larger cached build,
        are correct memberships as well.

        Only the bits through the Frobenius number need saturating under the
        generators; every bit above it is a member and is set in one OR.

        Raises InvalidInputError when limit is not exactly an int, and
        ResourceLimitError, before allocating, when the bitset would have
        more than MAX_MASK_BITS bits.
        """
        if type(limit) is not int:
            require_ints((limit,), "limit")  # raises InvalidInputError
        if limit < 0:
            return 0
        if limit >= MAX_MASK_BITS:
            raise _over_budget("an element", limit + 1)
        # the limit is read before the mask and written after it, so a
        # racing builder can only hand over a mask complete further out
        have = self._mask_limit
        mask = self._mask
        if limit > have:
            frob = self.frobenius
            if have < frob:
                # saturating a subset of the members that holds 0 yields
                # every member, so the cached bits are a valid start
                top = min(limit, frob)
                clip = (1 << (top + 1)) - 1
                for a in self.min_gens:
                    mask = _saturate(mask, a, top, clip)
            if limit > frob:
                mask |= (1 << (limit + 1)) - (1 << (frob + 1))
            self._mask = mask
            self._mask_limit = limit
        return mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.min_gens == other.min_gens

    def __hash__(self) -> int:
        return hash(self.min_gens)

    def __repr__(self) -> str:
        return f"NumericalSemigroup({list(self.min_gens)})"


def coprime_pair_frobenius(a: int, b: int) -> int:
    """Frobenius number of the semigroup generated by two coprime integers
    greater than 1: a * b - a - b."""
    require_ints((a, b), "generator")
    if a < 2 or b < 2:
        raise InvalidInputError("both generators must exceed 1")
    if math.gcd(a, b) != 1:
        raise NonCoprimeError(f"{a} and {b} are not coprime")
    return a * b - a - b


def is_minimal_ascending(gens: Sequence[int]) -> bool:
    """True iff the strictly ascending positive integers gens form a minimal
    generating set: no generator is a sum of smaller ones.

    A sum of generators that equals gens[j] holds only generators below it,
    so a bitset of the sums of the smaller generators, clipped at the
    largest one, decides each generator exactly.  No gcd condition applies.

    Raises ResourceLimitError, before allocating, when that bitset would
    have more than MAX_MASK_BITS bits.
    """
    bound = gens[-1]
    if bound >= MAX_MASK_BITS:
        raise _over_budget("a reachability", bound + 1)
    clip = (1 << (bound + 1)) - 1
    reach = 1
    for a in gens:
        if reach >> a & 1:
            return False
        reach = _saturate(reach, a, bound, clip)
    return True


def _over_budget(kind: str, bits: int) -> ResourceLimitError:
    # the one spelling of the MAX_MASK_BITS refusal; callers compare
    # against the budget inline and call this only to raise
    return ResourceLimitError(
        f"{kind} bitset of {bits} bits exceeds the budget of "
        f"{MAX_MASK_BITS} bits")


def _saturate(reach: int, step: int, bound: int, clip: int) -> int:
    # close the reachability bitset under adding `step`, up to `bound`
    # (clip has bits 0..bound set): after the shift by step * 2**i, reach
    # holds every x + j * step, j < 2**(i + 1), for x it held before
    while step <= bound:
        reach |= (reach << step) & clip
        step <<= 1
    return reach


def _least_residue_table(gens: list[int],
                         m: int) -> tuple[list[int], list[int]]:
    # Least member per residue class mod m, one generator at a time
    # (Boecker and Liptak's round robin), and the minimal generators among
    # the ascending gens.  Adding a generator a of residue k = a % m splits
    # the classes into gcd(k, m) cycles r -> (r + k) % m.  Walking a cycle
    # once from its least entry n, n = min(n + a, next entry) at each step
    # is final.  Each round leaves the exact table of the generators so
    # far, so before a, dist[k] is the least member of class k generated
    # by the generators below a, and a is a sum of them iff a >= dist[k].
    # Such an a changes no entry and is skipped, which covers a residue
    # already taken (dist[k] <= b < a) and a multiple of m (dist[0] = 0);
    # every other a is a minimal generator.
    unset = m * gens[-1] + 1
    dist = [unset] * m
    dist[0] = 0
    kept = [m]
    for a in gens[1:]:
        k = a % m
        if dist[k] <= a:
            continue
        kept.append(a)
        d = math.gcd(k, m)
        length = m // d
        if len(kept) == 2:
            # from the table {0: 0} alone, the one reachable cycle is the
            # one through 0, and it holds i * a for every i below its length
            for n in range(a, a * length, a):
                dist[n % m] = n
            continue
        for p in range(d):
            cycle = dist[p::d]
            n = min(cycle)
            if n == unset:
                continue
            r = p + d * cycle.index(n)
            for _ in range(length - 1):
                r += k
                if r >= m:
                    r -= m
                n += a
                v = dist[r]
                if n < v:
                    dist[r] = n
                else:
                    n = v
    # gcd(gens) == 1 makes every residue reachable
    if unset in dist:
        raise RuntimeError(
            f"residue {dist.index(unset)} mod {m} unreachable from {gens}")
    return dist, kept
