"""Exact arithmetic on numerical semigroups.

A numerical semigroup is a subset of the non-negative integers that contains
0, is closed under addition, and misses only finitely many integers.  The
constructor precomputes the table of least members per residue class modulo
the multiplicity, which makes membership, the Frobenius number and the
element counts O(1) afterwards.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable

from .errors import (
    EmptyInputError,
    IntegerOverflowError,
    InvalidInputError,
    NonCoprimeError,
)

INT64_MAX = 2**63 - 1


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
        gens = sorted(set(gens))
        if not gens:
            raise EmptyInputError("at least one generator is required")
        for a in gens:
            if not isinstance(a, int):
                raise InvalidInputError(f"generator {a!r} is not an integer")
        if gens[0] < 1:
            raise InvalidInputError("generators must be positive")
        if gens[-1] > INT64_MAX:
            raise IntegerOverflowError(
                f"generator {gens[-1]} exceeds the signed 64-bit range")
        g = gens[0]
        for a in gens[1:]:
            g = math.gcd(g, a)
        if g != 1:
            raise NonCoprimeError(
                f"generators have gcd {g}; the complement would be infinite")

        m = gens[0]
        if m == 1:
            self.min_gens = (1,)
            self.multiplicity = 1
            self.apery_table = (0,)
            self.frobenius = -1
            self.n_count = 0
            self._mask = 1
            self._mask_limit = 0
            return

        # Every table entry is below multiplicity * max(gens); checking the
        # product up front keeps all derived values inside 64 bits.
        if m * gens[-1] > INT64_MAX:
            raise IntegerOverflowError(
                "apery table entries would exceed the signed 64-bit range")

        table = _least_residue_table(gens, m)
        self.multiplicity = m
        self.apery_table = tuple(table)
        self.frobenius = max(table) - m
        frob = self.frobenius
        # Members below the Frobenius number, one arithmetic progression of
        # step m per residue class.
        self.n_count = sum((frob - t + m - 1) // m for t in table if t < frob)
        # a is redundant iff a - b is a member for some smaller input b:
        # were a = s + s' with s, s' nonzero members, s would be a sum of
        # inputs below a, and any one of them serves as b
        kept = []
        for i, a in enumerate(gens):
            for b in gens[:i]:
                d = a - b
                if d >= table[d % m]:
                    break
            else:
                kept.append(a)
        self.min_gens = tuple(kept)
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
        """
        if limit < 0:
            return 0
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
                    step = a
                    while step <= top:
                        mask |= (mask << step) & clip
                        step <<= 1
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
    if a < 2 or b < 2:
        raise InvalidInputError("both generators must exceed 1")
    if math.gcd(a, b) != 1:
        raise NonCoprimeError(f"{a} and {b} are not coprime")
    return a * b - a - b


def _least_residue_table(gens: list[int], m: int) -> list[int]:
    # Least member per residue class mod m, by shortest-path relaxation on
    # the residue cycle: an edge r -> (r + a) % m of weight a per generator.
    # Generators that are multiples of m never improve anything and are
    # dropped; among generators sharing a residue only the smallest matters.
    best_step: dict[int, int] = {}
    for a in gens[1:]:
        r = a % m
        if r == 0:
            continue
        if r not in best_step or a < best_step[r]:
            best_step[r] = a
    steps = sorted(best_step.values())

    unset = m * gens[-1] + 1
    dist = [unset] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > dist[r]:
            continue
        for a in steps:
            nd = d + a
            r2 = (r + a) % m
            if nd < dist[r2]:
                dist[r2] = nd
                heapq.heappush(heap, (nd, r2))
    # gcd(gens) == 1 makes every residue reachable
    if unset in dist:
        raise RuntimeError(
            f"residue {dist.index(unset)} mod {m} unreachable from {gens}")
    return dist
