"""Balanced and unitary quadruples of generators.

A quadruple a1 < a2 < a3 < a4 is balanced when the overall gcd is 1, no
generator divides another, and the outer pair sums to the same value as the
inner pair.  Writing D = gcd(a1, a4) and E = gcd(a2, a3), that common sum is
divisible by D * E; the quadruple is unitary when the quotient is exactly 1.

Unitary quadruples are where the structure theory lives: the Apery set of
the generated semigroup splits along explicit coefficient boxes, both the
semigroup and its three-smallest-generator subsemigroup are symmetric with
closed-form Frobenius numbers, and the shift ideal (0, a2 - a1) always forms
a perfect 2x2 brick with dual (a1, a3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import NotUnitaryError, WrongArityError, require_ints
from .sgcore import NumericalSemigroup, is_minimal_ascending

NOT_BALANCED = "not balanced"
BALANCED = "balanced"
UNITARY = "unitary"


@dataclass(frozen=True)
class BalancedProfile:
    """Derived structure of a balanced quadruple.

    quotients scale the generators down by the pair gcds:
    a1 = q1 * outer_gcd, a4 = q4 * outer_gcd, a2 = q2 * inner_gcd,
    a3 = q3 * inner_gcd.  shift is a2 - a1 == a4 - a3.
    """

    gens: tuple[int, int, int, int]
    outer_gcd: int
    inner_gcd: int
    quotients: tuple[int, int, int, int]
    common_sum: int
    common_quotient: int
    shift: int

    @property
    def a1(self) -> int:
        return self.gens[0]

    @property
    def a2(self) -> int:
        return self.gens[1]

    @property
    def a3(self) -> int:
        return self.gens[2]

    @property
    def a4(self) -> int:
        return self.gens[3]

    @property
    def q1(self) -> int:
        return self.quotients[0]

    @property
    def q2(self) -> int:
        return self.quotients[1]

    @property
    def q3(self) -> int:
        return self.quotients[2]

    @property
    def q4(self) -> int:
        return self.quotients[3]

    @property
    def is_unitary(self) -> bool:
        return self.common_quotient == 1

    def semigroup(self) -> NumericalSemigroup:
        """The semigroup generated by the quadruple."""
        return NumericalSemigroup(self.gens)

    def triple(self) -> NumericalSemigroup:
        """The subsemigroup generated by the three smallest generators."""
        return NumericalSemigroup(self.gens[:3])


@dataclass(frozen=True)
class Classification:
    """Outcome of classify: the kind plus a profile for balanced input or a
    reason naming the first failed condition otherwise."""

    kind: str
    profile: BalancedProfile | None = None
    reason: str | None = None

    @property
    def is_balanced(self) -> bool:
        return self.kind != NOT_BALANCED

    @property
    def is_unitary(self) -> bool:
        return self.kind == UNITARY


class PartitionTerm(NamedTuple):
    value: int
    mid: int   # coefficient on a2 or a3; 0 in the pure part
    top: int   # coefficient on a4


class SurplusTerm(NamedTuple):
    value: int
    base: int  # coefficient on a1
    mid: int   # coefficient on a2 or a3; 0 in the pure part
    top: int   # coefficient on a4


class _ThreeParts:
    # the values of the terms in part1, part2 and part3
    def value_sets(self) -> tuple[set[int], set[int], set[int]]:
        return ({t.value for t in self.part1},
                {t.value for t in self.part2},
                {t.value for t in self.part3})

    def all_values(self) -> set[int]:
        a, b, c = self.value_sets()
        return a | b | c


@dataclass(frozen=True)
class AperyPartition(_ThreeParts):
    """Coefficient-box decomposition of Apery set candidates.

    part1 holds t4*a4 for 0 <= t4 < q1, part2 holds t2*a2 + t4*a4 for
    1 <= t2 <= q3, part3 holds t3*a3 + t4*a4 for 1 <= t3 < q2.  For unitary
    quadruples the union of values is exactly the Apery set; for merely
    balanced ones part values can fall outside it.
    """

    part1: tuple[PartitionTerm, ...]
    part2: tuple[PartitionTerm, ...]
    part3: tuple[PartitionTerm, ...]


@dataclass(frozen=True)
class BoundaryDecomposition(_ThreeParts):
    """The members of the quadruple's semigroup that the three smallest
    generators miss, grouped by coefficient shape (each needs at least one
    copy of a4 and strictly fewer copies of a1 than of a4)."""

    part1: tuple[SurplusTerm, ...]
    part2: tuple[SurplusTerm, ...]
    part3: tuple[SurplusTerm, ...]
    predicted_size: int


def classify(gens: Sequence[int]) -> Classification:
    """Sort four candidate generators and test the balanced-set laws in
    order: strict ascent, overall gcd 1, no generator dividing another,
    equal pair sums, and minimal generation of the resulting semigroup.
    A balanced quadruple with common quotient 1 is unitary.

    Minimal generation is read off a bitset of the sums of the smaller
    generators clipped at a4 (sgcore.is_minimal_ascending), so no
    NumericalSemigroup, and no Apery table, is built.
    """
    vals = require_ints(gens, "value")
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
    if not is_minimal_ascending(a):
        return Classification(
            NOT_BALANCED, reason="not a minimal generating set")

    profile = _build_profile(a)
    kind = UNITARY if profile.is_unitary else BALANCED
    return Classification(kind, profile=profile)


def _build_profile(a: tuple[int, int, int, int]) -> BalancedProfile:
    outer = math.gcd(a[0], a[3])
    inner = math.gcd(a[1], a[2])
    cs = a[0] + a[3]
    # the pair gcds are coprime, so their product divides the common sum
    cq, rem = divmod(cs, outer * inner)
    q = (a[0] // outer, a[1] // inner, a[2] // inner, a[3] // outer)
    if (rem != 0
            or q[0] + q[3] != inner * cq or q[1] + q[2] != outer * cq
            or not (1 < q[0] < q[3] and 1 < q[1] < q[2])):
        raise RuntimeError(
            f"balanced quadruple {a} breaks its gcd quotient laws: "
            f"quotients {q}, common sum {cs} = {cq} * {outer} * {inner} + {rem}")
    return BalancedProfile(
        gens=a,
        outer_gcd=outer,
        inner_gcd=inner,
        quotients=q,
        common_sum=cs,
        common_quotient=cq,
        shift=a[1] - a[0],
    )


def apery_partition(profile: BalancedProfile) -> AperyPartition:
    """Enumerate the three coefficient boxes with their values."""
    a2, a3, a4 = profile.a2, profile.a3, profile.a4
    q1, q2, q3 = profile.q1, profile.q2, profile.q3
    part1 = tuple(PartitionTerm(t4 * a4, 0, t4) for t4 in range(q1))
    part2 = tuple(PartitionTerm(t2 * a2 + t4 * a4, t2, t4)
                  for t2 in range(1, q3 + 1) for t4 in range(q1))
    part3 = tuple(PartitionTerm(t3 * a3 + t4 * a4, t3, t4)
                  for t3 in range(1, q2) for t4 in range(q1))
    return AperyPartition(part1, part2, part3)


def boundary_sets(profile: BalancedProfile) -> BoundaryDecomposition:
    """Enumerate the members gained over the three smallest generators.

    Only defined for unitary profiles, where the union has exactly
    (q1 - 1) / 2 * a1 values.
    """
    if not profile.is_unitary:
        raise NotUnitaryError("boundary sets are defined for unitary quadruples")
    # each Apery term t of the three boxes, plus t1 * a1 for t1 < t.top
    boxes = apery_partition(profile)
    parts = (tuple(SurplusTerm(t.value + t1 * profile.a1, t1, t.mid, t.top)
                   for t in part for t1 in range(t.top))
             for part in (boxes.part1, boxes.part2, boxes.part3))
    q1 = profile.q1
    # (q1 - 1) * q1 is even, so dividing last keeps everything integral
    return BoundaryDecomposition(*parts, (q1 - 1) * q1 * profile.outer_gcd // 2)


def _triple_formula(profile: BalancedProfile) -> int:
    # the triple's closed form, evaluated on any balanced profile
    q1 = profile.q1
    return ((q1 - 2) * profile.a1 + profile.q2 * profile.a3
            + (q1 - 1) * profile.a4)


def frobenius_of_triple(profile: BalancedProfile) -> int:
    """Closed form for the Frobenius number of the subsemigroup generated by
    the three smallest generators of a unitary quadruple."""
    if not profile.is_unitary:
        raise NotUnitaryError("the closed form is proved for unitary quadruples")
    # the formula's second shape reads q3 * a2 for q2 * a3: both equal
    # lcm(a2, a3), so the two shapes agree
    if profile.q2 * profile.a3 != profile.q3 * profile.a2:
        raise RuntimeError(
            f"closed-form Frobenius shapes disagree for {profile.gens}")
    return _triple_formula(profile)


def frobenius_of_quad(profile: BalancedProfile) -> int:
    """Closed form for the Frobenius number of the unitary semigroup itself:
    the triple's value minus (q1 - 1) * a1.  frobenius_of_triple raises
    NotUnitaryError for a profile that is not unitary."""
    return frobenius_of_triple(profile) - (profile.q1 - 1) * profile.a1


def canonical_brick(profile: BalancedProfile) -> tuple[tuple[int, int], tuple[int, int]]:
    """The shift ideal (0, a2 - a1) and its predicted dual (a1, a3).

    For unitary quadruples this pair always forms a perfect 2x2 brick;
    callers can confirm via ideal.brick_check.
    """
    if not profile.is_unitary:
        raise NotUnitaryError("the canonical brick requires a unitary quadruple")
    return (0, profile.shift), (profile.a1, profile.a3)


def unitary_family(z: int) -> tuple[int, int, int, int] | None:
    """The one-parameter family 2(2z+1), 5z, 5(z+1), 3(2z+1): a unitary
    quadruple for every z >= 3 with 2z + 1 not divisible by 5.  Returns None
    when z is outside the family."""
    require_ints((z,), "z")
    if z < 3 or (2 * z + 1) % 5 == 0:
        return None
    quad = sorted((2 * (2 * z + 1), 5 * z, 5 * (z + 1), 3 * (2 * z + 1)))
    return (quad[0], quad[1], quad[2], quad[3])


def frobenius_formula_probe(profile: BalancedProfile) -> tuple[int, int]:
    """Evaluate the triple's closed-form candidate next to the exact value.

    Usable on any balanced profile; the two agree on unitary input, and
    whether they ever agree beyond that is left as data, not asserted.
    """
    return _triple_formula(profile), profile.triple().frobenius
