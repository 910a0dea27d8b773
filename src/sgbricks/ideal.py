"""Relative ideals of a numerical semigroup: duals, sums, and the brick test.

A relative ideal is a finite union of shifted copies z + S of its parent
semigroup S; it is stored by its minimal generating offsets.  The dual
S - I = {z : z + I inside S} and the sum I + J are again relative ideals.
The pair (S, I) multiplies like a brick when the minimal generating sets
obey mu(I) * mu(S - I) = mu(I + (S - I)).

The dual and sum computations run on integer bitsets whose window is
frobenius + multiplicity past the ideal's span.  Shift I so that
min(I) = 0.  Then S - I lies in S and holds every integer above the
Frobenius number F.  For any two ideals I and J shifted to min(I) =
min(J) = 0, the sum I + J holds 0, so it contains S and also holds every
integer above F.  A relative ideal that holds every integer above F has no
minimal generator above F + m: for such an x, x - m is above F, so it lies
in the ideal, and x lies in its coset.  A sum I + J is the union of J's
element bitset shifted by each generator of I; J's own bitset is the union
of S's shifted by each generator of J.  I + (S - I) in brick_check shifts
the dual's bitset the same way.

Three helpers carry the bitset work: _shifted_dual builds the bitset of
(S - I) + min(I), _shift_union ORs shifted copies of a bitset, and
_mask_min_gens reads the minimal generators off a bitset in the strip
[0, F + m].  dual(), + and brick_check call them directly, and build each
result ideal once from the generator list (RelativeIdeal._trusted).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyInputError, ParentMismatchError, require_ints
from .sgcore import NumericalSemigroup


class RelativeIdeal:
    """A finite union of cosets z + S, stored as minimal offsets.

    ``min_gens`` is ascending and minimal: no offset lies in another
    offset's coset.  Offsets may be negative; ideals are deliberately not
    normalized to contain 0.  Instances are immutable.
    """

    __slots__ = ("parent", "min_gens")

    def __init__(self, parent: NumericalSemigroup, gens: Iterable[int]):
        gens = sorted(set(require_ints(gens, "offset")))
        if not gens:
            raise EmptyInputError("an ideal needs at least one generator")
        # z is redundant iff it lands in the coset of a smaller kept offset.
        # The least offset always stays, and covers every offset more than
        # frobenius above it; bit z - lo of cover marks the covered offsets.
        lo = gens[0]
        rest = [z - lo for z in gens[1:] if z - lo <= parent.frobenius]
        kept = [lo]
        if rest:
            smask = parent.element_mask(rest[-1])
            cover = smask
            for d in rest:
                if not (cover >> d) & 1:
                    kept.append(lo + d)
                    cover |= smask << d
        self.parent = parent
        self.min_gens = tuple(kept)

    @staticmethod
    def _trusted(parent: NumericalSemigroup,
                 gens: Sequence[int]) -> "RelativeIdeal":
        # gens must already be an ascending minimal generating set
        ideal = object.__new__(RelativeIdeal)
        ideal.parent = parent
        ideal.min_gens = tuple(gens)
        return ideal

    @property
    def mu(self) -> int:
        """Size of the minimal generating set."""
        return len(self.min_gens)

    def __contains__(self, x: int) -> bool:
        return any((x - z) in self.parent for z in self.min_gens)

    def dual(self) -> "RelativeIdeal":
        """The relative ideal of all z with z + (this ideal) inside the parent."""
        S = self.parent
        off, emask = _shifted_dual(self)
        return RelativeIdeal._trusted(
            S, [w - off for w in _mask_min_gens(emask, S)])

    def __add__(self, other: "RelativeIdeal") -> "RelativeIdeal":
        if not isinstance(other, RelativeIdeal):
            return NotImplemented
        S = self.parent
        if other.parent is not S and other.parent != S:
            raise ParentMismatchError("ideals live over different semigroups")
        a0, b0 = self.min_gens[0], other.min_gens[0]
        # (I - a0) + (J - b0) is complete through the trusted strip, which
        # holds all its minimal generators
        jmask = _shift_union(S.element_mask(S.frobenius + S.multiplicity),
                             other.min_gens, b0)
        kmask = _shift_union(jmask, self.min_gens, a0)
        return RelativeIdeal._trusted(
            S, [g + a0 + b0 for g in _mask_min_gens(kmask, S)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelativeIdeal):
            return NotImplemented
        return (self.parent == other.parent
                and self.min_gens == other.min_gens)

    def __hash__(self) -> int:
        return hash((self.parent.min_gens, self.min_gens))

    def __repr__(self) -> str:
        inner = ", ".join(map(str, self.min_gens))
        return f"RelativeIdeal(({inner}) over {self.parent!r})"


class BrickCheck(NamedTuple):
    """Outcome of the brick test for a pair (S, I).

    mu_sum never exceeds mu_ideal * mu_dual; a brick attains equality with a
    non-principal I, and a perfect brick additionally has I + (S - I) equal
    to the ideal of all nonzero members of S.
    """

    mu_ideal: int
    mu_dual: int
    mu_sum: int
    is_brick: bool
    is_perfect: bool
    dual_ideal: RelativeIdeal
    sum_ideal: RelativeIdeal


def maximal_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """The relative ideal of all nonzero members; its minimal offsets are
    exactly the minimal generators of S."""
    return RelativeIdeal._trusted(S, S.min_gens)


def brick_check(S: NumericalSemigroup, I: RelativeIdeal) -> BrickCheck:
    """Compute the dual and the sum I + (S - I) and test the brick equality."""
    if I.parent is not S and I.parent != S:
        raise ParentMismatchError("ideal does not belong to this semigroup")
    off, dmask = _shifted_dual(I)
    dual_gens = _mask_min_gens(dmask, S)
    # I + (S - I) in 0-based offsets (the two shifts by off cancel) is the
    # union of the dual shifted by each offset of I.  The dual's bitset is
    # complete through the trusted strip [0, F + m], which holds every
    # minimal generator of the sum.
    total = RelativeIdeal._trusted(
        S, _mask_min_gens(_shift_union(dmask, I.min_gens, off), S))

    k = len(I.min_gens)
    mu_dual = len(dual_gens)
    mu_sum = len(total.min_gens)
    if mu_sum > k * mu_dual:
        raise RuntimeError(
            f"sum of {I!r} and its dual has {mu_sum} minimal generators, "
            f"more than the {k} * {mu_dual} pairwise sums")
    is_brick = k >= 2 and k * mu_dual == mu_sum
    is_perfect = is_brick and total.min_gens == S.min_gens
    dual = RelativeIdeal._trusted(S, [w - off for w in dual_gens])
    return BrickCheck(k, mu_dual, mu_sum, is_brick, is_perfect, dual, total)


def _shifted_dual(I: RelativeIdeal) -> tuple[int, int]:
    # The dual of I - off, where off = min(I): returns off and the dual's
    # element bitset, complete through F + m.  Its minimal generators, read
    # off by _mask_min_gens, are in shifted terms (shift them back by -off).
    S = I.parent
    gens = I.min_gens
    off = gens[0]
    smask = S.element_mask(S.frobenius + S.multiplicity + gens[-1] - off)
    emask = smask
    for z in gens[1:]:
        emask &= smask >> (z - off)
    return off, emask


def _shift_union(mask: int, offsets: Iterable[int], base: int = 0) -> int:
    # the bitset of the union of mask shifted up by each offset less base
    out = 0
    for z in offsets:
        out |= mask << (z - base)
    return out


def _mask_min_gens(emask: int, S: NumericalSemigroup) -> list[int]:
    # The minimal generators of a relative ideal J of S with no negative
    # element that holds every integer above F, from its element bitset
    # (complete through the trusted strip [0, F + m], which holds them
    # all): x is one iff x is in J and x - a is not, for every minimal
    # generator a of S.
    emask &= (2 << (S.frobenius + S.multiplicity)) - 1
    return _bits(emask & ~_shift_union(emask, S.min_gens))


def _bits(mask: int) -> list[int]:
    # the positions of the set bits, ascending; read from the top, so that
    # each step works on a shrinking int, where mask & -mask is full width
    out = []
    while mask:
        v = mask.bit_length() - 1
        out.append(v)
        mask ^= 1 << v
    out.reverse()
    return out
