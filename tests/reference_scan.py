"""The unpruned per-semigroup scan, the reference for the pruned one in
sgbricks.brickhunt.

``reference_scan_semigroup`` runs the inlined brick kernel on every
candidate ideal, with no kill masks.  Differential tests require the
production scan to return exactly its reports.
"""

from __future__ import annotations

from sgbricks.brickhunt import BrickReport
from sgbricks.ideal import RelativeIdeal, _bits, brick_check
from sgbricks.sgcore import NumericalSemigroup


def reference_scan_semigroup(S: NumericalSemigroup,
                             config) -> list[BrickReport]:
    """Scan all candidate ideals of one semigroup.

    The inner test is an exact inlined form of the brick condition:
    mu(I + J) equals mu(I) * mu(J) iff the pairwise generator sums are
    distinct and no difference of two sums is a member (the sums generate
    I + J, and its minimal generating set is their greedy reduction).  Every
    hit is re-validated through ideal.brick_check before being reported.
    """
    out: list[BrickReport] = []
    frob = S.frobenius
    top = frob - S.multiplicity
    if top < 1:
        return out
    cap = config.cap_for(len(S.min_gens))
    limit = 2 * frob + 2 + top
    smask = S.element_mask(limit)
    gapmask = ~smask & ((1 << (top + 1)) - 1)
    table = S.apery_table
    m = S.multiplicity

    def report(offsets: tuple[int, ...]) -> None:
        ideal = RelativeIdeal._trusted(S, (0, *offsets))
        check = brick_check(S, ideal)
        assert check.is_brick
        out.append(BrickReport.from_check(S, ideal, check))

    def walk(offsets: tuple[int, ...], cand: int, emask: int) -> None:
        # the candidates (0, *offsets, x) for x in cand, and their subtrees
        for x in _bits(cand):
            ext = offsets + (x,)
            ds = [b - a for a in (0, *ext) for b in ext if b > a]
            sub = emask & (smask >> x)
            if _brick_dual_gens(sub, smask, tuple(set(ds)), table, m) is not None:
                report(ext)
            if len(ext) + 1 < cap:
                walk(ext, cand & (gapmask << x), sub)

    walk((), gapmask, smask)
    return out


# the brick kernel kept here in full, so that the reference shares no brick
# test with the pruned scan it checks
def _brick_dual_gens(emask, smask, deltas, table, m):
    """Extract the dual's minimal generators while testing the brick
    condition, aborting at the first violation.

    deltas are the pairwise differences of the ideal's generators (gaps by
    construction, so same-generator cross pairs need no test).  The pair
    (S, I) is a brick iff no cross pair (w_i + z1, w_j + z2) collides or
    differs by a member; collisions show up as a zero difference, which the
    membership test catches since 0 is a member.
    """
    gens: list[int] = []
    rest = emask
    while rest:
        w = (rest & -rest).bit_length() - 1
        for wi in gens:
            diff = w - wi  # ascending extraction keeps this positive
            for delta in deltas:
                d = diff + delta
                if d >= table[d % m]:
                    return None
                d = diff - delta
                if d < 0:
                    d = -d
                if d >= table[d % m]:
                    return None
        gens.append(w)
        rest &= ~(smask << w)
    if len(gens) < 2:
        return None
    return gens
