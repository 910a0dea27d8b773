"""Exhaustive search for brick pairs over bounded generator spaces.

Semigroups come from one walk of the pruned tree of generator tuples
(_minimal_tuples): a tuple grows only by integers its prefix cannot already
reach, so every tuple in the tree is a minimal generating set, and the ones
with gcd 1 are the semigroups, in lexicographic order.  For each semigroup the
candidate ideals contain 0 plus nonzero offsets up to frobenius minus
multiplicity, with at most 1 + t // 2 generators for a t-generated
semigroup, emitted only when the tuple is already minimal.  One kernel
(_bad_pairs) extracts a dual's minimal generators, decides the brick test and
collects the pairs of generators that break it, which break it for every
larger ideal whose dual still holds both ends; at an ideal (0, g) it also
collects the pairs that its children's new differences break.  One walk of
the candidate tree from (0,) (_scan_semigroup) passes them down and skips
what they rule out, at every depth, each node pruning only from its own
dual.  The pruning is exact, checked against an independent unpruned scan
over whole spaces.  Every hit is re-validated through ideal.brick_check; a
disagreement raises RuntimeError, an explicit check that python -O keeps.

The search cuts the semigroup walk into chunks of 512 generator tuples and
fans them out to at most MAX_WORKERS worker processes, which construct and
scan each semigroup; workers own their result lists and a final sort by
(semigroup, ideal) generators makes the output independent of scheduling.

One record schema serves both report formats and the read-back: each field
of BrickReport, its key in the JSON lines, its column in TABLE_HEADER and its
kind (a generator list, an integer or a bool).  A table cell is the field's
compact JSON without brackets, and read_reports checks every value against
its kind, so a malformed record raises InvalidInputError naming its line.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, fields
from multiprocessing import Pool
from pathlib import Path
from typing import IO, Iterable, Iterator

from .errors import (
    InvalidInputError,
    NotTwoByTwoError,
    ParentMismatchError,
    ResourceLimitError,
    ZeroNotGeneratorError,
)
from .ideal import BrickCheck, RelativeIdeal, _bits, brick_check
from .sgcore import MAX_MASK_BITS, NumericalSemigroup, _saturate

REPORT_FORMATS = ("line", "table")
TABLE_HEADER = "s_gens;i_gens;dual_gens;k;m;perfect;mult;frob"
MAX_WORKERS = 256  # one process each: more only exhausts the process table


@dataclass(frozen=True)
class SearchConfig:
    """Bounds of a search space.

    mu_cap of None applies the default ideal-size cap 1 + t // 2, where t is
    the size of each semigroup's minimal generating set.
    """

    t_min: int = 2
    t_max: int = 5
    gen_max: int = 50
    mu_cap: int | None = None
    perfect_only: bool = False
    worker_count: int = 1

    def __post_init__(self):
        for name in ("t_min", "t_max", "gen_max", "mu_cap", "worker_count"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "mu_cap" and value is None):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        if type(self.perfect_only) is not bool:
            raise InvalidInputError(
                f"perfect_only must be a bool, got {self.perfect_only!r}")
        if self.t_min < 2:
            raise InvalidInputError("t_min must be at least 2")
        if self.t_max < self.t_min:
            raise InvalidInputError("t_max must be at least t_min")
        if self.gen_max < 2:
            raise InvalidInputError("gen_max must be at least 2")
        if self.gen_max >= MAX_MASK_BITS:
            # the semigroup walk's reachability bitset has gen_max + 1 bits
            raise ResourceLimitError(
                f"a reachability bitset of {self.gen_max + 1} bits exceeds "
                f"the budget of {MAX_MASK_BITS} bits")
        if self.mu_cap is not None and self.mu_cap < 2:
            raise InvalidInputError("mu_cap must be at least 2")
        if self.worker_count < 1:
            raise InvalidInputError("worker_count must be at least 1")
        if self.worker_count > MAX_WORKERS:
            raise ResourceLimitError(
                f"{self.worker_count} workers exceed the bound of {MAX_WORKERS}")

    def cap_for(self, t: int) -> int:
        return self.mu_cap if self.mu_cap is not None else 1 + t // 2


@dataclass(frozen=True)
class BrickReport:
    """One search hit: the pair, its dual, dimensions and key invariants."""

    s_gens: tuple[int, ...]
    i_gens: tuple[int, ...]
    dual_gens: tuple[int, ...]
    k: int
    m: int
    perfect: bool
    multiplicity: int
    frobenius: int

    @classmethod
    def from_check(cls, S: NumericalSemigroup, I: RelativeIdeal,
                   check: BrickCheck) -> "BrickReport":
        return cls(
            s_gens=S.min_gens,
            i_gens=I.min_gens,
            dual_gens=check.dual_ideal.min_gens,
            k=check.mu_ideal,
            m=check.mu_dual,
            perfect=check.is_perfect,
            multiplicity=S.multiplicity,
            frobenius=S.frobenius,
        )


@dataclass(frozen=True)
class LiftResult:
    """Outcome of rebuilding a candidate perfect brick from a 2x2 brick."""

    quad: tuple[int, ...]
    ideal_gens: tuple[int, int]
    check: BrickCheck


def enumerate_semigroups(config: SearchConfig) -> Iterator[NumericalSemigroup]:
    """Each semigroup whose minimal generating set fits the bounds, exactly
    once, in lexicographic order of that set."""
    return map(NumericalSemigroup, _minimal_tuples(config))


def enumerate_ideals(S: NumericalSemigroup,
                     config: SearchConfig) -> Iterator[RelativeIdeal]:
    """Minimal ideals (0, u1, ...) with nonzero offsets up to
    frobenius - multiplicity, smallest size first, lexicographic within a
    size.  Tuples that are not minimal generating sets are never formed:
    offsets and their pairwise differences are all gaps.  No brick is lost
    above frobenius - multiplicity: tests/test_brickhunt.py
    (test_offset_bound_loses_no_brick) runs brick_check on every minimal
    candidate with an offset in that band, over five spaces at the default
    cap and at cap 4, and finds none."""
    top = S.frobenius - S.multiplicity
    if top < 1:
        return
    cap = config.cap_for(len(S.min_gens))
    window = (1 << (top + 1)) - 1
    gapmask = ~S.element_mask(top) & window
    gaps = _bits(gapmask)

    def grow(prefix: tuple[int, ...], cand: int,
             left: int) -> Iterator[tuple[int, ...]]:
        if left == 0:
            yield (0,) + prefix
            return
        for v in _bits(cand):
            yield from grow(prefix + (v,), cand & (gapmask << v), left - 1)

    for size in range(2, cap + 1):
        for u in gaps:
            for gens in grow((u,), gapmask & (gapmask << u), size - 2):
                yield RelativeIdeal._trusted(S, gens)


def search(config: SearchConfig) -> list[BrickReport]:
    """Run brick_check over every (semigroup, ideal) pair in the space and
    collect the bricks, ordered by (s_gens, i_gens) regardless of worker
    count."""
    tuples = _minimal_tuples(config)
    chunks = iter(lambda: tuple(itertools.islice(tuples, 512)), ())
    tasks = zip(chunks, itertools.repeat(config))
    if config.worker_count <= 1:
        chunked = map(_scan_chunk, tasks)
        reports = [r for chunk in chunked for r in chunk]
    else:
        with Pool(config.worker_count) as pool:
            reports = [r for chunk in pool.imap_unordered(_scan_chunk, tasks)
                       for r in chunk]
    reports.sort(key=lambda r: (r.s_gens, r.i_gens))
    return reports


def lift(S: NumericalSemigroup, I: RelativeIdeal) -> LiftResult:
    """Rebuild the candidate perfect brick suggested by a 2x2 brick.

    With I = (0, n) and dual (b1, b3), the lifted pair is the semigroup
    generated by b1, b1 + n, b3, b3 + n together with the ideal (0, n).
    Perfection of the result is reported through the returned check, never
    assumed.  When b1, b3 and n share a factor the quadruple generates no
    numerical semigroup at all and the construction raises NonCoprimeError;
    such bricks exist (e.g. (14, 30, 35, 45) with ideal (0, 3)).
    """
    if I.parent != S:
        raise ParentMismatchError("ideal does not belong to this semigroup")
    if I.min_gens[0] != 0:
        raise ZeroNotGeneratorError(
            f"the ideal's least generator is {I.min_gens[0]}, not 0")
    base = brick_check(S, I)
    if not (base.mu_ideal == 2 and base.mu_dual == 2 and base.is_brick):
        raise NotTwoByTwoError(
            f"(S, I) is {base.mu_ideal}x{base.mu_dual} with mu-sum "
            f"{base.mu_sum}, not a 2x2 brick")
    n = I.min_gens[1]
    b1, b3 = base.dual_ideal.min_gens
    quad = tuple(sorted((b1, b1 + n, b3, b3 + n)))
    if quad == S.min_gens:
        # the lifted pair is (S, I) itself, as for every unitary canonical
        # brick, and base is its check
        return LiftResult(quad, (0, n), base)
    lifted_s = NumericalSemigroup(quad)
    lifted_i = RelativeIdeal(lifted_s, (0, n))
    return LiftResult(quad, (0, n), brick_check(lifted_s, lifted_i))


# ------------------------------------------------------------------ workers

def _minimal_tuples(config: SearchConfig) -> Iterator[tuple[int, ...]]:
    # the minimal generating sets with gcd 1 that fit the bounds, in
    # lexicographic order
    bound = config.gen_max
    clip = (1 << (bound + 1)) - 1

    def extend(prefix: tuple[int, ...], reach: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) >= config.t_min and math.gcd(*prefix) == 1:
            yield prefix
        if len(prefix) == config.t_max:
            return
        start = prefix[-1] + 1 if prefix else 2
        for x in range(start, bound + 1):
            if (reach >> x) & 1:
                # x is a combination of the prefix: redundant in every
                # extension, prune the whole subtree
                continue
            yield from extend(prefix + (x,), _saturate(reach, x, bound, clip))

    return extend((), 1)


def _scan_chunk(args: tuple[tuple, SearchConfig]) -> list[BrickReport]:
    tuples, config = args
    return [r for gens in tuples
            for r in _scan_semigroup(NumericalSemigroup(gens), config)]


def _scan_semigroup(S: NumericalSemigroup,
                    config: SearchConfig) -> list[BrickReport]:
    """Scan all candidate ideals of one semigroup.

    Candidates form a tree rooted at (0,): a child appends to (0, *offsets)
    an offset x whose difference with each generator is a gap, so the
    root's children are the (0, g) for the gaps g <= frobenius - m.  A
    node's brick test (_bad_pairs) reads its bad-difference mask, whose bit
    D is set iff D + d or |D - d| is a member for a difference d of its
    generators: the OR of the per-gap masks bad[d], built once per
    semigroup.  Every hit is re-validated through ideal.brick_check before
    being reported.

    One walk visits the tree in pre-order and passes down the live pairs,
    so the lemma in _bad_pairs rules at every depth; every node prunes only
    from its own dual.  A child (0, ..., x) is skipped, untested, when a
    live pair's mask has bit x; it still roots a subtree, whose live pairs
    are the ones that skipped it.  A tested node's live pairs are the bad
    pairs of its dual, wanted at its children's offsets, and at a node
    (0, g) also the pairs that its children's new differences make bad.
    Leaves need only the OR of the masks, so only nodes with grandchildren
    keep the masks.
    """
    out: list[BrickReport] = []
    frob = S.frobenius
    top = frob - S.multiplicity
    if top < 1:
        return out
    cap = config.cap_for(len(S.min_gens))
    # offsets reach top, so the window covers the reads at D + d for two
    # dual generators D <= frobenius + m apart, and at x + w
    smask = S.element_mask(frob + S.multiplicity + top)
    window = (1 << (top + 1)) - 1
    gapmask = ~smask & window
    # character d of members is 1 iff d is a member, for d <= top
    members = f"{smask & window:0{top + 1}b}"[::-1]
    # bit top + p of folded is set iff |p| is a member, for p >= -top
    folded = (smask << top) | int(members, 2)
    reach = (1 << (frob + S.multiplicity + 1)) - 1
    bad = [0 if c == "1" else ((folded >> (top - d)) | (folded >> (top + d)))
           & reach for d, c in enumerate(members)]

    def report(gens: tuple[int, ...]) -> None:
        ideal = RelativeIdeal._trusted(S, gens)
        check = brick_check(S, ideal)
        if not check.is_brick:
            raise RuntimeError(
                f"scan kernel reported a brick that brick_check rejects: "
                f"semigroup {S.min_gens}, ideal {ideal.min_gens}")
        if check.is_perfect or not config.perfect_only:
            out.append(BrickReport.from_check(S, ideal, check))

    def walk(gens, diffs, cand, emask, kill, pairs):
        # the children gens + (x,), x in cand, of a node with dual emask and
        # bad-difference mask diffs; kill and pairs are the OR and the list
        # (or None) of its live pairs' masks
        if len(gens) + 1 == cap:
            # the children are leaves: the scan's inner loop
            rest = cand & ~kill
            while rest:
                low = rest & -rest
                rest ^= low
                x = low.bit_length() - 1
                child = diffs
                for a in gens:
                    child |= bad[x - a]
                if _bad_pairs(emask & (smask >> x), smask, child, 0, None,
                              bad, 0)[0]:
                    report(gens + (x,))
            return
        for x in _bits(cand):
            child = diffs
            for a in gens:
                child |= bad[x - a]
            sub = emask & (smask >> x)
            below = cand & (gapmask << x)
            live = [p for p in pairs if p >> x & 1]
            child_kill = 0
            for p in live:
                child_kill |= p
            if not live:
                live = [] if len(gens) + 3 <= cap else None
                is_brick, child_kill = _bad_pairs(
                    sub, smask, child, below, live, bad,
                    x if len(gens) == 1 else 0)
                if is_brick:
                    report(gens + (x,))
            if below:
                walk(gens + (x,), child, below, sub, child_kill, live)

    walk((0,), 0, gapmask, smask, 0, [])
    del walk  # frees the table now: the recursive closure is a cycle
    return out


def _bad_pairs(emask, smask, diffs, wanted, pairs, bad, g):
    """The brick test of an ideal I with dual emask and bad-difference mask
    diffs, and the pairs of its dual that rule out its children.

    Returns (is_brick, kill).  The minimal generators of S - I are extracted
    in ascending order; a pair a < b of them is *bad* when bit b - a of
    diffs is set.  The generator sums generate I + (S - I), and
    mu(I + (S - I)) = mu(I) * mu(S - I) iff no two sums coincide or differ
    by a member.  Two offsets of I differ by a gap, and so do two dual
    generators, so (S, I) is a brick iff the dual has at least two
    generators and no bad pair.

    The dual of a candidate is never principal, so the two-generator
    condition never rejects one, although brick_check's equation alone
    would accept mu(S - I) = 1.  Let F >= 0 be the Frobenius number.  As 0
    is in I, S - I lies within S; as every offset is non-negative, S - I
    holds every integer above F.  Were S - I = e + S, e would be a member.
    For e >= 1, e + S misses e + F > F.  For e = 0, S - I = S holds 0, so I
    lies within S, but the nonzero offsets of I are gaps.

    A bad pair (a, b) has the survival mask wanted & (smask >> a) &
    (smask >> b), whose bit x is set iff a and b stay in the dual once I
    gains the offset x; kill is the OR of these masks, each also appended to
    pairs unless pairs is None.  The extraction stops at a bad pair once
    kill holds every wanted bit: at once for wanted = 0.

    Lemma: for ideals I within I', S - I' lies within S - I, and a minimal
    generator w of S - I that lies in S - I' is minimal there too: were
    w = w' + s with w' in S - I' and s a nonzero member, then w' would lie
    in S - I as well, contradicting the minimality of w.  Now let (a, b) be
    a bad pair of S - I for a difference d of I, with a and b both in S - I'
    for an ideal I' whose generators include those of I.  By the lemma a
    and b are minimal generators of S - I'.  If b - a + d is a member, the
    generator sum b + d lies in the coset a + S; if e = |b - a - d| is a
    member, one of the sums b and a + d lies in the other's coset (they
    coincide when e = 0).  Either way mu(I' + (S - I')) < mu(I') *
    mu(S - I'), so (S, I') is no brick.  And a and b lie in S - I' iff
    every offset I' adds to I is a bit of their survival mask, at any depth.

    New differences.  At I = (0, g), called with g >= 1 and the per-gap
    table bad, a pair a < b that is not bad for g may still be bad for a
    child (0, g, x), whose new differences are x and x - g.  The table is
    symmetric: for gaps D and x up to frobenius - m, bit x of bad[D] is
    bit D of bad[x], since both say that D + x or |D - x| is a member.  So
    when D = b - a is at most frobenius - m (it is a gap, as the difference
    of two dual generators), bit D of bad[x] | bad[x - g] is bit x of
    bad[D] | bad[D] << g.  That mask times the pair's survival mask holds
    exactly the children in whose dual, by the lemma, (a, b) is a bad pair
    of minimal generators; it joins kill and pairs as a bad pair's mask
    does.  A deeper descendant inherits it only through offsets that are
    bits of it, so there a and b survive and one of its differences still
    makes them bad.  With g = 0 no such mask is formed: a deeper node's
    children add a new difference x - a for each of its generators a.
    """
    gens: list[int] = []
    is_bad = False
    kill = 0
    rest = emask
    while rest:
        w = (rest & -rest).bit_length() - 1
        for wi in gens:
            d = w - wi
            if diffs >> d & 1:
                if not wanted & ~kill:
                    return False, kill
                is_bad = True
                mask = wanted & (smask >> w) & (smask >> wi)
            elif g and d < len(bad):
                mask = (wanted & (smask >> w) & (smask >> wi)
                        & (bad[d] | bad[d] << g))
            else:
                continue
            kill |= mask
            if pairs is not None:
                pairs.append(mask)
        gens.append(w)
        rest &= ~(smask << w)
    return not is_bad and len(gens) >= 2, kill


# ------------------------------------------------------------------ reports

# a field holds one JSON value: a non-empty list of integers, an integer or
# a bool; its table cell is that value's compact JSON without brackets
_KINDS = {list: "a list of integers", int: "an integer", bool: "true or false"}
# (field name, line key, table column, kind) in BrickReport's field order
_SCHEMA = tuple(
    (f.name, key, column, {"tuple[int, ...]": list, "int": int,
                           "bool": bool}[f.type])
    for f, key, column in zip(
        fields(BrickReport),
        ("s", "i", "dual", "k", "m", "perfect", "mult", "frob"),
        TABLE_HEADER.split(";"), strict=True))


def _decode(label: str, raw, kind: type, cell: bool):
    # the field value of a JSON value, or of a table cell for cell=True
    value = raw
    if cell:
        try:
            value = json.loads(f"[{raw}]" if kind is list else raw)
        except json.JSONDecodeError:
            value = None  # of no kind: reported below
    if type(value) is kind and (kind is not list or value and all(
            type(x) is int for x in value)):
        return tuple(value) if kind is list else value
    raise ValueError(f"{label}: expected {_KINDS[kind]}, got {raw!r}")


def _require_format(fmt: str) -> None:
    if fmt not in REPORT_FORMATS:
        raise InvalidInputError(f"unknown report format {fmt!r}")


def _render(report: BrickReport, fmt: str) -> str:
    # one record in a format already checked by the caller
    if fmt == "line":
        return json.dumps({key: getattr(report, name)
                           for name, key, _, _ in _SCHEMA})
    return ";".join(
        json.dumps(getattr(report, name), separators=(",", ":")).strip("[]")
        for name, *_ in _SCHEMA)


def render_report(report: BrickReport, fmt: str = "line") -> str:
    _require_format(fmt)
    return _render(report, fmt)


def render_reports(reports: Iterable[BrickReport], fmt: str = "line") -> str:
    _require_format(fmt)
    lines = [_render(r, fmt) for r in reports]
    if fmt == "table":
        lines.insert(0, TABLE_HEADER)
    return "".join(line + "\n" for line in lines)


def write_reports(reports: Iterable[BrickReport],
                  destination: str | Path | IO[str],
                  fmt: str = "line") -> None:
    """Serialize reports to a path or open text file; output is byte-stable
    for identical report lists."""
    payload = render_reports(reports, fmt)
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        Path(destination).write_text(payload)


def read_reports(source: str | Path | IO[str],
                 fmt: str = "line") -> list[BrickReport]:
    """Parse the output of write_reports back into report records, skipping
    blank lines.  A malformed record (not a JSON object, a missing key, a
    wrong cell count, a value of the wrong kind) raises InvalidInputError
    naming its 1-based line."""
    _require_format(fmt)
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line]
    if fmt == "table":
        if not lines or lines[0][1] != TABLE_HEADER:
            raise InvalidInputError("missing table header")
        del lines[0]
    out = []
    for n, line in lines:
        try:
            out.append(BrickReport(*_read_record(line, fmt)))
        except ValueError as exc:
            raise InvalidInputError(f"line {n}: {exc}") from None
    return out


def _read_record(line: str, fmt: str) -> list:
    # the field values of one record; a ValueError names what is malformed
    if fmt == "line":
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            obj = None
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        missing = [key for _, key, _, _ in _SCHEMA if key not in obj]
        if missing:
            raise ValueError(f"missing key {missing[0]!r}")
        return [_decode(key, obj[key], kind, False)
                for _, key, _, kind in _SCHEMA]
    cells = line.split(";")
    if len(cells) != len(_SCHEMA):
        raise ValueError(f"expected {len(_SCHEMA)} cells, got {len(cells)}")
    return [_decode(column, cell, kind, True)
            for (_, _, column, kind), cell in zip(_SCHEMA, cells)]


def summarize(reports: list[BrickReport]) -> str:
    """Counts by dimension, by multiplicity and of perfect hits, plus both
    the pair count and the distinct-semigroup count."""
    dims = Counter(f"{r.k}x{r.m}" for r in reports)
    mults = Counter(r.multiplicity for r in reports)
    perfect_dims = Counter(f"{r.k}x{r.m}" for r in reports if r.perfect)

    def counts(counter: Counter) -> str:
        return " ".join(f"{k}={v}" for k, v in sorted(counter.items())) or "none"

    return "\n".join([
        f"bricks: {len(reports)} pairs, "
        f"{len({r.s_gens for r in reports})} distinct semigroups, "
        f"{perfect_dims.total()} perfect",
        "by dimensions: " + counts(dims),
        "by multiplicity: " + counts(mults),
        "perfect by dimensions: " + counts(perfect_dims),
    ])
