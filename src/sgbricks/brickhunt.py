"""Exhaustive search for brick pairs over bounded generator spaces.

Semigroups come from one walk of the pruned tree of generator tuples
(_minimal_tuples): a tuple grows only by integers its prefix cannot already
reach, so every tuple in the tree is a minimal generating set, and the ones
with gcd 1 are the semigroups, in lexicographic order.  For each semigroup the
candidate ideals form one tree rooted at (0,): a child appends a nonzero
offset up to frobenius minus multiplicity whose difference with each
generator is a gap, so every node is already a minimal generating set, and
the tree stops at 1 + t // 2 generators for a t-generated semigroup.
enumerate_ideals walks it with nothing pruned; the search
(_scan_semigroup) walks it with pruning (_walk_candidates).  For each child
the walk reads the minimal generators W of its dual D off D's bitset and
applies the headroom rule inline: a w above frobenius - max I rules out the
child and its whole subtree at once, before any call.  The kernel
(_bad_generators) decides the rest with a few shifts: (S, I) is a brick iff
no w in W has w + delta in D for a difference delta of two generators of I.
Each such w and w + delta also break it for every larger ideal whose dual
still holds both, and at a node whose children are leaves the kernel
returns one kill bitset of the children's offsets that keep such a pair.
The walk skips what the kill rules out, each node pruning only from its own
dual.  The pruning is exact, checked against an independent unpruned scan
over whole spaces.
Every hit is re-validated through ideal.brick_check; a disagreement raises
RuntimeError, an explicit check that python -O keeps.

The search maps _scan_semigroup over the generator tuples of the semigroup
walk: each call constructs its semigroup and returns its hits in pre-order
of its candidate tree.  At one worker that is a plain map; above it,
Pool.imap hands at most MAX_WORKERS worker processes chunks of 512 tuples
(its chunksize) and yields the results in input order.  So the output is
ordered by (semigroup, ideal) generators with no final sort, whatever the
scheduling.

One record schema serves both report formats and the read-back: each field
of BrickReport, its key in the JSON lines, its column in TABLE_HEADER and its
kind (a generator list, an integer or a bool).  A table cell is the field's
compact JSON without brackets, and read_reports checks every value against
its kind, so a malformed record raises InvalidInputError naming its line.
"""

from __future__ import annotations

import functools
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
    ResourceLimitError,
    ZeroNotGeneratorError,
)
from .ideal import BrickCheck, RelativeIdeal, _bits, brick_check
from .sgcore import MAX_MASK_BITS, NumericalSemigroup, _over_budget, _saturate

REPORT_FORMATS = ("line", "table")
TABLE_HEADER = "s_gens;i_gens;dual_gens;k;m;perfect;mult;frob"
MAX_WORKERS = 256  # one process each: more only exhausts the process table


@dataclass(frozen=True)
class SearchConfig:
    """Bounds of a search space and its worker count.

    mu_cap of None applies the default ideal-size cap 1 + t // 2, where t is
    the size of each semigroup's minimal generating set.
    """

    t_min: int = 2
    t_max: int = 5
    gen_max: int = 50
    mu_cap: int | None = None
    worker_count: int = 1

    def __post_init__(self):
        for name in ("t_min", "t_max", "gen_max", "mu_cap", "worker_count"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "mu_cap" and value is None):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        if self.t_min < 2:
            raise InvalidInputError("t_min must be at least 2")
        if self.t_max < self.t_min:
            raise InvalidInputError("t_max must be at least t_min")
        if self.gen_max < 2:
            raise InvalidInputError("gen_max must be at least 2")
        if self.gen_max >= MAX_MASK_BITS:
            # the semigroup walk's reachability bitset has gen_max + 1 bits
            raise _over_budget("a reachability", self.gen_max + 1)
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
    frobenius - multiplicity, in lexicographic order: the candidate tree
    the search scans (see _walk_candidates), walked in pre-order with
    nothing pruned.  Tuples that are not minimal generating sets are never
    formed: offsets and their pairwise differences are all gaps.  No brick
    is lost above frobenius - multiplicity: tests/test_brickhunt.py
    (test_offset_bound_loses_no_brick) runs brick_check on every minimal
    candidate with an offset in that band, over five spaces at the default
    cap and at cap 4, and finds none."""
    top = S.frobenius - S.multiplicity
    if top < 1:
        return
    cap = config.cap_for(len(S.min_gens))
    gapmask = ~S.element_mask(top) & ((1 << (top + 1)) - 1)
    found: list[tuple[int, ...]] = []

    def walk(gens, cand):
        # the children gens + (x,), x in cand, and their subtrees
        for x in _bits(cand):
            child = gens + (x,)
            found.append(child)
            if len(child) < cap:
                walk(child, cand & (gapmask << x))

    walk((0,), gapmask)
    del walk  # the recursive closure is a cycle
    for gens in found:
        yield RelativeIdeal._trusted(S, gens)


def search(config: SearchConfig) -> list[BrickReport]:
    """The reports of every brick in the space, ordered by (s_gens, i_gens)
    regardless of worker count: the kernel decides each candidate pair, and
    brick_check re-validates each hit."""
    tuples = _minimal_tuples(config)
    scan = functools.partial(_scan_semigroup, config=config)
    if config.worker_count <= 1:
        return [r for hits in map(scan, tuples) for r in hits]
    with Pool(config.worker_count) as pool:
        return [r for hits in pool.imap(scan, tuples, chunksize=512)
                for r in hits]


def lift(S: NumericalSemigroup, I: RelativeIdeal) -> LiftResult:
    """Rebuild the candidate perfect brick suggested by a 2x2 brick.

    With I = (0, n) and dual (b1, b3), the lifted pair is the semigroup
    generated by b1, b1 + n, b3, b3 + n together with the ideal (0, n).
    Perfection of the result is reported through the returned check, never
    assumed.  When b1, b3 and n share a factor the quadruple generates no
    numerical semigroup at all and the construction raises NonCoprimeError;
    such bricks exist (e.g. (14, 30, 35, 45) with ideal (0, 3)).
    """
    base = brick_check(S, I)  # raises ParentMismatchError for a foreign I
    if I.min_gens[0] != 0:
        raise ZeroNotGeneratorError(
            f"the ideal's least generator is {I.min_gens[0]}, not 0")
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


def _scan_semigroup(gens: tuple[int, ...],
                    config: SearchConfig) -> list[BrickReport]:
    """The reports of the bricks of the semigroup with minimal generators
    gens, in pre-order of the candidate tree: the hits of _walk_candidates,
    each re-validated through ideal.brick_check."""
    S = NumericalSemigroup(gens)
    out: list[BrickReport] = []
    for i_gens in _walk_candidates(S, config.cap_for(len(S.min_gens))):
        ideal = RelativeIdeal._trusted(S, i_gens)
        check = brick_check(S, ideal)
        if not check.is_brick:
            raise RuntimeError(
                f"scan kernel reported a brick that brick_check rejects: "
                f"semigroup {S.min_gens}, ideal {ideal.min_gens}")
        out.append(BrickReport.from_check(S, ideal, check))
    return out


def _walk_candidates(S: NumericalSemigroup, cap: int) -> list[tuple[int, ...]]:
    """The generator tuples of the candidate ideals of one semigroup with
    at most cap generators that the walk finds to be bricks, as a list in
    pre-order; empty when frobenius - m < 1, where the tree has no node but
    its root.

    Candidates form a tree rooted at (0,): a child appends to (0, *offsets)
    an offset x whose difference with each generator is a gap, so the
    root's children are the (0, g) for the gaps g <= frobenius - m, and
    pre-order is lexicographic order.  Each node reads its offsets from the
    top, so the hits come out of order, and one sort at the end puts them
    in pre-order.

    For each child I the walk masks its parent's dual to D = S - I, reads
    the minimal generators W of D off that bitset (w is in D and no w - a
    is, for a an atom of S), and applies the headroom rule itself: a child
    whose W holds a w above F - x, x its newest and largest offset, is
    dropped with its whole subtree, before its differences are built and
    before any call.  Then w + x > F, so w + x + z > F is a member for
    every generator z, w + x is in D, and delta = x is a difference of I:
    (S, I) is no brick.  An ideal I' of the subtree adds
    offsets y > x, and w + y and w + x + y exceed F, so by the lemma in
    _bad_generators (S, I') is no brick either.  So every minimal generator
    of S - I for a brick lies at or below F - max I, and so does every w
    that reaches _bad_generators.

    One loop serves every child, leaves included.  A child past the
    headroom rule gets the pair test of _bad_generators, whose kill drops
    offsets from its children: a node whose children are leaves wants their
    offsets, and a leaf is skipped, untested, when its parent's bad pairs
    rule it out.  A higher node wants none, and so does a leaf, which has no
    children: its kill is 0 and the walk never recurses into it.  A child
    that a bad pair of an ancestor rules out is tested itself, and by the
    lemma its own dual yields the same pair, so its kill holds every bit
    the ancestor's would have passed down.
    """
    frob, m = S.frobenius, S.multiplicity
    top = frob - m
    if top < 1:
        return []
    # the window of _bad_generators: the root's dual is masked to
    # [0, F + m] once, and a child's dual reads smask at most top above it
    smask = S.element_mask(frob + m + top)
    gapmask = ~smask & ((1 << (top + 1)) - 1)
    atoms = S.min_gens
    room = frob + 1  # a child with offset x drops at a w >= room - x
    found: list[tuple[int, ...]] = []

    def walk(gens, diffs, cand, dual):
        # the children gens + (x,), x in cand, of a node with dual bitset
        # dual and positive differences diffs
        rest = cand
        inner = len(gens) + 1 < cap  # the children have children
        last = len(gens) + 2 == cap  # the children's children are leaves
        while rest:
            x = rest.bit_length() - 1
            rest ^= 1 << x
            sub = dual & (smask >> x)
            lows = 0
            for a in atoms:
                lows |= sub << a
            mins = sub & ~lows
            if mins >> (room - x):
                continue
            child = diffs + tuple(map(x.__sub__, gens))
            below = cand & (gapmask << x) if inner else 0
            accepted, kill = _bad_generators(sub, mins, smask, child,
                                             below if last else 0)
            if accepted:
                found.append(gens + (x,))
            below &= ~kill
            if below:
                walk(gens + (x,), child, below, sub)

    walk((0,), (), gapmask, smask & ((2 << (frob + m)) - 1))
    del walk  # frees the semigroup now: the recursive closure is a cycle
    found.sort()
    return found


def _bad_generators(dual, mins, smask, diffs, wanted):
    """The pair test of a candidate ideal I past the walk's headroom rule,
    from the bitset dual of D = S - I, the bitset mins of its minimal
    generators W, the positive differences diffs of its generators, with
    the bitset kill of the offsets, bits of wanted, whose extensions of I
    it rules out.

    Returns (is_brick, kill).  Let I have generators z_1 < ... < z_k,
    k >= 2.  The k * mu(D) sums z_i + w generate I + D, and (S, I) is a
    brick iff they are distinct and all minimal.  Within one translate
    z_i + W they are: W is minimal.  So the brick test fails iff some
    z_i + w lies in z_j + D for j != i, that is, iff w + delta is in D for a
    minimal generator w and a signed difference delta = z_i - z_j.  Hence
    (S, I) is a brick iff W misses D - delta for every delta: in bits,
    mins & ((dual >> d) | (dual << d)) is 0 for every d in diffs.  Every w
    lies at or below F + m, F the Frobenius number and m the multiplicity,
    since w - m > F would be in D.

    The window rests on the walk's headroom rule (see _walk_candidates):
    every w lies at or below F - max I.  dual is D within [0, F + m], and
    smask, the member bitset, is complete through F + m + top, where
    top = F - m bounds every offset and every difference of I.  The set
    bits of dual are a prefix of D, so mins, read off it, is exact: each
    w - a lies below w.  As w <= F - max I and d <= max I, the test reads D
    at w + d <= F, and a kill mask reads smask at v + d + x <= F + top,
    v + d <= F the upper end of a bad pair and x <= top an offset.  A
    caller that skips the headroom rule reads D at w + d <= F + m + top and
    smask at v + d + x <= F + m + 2 * top: it must pass a dual complete
    through F + m + top and an smask complete through F + m + 2 * top.  A
    dual longer than [0, F + m] gives the same mins, since each of its bits
    w above F + m has w - m in D.

    The dual of a candidate is never principal, so a brick found here has
    mu(D) >= 2.  As 0 is in I, D lies within S; as every offset is
    non-negative, D holds every integer above F.  Were D = e + S, e would
    be a member.  For e >= 1, e + S misses e + F > F.  For e = 0, D = S
    holds 0, so I lies within S, but the nonzero offsets of I are gaps.

    Lemma: for ideals I within I', S - I' lies within S - I, and a minimal
    generator w of S - I that lies in S - I' is minimal there too: were
    w = w' + s with w' in S - I' and s a nonzero member, then w' would lie
    in S - I as well, contradicting the minimality of w.  Now let w be in
    W with w + delta in D for a difference delta of I, and let I' be an
    ideal whose generators include those of I with w and w + delta both
    in S - I'.  By the lemma w is a minimal generator of S - I', and delta
    is a difference of I', so (S, I') is no brick.  w and w + delta lie in
    S - I' iff every offset x that I' adds to I keeps w + x and
    w + delta + x members, at any depth: for delta = d that is bit x of
    (smask & (smask >> d)) >> w, and for delta = -d it is bit x of
    (smask & (smask >> d)) >> (w - d).  Both read the pair at its lower end
    v, the bits of up | (down >> d) below, visited from the top.  Each such
    mask, times wanted, is ORed into kill, and the test stops at the lower
    end that makes kill hold every wanted bit; at the first failing
    difference for wanted = 0.

    diffs may repeat a difference: the walk passes (2, 4, 2) for (0, 2, 4).
    A repeat re-tests the same bits and ORs in equal masks, so neither
    is_brick nor kill changes.
    """
    is_brick = True
    kill = 0
    for d in diffs:
        up = mins & (dual >> d)
        down = mins & (dual << d)
        if not up | down:
            continue
        if not wanted:
            return False, 0
        is_brick = False
        both = smask & (smask >> d)
        ends = up | down >> d
        while ends:  # not _bits: it may stop at the first end it reads
            v = ends.bit_length() - 1
            ends ^= 1 << v
            kill |= wanted & (both >> v)
            if kill == wanted:
                return False, kill
    return is_brick, kill


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


def render_reports(reports: Iterable[BrickReport], fmt: str = "line") -> str:
    _require_format(fmt)
    if fmt == "line":
        lines = [json.dumps({key: getattr(r, name)
                             for name, key, _, _ in _SCHEMA})
                 for r in reports]
    else:
        lines = [TABLE_HEADER] + [";".join(
            json.dumps(getattr(r, name), separators=(",", ":")).strip("[]")
            for name, *_ in _SCHEMA) for r in reports]
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
