"""Exhaustive search for brick pairs over bounded generator spaces.

Semigroups come from one walk of the pruned tree of generator tuples
(_minimal_tuples): a tuple grows only by integers its prefix cannot already
reach, so every tuple in the tree is a minimal generating set, and the ones
with gcd 1 are the semigroups, in lexicographic order.  For each semigroup the
candidate ideals contain 0 plus nonzero offsets up to frobenius minus
multiplicity, with at most 1 + t // 2 generators for a t-generated
semigroup, emitted only when the tuple is already minimal.  Candidates that
survive the pruning below go through an inlined form of the brick test
(_brick_dual_gens).  Every hit is re-validated through ideal.brick_check
before it becomes a BrickReport record; a disagreement raises RuntimeError,
an explicit check that python -O keeps.

Most three-generator candidates (0, u, v) never reach the kernel.  The duals
of the two-generator ideals (0, g) are extracted in full once per semigroup;
a pair of their minimal generators that already breaks the brick condition
rules out every larger ideal whose dual still holds both ends, and these
rulings become one bitmask per gap (see _kill_mask).  The pruning is exact:
the tests compare the scan with the unpruned one over whole spaces.

The search cuts that walk into chunks of 512 generator tuples and fans them
out to worker processes, which construct and scan each semigroup; workers
own their result lists and a final sort by (semigroup, ideal) generators
makes the output independent of scheduling.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path
from typing import IO, Iterable, Iterator

from .errors import (
    InvalidInputError,
    NotTwoByTwoError,
    ParentMismatchError,
    ZeroNotGeneratorError,
)
from .ideal import BrickCheck, RelativeIdeal, _bits, brick_check, dual_window
from .sgcore import NumericalSemigroup

TABLE_HEADER = "s_gens;i_gens;dual_gens;k;m;perfect;mult;frob"


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
        if self.t_min < 2:
            raise InvalidInputError("t_min must be at least 2")
        if self.t_max < self.t_min:
            raise InvalidInputError("t_max must be at least t_min")
        if self.gen_max < 2:
            raise InvalidInputError("gen_max must be at least 2")
        if self.mu_cap is not None and self.mu_cap < 2:
            raise InvalidInputError("mu_cap must be at least 2")
        if self.worker_count < 1:
            raise InvalidInputError("worker_count must be at least 1")

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
    offsets and their pairwise differences are all gaps."""
    top = S.frobenius - S.multiplicity
    if S.frobenius < 0 or top < 1:
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


def _saturate(reach: int, step: int, bound: int, clip: int) -> int:
    # close the reachability bitset under adding `step`, up to `bound`
    while step <= bound:
        reach |= (reach << step) & clip
        step <<= 1
    return reach


def _scan_chunk(args: tuple[tuple, SearchConfig]) -> list[BrickReport]:
    tuples, config = args
    return [r for gens in tuples
            for r in _scan_semigroup(NumericalSemigroup(gens), config)]


def _scan_semigroup(S: NumericalSemigroup,
                    config: SearchConfig) -> list[BrickReport]:
    """Scan all candidate ideals of one semigroup.

    The inner test is an exact inlined form of the brick condition:
    mu(I + J) equals mu(I) * mu(J) iff the pairwise generator sums are
    distinct and no difference of two sums is a member (the sums generate
    I + J, and its minimal generating set is their greedy reduction).  Every
    hit is re-validated through ideal.brick_check before being reported.

    Three-generator candidates are first filtered by kill masks (see
    _kill_mask): for every gap g, bit x of kill[g] is set when a bad pair of
    S - (0, g) survives into S - (0, g, x), which rejects (0, g, x) without
    running the kernel.  (0, u, v) is skipped when kill[u] marks v or
    kill[v] marks u, because it contains both (0, u) and (0, v).
    """
    out: list[BrickReport] = []
    frob = S.frobenius
    top = frob - S.multiplicity
    if frob < 0 or top < 1:
        return out
    cap = config.cap_for(len(S.min_gens))
    # offsets reach top, so the window also covers the kill masks' reads
    # at x + w for x <= top and a dual generator w <= frobenius + m
    smask = S.element_mask(dual_window(S, top))
    gapmask = ~smask & ((1 << (top + 1)) - 1)
    table = S.apery_table
    m = S.multiplicity
    gaps = _bits(gapmask)

    def report(offsets: tuple[int, ...]) -> None:
        ideal = RelativeIdeal._trusted(S, (0, *offsets))
        check = brick_check(S, ideal)
        if not check.is_brick:
            raise RuntimeError(
                f"scan kernel reported a brick that brick_check rejects: "
                f"semigroup {S.min_gens}, ideal {ideal.min_gens}")
        if check.is_perfect or not config.perfect_only:
            out.append(BrickReport.from_check(S, ideal, check))

    def deeper(offsets: tuple[int, ...], cand: int, emask: int) -> None:
        # generic extension for mu caps beyond 3
        for x in _bits(cand):
            ext = offsets + (x,)
            ds = [b - a for a in (0, *ext) for b in ext if b > a]
            sub = emask & (smask >> x)
            if _brick_dual_gens(sub, smask, tuple(set(ds)), table, m) is not None:
                report(ext)
            if len(ext) + 1 < cap:
                deeper(ext, cand & (gapmask << x), sub)

    # kill masks feed level 3 only; without it they are not built
    wanted = gapmask if cap >= 3 else 0
    brick = {}
    kill = {}
    for g in gaps:
        brick[g], kill[g] = _kill_mask(smask & (smask >> g), smask, g,
                                       table, m, wanted)
    for u in gaps:
        if brick[u]:
            report((u,))
        if cap < 3:
            continue
        emask_u = smask & (smask >> u)
        kill_u = kill[u]
        cand_u = gapmask & (gapmask << u)
        # above cap 3 a killed (0, u, v) still roots larger ideals, whose
        # duals may have lost an end of the bad pair
        for v in _bits(cand_u if cap > 3 else cand_u & ~kill_u):
            emask_uv = emask_u & (smask >> v)
            if not ((kill_u >> v) | (kill[v] >> u)) & 1 and _brick_dual_gens(
                    emask_uv, smask, (u, v, v - u), table, m) is not None:
                report((u, v))
            if cap >= 4:
                deeper((u, v), cand_u & (gapmask << v), emask_uv)
    return out


def _kill_mask(emask, smask, delta, table, m, wanted):
    """Decide the brick test for I = (0, delta) and build its kill mask.

    Returns (is_brick, kill).  The minimal generators of the dual S - I are
    extracted in order; a pair a < b of them is *bad* when b - a + delta or
    |b - a - delta| is a member, which is exactly the kernel's rejection for
    delta.  I is a brick iff the dual has at least two generators and no
    bad pair.  Bit x of kill, for the offsets x in the mask wanted, is set
    iff some bad pair (a, b) has a + x and b + x both members, i.e. both
    stay in S - (0, delta, x).  The extraction stops at a bad pair once
    every wanted bit is set, so with wanted = 0 it is the kernel's early
    abort.

    Lemma: for ideals I within I', S - I' lies within S - I, and a minimal
    generator w of S - I that lies in S - I' is minimal there too: were
    w = w' + s with w' in S - I' and s a nonzero member, then w' would lie
    in S - I as well, contradicting the minimality of w.  Now let (a, b) be
    a bad pair of S - (0, delta) with a and b both in S - I' for some I'
    containing 0 and delta (so delta is a difference of two generators of
    I').  By the lemma a and b are minimal generators of S - I'.  If
    b - a + delta is a member, the generator sum b + delta lies in the coset
    a + S; if e = |b - a - delta| is a member, one of the sums b and
    a + delta lies in the other's coset (they coincide when e = 0).  Either
    way mu(I' + (S - I')) < mu(I') * mu(S - I'), so (S, I') is no brick.
    For I' = (0, delta, x) the two memberships are exactly bit x of kill.
    """
    gens: list[int] = []
    bad = False
    kill = 0
    rest = emask
    while rest:
        w = (rest & -rest).bit_length() - 1
        for wi in gens:
            d = w - wi + delta
            if d < table[d % m]:
                d = w - wi - delta
                if d < 0:
                    d = -d
                if d < table[d % m]:
                    continue
            if not wanted & ~kill:
                return False, kill
            bad = True
            kill |= wanted & (smask >> w) & (smask >> wi)
        gens.append(w)
        rest &= ~(smask << w)
    return not bad and len(gens) >= 2, kill


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


# ------------------------------------------------------------------ reports

def render_report(report: BrickReport, fmt: str = "line") -> str:
    if fmt == "line":
        return json.dumps({
            "s": list(report.s_gens),
            "i": list(report.i_gens),
            "dual": list(report.dual_gens),
            "k": report.k,
            "m": report.m,
            "perfect": report.perfect,
            "mult": report.multiplicity,
            "frob": report.frobenius,
        })
    if fmt == "table":
        return ";".join([
            ",".join(map(str, report.s_gens)),
            ",".join(map(str, report.i_gens)),
            ",".join(map(str, report.dual_gens)),
            str(report.k),
            str(report.m),
            "true" if report.perfect else "false",
            str(report.multiplicity),
            str(report.frobenius),
        ])
    raise InvalidInputError(f"unknown report format {fmt!r}")


def render_reports(reports: Iterable[BrickReport], fmt: str = "line") -> str:
    lines = [render_report(r, fmt) for r in reports]
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
    """Parse the output of write_reports back into report records."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    lines = [line for line in text.splitlines() if line]
    out = []
    if fmt == "line":
        for line in lines:
            obj = json.loads(line)
            out.append(BrickReport(
                s_gens=tuple(obj["s"]),
                i_gens=tuple(obj["i"]),
                dual_gens=tuple(obj["dual"]),
                k=obj["k"],
                m=obj["m"],
                perfect=obj["perfect"],
                multiplicity=obj["mult"],
                frobenius=obj["frob"],
            ))
        return out
    if fmt == "table":
        if not lines or lines[0] != TABLE_HEADER:
            raise InvalidInputError("missing table header")
        for line in lines[1:]:
            s, i, dual, k, m, perfect, mult, frob = line.split(";")
            out.append(BrickReport(
                s_gens=tuple(int(x) for x in s.split(",")),
                i_gens=tuple(int(x) for x in i.split(",")),
                dual_gens=tuple(int(x) for x in dual.split(",")),
                k=int(k),
                m=int(m),
                perfect=perfect == "true",
                multiplicity=int(mult),
                frobenius=int(frob),
            ))
        return out
    raise InvalidInputError(f"unknown report format {fmt!r}")


def summarize(reports: list[BrickReport]) -> str:
    """Counts by dimension, by multiplicity and of perfect hits, plus both
    the pair count and the distinct-semigroup count."""
    dims: dict[str, int] = {}
    mults: dict[int, int] = {}
    perfect_dims: dict[str, int] = {}
    semis = set()
    perfect_count = 0
    for r in reports:
        key = f"{r.k}x{r.m}"
        dims[key] = dims.get(key, 0) + 1
        mults[r.multiplicity] = mults.get(r.multiplicity, 0) + 1
        semis.add(r.s_gens)
        if r.perfect:
            perfect_count += 1
            perfect_dims[key] = perfect_dims.get(key, 0) + 1
    lines = [
        f"bricks: {len(reports)} pairs, {len(semis)} distinct semigroups, "
        f"{perfect_count} perfect",
        "by dimensions: " + (" ".join(
            f"{k}={v}" for k, v in sorted(dims.items())) or "none"),
        "by multiplicity: " + (" ".join(
            f"{k}={v}" for k, v in sorted(mults.items())) or "none"),
        "perfect by dimensions: " + (" ".join(
            f"{k}={v}" for k, v in sorted(perfect_dims.items())) or "none"),
    ]
    return "\n".join(lines)
