"""The brick kernel and its pruning: the criterion against brick_check and
the oracles, exactness of the pruned scan against the unpruned reference
scan at every ideal size, the lemma the pruning rests on, and re-validation
of every hit by checks that python -O keeps."""

import ast
import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sgbricks import brickhunt
from sgbricks.brickhunt import (
    SearchConfig,
    enumerate_ideals,
    enumerate_semigroups,
    search,
    _bad_generators,
    _scan_semigroup,
)
from sgbricks.ideal import RelativeIdeal, _bits, brick_check
from sgbricks.sgcore import NumericalSemigroup

from oracles import (
    brute_dual_elements,
    brute_frobenius,
    brute_minimal_generators,
)
from reference_scan import reference_scan_semigroup

SRC = Path(__file__).resolve().parents[1] / "src"


# ------------------------------------------------------- differential tests

@pytest.mark.parametrize("config,hits", [
    (SearchConfig(t_min=4, t_max=4, gen_max=27), 76),
    (SearchConfig(t_min=5, t_max=5, gen_max=22), 0),
    (SearchConfig(t_min=4, t_max=4, gen_max=20, mu_cap=4), 2),
    (SearchConfig(t_min=3, t_max=3, gen_max=22, mu_cap=4), 10),
    (SearchConfig(t_min=4, t_max=4, gen_max=18, mu_cap=5), 2),
    (SearchConfig(t_min=2, t_max=5, gen_max=22), 15),
    (SearchConfig(t_min=6, t_max=6, gen_max=21), 3),
], ids=["t4-27", "t5-22", "t4-20-cap4", "t3-22-cap4", "t4-18-cap5",
        "t2to5-22", "t6-21"])
def test_scan_matches_reference_over_whole_space(config, hits):
    found = 0
    for S in enumerate_semigroups(config):
        got = _scan_semigroup(S.min_gens, config)
        assert got == reference_scan_semigroup(S, config), S.min_gens
        # the bound behind the proved cap: k * mu(S - I) <= multiplicity
        assert all(r.k * r.m <= r.multiplicity for r in got), S.min_gens
        found += len(got)
    assert found == hits


@pytest.mark.parametrize("gens,ideal", [
    ((12, 15, 17, 18), (0, 1, 3, 6)),
    ((12, 21, 30, 31), (0, 3, 9, 14)),
])
def test_scan_matches_reference_on_four_generator_bricks(gens, ideal):
    # at caps above 3 a (0, u, v) that is no brick must still root its
    # extensions: (0, 3, 9) over (12, 21, 30, 31) is none, (0, 3, 9, 14) is
    cfg = SearchConfig(t_min=4, t_max=4, gen_max=31, mu_cap=4)
    S = NumericalSemigroup(gens)
    got = _scan_semigroup(S.min_gens, cfg)
    assert got == reference_scan_semigroup(S, cfg)
    assert ideal in [r.i_gens for r in got]


@pytest.mark.parametrize("cap,hits", [
    (4, [((0, 5), 2, 5)]),
    (5, [((0, 2, 3, 6, 9), 5, 2), ((0, 5), 2, 5)]),
], ids=["cap4", "cap5"])
def test_cap_excludes_the_brick_one_generator_past_it(cap, hits):
    # the one 5x2 brick of t5/gen<=24 at cap 5: a scan, or a reference,
    # that walked one level past cap 4 would report it there too
    cfg = SearchConfig(t_min=5, t_max=5, gen_max=24, mu_cap=cap)
    S = NumericalSemigroup((15, 18, 21, 22, 24))
    got = _scan_semigroup(S.min_gens, cfg)
    assert got == reference_scan_semigroup(S, cfg)
    assert [(r.i_gens, r.k, r.m) for r in got] == hits


def counting_kernel(monkeypatch):
    calls = []
    kernel = brickhunt._bad_generators

    def counting(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(brickhunt, "_bad_generators", counting)
    return calls


def test_pruning_skips_most_kernel_calls(monkeypatch):
    cfg = SearchConfig(t_min=4, t_max=4, gen_max=25)
    sizes = [len(I.min_gens) for S in enumerate_semigroups(cfg)
             for I in enumerate_ideals(S, cfg)]
    candidates = len(sizes)
    assert candidates == 701_443
    calls = counting_kernel(monkeypatch)
    reports = search(cfg)
    assert len(reports) == 31
    # every (0, g) is tested once; the rest test three generators.  Killing
    # by bad pairs of the dual's minimal generators, the scan made 201,175
    # calls
    assert len(calls) == 109_966
    assert len(calls) <= 201_175
    calls_above_two = len(calls) - sizes.count(2)
    assert calls_above_two == 46_200
    assert calls_above_two <= 0.35 * candidates


def test_pruning_reaches_four_generators(monkeypatch):
    # with no pruning past three generators the scan made 358,122 calls
    calls = counting_kernel(monkeypatch)
    reports = search(SearchConfig(t_min=4, t_max=4, gen_max=20, mu_cap=4))
    assert len(reports) == 2
    assert len(calls) == 50_902
    assert len(calls) <= 358_122 // 2


def test_pruning_at_cap_five(monkeypatch):
    # only the headroom test prunes above the leaves' parents, so a node
    # that a bad pair of an ancestor rules out is tested itself
    cfg = SearchConfig(t_min=4, t_max=4, gen_max=18, mu_cap=5)
    candidates = sum(1 for S in enumerate_semigroups(cfg)
                     for _ in enumerate_ideals(S, cfg))
    assert candidates == 327_783
    calls = counting_kernel(monkeypatch)
    reports = search(cfg)
    assert len(reports) == 2
    assert len(calls) == 30_743
    assert len(calls) <= candidates // 10


def candidate_args(S, gens, smask, dual):
    # _bad_generators' arguments but wanted for the candidate
    # gens = (0, *offsets), up to the order of the differences, from the
    # member bitset smask and the dual of (0,): the last is the headroom
    # F - max I
    for z in gens[1:]:
        dual &= smask >> z
    diffs = tuple(q - p for p, q in itertools.combinations(gens, 2))
    return dual, smask, S.min_gens, diffs, S.frobenius - gens[-1]


def kernel_args(S, gens, smask=None):
    # the arguments _walk_candidates passes: a dual masked to [0, F + m] at
    # the root, over a member bitset through F + m + top, top = F - m.
    # smask, if given, is that member bitset, built once for many candidates
    frob, m = S.frobenius, S.multiplicity
    if smask is None:
        smask = S.element_mask(frob + m + (frob - m))
    return candidate_args(S, gens, smask, smask & ((2 << (frob + m)) - 1))


def wide_args(S, gens):
    # the window a caller needs with the headroom test off: an unmasked
    # dual over a member bitset through F + m + 2 * top
    frob, m = S.frobenius, S.multiplicity
    smask = S.element_mask(frob + m + 2 * (frob - m))
    return candidate_args(S, gens, smask, smask)


def pair_args(S, gens):
    # wide_args with the headroom test off (headroom F + m lies above every
    # minimal generator of the dual), for a wanted mask that holds offsets
    # at or below max I: the kill is then the bad pairs' masks, not the -1
    # of the headroom test.  It needs the wide window: its pairs reach past F
    return wide_args(S, gens)[:4] + (S.frobenius + S.multiplicity,)


@pytest.mark.parametrize("config", [
    SearchConfig(t_min=4, t_max=4, gen_max=20),
    SearchConfig(t_min=5, t_max=5, gen_max=19),
    SearchConfig(t_min=4, t_max=4, gen_max=17, mu_cap=4),
    SearchConfig(t_min=3, t_max=3, gen_max=16, mu_cap=4),
    SearchConfig(t_min=4, t_max=4, gen_max=16, mu_cap=5),
], ids=["t4-20", "t5-19", "t4-17-cap4", "t3-16-cap4", "t4-16-cap5"])
def test_every_skipped_candidate_has_a_bad_pair(monkeypatch, config):
    # a skipped candidate I' needs a sub-ideal J of I' that holds 0, a
    # minimal generator w of S - J and a signed difference delta of J with
    # w and w + delta both in S - I'; found here through brick_check's
    # duals.  Then w is a minimal generator of S - I' (the lemma in
    # _bad_generators) and delta a difference of I', so (S, I') is no brick
    kernel = brickhunt._bad_generators
    tested = set()

    def recording(dual, smask, atoms, diffs, headroom, wanted):
        tested.add((dual, frozenset(diffs)))
        return kernel(dual, smask, atoms, diffs, headroom, wanted)

    monkeypatch.setattr(brickhunt, "_bad_generators", recording)
    skipped = 0
    for S in enumerate_semigroups(config):
        tested.clear()
        _scan_semigroup(S.min_gens, config)
        duals = {}

        def certified(gens):
            def in_dual(y):
                return all((y + z) in S for z in gens)

            for size in range(1, len(gens) - 1):
                for sub in itertools.combinations(gens[1:], size):
                    J = (0, *sub)
                    if J not in duals:
                        duals[J] = brick_check(S, RelativeIdeal(S, J)).dual_ideal.min_gens
                    if any(in_dual(w) and in_dual(w + q - p)
                           for w in duals[J]
                           for p, q in itertools.permutations(J, 2)):
                        return True
            return False

        walked = set()
        for ideal in enumerate_ideals(S, config):
            gens = ideal.min_gens
            dual, _, _, diffs, _ = kernel_args(S, gens)
            walked.add((dual, frozenset(diffs)))
            if len(gens) < 3 or (dual, frozenset(diffs)) in tested:
                continue
            skipped += 1
            assert certified(gens), (S.min_gens, gens)
        # the walk passes every candidate it tests the dual that kernel_args
        # builds for it
        assert tested <= walked, S.min_gens
    assert skipped > 0


@pytest.mark.parametrize("config", [
    SearchConfig(t_min=4, t_max=4, gen_max=18, mu_cap=4),
    SearchConfig(t_min=3, t_max=3, gen_max=22, mu_cap=4),
], ids=["t4-18-cap4", "t3-22-cap4"])
def test_headroom_rules_out_the_subtree(config):
    # a candidate I whose dual, by brick_check, has a minimal generator
    # above F - max I is no brick, and the kernel returns (False, -1) for
    # it, -1 the bitset of every offset, whatever it wants.  Every candidate
    # that extends I by larger offsets has a flagged parent in the tree, so
    # it is flagged and refused too
    high = 0
    for S in enumerate_semigroups(config):
        frob, top = S.frobenius, S.frobenius - S.multiplicity
        smask = S.element_mask(frob + S.multiplicity + top)
        gapmask = ~smask & ((1 << (top + 1)) - 1)
        flagged = set()
        for ideal in enumerate_ideals(S, config):
            gens = ideal.min_gens
            check = brick_check(S, ideal)
            if max(check.dual_ideal.min_gens) <= frob - gens[-1]:
                assert gens[:-1] not in flagged, (S.min_gens, gens)
                continue
            flagged.add(gens)
            assert not check.is_brick, (S.min_gens, gens)
            wanted = gapmask >> (gens[-1] + 1) << (gens[-1] + 1)
            args = kernel_args(S, gens, smask)
            assert _bad_generators(*args, wanted) == (False, -1)
            assert _bad_generators(*args, 0) == (False, -1)
        high += len(flagged)
    assert high > 0


# ------------------------------------------------------------ the criterion

def test_criterion_matches_brick_check_over_a_space():
    # every candidate of t4/gen<=18 at cap 4, decided by the kernel alone;
    # with nothing wanted it kills nothing unless the headroom test rules
    # out the whole subtree
    cfg = SearchConfig(t_min=4, t_max=4, gen_max=18, mu_cap=4)
    candidates = bricks = 0
    for S in enumerate_semigroups(cfg):
        for ideal in enumerate_ideals(S, cfg):
            is_brick, kill = _bad_generators(*kernel_args(S, ideal.min_gens),
                                             0)
            check = brick_check(S, ideal)
            assert is_brick == check.is_brick, (S.min_gens, ideal.min_gens)
            high = max(check.dual_ideal.min_gens) > S.frobenius - ideal.min_gens[-1]
            assert kill == (-1 if high else 0), (S.min_gens, ideal.min_gens)
            candidates += 1
            bricks += is_brick
    assert (candidates, bricks) == (141_510, 2)


def oracle_is_brick(sgens, igens):
    # mu(I + (S - I)) == mu(I) * mu(S - I) from brute-force elements: the
    # dual's minimal generators lie in [m, F + m], and the sums z + w
    # generate I + (S - I), whose minimal generators are their greedy
    # reduction
    frob, m = brute_frobenius(sgens), min(sgens)
    dual = brute_minimal_generators(
        sgens, brute_dual_elements(sgens, igens, -1, frob + m + 1))
    sums = {z + w for z in igens for w in dual}
    return len(igens) * len(dual) == len(brute_minimal_generators(sgens, sums))


@given(st.lists(st.integers(3, 19), min_size=2, max_size=5),
       st.lists(st.integers(0, 500), min_size=1, max_size=3))
@example([12, 14, 15, 16], [1, 2])  # (0, 2, 3): only w - delta is in S - I
@example([6, 7, 15], [0])  # (0, 1): likewise
@settings(max_examples=150, deadline=None)
def test_criterion_matches_oracles(gens, picks):
    # a candidate (0, *offsets), offsets gaps up to F - m with pairwise
    # differences that are gaps, decided by the kernel, by brick_check and
    # by brute force
    assume(math.gcd(*gens) == 1)
    S = NumericalSemigroup(gens)
    top = S.frobenius - S.multiplicity
    assume(top >= 1)
    offsets = []
    for x in (1 + p % top for p in picks):
        if x not in S and all(abs(x - a) not in S for a in [0, *offsets]):
            offsets.append(x)
    assume(offsets)
    ideal = (0, *sorted(offsets))
    is_brick, _ = _bad_generators(*kernel_args(S, ideal), 0)
    assert is_brick == brick_check(S, RelativeIdeal(S, ideal)).is_brick
    assert is_brick == oracle_is_brick(S.min_gens, ideal)


def test_kill_masks_read_the_wide_window():
    # with the headroom test off, the kill masks read the member bitset up
    # to F + m + 2 * (F - m): cut at F + m + (F - m), it loses kill bits of
    # some (0, g) on t4/gen<=20, and never gains one.  With it on, every
    # bad pair the masks read ends at or below F, so the walk's window (a
    # dual masked to [0, F + m], a member bitset through F + m + (F - m))
    # decides every (0, g) and (0, g, x) as the wide, unmasked one does,
    # kill included
    cfg = SearchConfig(t_min=4, t_max=4, gen_max=20)
    lost = 0
    for S in enumerate_semigroups(cfg):
        frob, m = S.frobenius, S.multiplicity
        top = frob - m
        smask = S.element_mask(frob + m + top)
        gapmask = ~smask & ((1 << (top + 1)) - 1)
        for g in _bits(gapmask):
            wanted = gapmask & (gapmask << g)
            dual, wide, atoms, diffs, room = pair_args(S, (0, g))
            _, kill = _bad_generators(dual, wide, atoms, diffs, room, wanted)
            cut = wide & ((2 << (frob + m + top)) - 1)
            _, short = _bad_generators(cut & (cut >> g), cut, atoms, diffs,
                                       room, wanted)
            assert short & ~kill == 0
            lost += short != kill
            # x = 0 stands for (0, g) itself, whose children are wanted
            for x in (0, *_bits(wanted)):
                gens = (0, g, x) if x else (0, g)
                for want in (0, wanted & (gapmask << x)):
                    got = _bad_generators(*kernel_args(S, gens, smask), want)
                    assert got == _bad_generators(*wide_args(S, gens), want), \
                        (S.min_gens, gens)
    assert lost > 0


# ------------------------------------------------------------ re-validation

@pytest.mark.parametrize("t,fake", [
    # every ideal, then only the leaves, then only the (0, g) tests
    (3, lambda dual, smask, atoms, diffs, headroom, wanted: (True, 0)),
    (4, lambda dual, smask, atoms, diffs, headroom, wanted: (not wanted, 0)),
    (4, lambda dual, smask, atoms, diffs, headroom, wanted:
        (len(diffs) == 1, 0)),
], ids=["t3-all", "t4-leaves", "t4-roots"])
def test_false_kernel_hit_raises(monkeypatch, t, fake):
    monkeypatch.setattr(brickhunt, "_bad_generators", fake)
    with pytest.raises(RuntimeError, match=r"semigroup \(\d+(, \d+)+\), ideal \(0, \d+"):
        search(SearchConfig(t_min=t, t_max=t, gen_max=20))


def test_false_kernel_hit_raises_under_optimize():
    script = textwrap.dedent("""
        import sys
        from sgbricks import brickhunt
        if __debug__:
            sys.exit(5)
        brickhunt._bad_generators = lambda *args: (True, 0)
        try:
            brickhunt.search(brickhunt.SearchConfig(t_min=4, t_max=4, gen_max=20))
        except RuntimeError as exc:
            print(exc)
            sys.exit(7)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 7, proc.stderr
    assert "brick_check rejects: semigroup (" in proc.stdout


def test_no_check_lives_in_an_assert():
    # python -O strips assert statements, so every check of the package is
    # an explicit raise
    modules = sorted((SRC / "sgbricks").glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


# ---------------------------------------------------------------- the lemma

@given(st.lists(st.integers(3, 24), min_size=2, max_size=4), st.data())
@settings(max_examples=60, deadline=None)
def test_lemma_and_bad_pairs(gens, data):
    assume(math.gcd(*gens) == 1)
    S = NumericalSemigroup(gens)
    frob, m = S.frobenius, S.multiplicity
    top = frob - m
    gaps = [g for g in range(1, top + 1) if g not in S]
    pairs = [(u, v) for u in gaps for v in gaps if v > u and (v - u) not in S]
    assume(pairs)

    # minimal generators of S - (0, u) that survive into S - (0, u, v) stay
    # minimal there (brute force, window [-1, frob + m + 1]); the kernel
    # decides both ideals as brute force does
    u, v = data.draw(st.sampled_from(pairs))
    lo, hi = -1, frob + m + 1
    small = brute_dual_elements(S.min_gens, (0, u), lo, hi)
    large = brute_dual_elements(S.min_gens, (0, u, v), lo, hi)
    large_gens = brute_minimal_generators(S.min_gens, large)
    for w in brute_minimal_generators(S.min_gens, small):
        if w in large:
            assert w in large_gens
    for ideal in ((0, u), (0, u, v)):
        assert _bad_generators(*kernel_args(S, ideal), 0)[0] == \
            oracle_is_brick(S.min_gens, ideal)

    # at every (0, g) the flag is brick_check's.  Each bad pair
    # (w, w + delta), w a minimal generator of S - (0, g) with w + delta in
    # it, delta = +-g, has the mask of the offsets x up to top that keep
    # both in the dual.  With the headroom test off the kill mask is
    # exactly their union in wanted (so the early stop loses no wanted
    # bit); with it on it is that too, or -1 where the dual has a minimal
    # generator above F - g.  Every ideal (0, g, x) with x killed is refused
    # by brick_check.  window and gapmask hold offsets up to g, so they are
    # read with the headroom test off
    window = (1 << (top + 1)) - 1
    gapmask = ~S.element_mask(top) & window

    def survives(y, gens):
        return all((y + z) in S for z in gens)

    pair_masks = {}
    for g in gaps:
        check = brick_check(S, RelativeIdeal(S, (0, g)))
        dual = check.dual_ideal.min_gens
        children = gapmask & (gapmask << g)
        ends = [(w, w + delta) for w in dual for delta in (g, -g)
                if survives(w + delta, (0, g))]
        pair_masks[g] = [sum(1 << x for x in range(top + 1)
                             if (w + x) in S and (y + x) in S)
                         for w, y in ends]
        full = 0
        for p in pair_masks[g]:
            full |= p
        high = max(dual) > frob - g
        for wanted, make_args in ((window, pair_args), (gapmask, pair_args),
                                  (children, kernel_args), (0, kernel_args)):
            is_brick, kill = _bad_generators(*make_args(S, (0, g)), wanted)
            assert is_brick == check.is_brick
            if make_args is kernel_args and high:
                assert kill == -1
            else:
                assert kill & ~wanted == 0
                assert kill == full & wanted
        for x in _bits(full & gapmask):
            if x != g and abs(x - g) not in S:
                ideal = RelativeIdeal(S, sorted((0, g, x)))
                assert not brick_check(S, ideal).is_brick

    # two levels down: (0, u, x, y) with x and y both offsets that keep one
    # bad pair of (0, u) is no brick
    grandchildren = sorted({
        tuple(sorted((0, u, x, y))) for p in pair_masks[u]
        for x, y in itertools.combinations(_bits(p & gapmask), 2)
        if all(abs(a - b) not in S for a, b in ((x, u), (y, u), (x, y)))})
    for ideal in grandchildren[:200]:
        assert not brick_check(S, RelativeIdeal(S, ideal)).is_brick

    # one level down: a kill bit x of (0, u, v) rules out (0, u, v, x)
    is_brick, kill = _bad_generators(*pair_args(S, (0, u, v)), window)
    assert is_brick == brick_check(S, RelativeIdeal(S, (0, u, v))).is_brick
    for x in _bits(kill & gapmask):
        if x not in (u, v) and all(abs(x - a) not in S for a in (u, v)):
            ideal = RelativeIdeal(S, sorted((0, u, v, x)))
            assert not brick_check(S, ideal).is_brick
