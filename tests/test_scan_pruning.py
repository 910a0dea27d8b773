"""The bad-pair pruning of the brick scan: exactness against the unpruned
reference scan at every ideal size, the lemma it rests on, and re-validation
of every hit."""

import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgbricks import brickhunt
from sgbricks.brickhunt import (
    SearchConfig,
    enumerate_ideals,
    enumerate_semigroups,
    search,
    _bad_pairs,
    _scan_semigroup,
)
from sgbricks.ideal import RelativeIdeal, _bits, brick_check
from sgbricks.sgcore import NumericalSemigroup

from oracles import brute_dual_elements, brute_minimal_generators
from reference_scan import reference_scan_semigroup

SRC = Path(__file__).resolve().parents[1] / "src"


# ------------------------------------------------------- differential tests

@pytest.mark.parametrize("config,hits", [
    (SearchConfig(t_min=4, t_max=4, gen_max=27), 76),
    (SearchConfig(t_min=5, t_max=5, gen_max=22), 0),
    (SearchConfig(t_min=4, t_max=4, gen_max=20, mu_cap=4), 2),
    (SearchConfig(t_min=3, t_max=3, gen_max=22, mu_cap=4), 10),
    (SearchConfig(t_min=4, t_max=4, gen_max=18, mu_cap=5), 2),
    (SearchConfig(t_min=2, t_max=5, gen_max=22, perfect_only=True), 2),
], ids=["t4-27", "t5-22", "t4-20-cap4", "t3-22-cap4", "t4-18-cap5",
        "t2to5-22-perfect"])
def test_scan_matches_reference_over_whole_space(config, hits):
    found = 0
    for S in enumerate_semigroups(config):
        got = _scan_semigroup(S, config)
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
    # at caps above 3 a killed (0, u, v) must still root its extensions:
    # (0, 3, 9) is killed over (12, 21, 30, 31), (0, 3, 9, 14) is a brick
    cfg = SearchConfig(t_min=4, t_max=4, gen_max=31, mu_cap=4)
    S = NumericalSemigroup(gens)
    got = _scan_semigroup(S, cfg)
    assert got == reference_scan_semigroup(S, cfg)
    assert ideal in [r.i_gens for r in got]


def counting_kernel(monkeypatch):
    calls = []
    kernel = brickhunt._bad_pairs

    def counting(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(brickhunt, "_bad_pairs", counting)
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
    # every (0, g) is extracted once; the rest test three generators.  With
    # the roots read across (each (0, ..., x) also read the pairs of (0, x))
    # the scan made 207,703 calls
    assert len(calls) == 201_175
    assert len(calls) <= 207_703
    calls_above_two = len(calls) - sizes.count(2)
    assert calls_above_two == 137_409
    assert calls_above_two <= 0.35 * candidates


def test_pruning_reaches_four_generators(monkeypatch):
    # with no pruning past three generators the scan made 358,122 calls
    calls = counting_kernel(monkeypatch)
    reports = search(SearchConfig(t_min=4, t_max=4, gen_max=20, mu_cap=4))
    assert len(reports) == 2
    assert len(calls) <= 358_122 // 2


def brute_bad_differences(S, deltas):
    # bit D, for D up to frobenius + multiplicity, iff D + d or |D - d| is a
    # member for some d in deltas
    return sum(1 << D for D in range(S.frobenius + S.multiplicity + 1)
               if any((D + d) in S or abs(D - d) in S for d in deltas))


@pytest.mark.parametrize("config", [
    SearchConfig(t_min=4, t_max=4, gen_max=20),
    SearchConfig(t_min=5, t_max=5, gen_max=19),
    SearchConfig(t_min=4, t_max=4, gen_max=17, mu_cap=4),
    SearchConfig(t_min=3, t_max=3, gen_max=16, mu_cap=4),
    SearchConfig(t_min=4, t_max=4, gen_max=16, mu_cap=5),
], ids=["t4-20", "t5-19", "t4-17-cap4", "t3-16-cap4", "t4-16-cap5"])
def test_every_skipped_candidate_has_a_bad_pair(monkeypatch, config):
    # a skipped candidate I' needs a minimal generator pair of S - J, for
    # some J within I' that holds 0, with both ends still in S - I' and bad
    # for a difference of I'; found here through brick_check's duals.  Such
    # a pair is a bad pair of minimal generators of S - I' (the lemma in
    # _bad_pairs), so (S, I') is no brick
    kernel = brickhunt._bad_pairs
    tested = set()

    def recording(emask, smask, diffs, wanted, pairs, bad, g):
        tested.add((emask, diffs))
        return kernel(emask, smask, diffs, wanted, pairs, bad, g)

    monkeypatch.setattr(brickhunt, "_bad_pairs", recording)
    skipped = 0
    for S in enumerate_semigroups(config):
        tested.clear()
        _scan_semigroup(S, config)
        top = S.frobenius - S.multiplicity
        smask = S.element_mask(S.frobenius + S.multiplicity + top)
        bad = {g: brute_bad_differences(S, (g,))
               for g in range(1, top + 1) if g not in S}
        duals = {}

        def certified(gens):
            differences = {q - p for p, q in itertools.combinations(gens, 2)}
            for size in range(1, len(gens) - 1):
                for sub in itertools.combinations(gens[1:], size):
                    J = (0, *sub)
                    if J not in duals:
                        duals[J] = brick_check(S, RelativeIdeal(S, J)).dual_ideal.min_gens
                    ends = [w for w in duals[J] if all((w + z) in S for z in gens)]
                    if any((b - a + d) in S or abs(b - a - d) in S
                           for i, a in enumerate(ends) for b in ends[i + 1:]
                           for d in differences):
                        return True
            return False

        for ideal in enumerate_ideals(S, config):
            gens = ideal.min_gens
            if len(gens) < 3:
                continue
            emask, diffs = smask, 0
            for z in gens[1:]:
                emask &= smask >> z
            for p, q in itertools.combinations(gens, 2):
                diffs |= bad[q - p]
            if (emask, diffs) in tested:
                continue
            skipped += 1
            assert certified(gens), (S.min_gens, gens)
    assert skipped > 0


# ------------------------------------------------------------ re-validation

@pytest.mark.parametrize("t,fake", [
    # every ideal, then only the leaves, then only the (0, g) extractions
    (3, lambda emask, smask, diffs, wanted, pairs, bad, g: (True, 0)),
    (4, lambda emask, smask, diffs, wanted, pairs, bad, g: (not wanted, 0)),
    (4, lambda emask, smask, diffs, wanted, pairs, bad, g: (bool(g), 0)),
], ids=["t3-all", "t4-leaves", "t4-roots"])
def test_false_kernel_hit_raises(monkeypatch, t, fake):
    monkeypatch.setattr(brickhunt, "_bad_pairs", fake)
    with pytest.raises(RuntimeError, match=r"semigroup \(\d+(, \d+)+\), ideal \(0, \d+"):
        search(SearchConfig(t_min=t, t_max=t, gen_max=20))


def test_false_kernel_hit_raises_under_optimize():
    script = textwrap.dedent("""
        import sys
        from sgbricks import brickhunt
        if __debug__:
            sys.exit(5)
        brickhunt._bad_pairs = lambda *args: (True, 0)
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
    # minimal there (brute force, window [-1, frob + m + 1])
    u, v = data.draw(st.sampled_from(pairs))
    lo, hi = -1, frob + m + 1
    small = brute_dual_elements(S.min_gens, (0, u), lo, hi)
    large = brute_dual_elements(S.min_gens, (0, u, v), lo, hi)
    large_gens = brute_minimal_generators(S.min_gens, large)
    for w in brute_minimal_generators(S.min_gens, small):
        if w in large:
            assert w in large_gens

    # the kill mask of (0, g) marks only non-bricks, the flag decides (0, g)
    # exactly, stopping once every wanted bit is set loses no bit, and the
    # collected masks are the pairs that make up the kill mask; with the
    # per-gap table and g, the kill mask also marks exactly the children
    # (0, g, x) in whose dual a pair that is not bad for g survives, with a
    # difference up to top that the new differences x or x - g make bad
    smask = S.element_mask(2 * frob + 2 + top)
    window = (1 << (top + 1)) - 1
    gapmask = ~smask & window
    table = [0 if d in S else brute_bad_differences(S, (d,))
             for d in range(top + 1)]

    def is_bad(D, d):
        return (D + d) in S or abs(D - d) in S

    for g in gaps:
        check = brick_check(S, RelativeIdeal(S, (0, g)))
        expected = check.is_brick
        dual = check.dual_ideal.min_gens
        diffs = brute_bad_differences(S, (g,))
        children = gapmask & (gapmask << g)
        new_bad = sum(1 << x for x in range(top + 1) if children >> x & 1 and any(
            b - a <= top and not is_bad(b - a, g)
            and (is_bad(b - a, x) or is_bad(b - a, x - g))
            for i, a in enumerate(dual) for b in dual[i + 1:]
            if (a + x) in S and (b + x) in S))
        masks = {}
        for wanted in (window, gapmask, children, 0):
            for step in (0, g):
                found = []
                is_brick, kill = _bad_pairs(
                    smask & (smask >> g), smask, diffs, wanted, found, table,
                    step)
                assert is_brick == expected
                assert kill & ~wanted == 0
                assert (is_brick, kill) == _bad_pairs(
                    smask & (smask >> g), smask, diffs, wanted, None, table,
                    step)
                union = 0
                for p in found:
                    union |= p
                assert union == kill
                masks[wanted, step] = kill
        kill = masks[window, 0]
        assert masks[gapmask, 0] == kill & gapmask
        assert masks[children, g] == masks[children, 0] | new_bad
        for x in gaps:
            if x != g and (abs(x - g) not in S) and (kill >> x) & 1:
                ideal = RelativeIdeal(S, sorted((0, g, x)))
                assert not brick_check(S, ideal).is_brick
        for x in _bits(masks[children, g] & ~masks[children, 0]):
            assert not brick_check(S, RelativeIdeal(S, (0, g, x))).is_brick

    # one level down: a pair of S - (0, u, v) whose mask has bit x rules out
    # (0, u, v, x)
    emask = smask & (smask >> u) & (smask >> v)
    diffs = brute_bad_differences(S, (u, v, v - u))
    is_brick, kill = _bad_pairs(emask, smask, diffs, window, None, table, 0)
    assert is_brick == brick_check(S, RelativeIdeal(S, (0, u, v))).is_brick
    for x in gaps:
        if (kill >> x) & 1 and x not in (u, v) and all(
                abs(x - a) not in S for a in (u, v)):
            ideal = RelativeIdeal(S, sorted((0, u, v, x)))
            assert not brick_check(S, ideal).is_brick
