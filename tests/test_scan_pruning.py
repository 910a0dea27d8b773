"""The kill-mask pruning of the brick scan: exactness against the unpruned
reference scan, the lemma it rests on, and re-validation of every hit."""

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
    _kill_mask,
    _scan_semigroup,
)
from sgbricks.ideal import RelativeIdeal, brick_check
from sgbricks.sgcore import NumericalSemigroup

from oracles import brute_dual_elements, brute_minimal_generators
from reference_scan import reference_scan_semigroup

SRC = Path(__file__).resolve().parents[1] / "src"


# ------------------------------------------------------- differential tests

@pytest.mark.parametrize("config,hits", [
    (SearchConfig(t_min=4, t_max=4, gen_max=27), 76),
    (SearchConfig(t_min=5, t_max=5, gen_max=22), 0),
    (SearchConfig(t_min=4, t_max=4, gen_max=20, mu_cap=4), 2),
    (SearchConfig(t_min=2, t_max=5, gen_max=22, perfect_only=True), 2),
], ids=["t4-27", "t5-22", "t4-20-cap4", "t2to5-22-perfect"])
def test_scan_matches_reference_over_whole_space(config, hits):
    found = 0
    for S in enumerate_semigroups(config):
        got = _scan_semigroup(S, config)
        assert got == reference_scan_semigroup(S, config), S.min_gens
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


def test_pruning_skips_most_kernel_calls(monkeypatch):
    cfg = SearchConfig(t_min=4, t_max=4, gen_max=25)
    candidates = sum(sum(1 for _ in enumerate_ideals(S, cfg))
                     for S in enumerate_semigroups(cfg))
    assert candidates == 701_443
    calls = 0
    kernel = brickhunt._brick_dual_gens

    def counting(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(brickhunt, "_brick_dual_gens", counting)
    reports = search(cfg)
    assert len(reports) == 31
    assert calls <= 0.35 * candidates


@pytest.mark.parametrize("config", [
    SearchConfig(t_min=4, t_max=4, gen_max=20),
    SearchConfig(t_min=5, t_max=5, gen_max=19),
], ids=["t4-20", "t5-19"])
def test_every_skipped_candidate_has_a_bad_pair(monkeypatch, config):
    # a skipped (0, u, v) needs a bad pair of S - (0, g), g in {u, v}, with
    # both ends still in S - (0, u, v); found here through brick_check's duals
    kernel = brickhunt._brick_dual_gens
    tested = set()

    def recording(emask, smask, deltas, table, m):
        tested.add(deltas)
        return kernel(emask, smask, deltas, table, m)

    monkeypatch.setattr(brickhunt, "_brick_dual_gens", recording)
    skipped = 0
    for S in enumerate_semigroups(config):
        tested.clear()
        _scan_semigroup(S, config)
        duals = {}

        def certified(g, u, v):
            if g not in duals:
                duals[g] = brick_check(S, RelativeIdeal(S, (0, g))).dual_ideal.min_gens
            ends = [w for w in duals[g] if (w + u) in S and (w + v) in S]
            return any((b - a + g) in S or abs(b - a - g) in S
                       for i, a in enumerate(ends) for b in ends[i + 1:])

        for ideal in enumerate_ideals(S, config):
            if len(ideal.min_gens) != 3:
                continue
            _, u, v = ideal.min_gens
            if (u, v, v - u) in tested:
                continue
            skipped += 1
            assert certified(u, u, v) or certified(v, u, v), (S.min_gens, u, v)
    assert skipped > 0


# ------------------------------------------------------------ re-validation

@pytest.mark.parametrize("t,name,fake", [
    (3, "_kill_mask", lambda *args: (True, 0)),
    (4, "_brick_dual_gens", lambda *args: [0, 1]),
    (4, "_kill_mask", lambda *args: (True, 0)),
])
def test_false_kernel_hit_raises(monkeypatch, t, name, fake):
    monkeypatch.setattr(brickhunt, name, fake)
    with pytest.raises(RuntimeError, match=r"semigroup \(\d+(, \d+)+\), ideal \(0, \d+"):
        search(SearchConfig(t_min=t, t_max=t, gen_max=20))


def test_false_kernel_hit_raises_under_optimize():
    script = textwrap.dedent("""
        import sys
        from sgbricks import brickhunt
        if __debug__:
            sys.exit(5)
        brickhunt._brick_dual_gens = lambda *args: [0, 1]
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
def test_lemma_and_kill_mask(gens, data):
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

    # kill[u] marks only non-bricks, the flag decides (0, u) exactly, and
    # stopping once every wanted bit is set loses no bit
    smask = S.element_mask(2 * frob + 2 + top)
    window = (1 << (top + 1)) - 1
    gapmask = ~smask & window
    for g in gaps:
        expected = brick_check(S, RelativeIdeal(S, (0, g))).is_brick
        masks = {}
        for wanted in (window, gapmask, 0):
            is_brick, masks[wanted] = _kill_mask(
                smask & (smask >> g), smask, g, S.apery_table, m, wanted)
            assert is_brick == expected
            assert masks[wanted] & ~wanted == 0
        kill = masks[window]
        assert masks[gapmask] == kill & gapmask
        for x in gaps:
            if x != g and (abs(x - g) not in S) and (kill >> x) & 1:
                ideal = RelativeIdeal(S, sorted((0, g, x)))
                assert not brick_check(S, ideal).is_brick
