import io
import itertools
import math
import random
from pathlib import Path

import pytest

from sgbricks import brickhunt
from sgbricks.brickhunt import (
    MAX_WORKERS,
    BrickReport,
    SearchConfig,
    TABLE_HEADER,
    enumerate_ideals,
    enumerate_semigroups,
    lift,
    read_reports,
    render_reports,
    search,
    summarize,
    write_reports,
    _scan_semigroup,
)
from sgbricks.errors import (
    InvalidInputError,
    NotTwoByTwoError,
    ParentMismatchError,
    ResourceLimitError,
    ZeroNotGeneratorError,
)
from sgbricks.ideal import RelativeIdeal, brick_check
from sgbricks.sgcore import MAX_MASK_BITS, NumericalSemigroup


# ------------------------------------------------------------ configuration

def test_config_validation():
    with pytest.raises(InvalidInputError):
        SearchConfig(t_min=1)
    with pytest.raises(InvalidInputError):
        SearchConfig(t_min=3, t_max=2)
    with pytest.raises(InvalidInputError):
        SearchConfig(gen_max=1)
    with pytest.raises(InvalidInputError):
        SearchConfig(mu_cap=1)
    with pytest.raises(InvalidInputError):
        SearchConfig(worker_count=0)
    # every bound is exactly an int: search shifts by gen_max, and a bool
    # worker count would run as one worker
    for fields in ({"gen_max": 10.5}, {"worker_count": True}, {"t_min": 2.0},
                   {"t_max": "5"}, {"mu_cap": 3.0}):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            SearchConfig(**fields)


def test_worker_budget(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("Pool was called")

    monkeypatch.setattr(brickhunt, "Pool", no_pool)
    assert SearchConfig(worker_count=MAX_WORKERS).worker_count == MAX_WORKERS
    with pytest.raises(ResourceLimitError, match=f"bound of {MAX_WORKERS}"):
        SearchConfig(worker_count=MAX_WORKERS + 1)
    with pytest.raises(ResourceLimitError):
        search(SearchConfig(gen_max=10, worker_count=10**6))


def test_gen_max_budget():
    # the semigroup walk's reachability bitset has gen_max + 1 bits; the
    # config is only built here, never searched
    assert SearchConfig(gen_max=MAX_MASK_BITS - 1).gen_max == MAX_MASK_BITS - 1
    with pytest.raises(ResourceLimitError,
                       match=f"reachability bitset of {MAX_MASK_BITS + 1} bits"):
        SearchConfig(gen_max=MAX_MASK_BITS)


def test_mu_cap_rule():
    cfg = SearchConfig()
    assert [cfg.cap_for(t) for t in (2, 3, 4, 5)] == [2, 2, 3, 3]
    assert SearchConfig(mu_cap=4).cap_for(5) == 4


# ------------------------------------------------------- semigroup streams

def test_enumerate_semigroups_tiny():
    got = [S.min_gens for S in enumerate_semigroups(SearchConfig(t_min=2, t_max=2, gen_max=4))]
    assert got == [(2, 3), (3, 4)]


def test_enumerate_semigroups_empty():
    assert list(enumerate_semigroups(SearchConfig(t_min=2, t_max=2, gen_max=2))) == []


def test_enumerate_semigroups_contains_cited():
    cfg = SearchConfig(t_min=4, t_max=4, gen_max=27)
    gens = {S.min_gens for S in enumerate_semigroups(cfg)}
    assert (10, 15, 18, 27) in gens


def test_enumerate_semigroups_minimal_unique_ordered():
    cfg = SearchConfig(t_min=2, t_max=3, gen_max=14)
    seen = []
    for S in enumerate_semigroups(cfg):
        assert 2 <= len(S.min_gens) <= 3
        assert max(S.min_gens) <= 14
        # the emitted tuple really is the minimal generating set
        assert NumericalSemigroup(S.min_gens).min_gens == S.min_gens
        seen.append(S.min_gens)
    assert len(seen) == len(set(seen))
    assert seen == sorted(seen)


def test_enumerate_semigroups_exhaustive_against_naive():
    cfg = SearchConfig(t_min=2, t_max=3, gen_max=12)
    got = {S.min_gens for S in enumerate_semigroups(cfg)}
    want = set()
    for t in (2, 3):
        for tup in itertools.combinations(range(2, 13), t):
            if math.gcd(*tup) != 1:
                continue
            if NumericalSemigroup(tup).min_gens == tup:
                want.add(tup)
    assert got == want


# ----------------------------------------------------------- ideal streams

def test_enumerate_ideals_examples():
    cfg = SearchConfig(t_min=4, t_max=4, gen_max=27)
    S = NumericalSemigroup([10, 15, 18, 27])
    gens = [I.min_gens for I in enumerate_ideals(S, cfg)]
    assert (0, 2) in gens

    assert list(enumerate_ideals(NumericalSemigroup([2, 3]), cfg)) == []

    S = NumericalSemigroup([21, 24, 38, 39])
    gens = [I.min_gens for I in enumerate_ideals(S, cfg)]
    assert (0, 4, 6) in gens


def test_enumerate_ideals_bounds_and_minimality():
    for mu_cap, s_gens in itertools.product(
            (None, 4), ([10, 15, 18, 27], [5, 7, 9], [7, 9, 11, 13, 17],
                        [2, 5], [2, 3])):
        S = NumericalSemigroup(s_gens)
        cfg = SearchConfig(t_min=2, t_max=5, gen_max=30, mu_cap=mu_cap)
        cap = cfg.cap_for(len(S.min_gens))
        listed = [I.min_gens for I in enumerate_ideals(S, cfg)]
        seen = set()
        for gens in listed:
            assert gens[0] == 0
            assert 2 <= len(gens) <= cap
            assert all(0 < u <= S.frobenius - S.multiplicity for u in gens[1:])
            # already minimal: offsets and their differences are gaps
            for i, a in enumerate(gens):
                for b in gens[i + 1:]:
                    assert (b - a) not in S
            assert gens not in seen
            seen.add(gens)
        # matches a fresh minimalization through the public constructor
        for gens in seen:
            assert RelativeIdeal(S, gens).min_gens == gens
        # every candidate, in lexicographic order: each set of 1 to cap - 1
        # gaps up to F - m whose pairwise differences are gaps, after 0
        gaps = [g for g in range(1, S.frobenius - S.multiplicity + 1)
                if g not in S]
        want = sorted(
            (0, *c) for size in range(1, cap)
            for c in itertools.combinations(gaps, size)
            if all(b - a not in S for a, b in itertools.combinations(c, 2)))
        assert listed == want, s_gens
        if s_gens == [2, 3]:
            assert listed == []


def test_walk_candidates_empty_without_offsets():
    # F - m < 1 leaves no offset: <3, 4, 5> has F = 2, and <2, 3> F = 1
    for gens in ([3, 4, 5], [2, 3]):
        S = NumericalSemigroup(gens)
        assert S.frobenius - S.multiplicity < 1
        assert brickhunt._walk_candidates(S, 4, lambda *_: (True, 0)) == []


def test_candidate_duals_are_never_principal():
    # _bad_generators does not count the dual's generators; its docstring
    # proves that no candidate's dual is principal
    cfg = SearchConfig(t_min=2, t_max=5, gen_max=20)
    tested = 0
    for S in enumerate_semigroups(cfg):
        for I in enumerate_ideals(S, cfg):
            assert brick_check(S, I).mu_dual >= 2, (S.min_gens, I.min_gens)
            tested += 1
    assert tested == 192_912


@pytest.mark.parametrize("t, gen_max, mu_cap, candidates", [
    (4, 22, None, 21_479), (3, 26, None, 1_537), (5, 20, None, 18_553),
    (4, 18, 4, 13_809), (3, 20, 4, 4_670)])
def test_offset_bound_loses_no_brick(t, gen_max, mu_cap, candidates):
    # enumerate_ideals stops the offsets at F - m (Frobenius number minus
    # multiplicity): no minimal candidate (0, u, ...) whose offsets are gaps
    # up to F, one of them above F - m, is a brick at the space's cap
    cfg = SearchConfig(t_min=t, t_max=t, gen_max=gen_max, mu_cap=mu_cap)
    cap = cfg.cap_for(t)
    tested = 0
    for S in enumerate_semigroups(cfg):
        top = S.frobenius - S.multiplicity
        gaps = [g for g in range(1, S.frobenius + 1) if g not in S]
        is_gap = set(gaps).__contains__

        def grow(gens):
            if len(gens) >= 2 and gens[-1] > top:
                yield gens
            if len(gens) < cap:
                for g in gaps:
                    if g > gens[-1] and all(is_gap(g - a) for a in gens):
                        yield from grow(gens + (g,))

        for gens in grow((0,)):
            check = brick_check(S, RelativeIdeal._trusted(S, gens))
            assert not check.is_brick, (S.min_gens, gens)
            tested += 1
    assert tested == candidates


# ----------------------------------------------------------------- search

@pytest.fixture(scope="module")
def t4_gen27_reports():
    return search(SearchConfig(t_min=4, t_max=4, gen_max=27))


def test_search_small_golden(t4_gen27_reports):
    reports = t4_gen27_reports
    hit = [r for r in reports if r.s_gens == (10, 15, 18, 27) and r.i_gens == (0, 2)]
    assert len(hit) == 1
    r = hit[0]
    assert r.dual_gens == (18, 25)
    assert (r.k, r.m) == (2, 2)
    assert not r.perfect
    assert r.multiplicity == 10


def test_search_ordering_and_soundness(t4_gen27_reports):
    reports = t4_gen27_reports
    keys = [(r.s_gens, r.i_gens) for r in reports]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    for r in reports:
        S = NumericalSemigroup(r.s_gens)
        chk = brick_check(S, RelativeIdeal(S, r.i_gens))
        assert chk.is_brick
        assert (chk.mu_ideal, chk.mu_dual) == (r.k, r.m)
        assert chk.mu_sum == r.k * r.m
        assert chk.dual_ideal.min_gens == r.dual_gens
        assert chk.is_perfect == r.perfect
        assert r.multiplicity > 8  # strict inequality below multiplicity 9
        if r.perfect and (r.k, r.m) == (2, 2):
            # a perfect sum ideal is generated by the semigroup itself
            assert chk.sum_ideal.min_gens == r.s_gens


def test_reports_within_the_proved_cap(t4_gen27_reports):
    # I + (S - I) lies in S, and the minimal generators of an ideal in S lie
    # in distinct classes mod the multiplicity: k * mu(S - I) <= multiplicity
    assert t4_gen27_reports
    assert all(r.k * r.m <= r.multiplicity for r in t4_gen27_reports)


def test_search_empty_below_multiplicity_nine():
    assert search(SearchConfig(t_min=2, t_max=5, gen_max=8)) == []


def test_search_deterministic_across_workers():
    # t2..5 puts tuples of every length into the same chunks
    a = search(SearchConfig(t_min=2, t_max=5, gen_max=24, worker_count=1))
    b = search(SearchConfig(t_min=2, t_max=5, gen_max=24, worker_count=4))
    assert len(a) == 27
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_reports(a, buf_a)
    write_reports(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_search_visits_exactly_the_enumerated_semigroups(monkeypatch):
    # search and enumerate_semigroups draw from the same walk: every
    # semigroup once, in the same order, and nothing else
    cfg = SearchConfig(t_min=2, t_max=5, gen_max=22)
    visited = []

    def recording(gens, config):
        visited.append(gens)
        return []

    monkeypatch.setattr(brickhunt, "_scan_semigroup", recording)
    assert search(cfg) == []
    assert visited == [S.min_gens for S in enumerate_semigroups(cfg)]
    assert len(visited) == 3893
    assert {len(gens) for gens in visited} == {2, 3, 4, 5}


def test_scan_matches_bare_brick_check_loop():
    # the inlined scan predicate agrees with the public check, pair by pair
    rng = random.Random(777)
    cfg = SearchConfig(t_min=2, t_max=5, gen_max=60)
    for _ in range(150):
        while True:
            gens = sorted(rng.sample(range(2, 40), rng.randint(2, 5)))
            if math.gcd(*gens) == 1:
                break
        S = NumericalSemigroup(gens)
        fast = sorted(_scan_semigroup(S.min_gens, cfg),
                      key=lambda r: r.i_gens)
        slow = []
        for I in enumerate_ideals(S, cfg):
            chk = brick_check(S, I)
            if chk.is_brick:
                slow.append(BrickReport.from_check(S, I, chk))
        assert fast == sorted(slow, key=lambda r: r.i_gens)


# ------------------------------------------------------------------- lift

def test_lift_cited_brick():
    S = NumericalSemigroup([10, 15, 18, 27])
    res = lift(S, RelativeIdeal(S, [0, 2]))
    assert res.quad == (18, 20, 25, 27)
    assert res.ideal_gens == (0, 2)
    assert res.check.is_brick and res.check.is_perfect
    assert (res.check.mu_ideal, res.check.mu_dual) == (2, 2)


def test_lift_fixed_point_on_perfect_brick():
    S = NumericalSemigroup([14, 15, 20, 21])
    res = lift(S, RelativeIdeal(S, [0, 1]))
    assert res.quad == (14, 15, 20, 21)
    assert res.check.is_perfect


def test_lift_recomputes_dual():
    S = NumericalSemigroup([10, 14, 15, 21])
    res = lift(S, RelativeIdeal(S, [0, 1]))
    # dual is (14, 20), so the lift lands on the perfect cousin
    assert res.quad == (14, 15, 20, 21)
    assert res.check.is_perfect


def test_lift_idempotent_on_canonical_perfect_bricks():
    from sgbricks.balanced import unitary_family
    quads = [(24, 25, 35, 36), (15, 22, 33, 40), (28, 45, 81, 98)]
    quads += [q for z in range(3, 13) if (q := unitary_family(z)) is not None]
    for quad in quads:
        S = NumericalSemigroup(quad)
        n = quad[1] - quad[0]
        res = lift(S, RelativeIdeal(S, [0, n]))
        assert res.quad == quad
        assert res.check.is_perfect


def test_lift_degenerate_quadruple_raises():
    # a genuine 2x2 brick whose dual generators and shift share a factor:
    # the lifted quadruple has gcd 3 and generates no numerical semigroup
    from sgbricks.errors import NonCoprimeError
    S = NumericalSemigroup([14, 30, 35, 45])
    I = RelativeIdeal(S, [0, 3])
    chk = brick_check(S, I)
    assert chk.is_brick and (chk.mu_ideal, chk.mu_dual) == (2, 2)
    assert chk.dual_ideal.min_gens == (42, 60)
    with pytest.raises(NonCoprimeError):
        lift(S, I)


def test_lift_rejects_bad_input():
    S = NumericalSemigroup([10, 11, 13, 17, 19])
    with pytest.raises(ZeroNotGeneratorError):
        lift(S, RelativeIdeal(S, [2, 5]))
    with pytest.raises(NotTwoByTwoError):
        lift(S, RelativeIdeal(S, [0, 2]))  # not a brick
    T = NumericalSemigroup([21, 24, 38, 39])
    with pytest.raises(NotTwoByTwoError):
        lift(T, RelativeIdeal(T, [0, 4, 6]))  # 3x3 brick
    with pytest.raises(ParentMismatchError,
                       match="ideal does not belong to this semigroup"):
        lift(S, RelativeIdeal(T, [0, 4]))


# ----------------------------------------------------------------- reports

SAMPLE = [
    BrickReport((24, 25, 35, 36), (0, 1), (24, 35), 2, 2, True, 24, 187),
    BrickReport((15, 22, 33, 40), (0, 7), (15, 33), 2, 2, True, 15, 131),
    BrickReport((28, 45, 81, 98), (0, 17), (28, 81), 2, 2, True, 28, 475),
]


def test_line_format_single():
    text = render_reports(SAMPLE[:1])
    assert text == ('{"s": [24, 25, 35, 36], "i": [0, 1], "dual": [24, 35], '
                    '"k": 2, "m": 2, "perfect": true, "mult": 24, "frob": 187}\n')


def test_empty_payloads():
    assert render_reports([], "line") == ""
    assert render_reports([], "table") == TABLE_HEADER + "\n"


def test_round_trip_both_formats(tmp_path: Path):
    for fmt in ("line", "table"):
        target = tmp_path / f"reports.{fmt}"
        write_reports(SAMPLE, target, fmt)
        assert read_reports(target, fmt) == SAMPLE


def test_round_trip_file_object():
    buf = io.StringIO()
    write_reports(SAMPLE, buf, "table")
    assert read_reports(io.StringIO(buf.getvalue()), "table") == SAMPLE


def test_table_header_and_fields():
    text = render_reports(SAMPLE, "table").splitlines()
    assert text[0] == "s_gens;i_gens;dual_gens;k;m;perfect;mult;frob"
    assert text[1] == "24,25,35,36;0,1;24,35;2;2;true;24;187"


def test_unknown_format_rejected(tmp_path: Path):
    with pytest.raises(InvalidInputError):
        render_reports(SAMPLE, "csv")
    with pytest.raises(InvalidInputError):
        read_reports(io.StringIO(""), "csv")
    # refused with no report to render as well, and nothing is written
    with pytest.raises(InvalidInputError, match="unknown report format 'csv'"):
        render_reports([], "csv")
    target = tmp_path / "empty.txt"
    with pytest.raises(InvalidInputError, match="unknown report format 'csv'"):
        write_reports([], target, "csv")
    assert not target.exists()


def test_render_reports_checks_the_format_once(monkeypatch):
    checks = []
    require = brickhunt._require_format

    def counting(fmt):
        checks.append(fmt)
        require(fmt)

    monkeypatch.setattr(brickhunt, "_require_format", counting)
    for fmt in brickhunt.REPORT_FORMATS:
        checks.clear()
        lines = render_reports(SAMPLE, fmt).splitlines()
        assert checks == [fmt]
        if fmt == "table":
            assert lines.pop(0) == TABLE_HEADER
        # each record renders as it renders alone
        assert lines == [render_reports([r], fmt).splitlines()[-1]
                         for r in SAMPLE]


def test_summarize():
    text = summarize(SAMPLE)
    assert "bricks: 3 pairs, 3 distinct semigroups, 3 perfect" in text
    assert "by dimensions: 2x2=3" in text
    assert "15=1" in text and "24=1" in text and "28=1" in text
    assert "perfect by dimensions: 2x2=3" in text
    empty = summarize([])
    assert "bricks: 0 pairs, 0 distinct semigroups, 0 perfect" in empty
    assert "by dimensions: none" in empty


def test_round_trip_whole_search(t4_gen27_reports):
    for fmt in ("line", "table"):
        text = render_reports(t4_gen27_reports, fmt)
        assert read_reports(io.StringIO(text), fmt) == t4_gen27_reports


def test_summarize_full_text(t4_gen27_reports):
    assert summarize(t4_gen27_reports) == (
        "bricks: 76 pairs, 53 distinct semigroups, 8 perfect\n"
        "by dimensions: 2x2=16 2x3=9 2x4=41 2x5=2 3x2=8\n"
        "by multiplicity: 10=8 12=6 14=4 15=32 16=5 18=21\n"
        "perfect by dimensions: 2x2=8")
    assert summarize([]) == (
        "bricks: 0 pairs, 0 distinct semigroups, 0 perfect\n"
        "by dimensions: none\n"
        "by multiplicity: none\n"
        "perfect by dimensions: none")


GOOD_LINE = render_reports(SAMPLE[:1]).rstrip("\n")
GOOD_ROW = render_reports(SAMPLE[:1], "table").splitlines()[1]


@pytest.mark.parametrize("fmt, lines, bad_line", [
    ("line", [GOOD_LINE, GOOD_LINE.replace(', "frob": 187', "")], 2),
    ("line", [GOOD_LINE, "", "not json"], 3),
    ("line", ['[1, 2]'], 1),
    ("line", [GOOD_LINE.replace('"k": 2', '"k": "2"')], 1),
    ("line", [GOOD_LINE.replace('"perfect": true', '"perfect": 1')], 1),
    ("line", [GOOD_LINE.replace('"i": [0, 1]', '"i": []')], 1),
    ("table", [TABLE_HEADER, GOOD_ROW, "1,2;3"], 3),
    ("table", [TABLE_HEADER, GOOD_ROW + ";1"], 2),
    ("table", [TABLE_HEADER, GOOD_ROW.replace("24,25", "1,x", 1)], 2),
    ("table", [TABLE_HEADER, GOOD_ROW.replace("true", "maybe")], 2),
    ("table", [TABLE_HEADER, GOOD_ROW.replace(";2;2;", ";2;;")], 2),
    ("table", [TABLE_HEADER, GOOD_ROW.replace(";24;", ";true;")], 2),
], ids=["line-missing-key", "line-not-json", "line-not-object",
        "line-int-as-text", "line-int-as-bool", "line-empty-gens",
        "table-two-cells", "table-nine-cells", "table-bad-int",
        "table-perfect-maybe", "table-empty-cell", "table-bool-as-int"])
def test_read_reports_rejects_malformed(fmt, lines, bad_line):
    text = "\n".join(lines) + "\n"
    with pytest.raises(InvalidInputError, match=f"^line {bad_line}: "):
        read_reports(io.StringIO(text), fmt)


@pytest.mark.parametrize("text", ["", GOOD_ROW + "\n"], ids=["empty", "rows"])
def test_read_reports_requires_the_table_header(text):
    with pytest.raises(InvalidInputError, match="^missing table header$"):
        read_reports(io.StringIO(text), "table")
