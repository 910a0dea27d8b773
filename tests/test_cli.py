import hashlib
import io
import json
from pathlib import Path

import pytest

from sgbricks import brickhunt, cli
from sgbricks.brickhunt import SearchConfig, read_reports, render_reports
from sgbricks.cli import run
from sgbricks.errors import ResourceLimitError
from sgbricks.ideal import RelativeIdeal
from sgbricks.sgcore import NumericalSemigroup

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())


def invoke(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- snapshots

def test_analyze_worked_example(capsys):
    code, out, err = invoke(capsys, "analyze", "10", "11", "13", "17", "19")
    assert code == 0 and err == ""
    assert out == (
        "S = <10, 11, 13, 17, 19>\n"
        "multiplicity: 10\n"
        "frobenius: 25\n"
        "n_count: 11\n"
        "symmetric: no\n"
        "apery set: 0 11 13 17 19 22 24 26 28 35\n"
    )


def test_analyze_reduces_generators(capsys):
    code, out, _ = invoke(capsys, "analyze", "4", "6", "9", "10")
    assert code == 0
    assert out.startswith("S = <4, 6, 9>\n")


def test_dual_worked_example(capsys):
    code, out, err = invoke(capsys, "dual", "10", "11", "13", "17", "19",
                            "--", "2", "5")
    assert code == 0 and err == ""
    assert out == (
        "S = <10, 11, 13, 17, 19>\n"
        "I = (2, 5)\n"
        "S - I = (8, 15, 17, 22, 24)\n"
        "I + (S - I) = (10, 13, 17, 19, 22)\n"
        "mu(I) = 2, mu(S - I) = 5, mu(I + (S - I)) = 5\n"
    )


def test_brick_perfect_example(capsys):
    code, out, err = invoke(capsys, "brick", "14", "15", "20", "21", "--", "0", "1")
    assert code == 0 and err == ""
    assert out == (
        "S = <14, 15, 20, 21>\n"
        "I = (0, 1)\n"
        "S - I = (14, 20)\n"
        "I + (S - I) = (14, 15, 20, 21)\n"
        "dimensions: 2 x 2\n"
        "brick: yes\n"
        "perfect: yes\n"
    )


@pytest.mark.parametrize("command", ["dual", "brick"])
@pytest.mark.parametrize("sgens, igens", [
    ((10, 11, 13, 17, 19), (3,)),
    ((10, 11, 13, 17, 19), (-4, -1)),
    ((14, 15, 20, 21), (0, 1)),
    ((10, 11, 13, 17, 19), (0, 2)),
], ids=["principal", "negative-offsets", "perfect-2x2", "not-a-brick"])
def test_pair_lines_match_library_operations(capsys, command, sgens, igens):
    # both commands read the dual and the sum off brick_check: they are the
    # ideals that RelativeIdeal.dual and + compute, with the same mu values
    S = NumericalSemigroup(sgens)
    I = RelativeIdeal(S, igens)
    D = I.dual()
    K = I + D

    def fmt(ideal):
        return "(" + ", ".join(map(str, ideal.min_gens)) + ")"

    code, out, err = invoke(capsys, command, *map(str, sgens), "--",
                            *map(str, igens))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[1:4] == [f"I = {fmt(I)}", f"S - I = {fmt(D)}",
                          f"I + (S - I) = {fmt(K)}"]
    if command == "dual":
        assert lines[4] == (f"mu(I) = {I.mu}, mu(S - I) = {D.mu}, "
                            f"mu(I + (S - I)) = {K.mu}")
    else:
        assert lines[4] == f"dimensions: {I.mu} x {D.mu}"


def test_brick_imperfect_example(capsys):
    code, out, _ = invoke(capsys, "brick", "10", "14", "15", "21", "--", "0", "1")
    assert code == 0
    assert "brick: yes\n" in out
    assert "perfect: no\n" in out


def test_classify_balanced_example(capsys):
    code, out, err = invoke(capsys, "classify", "12", "15", "25", "28")
    assert code == 0 and err == ""
    assert out == (
        "quadruple: <12, 15, 25, 28>\n"
        "classification: balanced\n"
        "gcd(a1, a4) = 4, gcd(a2, a3) = 5\n"
        "quotients: q1 = 3, q2 = 3, q3 = 5, q4 = 7\n"
        "common sum = 40, common quotient = 2\n"
        "shift n = 3\n"
    )


def test_classify_unitary_example(capsys):
    code, out, _ = invoke(capsys, "classify", "14", "15", "20", "21")
    assert code == 0
    assert out == (
        "quadruple: <14, 15, 20, 21>\n"
        "classification: unitary\n"
        "gcd(a1, a4) = 7, gcd(a2, a3) = 5\n"
        "quotients: q1 = 2, q2 = 3, q3 = 4, q4 = 3\n"
        "common sum = 35, common quotient = 1\n"
        "shift n = 1\n"
        "frobenius of <14, 15, 20> = 81\n"
        "frobenius of <14, 15, 20, 21> = 67\n"
        "canonical ideal: (0, 1)\n"
        "predicted dual: (14, 20)\n"
    )


def test_classify_not_balanced(capsys):
    code, out, _ = invoke(capsys, "classify", "10", "14", "15", "21")
    assert code == 0
    assert out == (
        "quadruple: <10, 14, 15, 21>\n"
        "classification: not balanced\n"
        "reason: outer and inner pair sums differ\n"
    )


def test_classify_not_minimal(capsys):
    # passes every earlier law; 17 = 2 * 5 + 7
    code, out, _ = invoke(capsys, "classify", "5", "7", "17", "19")
    assert code == 0
    assert out == (
        "quadruple: <5, 7, 17, 19>\n"
        "classification: not balanced\n"
        "reason: not a minimal generating set\n"
    )


def test_family(capsys):
    code, out, _ = invoke(capsys, "family", "--z-max", "5")
    assert code == 0
    assert out == (
        "z = 3: <14, 15, 20, 21>  I = (0, 1)  dual = (14, 20)  perfect 2x2: yes\n"
        "z = 4: <18, 20, 25, 27>  I = (0, 2)  dual = (18, 25)  perfect 2x2: yes\n"
        "z = 5: <22, 25, 30, 33>  I = (0, 3)  dual = (22, 30)  perfect 2x2: yes\n"
    )


def test_family_skips_divisible(capsys):
    code, out, _ = invoke(capsys, "family", "--z-max", "8")
    assert code == 0
    assert "z = 7" not in out
    assert "z = 8" in out


def test_lift(capsys):
    code, out, _ = invoke(capsys, "lift", "10", "15", "18", "27", "--", "0", "2")
    assert code == 0
    assert out == (
        "S = <10, 15, 18, 27>\n"
        "I = (0, 2)\n"
        "lifted S = <18, 20, 25, 27>\n"
        "lifted I = (0, 2)\n"
        "dimensions: 2 x 2\n"
        "brick: yes\n"
        "perfect: yes\n"
    )


def test_search_line_format(capsys):
    code, out, err = invoke(capsys, "search", "--t-min", "4", "--t-max", "4",
                            "--gen-max", "20")
    assert code == 0
    assert out == ('{"s": [12, 15, 17, 18], "i": [0, 4], '
                   '"dual": [29, 30, 32, 35], "k": 2, "m": 4, '
                   '"perfect": false, "mult": 12, "frob": 55}\n')
    assert "bricks: 1 pairs, 1 distinct semigroups, 0 perfect" in err


def test_search_table_format(capsys):
    code, out, _ = invoke(capsys, "search", "--t-min", "4", "--t-max", "4",
                          "--gen-max", "20", "--format", "table")
    assert code == 0
    assert out == (
        "s_gens;i_gens;dual_gens;k;m;perfect;mult;frob\n"
        "12,15,17,18;0,4;29,30,32,35;2;4;false;12;55\n"
    )


def test_search_perfect_only(capsys):
    # the hunt-t4 golden's perfect lines, in the same order
    space = ("search", "--t-min", "4", "--t-max", "4", "--gen-max", "25")
    golden = GOLDEN["spaces"]["t4-4/gen25"]["sha256"]
    code, out, _ = invoke(capsys, *space)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == golden
    perfect = [line for line in out.splitlines(keepends=True)
               if '"perfect": true' in line]
    assert len(perfect) == 6
    summary = "bricks: 6 pairs, 3 distinct semigroups, 6 perfect"
    code, out, err = invoke(capsys, *space, "--perfect-only")
    assert code == 0
    assert out == "".join(perfect)
    assert err.splitlines()[0] == summary
    # the filter runs before either writer, and on the pool's records
    code, pooled, err = invoke(capsys, *space, "--perfect-only",
                               "--workers", "2")
    assert code == 0
    assert pooled == out
    assert err.splitlines()[0] == summary
    code, table, err = invoke(capsys, *space, "--perfect-only",
                              "--format", "table")
    assert code == 0
    assert table == render_reports(read_reports(io.StringIO(out)), "table")
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "99c034baabd6edf322888f2664a14092a30a7a0c5562c20e58943a691b0b345b")
    assert err.splitlines()[0] == summary


def test_search_out_file(tmp_path: Path, capsys):
    target = tmp_path / "hits.jsonl"
    code, out, err = invoke(capsys, "search", "--t-min", "4", "--t-max", "4",
                            "--gen-max", "20", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "bricks: 1 pairs" in err
    assert target.read_text().startswith('{"s": [12, 15, 17, 18]')


def test_search_workers_same_output(capsys):
    code, out1, _ = invoke(capsys, "search", "--t-min", "4", "--t-max", "4",
                           "--gen-max", "22")
    assert code == 0
    code, out2, _ = invoke(capsys, "search", "--t-min", "4", "--t-max", "4",
                           "--gen-max", "22", "--workers", "3")
    assert code == 0
    assert out1 == out2


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("space, summary, sha256", [
    # cap 4, past the default cap 3 of t = 4
    ({"t_min": 4, "t_max": 4, "gen_max": 20, "mu_cap": 4},
     "bricks: 2 pairs, 1 distinct semigroups, 0 perfect",
     "4f770d7e84604f8c2bb110ac1d25f89f19c3b862e49dd8bf5d4bb63b929a2a52"),
    # the default cap 2 of t = 2 and 3
    ({"t_min": 2, "t_max": 3, "gen_max": 30},
     "bricks: 48 pairs, 25 distinct semigroups, 0 perfect",
     "8e57319a0b3eb0a5c9531240fceb891e96dcc7e721d25115e48d0e7e498aeaf3"),
    # t = 6 at its default cap 4, where the nodes (0, g) want no kill bits
    # and only the headroom test prunes their subtrees
    ({"t_min": 6, "t_max": 6, "gen_max": 22},
     "bricks: 5 pairs, 3 distinct semigroups, 3 perfect",
     "e2d93af009fbe88a189d6175f42dc63667633f925ac75caafdfed00bc0d2036d"),
    # cap 5, the only pinned depth where a headroom kill of -1 at a node
    # (0, g) drops two inner levels of its subtree at once
    ({"t_min": 4, "t_max": 4, "gen_max": 21, "mu_cap": 5},
     "bricks: 10 pairs, 6 distinct semigroups, 2 perfect",
     "9bfd29f29455935b347d4d7e057a0039da0e8c822eeb59eb9aa2996e773fd255"),
    # the benchmark's hunt-t4 space against its golden report
    ({"t_min": 4, "t_max": 4, "gen_max": 25},
     "bricks: 31 pairs, 24 distinct semigroups, 6 perfect",
     GOLDEN["spaces"]["t4-4/gen25"]["sha256"]),
], ids=["t4-20-cap4", "t2-3-30", "t6-22", "t4-21-cap5", "t4-25"])
def test_pinned_search_outputs(capsys, space, summary, sha256, workers):
    # the report bytes and the summary recorded for each space; every space
    # holds more than 512 semigroups, so the 2-worker search takes more
    # than one chunk back from the pool
    assert sum(1 for _ in brickhunt._minimal_tuples(SearchConfig(**space))) > 512
    argv = ["search", "--workers", str(workers)]
    for name, value in space.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    code, out, err = invoke(capsys, *argv)
    assert code == 0
    assert err.splitlines()[0] == summary
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_search_empty_space(capsys):
    code, out, err = invoke(capsys, "search", "--gen-max", "8")
    assert code == 0
    assert out == ""
    assert "bricks: 0 pairs, 0 distinct semigroups, 0 perfect" in err


# ------------------------------------------------------------- exit codes

@pytest.mark.parametrize("argv, status", [
    (["analyze", "10", "11", "13", "17", "19"], 0),
    (["dual", "100003", "100019", "--", "0", "1"], 3),
], ids=["success", "resource-limit"])
def test_main_exits_with_the_run_status(monkeypatch, argv, status):
    # the console script's entry point reads sys.argv and exits with the
    # status run returns
    monkeypatch.setattr("sys.argv", ["sgbricks", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == status


def test_no_arguments(capsys):
    code, out, err = invoke(capsys)
    assert code == 2 and out == "" and err.startswith("usage:")


def test_help(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0 and out.startswith("usage:")


def test_unknown_command(capsys):
    code, _, err = invoke(capsys, "frobnicate")
    assert code == 2
    assert err.startswith("error: usage: unknown command")


def test_bad_integer(capsys):
    code, _, err = invoke(capsys, "analyze", "ten")
    assert code == 2
    assert "expected an integer" in err


def test_missing_separator(capsys):
    code, _, err = invoke(capsys, "dual", "10", "11", "13", "17", "19", "2", "5")
    assert code == 2
    assert "`--`" in err


def test_classify_arity_usage(capsys):
    code, _, err = invoke(capsys, "classify", "14", "15", "20")
    assert code == 2
    assert "four integers" in err


def test_domain_error_exit(capsys):
    code, _, err = invoke(capsys, "analyze", "10", "20")
    assert code == 3
    assert err == ("error: non-coprime: generators have gcd 10; "
                   "the complement would be infinite\n")


def test_resource_guards_exit(capsys):
    # refused before the table or the bitset is allocated
    code, out, err = invoke(capsys, "dual", "100003", "100019", "--", "0", "1")
    assert code == 3 and out == ""
    assert err == ("error: resource-limit: multiplicity 100003 exceeds the "
                   "bound of 65536\n")
    code, out, err = invoke(capsys, "dual", "10007", "10009", "--", "0", "1")
    assert code == 3 and out == ""
    assert err.startswith("error: resource-limit: an element bitset of ")


def test_worker_budget_exit(capsys, monkeypatch):
    # refused before any process is started
    def no_pool(*args, **kwargs):
        raise AssertionError("Pool was called")

    monkeypatch.setattr(brickhunt, "Pool", no_pool)
    code, out, err = invoke(capsys, "search", "--gen-max", "10",
                            "--workers", "1000000")
    assert code == 3 and out == ""
    assert err == ("error: resource-limit: 1000000 workers exceed the bound "
                   f"of {brickhunt.MAX_WORKERS}\n")


def test_lift_domain_error(capsys):
    code, _, err = invoke(capsys, "lift", "10", "11", "13", "17", "19",
                          "--", "2", "5")
    assert code == 3
    assert err.startswith("error: zero-not-generator:")


def test_io_error_exit(capsys):
    code, _, err = invoke(capsys, "search", "--gen-max", "10",
                          "--out", "/nonexistent-dir/x.txt")
    assert code == 4
    assert err.startswith("error: io:")


def test_unwritable_out_fails_before_search(capsys, monkeypatch, tmp_path):
    def no_search(config):
        raise AssertionError("search was called")

    monkeypatch.setattr(cli, "search", no_search)
    target = tmp_path / "missing-dir" / "x.jsonl"
    code, out, err = invoke(capsys, "search", "--gen-max", "10",
                            "--out", str(target))
    assert code == 4 and out == ""
    assert err.startswith("error: io:")


def test_out_truncated_when_search_starts(capsys, monkeypatch, tmp_path):
    # as with a shell redirect, an existing file is emptied before the
    # search runs, and stays empty when the search fails
    def failing_search(config):
        raise ResourceLimitError("search failed")

    monkeypatch.setattr(cli, "search", failing_search)
    target = tmp_path / "hits.jsonl"
    target.write_text("stale\n")
    code, _, err = invoke(capsys, "search", "--gen-max", "10",
                          "--out", str(target))
    assert code == 3
    assert err == "error: resource-limit: search failed\n"
    assert target.read_text() == ""


def test_gen_max_budget_exit(capsys, monkeypatch):
    # refused before the semigroup walk allocates its bitset
    def no_search(config):
        raise AssertionError("search was called")

    monkeypatch.setattr(cli, "search", no_search)
    code, out, err = invoke(capsys, "search", "--gen-max", str(2**26))
    assert code == 3 and out == ""
    assert err.startswith("error: resource-limit: a reachability bitset of ")


def test_search_requires_gen_max(capsys):
    code, _, err = invoke(capsys, "search", "--t-min", "4")
    assert code == 2
    assert "--gen-max" in err


def test_search_bad_config_is_domain_error(capsys, tmp_path):
    # the config is checked before --out is opened, so the path is untouched
    target = tmp_path / "hits.jsonl"
    code, _, err = invoke(capsys, "search", "--gen-max", "10", "--t-min", "1",
                          "--out", str(target))
    assert code == 3
    assert err.startswith("error: invalid-input:")
    assert not target.exists()


@pytest.mark.parametrize("args, named", [
    (("search", "--gen-max", "10", "--bogus"), "'--bogus'"),
    (("search", "--t-min"), "--t-min"),
    (("search", "--gen-max", "10", "--format", "csv"), "--format"),
    (("family",), "--z-max"),
    (("family", "--z-max"), "--z-max"),
    (("family", "--z-max", "x"), "'x'"),
    (("analyze",), "missing semigroup generators"),
    (("dual", "--", "0", "1"), "missing semigroup generators"),
    (("dual", "10", "11", "--"), "missing ideal generators"),
], ids=["unknown-option", "missing-value", "bad-format", "family-no-z-max",
        "family-missing-value", "family-not-an-integer", "analyze-no-gens",
        "dual-no-semigroup-gens", "dual-no-ideal-gens"])
def test_option_usage_errors(capsys, args, named):
    code, out, err = invoke(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error: usage: ") and named in err
