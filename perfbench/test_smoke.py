"""Smoke test of the benchmark itself on tiny inputs (4-generator
semigroups up to 18, a 20-semigroup library mix).

Run with ``python -m pytest perfbench``.  It fails when a metric named in
BENCHMARK.json stops being reported, when the golden check stops catching
changed output, or when a traced function is renamed or moved, so that a
refactor cannot silently drop a layer from the trace.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import run
import tracing

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = {"hunt-t4": run.Hunt(4, 4, 18),
        "algebra-lib": run.Mix(semigroups=20, z_max=30, z_step=1)}


def bench(monkeypatch, workload: str, trace: int) -> dict:
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", workload, "--seed", "7",
                         "--seconds", "0", "--trace", str(trace)])
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_workloads_match_spec_and_golden():
    assert set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for workload in run.WORKLOADS.values():
        if isinstance(workload, run.Hunt):
            assert workload.golden["pairs"] > 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_reports_every_metric(monkeypatch, workload):
    untraced = bench(monkeypatch, workload, 0)
    assert set(untraced) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert untraced[m["name"]]["unit"] == m["unit"]
        assert untraced[m["name"]]["value"] > 0
    traced = bench(monkeypatch, workload, 1)
    assert set(traced) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert traced[m["name"]]["unit"] == m["unit"]


def test_traced_hunt_matches_golden_counts(monkeypatch):
    golden = TINY["hunt-t4"].golden
    traced = bench(monkeypatch, "hunt-t4", 1)
    assert traced["sgcore.construct_calls"]["value"] == golden["semigroups"]
    assert traced["ideal.brick_check_calls"]["value"] == golden["brick_checks"]
    assert traced["brickhunt.hits"]["value"] == golden["records"]
    assert traced["brickhunt.hit_ratio"]["value"] == golden["records"] / golden["pairs"]


def test_golden_check_catches_changed_output(tmp_path):
    hunt = TINY["hunt-t4"]
    lib = run.import_sgbricks()
    out = tmp_path / "out.jsonl"
    assert not hunt.run_pass(lib, out).failed
    data = out.read_bytes()
    assert run.check_hunt_output(data, hunt.golden) is None
    assert run.check_hunt_output(data.replace(b'"k": 2', b'"k": 3'), hunt.golden)
    assert run.check_hunt_output(data + data, hunt.golden)
    assert run.check_hunt_output(b"", hunt.golden)
    assert run.check_hunt_output(b"not json\n", hunt.golden)


def test_every_hook_is_present_and_fires(tmp_path):
    lib = run.import_sgbricks()
    for module, path in tracing.HOOKS.values():
        owner, attr = tracing.resolve(module, path)
        assert callable(getattr(owner, attr)), f"{module}.{path} is gone"
    original_search = lib.cli.search
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lib.cli.search is not original_search
        TINY["hunt-t4"].run_pass(lib, tmp_path / "out.jsonl")
        mix = TINY["algebra-lib"]
        mix.run_pass(lib, mix.prepare(lib, seed=7))
    finally:
        tracer.remove()
    assert lib.cli.search is original_search
    assert {span[0] for span in tracer.spans} == set(tracing.HOOKS)
