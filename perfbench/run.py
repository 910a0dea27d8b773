#!/usr/bin/env python3
"""Benchmark for sgbricks: brick-hunt wall time, pair throughput, a
library-call mix, and a traced per-module run.

Run from the repository root:

    python3 perfbench/run.py --workload hunt-t4 --seed 1 --seconds 55 --trace 0

Workloads (each a single process):

* ``hunt-t4``: ``sgbricks search`` over 4-generator semigroups with
  generators up to 25, one worker.  About 95% of the time is the brick
  kernel, so pruning and kernel work show here.  The space takes under a
  second a pass, so that a run holds dozens of passes.  The traced run
  adds one pass at nproc workers for the pool's overhead.  Pool runs are
  not timed end to end: with every core busy, their time follows the rest
  of the host's load more than the program.
* ``algebra-lib``: a seeded mix of library calls (construction, dual, sum,
  brick_check on random semigroups; classify, canonical_brick,
  frobenius_of_quad, brick_check and lift on the unitary family at
  z = 3, 11, 19, ... up to 400).  It never calls ``search``, so it is the
  control for kernel and pool work.

The hunt space is fixed; the seed draws the algebra-lib inputs and the
sample behind the full-hunt estimate.  Every pass is checked: hunt output
against the golden sha256 in ``golden.json``, each library call against an
independent invariant.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics from spans recorded around each
module's public functions (see ``tracing.py``).  Human-readable lines come
first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import multiprocessing
import operator
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN = json.loads((HERE / "golden.json").read_text())
SETUP_REPEATS = 15  # set-ups timed per untraced run, spread over it
ESTIMATE_SAMPLES = 100  # sampled semigroups per dimension for est_full_hunt_s


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def import_sgbricks():
    """Import the package fresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n.split(".")[0] == "sgbricks"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("sgbricks")
    importlib.import_module("sgbricks.cli")
    if Path(lib.__file__).resolve().parent != SRC / "sgbricks":
        raise ImportError(f"sgbricks imported from {lib.__file__}, not {SRC}")
    return lib


@dataclass
class Pass:
    wall: float
    calls: int
    failed: int
    pairs: int
    latencies_ns: array  # per call, in call order; compact, so memory stays flat
    records: int = 0


# ------------------------------------------------------------------ hunts

@dataclass(frozen=True)
class Hunt:
    t_min: int
    t_max: int
    gen_max: int

    @property
    def golden(self) -> dict:
        return GOLDEN["spaces"][f"t{self.t_min}-{self.t_max}/gen{self.gen_max}"]

    def argv(self, workers: int, out: Path) -> list[str]:
        return ["search", "--t-min", str(self.t_min), "--t-max", str(self.t_max),
                "--gen-max", str(self.gen_max), "--workers", str(workers),
                "--out", str(out)]

    def prepare(self, lib, seed: int) -> Path:
        """The output path, after a warm-up search on a tiny space."""
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"hunt-{os.getpid()}.jsonl"
        if Hunt(4, 4, 18).run_pass(lib, out).failed:
            raise RuntimeError("warm-up search failed its golden check")
        return out

    def run_pass(self, lib, out: Path, workers: int = 1) -> Pass:
        stderr = io.StringIO()  # the search summary; not part of the output
        start = perf_counter()
        with contextlib.redirect_stderr(stderr):
            code = lib.cli.run(self.argv(workers, out))
        wall = perf_counter() - start
        data = b"" if code else out.read_bytes()
        problem = (f"exit code {code}: {stderr.getvalue().strip()}" if code
                   else check_hunt_output(data, self.golden))
        if problem:
            print(f"FAIL {self.argv(workers, out)}: {problem}", file=sys.stderr)
        return Pass(wall, 1, int(bool(problem)), self.golden["pairs"],
                    array("q", [int(wall * 1e9)]), data.count(b"\n"))


def check_hunt_output(data: bytes, golden: dict) -> str | None:
    """None when the line-format output matches the golden, else why not."""
    try:
        records = [json.loads(line) for line in data.decode().splitlines()]
        perfect = sum(1 for r in records if r["perfect"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if len(records) != golden["records"]:
        return f"{len(records)} records, golden has {golden['records']}"
    if perfect != golden["perfect"]:
        return f"{perfect} perfect records, golden has {golden['perfect']}"
    digest = hashlib.sha256(data).hexdigest()
    if digest != golden["sha256"]:
        return f"sha256 {digest} differs from golden {golden['sha256']}"
    return None


def count_space(lib, hunt: Hunt) -> tuple[int, int, float]:
    """Semigroups and candidate pairs of a hunt's space through the public
    enumerators, and the seconds enumerate_semigroups alone took."""
    config = lib.SearchConfig(t_min=hunt.t_min, t_max=hunt.t_max,
                              gen_max=hunt.gen_max)
    start = perf_counter()
    semigroups = list(lib.enumerate_semigroups(config))
    seconds = perf_counter() - start
    pairs = sum(sum(1 for _ in lib.enumerate_ideals(S, config))
                for S in semigroups)
    return len(semigroups), pairs, seconds


def estimate_full_hunt_pairs(lib, seed: int) -> int:
    """Candidate pairs of the t=2..5, gen<=50 space, from a uniform sample
    of its semigroups (random ascending tuples kept when they are minimal
    coprime generating sets) times the known semigroup counts."""
    rng = random.Random(seed)
    config = lib.SearchConfig(t_min=2, t_max=5, gen_max=50)
    total = 0.0
    for t, count in GOLDEN["full_hunt_semigroups"].items():
        sample = []
        while len(sample) < ESTIMATE_SAMPLES:
            gens = tuple(sorted(rng.sample(range(2, 51), int(t))))
            if math.gcd(*gens) == 1 and lib.NumericalSemigroup(gens).min_gens == gens:
                sample.append(lib.NumericalSemigroup(gens))
        pairs = [sum(1 for _ in lib.enumerate_ideals(S, config)) for S in sample]
        total += count * statistics.fmean(pairs)
    return round(total)


# ------------------------------------------------------------ library mix

@dataclass(frozen=True)
class Mix:
    semigroups: int
    z_max: int
    z_step: int

    def prepare(self, lib, seed: int) -> tuple[list, list]:
        """Random semigroups (3-5 generators, multiplicity 20-160) with
        three gap ideals each, and the unitary family members at every
        z_step-th z up to z_max."""
        rng = random.Random(seed)
        cases = []
        while len(cases) < self.semigroups:
            m = rng.randint(20, 160)
            gens = [m] + rng.sample(range(m + 1, 3 * m + 1), rng.randint(2, 4))
            if math.gcd(*gens) != 1:
                continue
            S = lib.NumericalSemigroup(gens)

            def gap() -> int:
                while True:
                    u = rng.randint(1, S.frobenius)
                    if u not in S:
                        return u
            u, v = sorted((gap(), gap()))
            cases.append((gens, [(0, gap()), (0, gap()), (0, u, v)]))
        zs = range(3, self.z_max + 1, self.z_step)
        family = [q for q in map(lib.unitary_family, zs) if q]
        inputs = (cases, family)
        self.run_pass(lib, (cases[:20], family[:5]))
        return inputs

    def run_pass(self, lib, inputs) -> Pass:
        cases, family = inputs
        latencies = array("q")
        failed = 0
        pairs = 0

        def call(check, fn, *args):
            # one library call, timed; it fails if it raises or if its
            # result breaks the invariant `check` tests
            nonlocal failed
            start = perf_counter_ns()
            try:
                result = fn(*args)
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                latencies.append(perf_counter_ns() - start)
                failed += 1
                print(f"FAIL {fn.__name__}{args!r}: {exc!r}", file=sys.stderr)
                return None
            latencies.append(perf_counter_ns() - start)
            if not check(result):
                failed += 1
                print(f"FAIL {fn.__name__}{args!r}: invariant broken", file=sys.stderr)
            return result

        semigroup, ideal = lib.NumericalSemigroup, lib.RelativeIdeal
        brick_check = lib.brick_check
        start = perf_counter()
        for gens, ideals in cases:
            S = call(lambda S: S.frobenius not in S and all(g in S for g in gens),
                     semigroup, gens)
            if S is None:
                continue
            for offsets in ideals:
                I = call(lambda I: set(I.min_gens) <= set(offsets), ideal, S, offsets)
                if I is None:
                    continue
                D = call(lambda D: all(d + z in S for d in D.min_gens for z in I.min_gens),
                         I.dual)
                K = call(lambda K: set(K.min_gens) <= {a + b for a in I.min_gens
                                                       for b in D.min_gens},
                         operator.add, I, D) if D is not None else None
                pairs += 1
                call(lambda c: c.dual_ideal == D and c.sum_ideal == K
                     and c.is_brick == (c.mu_ideal >= 2
                                        and c.mu_sum == c.mu_ideal * c.mu_dual),
                     brick_check, S, I)
        for quad in family:
            kind = call(lambda c: c.is_unitary, lib.classify, quad)
            if kind is None:
                continue
            a1, a2, a3, a4 = quad
            bricks = call(lambda b: b[0] == (0, a2 - a1), lib.canonical_brick, kind.profile)
            S = call(lambda S: S.min_gens == quad, semigroup, quad)
            if bricks is None or S is None:
                continue
            I = call(lambda I: I.min_gens == bricks[0], ideal, S, bricks[0])
            if I is None:
                continue
            pairs += 1
            call(lambda c: c.is_perfect and (c.mu_ideal, c.mu_dual) == (2, 2)
                 and c.dual_ideal.min_gens == (a1, a3), brick_check, S, I)
            call(lambda f: f == S.frobenius, lib.frobenius_of_quad, kind.profile)
            call(lambda r: r.quad == quad and r.check.is_perfect, lib.lift, S, I)
        wall = perf_counter() - start
        return Pass(wall, len(latencies), failed, pairs, latencies)


WORKLOADS = {
    "hunt-t4": Hunt(4, 4, 25),
    "algebra-lib": Mix(semigroups=1000, z_max=400, z_step=8),
}


# ------------------------------------------------------------------- runs

def set_up(workload, seed: int):
    """Import, input generation and warm-up, and the seconds they took."""
    gc.collect()
    start = perf_counter()
    lib = import_sgbricks()
    inputs = workload.prepare(lib, seed)
    return lib, inputs, perf_counter() - start


def run_pass(workload, lib, inputs, workers: int = 1) -> Pass:
    gc.collect()
    if isinstance(workload, Hunt):
        return workload.run_pass(lib, inputs, workers)
    return workload.run_pass(lib, inputs)


def measure(workload, lib, inputs, seed: int, seconds: float) -> tuple[dict, list[Pass], int]:
    """End-to-end metrics from untraced passes repeated while another
    pass of the last one's length still ends within `seconds`, and the
    number of set-ups timed between them.

    Every pass makes the same calls on the same inputs, in the same order.
    Each call's latency is its best over the passes: other load on a shared
    host slows a process for seconds to minutes at a time, and the best of
    many repeats spread over the run measures the program rather than that
    load.  On a hunt the one call is the whole search, so its best is the
    best pass.  `wall_s` is the sum of the best latencies: the library's own
    time per pass, without the benchmark's checks.

    `setup_s` is the median of SETUP_REPEATS set-ups spread evenly over the
    run, so that it does not hang on the host's load at one moment.  Each
    imports the package afresh; the passes keep using the first import.
    """
    passes: list[Pass] = []
    setups: list[float] = []
    best: array | None = None
    start = perf_counter()
    while not passes or perf_counter() - start + passes[-1].wall <= seconds:
        if perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(set_up(workload, seed)[2])
        done = run_pass(workload, lib, inputs)
        best = done.latencies_ns if best is None else array("q", map(min, best, done.latencies_ns))
        done.latencies_ns = array("q")  # folded into `best`
        passes.append(done)
    busy = sum(best) / 1e9
    metrics = {
        "wall_s": (busy, "s"),
        "pairs_per_s": (passes[0].pairs / busy, "1/s"),
        "ops_per_s": (len(best) / busy, "1/s"),
        "op_p50_us": (percentile(best, 50) / 1e3, "us"),
        "op_p99_us": (percentile(best, 99) / 1e3, "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, passes, len(setups)


def trace_layers(workload, lib, inputs, seconds: float) -> tuple[dict, list[Pass], list[str]]:
    """Per-layer metrics from traced single-worker passes, alternated with
    untraced ones for the tracing overhead.  Also returns count drifts."""
    start = perf_counter()
    drifts: list[str] = []
    passes: list[Pass] = []
    hunt = isinstance(workload, Hunt)
    enumerate_s = pool_overhead = 0.0
    pairs = None
    if hunt:
        golden = workload.golden
        semigroups, pairs, enumerate_s = count_space(lib, workload)
        if (semigroups, pairs) != (golden["semigroups"], golden["pairs"]):
            drifts.append(f"space has {semigroups} semigroups and {pairs} pairs, "
                          f"golden {golden['semigroups']} and {golden['pairs']}")
        if nproc() > 1:
            pool_pass = run_pass(workload, lib, inputs, workers=nproc())
            passes.append(pool_pass)

    tracer = Tracer()
    plain, traced, rows = [], [], []
    while not traced or (perf_counter() - start + plain[-1].wall
                         + traced[-1].wall <= seconds):
        plain.append(run_pass(workload, lib, inputs))
        tracer.pass_id += 1
        tracer.install()
        try:
            traced.append(run_pass(workload, lib, inputs))
        finally:
            tracer.remove()
        rows.append(tracer.totals(tracer.pass_id))
        tracer.spans.clear()
    passes += plain + traced
    serial_wall = statistics.median(p.wall for p in plain)
    if hunt and nproc() > 1:
        pool_overhead = pool_pass.wall - serial_wall / nproc()

    def layer(name: str, key: str) -> float:
        return statistics.median(row.get(name, {}).get(key, 0) for row in rows)

    exact = ("sgcore.construct", "ideal.brick_check")
    counts = {(name, row.get(name, {}).get("calls", 0)) for row in rows for name in exact}
    if len(counts) != len(exact):
        drifts.append(f"call counts differ between traced passes: {sorted(counts)}")
    hits = statistics.median(p.records for p in traced)
    if hunt:
        want = {"sgcore.construct": golden["semigroups"],
                "ideal.brick_check": golden["brick_checks"]}
        for name, calls in want.items():
            if layer(name, "calls") != calls:
                drifts.append(f"{name} made {layer(name, 'calls')} calls, golden {calls}")
    traced_wall = statistics.median(p.wall for p in traced)
    search_self = layer("brickhunt.search", "self_s")
    check_durations = [d for row in rows
                       for d in row.get("ideal.brick_check", {}).get("durations", [])]
    metrics = {
        "brickhunt.search_self_s": (search_self, "s"),
        "brickhunt.search_self_share": (search_self / traced_wall, "ratio"),
        "brickhunt.enumerate_semigroups_s": (enumerate_s, "s"),
        "brickhunt.hits": (hits, "count"),
        "brickhunt.hit_ratio": (hits / pairs if pairs else 0.0, "ratio"),
        "brickhunt.pool_overhead_s": (pool_overhead, "s"),
        "brickhunt.render_s": (layer("brickhunt.render", "self_s"), "s"),
        "brickhunt.lift_s": (layer("brickhunt.lift", "self_s"), "s"),
        "cli.overhead_s": (layer("cli.run", "incl_s") - layer("brickhunt.search", "incl_s"), "s"),
        "sgcore.construct_s": (layer("sgcore.construct", "self_s"), "s"),
        "sgcore.construct_calls": (layer("sgcore.construct", "calls"), "count"),
        "sgcore.element_mask_s": (layer("sgcore.element_mask", "self_s"), "s"),
        "sgcore.element_mask_calls": (layer("sgcore.element_mask", "calls"), "count"),
        "sgcore.element_mask_bits": (layer("sgcore.element_mask", "bits"), "bits"),
        "ideal.brick_check_s": (layer("ideal.brick_check", "self_s"), "s"),
        "ideal.brick_check_calls": (layer("ideal.brick_check", "calls"), "count"),
        "ideal.brick_check_p99_us": (percentile(check_durations, 99) * 1e6
                                     if check_durations else 0.0, "us"),
        "ideal.dual_s": (layer("ideal.dual", "self_s"), "s"),
        "ideal.sum_s": (layer("ideal.sum", "self_s"), "s"),
        "balanced.classify_s": (layer("balanced.classify", "self_s"), "s"),
        "balanced.classify_calls": (layer("balanced.classify", "calls"), "count"),
        "trace.overhead_frac": (traced_wall / serial_wall - 1, "ratio"),
    }
    return metrics, passes, drifts


def environment(seed: int, workload_name: str, trace: int, passes: list[Pass],
                setups: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sgbricks").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload_name,
        "trace": trace,
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": nproc(),
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
        "setup_samples": setups,
        "pass_samples": len(passes),
        "call_samples": sum(p.calls for p in passes),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    lib, inputs, _ = set_up(workload, args.seed)
    drifts: list[str] = []
    setups = 0
    try:
        if args.trace:
            metrics, passes, drifts = trace_layers(workload, lib, inputs, args.seconds)
        else:
            metrics, passes, setups = measure(workload, lib, inputs, args.seed, args.seconds)
            if isinstance(workload, Hunt):
                full = estimate_full_hunt_pairs(lib, args.seed)
                pps = metrics["pairs_per_s"][0]
                print(f"estimate (not gated): est_full_hunt_s = {full / pps:.0f} s "
                      f"for ~{full} candidate pairs (t=2..5, gen<=50) at 1 worker")
    finally:
        if isinstance(workload, Hunt):
            inputs.unlink(missing_ok=True)
            with contextlib.suppress(OSError):
                OUT_DIR.rmdir()

    for drift in drifts:
        print(f"FAIL exact count drift: {drift}", file=sys.stderr)
    attempted = sum(p.calls for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and not drifts
    print("env: " + json.dumps(environment(args.seed, args.workload, args.trace, passes, setups)))
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} failed)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
