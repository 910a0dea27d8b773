"""The paper's full hunt, t = 2..5 and gen <= 50, against its pinned summary.

The hunt takes minutes even at several workers, so these tests run only when
SGBRICKS_FULL_HUNT=1 is set:

    SGBRICKS_FULL_HUNT=1 PYTHONPATH=src python -m pytest tests/test_full_hunt.py -v -s

The search runs once, at one worker per CPU.  Its line payload
must match the sha256 and byte count in results/hunt-t2-5-gen50.json, and
its records the counts there.  hunt_summary builds that file's figures.
"""

import dataclasses
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from sgbricks.brickhunt import MAX_WORKERS, SearchConfig, search, write_reports

from corpus import unitary_profiles
from test_acceptance import check_lift_experiment

RESULT = Path(__file__).resolve().parents[1] / "results" / "hunt-t2-5-gen50.json"
CONFIG = SearchConfig(t_min=2, t_max=5, gen_max=50)

pytestmark = pytest.mark.skipif(
    os.environ.get("SGBRICKS_FULL_HUNT") != "1",
    reason="the full hunt takes minutes; set SGBRICKS_FULL_HUNT=1 to run it")


def hunt_summary(reports, payload: bytes) -> dict:
    """The pinned figures of a hunt: the payload's sha256 and size, and the
    record counts by t, by dimensions and by multiplicity, of semigroups and
    of perfect bricks."""
    def tally(keys):
        out: dict[str, int] = {}
        for key in keys:
            out[str(key)] = out.get(str(key), 0) + 1
        return dict(sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0])))

    by_t = {str(t): 0 for t in range(CONFIG.t_min, CONFIG.t_max + 1)}
    by_t.update(tally(len(r.s_gens) for r in reports))
    return {
        "sha256": hashlib.sha256(payload).hexdigest(),
        "bytes": len(payload),
        "records": len(reports),
        "semigroups": len({r.s_gens for r in reports}),
        "perfect": sum(r.perfect for r in reports),
        "by_t": by_t,
        "by_dimensions": tally(f"{r.k}x{r.m}" for r in reports),
        "by_multiplicity": tally(r.multiplicity for r in reports),
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(RESULT.read_text())


@pytest.fixture(scope="module")
def hunt():
    workers = min(os.cpu_count() or 1, MAX_WORKERS)
    reports = search(dataclasses.replace(CONFIG, worker_count=workers))
    buf = io.StringIO()
    write_reports(reports, buf)
    return reports, buf.getvalue().encode()


def test_full_hunt_matches_the_pinned_summary(hunt, pinned):
    reports, payload = hunt
    assert hunt_summary(reports, payload) == pinned["summary"]


def test_full_hunt_perfect_bricks_are_the_unitary_quadruples(hunt, pinned):
    # every perfect brick is 2x2, two on each unitary quadruple with a4 <= 50
    reports, _ = hunt
    perfect = [r for r in reports if r.perfect]
    unitary = {p.gens for p in unitary_profiles(CONFIG.gen_max)}
    assert len(unitary) == pinned["unitary_semigroups"]
    assert {r.s_gens for r in perfect} == unitary
    assert all((r.k, r.m) == (2, 2) for r in perfect)
    assert len(perfect) == 2 * len(unitary)


def test_full_hunt_lift_experiment(hunt, pinned):
    reports, _ = hunt
    lifted, degenerate, imperfect, non_unitary = check_lift_experiment(reports)
    assert {
        "two_by_two": lifted,
        "perfect_unitary": lifted - len(degenerate) - len(imperfect)
        - len(non_unitary),
        "non_coprime": len(degenerate),
        "imperfect": len(imperfect),
        "non_unitary": len(non_unitary),
    } == pinned["lift"]
