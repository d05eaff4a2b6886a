"""Byte pins for the two scenario-execution front doors.

* ``fixtures/corpus/sweep_s7.json`` is the full output of
  ``python -m repro.corpus sweep --seed 7 --per-domain 3``: per-domain
  availability, curves, invariant outcomes (names, verdicts, details)
  and validation issues for every generated scenario.
* ``fixtures/chaos_digests.json`` holds, for three chaos runs, the
  sha256 of the exported trace plus the op tallies, error classes, the
  generated fault script and the post-run invariant names.

Both files are compared byte for byte, so any change in how a scenario
op is fired, classified or checked shows up here.  Re-record after an
intended behaviour change with::

    PYTHONPATH=src python tests/test_scenario_pins.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.corpus.sweep import run_sweep
from repro.faults import ResilienceConfig, RetryPolicy, run_chaos

FIXTURES = Path(__file__).parent / "fixtures"
SWEEP_FIXTURE = FIXTURES / "corpus" / "sweep_s7.json"
CHAOS_FIXTURE = FIXTURES / "chaos_digests.json"

# The moderately sized scenario of test_chaos.py.
CHAOS_SCENARIO = dict(node_count=5, entities=6, operations=150, fault_events=20)
CHAOS_RUNS = {
    "seed0": dict(seed=0),
    "seed7": dict(seed=7),
    "seed11_resilience_burst_loss": dict(
        seed=11,
        resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=4, base_delay=0.05)),
        burst_loss=0.02,
    ),
}


def _dump(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def sweep_text():
    """What ``python -m repro.corpus sweep --seed 7 --per-domain 3`` writes."""
    return _dump(run_sweep(seed=7, per_domain=3))


def chaos_digest(overrides):
    report = run_chaos(**CHAOS_SCENARIO, **overrides)
    return {
        "trace_sha256": hashlib.sha256(report.trace_jsonl.encode("utf-8")).hexdigest(),
        "attempted": report.attempted,
        "served": report.served,
        "blocked": report.blocked,
        "errors": dict(sorted(report.errors.items())),
        "fault_events": json.loads(json.dumps(report.fault_events)),
        "invariants": [result.name for result in report.invariants],
    }


def chaos_text():
    return _dump({name: chaos_digest(overrides) for name, overrides in CHAOS_RUNS.items()})


def record_fixtures():
    SWEEP_FIXTURE.write_text(sweep_text(), encoding="utf-8")
    CHAOS_FIXTURE.write_text(chaos_text(), encoding="utf-8")


def test_corpus_sweep_matches_fixture():
    assert sweep_text().encode("utf-8") == SWEEP_FIXTURE.read_bytes()


@pytest.mark.parametrize("name", sorted(CHAOS_RUNS))
def test_chaos_run_matches_digest(name):
    expected = json.loads(CHAOS_FIXTURE.read_text(encoding="utf-8"))[name]
    assert chaos_digest(CHAOS_RUNS[name]) == expected


def test_chaos_digest_fixture_is_canonical():
    assert chaos_text().encode("utf-8") == CHAOS_FIXTURE.read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record_fixtures()
    else:
        sys.exit(pytest.main([__file__, "-q"]))
