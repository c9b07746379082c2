"""Golden digests of the sharded kernel's observables and window counts.

Five :class:`ShardedSimulator` runs are pinned: the heterogeneous
50 us / 5 ms scenario of ``tests/test_sharded_parity.py`` at 1, 2 and 4
shards, and the uniform 4-host reference scenario at 2 and 4 shards.
For each run the committed record holds SHA-256 digests of the
deliveries, the latency samples, every host's ``HostStats.summary()``
(pool counters stripped for multi-shard runs, where boundary frames are
reclaimed at the source and re-allocated at the destination), the
merged control-event timeline and ``totals()``, plus each shard's
window and batch counts.  Boundary byte counts are deliberately not
pinned: they describe the wire format, not the model.  A change to the
conductor's schedule or boundary transport must reproduce every record
exactly.

The multi-shard runs honour ``SDNFV_SHARD_WORKERS`` like
``tests/test_sharded_parity.py``, so the worker leg pins the same runs
over multiprocessing pipes.  Regenerate (only for a deliberate
behaviour change) with::

    PYTHONPATH=src python -m tests.test_sharded_golden \\
        > tests/data/sharded_golden.json
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import pytest

from repro.sim.sharded import ShardedSimulator

from tests.test_sharded_parity import POOL_KEYS, het_scenario, make_scenario

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent
               / "data" / "sharded_golden.json")

WORKERS = int(os.environ.get("SDNFV_SHARD_WORKERS", "0"))

#: run name -> (scenario factory, shard count).
RUNS = {
    "het_1": (het_scenario, 1),
    "het_2": (het_scenario, 2),
    "het_4": (het_scenario, 4),
    "uniform_2": (make_scenario, 2),
    "uniform_4": (make_scenario, 4),
}


def sha256(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def golden_run(name: str) -> dict:
    """One pinned run's observables, JSON-ready."""
    factory, shards = RUNS[name]
    workers = WORKERS if shards > 1 else 0
    result = ShardedSimulator(factory(), shards=shards,
                              workers=workers).run()
    names = sorted(result.hosts)
    summaries = []
    for host in names:
        summary = result.host_summary(host)
        if shards > 1:
            summary = {key: value for key, value in summary.items()
                       if key not in POOL_KEYS}
        summaries.append((host, summary))
    return {
        "sent": result.sent,
        "received": result.received,
        "deliveries_sha256": sha256(
            [(host, result.deliveries(host)) for host in names]),
        "latency_sha256": sha256(
            [(host, result.hosts[host]["latency_samples"])
             for host in names]),
        "summaries_sha256": sha256(summaries),
        "events_sha256": sha256(result.events),
        "totals_sha256": sha256(result.totals()),
        "windows": [shard["transport"]["windows"]
                    for shard in result.shard_results],
        "batches": [shard["transport"]["batches"]
                    for shard in result.shard_results],
    }


def observed() -> dict:
    return {name: golden_run(name) for name in RUNS}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", list(RUNS))
def test_sharded_run_matches_golden(golden, name):
    assert golden_run(name) == golden[name]


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


def test_golden_model_observables_are_shard_count_invariant(golden):
    """Traffic observables agree across shard counts.  The merged event
    timeline is pinned per run only: its order at equal timestamps
    follows shard ids, which the partition changes."""
    model = ("sent", "received", "deliveries_sha256", "latency_sha256",
             "totals_sha256")
    for names in (("het_1", "het_2", "het_4"), ("uniform_2", "uniform_4")):
        records = [{key: golden[name][key] for key in model}
                   for name in names]
        assert all(record == records[0] for record in records), names
    assert golden["het_2"]["summaries_sha256"] \
        == golden["het_4"]["summaries_sha256"]
    assert golden["uniform_2"]["summaries_sha256"] \
        == golden["uniform_4"]["summaries_sha256"]


if __name__ == "__main__":
    print(json.dumps(observed(), indent=2, sort_keys=True))
