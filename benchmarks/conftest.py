"""Benchmark helpers: result reporting to stdout and benchmarks/results/.

Every benchmark regenerates one of the paper's tables or figures and
prints a paper-vs-measured comparison.  pytest captures stdout, so each
report is also written to ``benchmarks/results/<name>.txt`` — inspect
those files (or run with ``-s``) to see the series.  When the benchmark
passes its numbers via ``metrics=``, a machine-readable
``benchmarks/results/<name>.json`` is written next to the text report so
dashboards and regression tooling never have to parse the tables.

``results/`` is untracked scratch.  The references some benchmarks gate
on are committed in ``benchmarks/baselines/`` and are only ever read.
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report():
    """report(name, text, metrics=None, config=None): print and persist.

    ``text`` goes to stdout and ``results/<name>.txt``.  ``metrics`` (a
    JSON-serialisable mapping, typically the same columns/rows the table
    was rendered from) and ``config`` (workload knobs: rates, sizes,
    burst_size, ...) are written to ``results/<name>.json``.
    """
    def _report(name: str, text: str, metrics=None, config=None) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        payload = {"name": name,
                   "config": config or {},
                   "metrics": metrics or {}}
        json_path = RESULTS_DIR / f"{name}.json"
        json_path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                             + "\n")
        print(f"\n{text}\n[saved to {path} and {json_path}]")

    return _report
