#!/usr/bin/env python3
"""Collate benchmark JSON artifacts into one trajectory table.

Every benchmark writes a per-run JSON artifact (via the ``report``
fixture) to the untracked ``benchmarks/results/``, and some gate on a
cross-machine baseline committed in ``benchmarks/baselines/``; nothing
collates them, so the per-PR history lives in a dozen disconnected
files.  This tool flattens each result file to its headline numbers —
wall-clock, events/packet, throughput, and any speedup/reduction ratios
— and prints one aligned row per file, so a single CI artifact tracks
the whole performance trajectory::

    python tools/bench_trend.py                # baselines/ + results/
    python tools/bench_trend.py path/to/results --out trend.txt

``--out`` also writes ``<out>.json`` next to the table with the raw
flattened rows for downstream tooling.  Exits 1 only when no result
files are found (a misconfigured CI job), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
DEFAULT_DIRS = (BENCHMARKS / "baselines", BENCHMARKS / "results")

#: Dotted-path suffixes for each table column, tried in order — the
#: shallowest match wins, so a top-level ``wall_s`` beats one nested
#: under a per-variant sub-dict.
COLUMN_KEYS = {
    "wall_s": ("wall_s",),
    "events_per_pkt": ("events_per_pkt", "events_per_packet"),
    "gbps": ("gbps", "output_mbps"),
}

#: Key fragments that mark a headline ratio (speedups, reductions,
#: baseline comparisons) — gathered into the trailing ``ratios`` cell.
RATIO_MARKERS = ("speedup", "reduction", "ratio")


def flatten(value, prefix: str = "") -> dict[str, float]:
    """Numeric scalar leaves of a nested JSON value, by dotted path."""
    flat: dict[str, float] = {}
    if isinstance(value, dict):
        for key, child in sorted(value.items()):
            path = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten(child, path))
    elif isinstance(value, int | float) and not isinstance(value, bool):
        flat[prefix] = float(value)
    return flat


def _pick(flat: dict[str, float], suffixes: tuple[str, ...]) -> float | None:
    for suffix in suffixes:
        matches = [path for path in flat
                   if path == suffix or path.endswith("." + suffix)]
        if matches:
            return flat[min(matches, key=lambda path: path.count("."))]
    return None


def _ratios(flat: dict[str, float]) -> dict[str, float]:
    found = {}
    for path, value in flat.items():
        leaf = path.rsplit(".", 1)[-1]
        if leaf.startswith("min_"):
            continue  # gate thresholds from config, not measurements
        # Whole-word match so "duration_ns" / "calibration_spin_s"
        # don't ride in on the "ratio" substring.
        if any(marker in leaf.split("_") for marker in RATIO_MARKERS):
            found.setdefault(leaf, value)
    return found


def collect(*results_dirs: pathlib.Path) -> list[dict]:
    """One summary row per result file in ``results_dirs`` (a missing
    directory has none), sorted by benchmark name."""
    rows = []
    paths = [path for directory in results_dirs
             for path in sorted(directory.glob("*.json"))]
    for path in paths:
        if path.stem.startswith("bench_trend"):
            continue  # our own output: never self-aggregate
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            rows.append({"name": path.stem, "error": str(error)})
            continue
        flat = flatten(data)
        row = {"name": data.get("name", path.stem),
               "file": path.name,
               "baseline": "baseline" in path.stem}
        for column, suffixes in COLUMN_KEYS.items():
            row[column] = _pick(flat, suffixes)
        row["ratios"] = _ratios(flat)
        rows.append(row)
    return sorted(rows, key=lambda row: row["name"])


def render(rows: list[dict]) -> str:
    def cell(value, precision=3):
        return "-" if value is None else f"{value:.{precision}f}"

    lines = [f"{'benchmark':<28} {'kind':>8} {'wall_s':>8} "
             f"{'ev/pkt':>8} {'gbps':>8}  ratios"]
    for row in rows:
        if "error" in row:
            lines.append(f"{row['name']:<28} unreadable: {row['error']}")
            continue
        ratios = " ".join(f"{key}={value:.2f}"
                          for key, value in sorted(row["ratios"].items()))
        lines.append(
            f"{row['name']:<28} "
            f"{'baseline' if row['baseline'] else 'run':>8} "
            f"{cell(row['wall_s']):>8} "
            f"{cell(row['events_per_pkt'], 2):>8} "
            f"{cell(row['gbps'], 2):>8}  {ratios}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_trend",
        description="collate benchmark JSON artifacts into one "
                    "performance-trajectory table")
    parser.add_argument("results", nargs="*", type=pathlib.Path,
                        default=list(DEFAULT_DIRS),
                        help="results directories (default: "
                             "benchmarks/baselines and benchmarks/results)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="also write the table here (plus the raw "
                             "rows as <out>.json)")
    args = parser.parse_args(argv)

    rows = collect(*args.results)
    if not rows:
        print("no benchmark results under "
              + ", ".join(map(str, args.results)), file=sys.stderr)
        return 1

    table = render(rows)
    print(table)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(table + "\n")
        args.out.with_suffix(args.out.suffix + ".json").write_text(
            json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
