"""The benchmark-trend collator: every benchmark JSON artifact lands in
the trajectory table with its headline numbers, and the CLI fails loudly
when pointed at nothing (a misconfigured CI job).

``tests/data/bench_trend/`` holds fixture artifacts (one run record, one
run, one baseline), so these tests never depend on a benchmark having
run in the checkout.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "tools" / "bench_trend.py"
FIXTURES = REPO / "tests" / "data" / "bench_trend"

spec = importlib.util.spec_from_file_location("bench_trend", SCRIPT)
bench_trend = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trend)


class TestCollect:
    def test_repo_results_all_collated(self):
        rows = bench_trend.collect(FIXTURES)
        by_name = {row["name"]: row for row in rows}
        # Every artifact shows up; baselines are tagged.
        assert "micro_adaptive" in by_name
        assert "micro_multihost" in by_name
        assert by_name["micro_multihost_baseline"]["baseline"]
        assert not by_name["micro_adaptive"]["baseline"]
        # The adaptive benchmark's headline ratios survive flattening.
        ratios = by_name["micro_adaptive"]["ratios"]
        assert ratios["window_reduction"] >= 5.0
        assert ratios["message_reduction"] >= 10.0

    def test_shallowest_wall_clock_wins(self):
        flat = bench_trend.flatten({
            "wall_s": 2.0,
            "metrics": {"object": {"wall_s": 9.0}},
        })
        assert bench_trend._pick(flat, ("wall_s",)) == 2.0

    def test_ratio_detection_is_whole_word(self):
        flat = {"config.duration_ns": 1e6,      # no "ratio" ride-along
                "config.min_speedup": 1.3,      # threshold, not result
                "metrics.speedup": 1.7,
                "metrics.baseline_ratio": 1.2}
        assert bench_trend._ratios(flat) == {"speedup": 1.7,
                                             "baseline_ratio": 1.2}


class TestCli:
    def write_results(self, directory: pathlib.Path) -> None:
        (directory / "fast.json").write_text(json.dumps(
            {"name": "fast", "metrics": {"wall_s": 0.5, "speedup": 2.0,
                                         "events_per_pkt": 3.25}}))
        (directory / "slow_baseline.json").write_text(json.dumps(
            {"name": "slow_baseline", "wall_s": 4.0}))
        (directory / "broken.json").write_text("{not json")

    def test_table_and_raw_rows_written(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        self.write_results(results)
        out = tmp_path / "trend.txt"
        assert bench_trend.main([str(results), "--out", str(out)]) == 0

        table = out.read_text()
        assert "fast" in table and "speedup=2.00" in table
        assert "baseline" in table          # kind column tags baselines
        assert "unreadable" in table        # broken file is reported

        rows = json.loads(out.with_suffix(".txt.json").read_text())
        by_name = {row["name"]: row for row in rows}
        assert by_name["fast"]["wall_s"] == 0.5
        assert by_name["slow_baseline"]["baseline"]

    def test_own_output_never_self_aggregates(self, tmp_path):
        self.write_results(tmp_path)
        (tmp_path / "bench_trend.txt.json").write_text("[]")
        names = [row["name"] for row in bench_trend.collect(tmp_path)]
        assert "bench_trend.txt" not in names
        assert len(names) == 3

    def test_cli_exit_codes(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        bad = subprocess.run([sys.executable, str(SCRIPT), str(empty)],
                             capture_output=True, text=True)
        assert bad.returncode == 1
        assert "no benchmark results" in bad.stderr
        # The default directories include the committed baselines, so a
        # clean checkout with no benchmark run still has rows.
        ok = subprocess.run([sys.executable, str(SCRIPT)],
                            capture_output=True, text=True)
        assert ok.returncode == 0
        assert "micro_adaptive" in ok.stdout

    def test_directories_are_merged(self, tmp_path):
        self.write_results(tmp_path)
        names = [row["name"] for row in
                 bench_trend.collect(FIXTURES, tmp_path,
                                     tmp_path / "missing")]
        assert {"micro_adaptive", "fast", "slow_baseline"} <= set(names)
        assert names == sorted(names)
