"""The summary arithmetic and table layout of tools/paired_bench.py."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).parents[1] / "tools" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", _TOOL)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

PARENT = [10.0, 12.0, 11.0, 13.0, 9.0, 10.0, 14.0, 12.0, 11.0, 8.0]
CHANGE = [12.0, 12.0, 13.0, 12.0, 11.0, 13.0, 15.0, 14.0, 13.0, 10.0]


def test_quartiles_inclusive():
    # Sorted parent: 8 9 10 10 11 11 12 12 13 14; inclusive positions 2.25, 4.5, 6.75.
    assert paired_bench.quartiles(PARENT) == pytest.approx((10.0, 11.0, 12.0))
    assert paired_bench.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_summary_higher_is_better_counts_ties_for_neither():
    s = paired_bench.summarize(PARENT, CHANGE, "higher")
    # Pair 2 (12 vs 12) is a tie and pair 4 (13 vs 12) a loss.
    assert s["wins"] == 8 and s["pairs"] == 10
    assert s["change"] == pytest.approx((12.0, 12.5, 13.0))
    assert s["delta"] == pytest.approx(12.5 / 11.0 - 1.0)
    assert s["spread"] == pytest.approx(2.0 / 11.0)


def test_summary_lower_is_better_reverses_wins_only():
    s = paired_bench.summarize(PARENT, CHANGE, "lower")
    assert s["wins"] == 1
    assert s["delta"] == pytest.approx(12.5 / 11.0 - 1.0)


def test_table_row_layout():
    s = paired_bench.summarize([100000.0, 110000.0, 120000.0], [0.5, 0.6, 0.7], "higher")
    assert paired_bench.table_row("eval_paper", "tokens_per_s", s) == (
        "| `eval_paper` | `tokens_per_s` | 110000 [105000, 115000] | 0.600 [0.550, 0.650] "
        "| −100.0% | 0/3 | 9.1% |")
    s = paired_bench.summarize([199.0, 199.0], [199.1, 199.1], "lower")
    assert "| 199.0 [199.0, 199.0] | 199.1 [199.1, 199.1] | +0.1% | 0/2 | 0.0% |" in (
        paired_bench.table_row("eval_paper", "peak_rss_mb", s))


def test_directions_come_from_the_benchmark_file():
    benchmark = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    better = paired_bench.directions(benchmark)
    assert better == {"setup_s": "lower", "tokens_per_s": "higher", "wall_s": "lower",
                      "peak_rss_mb": "lower"}


def test_seed_list():
    assert paired_bench.seed_list("0-3") == [0, 1, 2, 3]
    assert paired_bench.seed_list("1,5") == [1, 5]


def test_workloads_outside_the_benchmark_file_are_refused():
    with pytest.raises(SystemExit) as exit_info:
        paired_bench.main(["--parent", "HEAD", "--workloads", "eval_paper,bogus"])
    assert exit_info.value.code == 2


def test_trajectory_holds_the_table_figures_and_every_seed():
    values = {("eval_paper", "parent", "tokens_per_s"): PARENT,
              ("eval_paper", "change", "tokens_per_s"): CHANGE,
              ("eval_paper", "parent", "wall_s"): PARENT,
              ("eval_paper", "change", "wall_s"): CHANGE}
    better = {"tokens_per_s": "higher", "wall_s": "lower"}
    doc = paired_bench.trajectory("0" * 40, list(range(10)), values, better,
                                  ["change eval_paper seed 3: correct False, failed 0"])
    doc = json.loads(json.dumps(doc))
    assert doc["parent"] == "0" * 40 and doc["seeds"] == list(range(10))
    assert doc["failed"] == ["change eval_paper seed 3: correct False, failed 0"]
    assert list(doc["workloads"]) == ["eval_paper"]
    tokens = doc["workloads"]["eval_paper"]["tokens_per_s"]
    assert tokens["better"] == "higher"
    assert tokens["parent"] == {"values": PARENT, "q1": 10.0, "median": 11.0, "q3": 12.0}
    assert tokens["change"] == {"values": CHANGE, "q1": 12.0, "median": 12.5, "q3": 13.0}
    assert tokens["wins"] == 8 and tokens["pairs"] == 10
    assert tokens["delta"] == pytest.approx(12.5 / 11.0 - 1.0)
    assert tokens["parent_spread"] == pytest.approx(2.0 / 11.0)
    assert doc["workloads"]["eval_paper"]["wall_s"]["wins"] == 1
