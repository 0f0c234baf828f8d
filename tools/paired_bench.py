"""Paired benchmark runs of a parent commit against this tree.

    python3 tools/paired_bench.py --parent REV [--workloads eval_paper,train_paper]
                                  [--seeds 0-9] [--json BENCH_<n>.json]

The parent's committed files are unpacked with ``git archive`` into a
temporary directory, which is removed again on exit, Ctrl-C included; the
repository's own checkout state is not touched. For each workload and seed,
each tree runs its own ``perfbench/run.py --workload W --seed S --seconds T
--trace 0``, the parent first on even seeds and this tree first on odd ones,
so host drift falls on both sides alike. This tree is the working tree the
tool lives in, uncommitted edits included.

``BENCHMARK.json`` is only read. It gives the run length ``T``
(``run_seconds``), the workloads (all of them unless ``--workloads`` picks
some), the end-to-end metrics and which direction of each is better. The
table printed at the end has one row per workload and end-to-end metric:
each side's median [Q1, Q3], the change in median, the pairs the change won
(a tie counts for neither side) and the parent's interquartile spread over
its median. ``--json`` also writes the same figures to a file: the parent
revision, the seeds, and per workload and metric each side's per-seed values
with their quartiles, the change in median, the wins and the parent spread,
plus every failed run. The exit status is 1 if any run was not ``correct``,
had ``failed`` above 0 or ended without a result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def directions(benchmark: dict) -> dict[str, str]:
    """Each end-to-end metric's better direction, ``"lower"`` or ``"higher"``."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) with the inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Paired summary of one metric; ``parent[i]`` and ``change[i]`` are one pair."""
    p, c = quartiles(parent), quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    return {
        "parent": p, "change": c,
        "delta": c[1] / p[1] - 1.0,
        "wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
        "spread": (p[2] - p[0]) / p[1],
    }


def _number(v: float) -> str:
    return f"{v:.0f}" if abs(v) >= 1000 else f"{v:.1f}" if abs(v) >= 10 else f"{v:.3f}"


def _percent(v: float) -> str:
    return f"{v:+.1%}".replace("-", "−")


def table_row(workload: str, metric: str, s: dict) -> str:
    """One markdown row: workload, metric, both sides, Δ median, wins, parent spread."""
    sides = [f"{_number(m)} [{_number(q1)}, {_number(q3)}]" for q1, m, q3 in (s["parent"], s["change"])]
    return (f"| `{workload}` | `{metric}` | {sides[0]} | {sides[1]} | {_percent(s['delta'])} "
            f"| {s['wins']}/{s['pairs']} | {s['spread']:.1%} |")


def trajectory(parent: str, seeds: list[int], values: dict, better: dict[str, str],
               problems: list[str]) -> dict:
    """The ``--json`` document; ``values[workload, side, metric]`` lists one
    value per seed, in ``seeds`` order."""
    workloads = dict.fromkeys(w for w, _, _ in values)
    doc = {"parent": parent, "seeds": seeds, "workloads": {}, "failed": problems}
    for workload in workloads:
        metrics = doc["workloads"][workload] = {}
        for metric, direction in better.items():
            runs = {side: values[workload, side, metric] for side in ("parent", "change")}
            s = summarize(runs["parent"], runs["change"], direction)
            metrics[metric] = {
                "better": direction,
                **{side: {"values": runs[side], "q1": s[side][0], "median": s[side][1],
                          "q3": s[side][2]} for side in runs},
                "delta": s["delta"], "wins": s["wins"], "pairs": s["pairs"],
                "parent_spread": s["spread"],
            }
    return doc


def seed_list(text: str) -> list[int]:
    """``"0-9"`` or ``"1,3,5"`` as a list of seeds."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one untraced run of ``tree``'s own benchmark, or None."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--json", type=Path, help="also write the figures to this file")
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    better = directions(benchmark)
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workloads:
        unknown = set(args.workloads.split(",")) - set(workloads)
        if unknown:
            parser.error(f"not a BENCHMARK.json workload: {', '.join(sorted(unknown))}")
        workloads = [w for w in workloads if w in args.workloads.split(",")]

    problems: list[str] = []
    values = {(w, side, m): [] for w in workloads for side in ("parent", "change") for m in better}
    parent = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                             f"{args.parent}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        parent_tree = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        for workload in workloads:
            for seed in args.seeds:
                order = [("parent", parent_tree), ("change", ROOT)]
                for side, tree in order if seed % 2 == 0 else order[::-1]:
                    result = run_once(tree, workload, seed, benchmark["run_seconds"])
                    if result is None:
                        print(f"{side} {workload} seed {seed}: no result", file=sys.stderr)
                        return 1
                    if not result["correct"] or result["failed"] > 0:
                        problems.append(f"{side} {workload} seed {seed}: correct "
                                        f"{result['correct']}, failed {result['failed']}")
                    for metric in better:
                        values[workload, side, metric].append(
                            result["metrics"][metric]["value"])
                    print(f"{side} {workload} seed {seed}: " + ", ".join(
                        f"{m} {values[workload, side, m][-1]:.4g}" for m in better),
                        file=sys.stderr)

    print("| workload | metric | parent | change | Δ median | wins | parent spread |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in workloads:
        for metric, direction in better.items():
            s = summarize(values[workload, "parent", metric],
                          values[workload, "change", metric], direction)
            print(table_row(workload, metric, s))
    for problem in problems:
        print(f"FAILED {problem}")
    if args.json:
        doc = trajectory(parent, args.seeds, values, better, problems)
        args.json.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
