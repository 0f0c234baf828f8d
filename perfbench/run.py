"""narrative-seq benchmark: one workload per process, metrics on the last line.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else, so the benchmark exits non-zero without
a result when the source is missing.

``--trace 0`` repeats the workload's timed operation while ``--seconds``
allows (at least once) and reports the end-to-end metrics as medians over
those iterations. ``--trace 1`` runs an untraced warm-up iteration, a traced
iteration and another untraced one, checks that all three give the same
output digests, and reports the per-layer metrics from the traced one.
``--workload all`` runs each workload in its own child process and prints a
summary table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything else a run
measures (environment, per-iteration times, digests and their comparison
with ``reference_digests.json``) goes to ``.perfbench/results/`` and, for a
traced run, the spans to ``.perfbench/spans/``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"
WORKLOAD_NAMES = ("train_paper", "eval_paper", "pipeline_desk")
SETUP_REPEATS = 3

# Each workload's headline metric under its workload-specific name, printed
# above the generic names the result line uses for every workload.
HEADLINE = {
    "train_paper": ("train_tokens_per_s", "tokens_per_s", "tok/s"),
    "eval_paper": ("eval_tokens_per_s", "tokens_per_s", "tok/s"),
    "pipeline_desk": ("pipeline_s", "wall_s", "s"),
}
END_TO_END_UNITS = {"setup_s": "s", "tokens_per_s": "tok/s", "wall_s": "s",
                    "peak_rss_mb": "MB"}


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's digests in reference_digests.json")
    return p.parse_args(argv)


def _pin_numpy_environment() -> None:
    """Defaults for settings numpy reads once, at import; a value the caller
    set is kept.

    BLAS may use at most the CPUs this process may run on. numpy asks for
    transparent huge pages on large arrays; whether it gets them depends on
    how fragmented the machine's memory is, which swung paper-shape times by
    up to 15% from one run to the next, so the benchmark turns the request off.
    """
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")


def _import_package():
    src = ROOT / "src"
    if not (src / "narrative_seq" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {src / 'narrative_seq'}; "
                 "run from the root of a narrative-seq checkout")
    sys.path.insert(0, str(src))
    import narrative_seq

    if Path(narrative_seq.__file__).resolve().parent != (src / "narrative_seq").resolve():
        sys.exit(f"benchmark: imported narrative_seq from {narrative_seq.__file__}, "
                 f"not from {src}")


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration", ""),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "NUMPY_MADVISE_HUGEPAGE": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
    }


def _build_key(env: dict) -> str:
    # OpenBLAS picks its kernels per CPU, so digests are pinned per numpy
    # build, BLAS build and CPU model.
    return f"numpy {env['numpy']} | {env['blas_config']} | {env['cpu_model']}"


def _compare_reference(env, workload, seed, digests, record: bool) -> dict:
    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8")) if REFERENCE_FILE.exists() else {}
    key = _build_key(env)
    ref = table.get(key, {}).get(workload, {}).get(str(seed))
    if record:
        table.setdefault(key, {}).setdefault(workload, {})[str(seed)] = digests
        REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    if ref is None:
        return {"status": "no reference for this build and seed", "mismatched": []}
    mismatched = sorted(n for n in set(ref) | set(digests) if ref.get(n) != digests.get(n))
    return {"status": "mismatch" if mismatched else "match", "mismatched": mismatched}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _digest_check(iterations, what: str) -> list[str]:
    """One failure per iteration whose digests differ from the first one's."""
    first = iterations[0].digests
    failures = []
    for it in iterations[1:]:
        differing = sorted(n for n in set(first) | set(it.digests)
                           if first.get(n) != it.digests.get(n))
        if differing:
            failures.append(f"{what}: {differing}")
    return failures


def run_workload(args) -> int:
    _pin_numpy_environment()
    _import_package()
    import tracing
    import workloads

    import_s = time.perf_counter() - _T_START
    env = environment()
    work = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        if args.trace:
            # The first iteration is a warm-up. The tracing overhead compares
            # the traced iteration with the untraced one that follows it.
            warm_up = wl.iterate()
            with tracing.Tracer() as tracer:
                traced = wl.iterate()
            plain = wl.iterate()
            iterations = [warm_up, traced, plain]
        else:
            iterations = []
            laps = []
            t_measure = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                iterations.append(wl.iterate())
                laps.append(time.perf_counter() - t0)
                if time.perf_counter() - t_measure + statistics.median(laps) > args.seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for it in iterations for f in it.failures]
    failures += _digest_check(iterations, "traced run changed the output digests"
                              if args.trace else "digests differ between iterations")
    attempted = sum(it.attempted for it in iterations) + len(iterations) - 1
    digests = iterations[0].digests
    reference = _compare_reference(env, args.workload, args.seed, digests,
                                   args.record_reference and not failures)

    walls = [it.wall_s for it in iterations]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "import_s": import_s, "setup_repeats_s": setup_times,
        "iterations": [{"wall_s": it.wall_s, "tokens": it.tokens, **it.parts_s}
                       for it in iterations],
        "digests": digests, "reference": reference, "failures": failures,
        "failed_ops_ratio": len(failures) / attempted,
    }
    if args.trace:
        per_layer = tracer.per_layer()
        per_layer["trace.overhead_ratio"] = traced.wall_s / plain.wall_s - 1.0
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
        spans_path = OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.npz"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["span_count"] = len(tracer.start)
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "tokens_per_s": statistics.median(it.tokens / it.wall_s for it in iterations),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": _peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        for part in iterations[0].parts_s:
            detail[part] = statistics.median(it.parts_s[part] for it in iterations)
    detail["metrics"] = metrics

    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    _print_report(detail)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _print_report(d: dict) -> None:
    print(f"workload {d['workload']}  seed {d['seed']}  trace {d['trace']}  "
          f"iterations {len(d['iterations'])}")
    print("environment " + json.dumps(d["environment"]))
    m = d["metrics"]
    if not d["trace"]:
        label, name, unit = HEADLINE[d["workload"]]
        print(f"  {label:<50}{m[name]['value']:>14.4f} {unit}")
        for part in ("preprocess_s", "compare_s"):
            if part in d:
                print(f"    {part:<48}{d[part]:>14.4f} s")
    for name, v in m.items():
        print(f"  {name:<50}{v['value']:>14.6g} {v['unit']}")
    print(f"  {'failed_ops_ratio':<50}{d['failed_ops_ratio']:>14.6g} ratio")
    for failure in d["failures"]:
        print(f"  FAILED {failure}")
    for name, digest in d["digests"].items():
        print(f"  digest {name} {digest[:16]}")
    ref = d["reference"]
    print(f"  reference digests: {ref['status']}"
          + (f" ({', '.join(ref['mismatched'])})" if ref["mismatched"] else ""))


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up are its own."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode} without a result")
            return 1
        summary[name] = json.loads(lines[-1])
    if not args.trace:
        print()
        print(f"{'workload':<15}{'metric':<20}{'value':>14}  unit")
        for name, result in summary.items():
            detail = json.loads((OUT_DIR / "results" / f"{name}-seed{args.seed}-trace0.json")
                                .read_text(encoding="utf-8"))
            label, key, unit = HEADLINE[name]
            rows = [(label, result["metrics"][key]["value"], unit)]
            rows += [(k, result["metrics"][k]["value"], END_TO_END_UNITS[k])
                     for k in ("setup_s", "peak_rss_mb")]
            rows.append(("failed_ops_ratio", detail["failed_ops_ratio"], "ratio"))
            for metric, value, unit in rows:
                print(f"{name:<15}{metric:<20}{value:>14.4f}  {unit}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
