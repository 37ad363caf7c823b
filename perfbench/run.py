#!/usr/bin/env python3
"""Benchmark of the fedpr simulator: seconds per federated round.

    python3 perfbench/run.py --workload cnn4-ref-fedpr --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, end-to-end table

The simulator is imported from ``src/`` of the checkout this script sits
in, never from an installed copy. Workloads are built from ``--seed``
(see workloads.py). BLAS runs on BLAS_THREADS threads, pinned through the
environment before numpy loads.

``--trace 0`` measures the end-to-end metrics untraced: whole runs (all
rounds of a fresh model), each after SETUPS_PER_RUN timed set-ups, until
``--seconds`` would be exceeded, at least two of them.
``--trace 1`` gives the per-layer metrics: it alternates untraced and
traced runs (their round-time ratio is the tracing overhead), traces one
set-up, and times single ops at the cnn4 shapes. Every run's final state
must hash to the pinned value at the pinned seed, and to the first run's
value at any other seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import ROUND_SPAN, ROUND_WRAPS, SETUP_WRAPS, TraceError, Tracer, check_coverage

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS_PER_RUN = 2
MIN_CHILD_SHARE = 0.9


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def pin_threads() -> None:
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = threads


def import_fedpr() -> None:
    """Put the checkout's src/ first on the path and import fedpr from it."""
    src = ROOT / "src"
    if not (src / "fedpr" / "__init__.py").is_file():
        raise BenchError(f"no fedpr sources under {src}")
    sys.path.insert(0, str(src))
    import fedpr

    if src.resolve() not in Path(fedpr.__file__).resolve().parents:
        raise BenchError(f"imported fedpr from {fedpr.__file__}, not from {src}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """HEAD's commit read from .git files; no git process, nothing outside ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def provenance() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": int(os.environ[THREAD_VARS[0]]),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def repeat_until(seconds: float, min_count: int, body) -> None:
    """Call body(i) for i = 0, 1, ... while the next call, at the median
    duration so far, would still end within ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        begin = time.perf_counter()
        body(len(durations))
        durations.append(time.perf_counter() - begin)
        projected = time.perf_counter() - start + statistics.median(durations)
        if len(durations) >= min_count and projected > seconds:
            return


def new_judge(wl, workload: str, seed: int):
    threads = int(os.environ[THREAD_VARS[0]])
    return wl.RunJudge(wl.expected_digest(workload, seed, wl.load_golden(), threads))


def judged_runs(judge, results):
    ok = [r for r in results if judge.judge(r)]
    if not ok:
        raise BenchError("every run failed: " + "; ".join(judge.errors[:3]))
    return ok


def measure_end_to_end(workload: str, seed: int, seconds: float):
    import workloads as wl

    cfg = wl.workload_config(workload, seed)
    judge = new_judge(wl, workload, seed)
    setup_times, digests, results, peak_rss = [], set(), [], []

    def one_run(_):
        # Set-ups are spread over the whole window, like the rounds, so
        # that their median sees the same machine conditions.
        setup = None
        for _ in range(SETUPS_PER_RUN):
            setup = None  # free the previous set-up before building the next
            setup, elapsed = wl.set_up(cfg)
            setup_times.append(elapsed)
            digests.add(setup.inputs_sha256)
        results.append(wl.run_rounds(setup, cfg))
        if not peak_rss:
            # Taken after the first run, as a user's process would end; how
            # many more runs fit the window must not move it.
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    repeat_until(seconds, 2, one_run)
    if len(digests) != 1:
        raise BenchError(f"set-up is not deterministic: {len(digests)} distinct input digests")
    ok = judged_runs(judge, results)
    print(
        f"{workload} samples: {len(setup_times)} set-ups, {len(ok)} runs, "
        f"{sum(len(r.round_seconds) for r in ok)} rounds"
    )
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(r.seconds for r in ok),
        "round_s": statistics.median(t for r in ok for t in r.round_seconds),
        "peak_rss_mb": peak_rss[0],
    }
    return metrics, judge


def measure_per_layer(workload: str, seed: int, seconds: float):
    import workloads as wl
    from microbench import op_microbenchmarks

    start = time.perf_counter()
    cfg = wl.workload_config(workload, seed)
    judge = new_judge(wl, workload, seed)
    prototype_path = cfg.strategy == "fedpr"
    metrics = op_microbenchmarks(seed)

    setup_tracer = Tracer()
    with setup_tracer.installed(SETUP_WRAPS):
        setup, _ = wl.set_up(cfg)
    check_coverage(setup_tracer, SETUP_WRAPS, prototype_path)

    run_tracer = Tracer()
    untraced, traced = [], []

    def body(i):
        if i % 2 == 0:
            untraced.append(wl.run_rounds(setup, cfg))
        else:
            with run_tracer.installed(ROUND_WRAPS):
                traced.append(wl.run_rounds(setup, cfg, run_tracer))

    remaining = seconds - (time.perf_counter() - start)
    repeat_until(remaining, 2, body)
    judged_runs(judge, untraced + traced)
    # Spans of failed runs are partial, so failures void the per-layer
    # figures rather than skewing them.
    if judge.failed:
        raise BenchError("runs failed: " + "; ".join(judge.errors[:3]))
    check_coverage(run_tracer, ROUND_WRAPS, prototype_path)

    rounds = run_tracer.get(ROUND_SPAN)
    child_share = rounds.child_seconds / rounds.seconds
    if child_share < MIN_CHILD_SHARE:
        raise BenchError(
            f"the traced children of run_round cover {child_share:.1%} of its time, "
            f"below {MIN_CHILD_SHARE:.0%}: an entry point is missing from the trace"
        )
    n = len(traced)
    run_s = rounds.seconds / n
    metrics[f"{ROUND_SPAN}.s"] = run_s
    metrics[f"{ROUND_SPAN}.child_share"] = child_share
    metrics["trace.overhead"] = (
        statistics.median(t for r in traced for t in r.round_seconds)
        / statistics.median(t for r in untraced for t in r.round_seconds)
        - 1.0
    )
    for tracer, wraps, per in ((setup_tracer, SETUP_WRAPS, 1), (run_tracer, ROUND_WRAPS, n)):
        for wrap in wraps:
            stats = tracer.get(wrap.metric)
            name = wrap.metric
            metrics[f"{name}.s"] = stats.seconds / per
            metrics[f"{name}.self_s"] = stats.self_seconds / per
            metrics[f"{name}.calls"] = stats.calls // per
            metrics[f"{name}.samples"] = stats.samples // per
            metrics[f"{name}.share"] = stats.seconds / per / run_s
    return metrics, judge


def result_line(metrics: dict, units: dict, judge) -> str:
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    return json.dumps(
        {
            "correct": judge.failed == 0,
            "attempted": judge.attempted,
            "failed": judge.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
    )


def run_workload(args, spec: dict) -> int:
    pin_threads()
    import_fedpr()
    print("provenance " + json.dumps(provenance(), sort_keys=True), flush=True)
    if args.trace:
        metrics, judge = measure_per_layer(args.workload, args.seed, args.seconds)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, judge = measure_end_to_end(args.workload, args.seed, args.seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    line = result_line(metrics, units, judge)
    for error in judge.errors:
        print(f"FAILED run: {error}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} runs attempted={judge.attempted} failed={judge.failed}")
    print(f"{args.workload} final-state sha256 {judge.expected}")
    print(line)
    return 0


def run_all(args, workloads) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    table, ok = [], True
    for workload in workloads:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"{workload}: benchmark exited with code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            table.append((workload, name, f"{metric['value']:.6g}", metric["unit"]))
        table.append((workload, "fail_frac", f"{result['failed'] / result['attempted']:.6g}", "ratio"))
        table.append((workload, "final_state", "sha256", "ok" if result["correct"] else "FAILED"))
    width = max(len(row[0]) for row in table) if table else 0
    for workload, name, value, unit in table:
        print(f"{workload:<{width}}  {name:<12} {value:>14} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    try:
        if args.workload == "all":
            return run_all(args, names)
        return run_workload(args, spec)
    except (BenchError, TraceError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # the benchmark's own boundary: report, never a result
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
