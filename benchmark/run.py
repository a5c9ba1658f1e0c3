"""Benchmark for digraph-minors: minor search, the closure oracle and linked
decompositions.

    python3 benchmark/run.py --workload minor-pairs --seed 3 --trace 0
    python3 benchmark/run.py        # every workload, seed 0, one fresh interpreter each

A run imports the program from `src/` of the checkout this file sits in, sets
it up five times, then runs whole rounds of its workload's fixed query list
until `--seconds` have passed (by default `run_seconds` of BENCHMARK.json),
then sets it up five times more.  Load is a closed loop: one caller in one
process, no threads.  Every round re-imports the program first, so each round
starts from the state a fresh CLI process has, with empty process-wide caches.
`setup_s` is the median of all set-ups, the five before the rounds, the one
before each later round and the five after, so that its samples span the
whole run.

With `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced rounds and prints the per-layer metrics, whose
tracing overhead compares each traced round with the untraced rounds beside it.
After the rounds every distinct output is checked by the benchmark's own
code, with the program of the last, untraced set-up.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the same object goes to `benchmark/results/`, and a traced run's
spans beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = "digraph_minors"
SETUPS = 5
TAIL_BEYOND = 10  # samples beyond the tail percentile

END_TO_END = (
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Program:
    """The program's layer modules, as imported by one set-up."""

    def __init__(self):
        for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
            del sys.modules[key]
        pkg = importlib.import_module(PACKAGE)
        if Path(pkg.__file__).resolve().parent.parent != SRC:
            raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
        for layer in ("core", "connectivity", "pathdecomp", "minor", "cli", "experiments"):
            setattr(self, layer, importlib.import_module(f"{PACKAGE}.{layer}"))


def run_round(state, tracer=None):
    latencies = []
    records = []
    for i in range(len(state)):
        if tracer is not None:
            tracer.current_query = i
        t0 = time.perf_counter()
        try:
            result = state.query(i)
        except Exception as exc:  # a failed operation, counted and reported
            latencies.append(time.perf_counter() - t0)
            records.append(("error", f"{type(exc).__name__}: {exc}"))
            continue
        latencies.append(time.perf_counter() - t0)
        records.append(("ok", state.record(i, result)))
    return latencies, records


def check_rounds(state, rounds):
    """Check every distinct output once; return (failed, wrong, messages)."""
    verdicts = {}
    failed = wrong = 0
    messages = []
    for _, records, _ in rounds:
        for i, (status, record) in enumerate(records):
            key = (i, status, repr(record))
            if key not in verdicts:
                if status == "error":
                    problems = [record]
                else:
                    try:
                        problems = state.check(i, record)
                    except Exception as exc:  # malformed output
                        problems = [f"check raised {type(exc).__name__}: {exc}"]
                verdicts[key] = problems
                messages += [f"query {i}: {p}" for p in problems]
            if verdicts[key]:
                failed += 1
                wrong += status == "ok"
    return failed, wrong, messages


def tail(values):
    """The value with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100 * (n - TAIL_BEYOND) / n


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    results = BENCH / "results"
    workdir = BENCH / ".work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # untimed: the first set-up loads the standard-library modules the
        # program and the input generators use, writes the bytecode cache
        # where it may, and runs every generator once; a timed first set-up
        # took twice as long as the later ones
        workload(Program(), seed, workdir)
        setup_times = []

        def timed_set_up():
            """Import the program and load the workload's inputs into it."""
            gc.collect()
            t0 = time.perf_counter()
            state = workload(Program(), seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            return state

        for _ in range(SETUPS):
            state = timed_set_up()
        rounds = []  # (latencies, records, per-layer metrics or None)
        tracer = None
        started = time.perf_counter()
        while True:
            traced = trace and len(rounds) % 2 == 1
            if rounds:
                state = timed_set_up()
            if traced:
                tracer = spans.Tracer()
                tracer.install(PACKAGE)
            gc.collect()
            latencies, records = run_round(state, tracer if traced else None)
            rounds.append((latencies, records, tracer.metrics() if traced else None))
            done = time.perf_counter() - started >= seconds
            if done and (not trace or len(rounds) >= 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            results.mkdir(exist_ok=True)
            tracer.write(results / f"{name}-seed{seed}.spans.tsv.gz")
        for _ in range(SETUPS):
            state = timed_set_up()  # a fresh program, with no wrappers left

        failed, wrong, messages = check_rounds(state, rounds)
        attempted = sum(len(r[0]) for r in rounds)
        if trace:
            # each traced (odd) round against the untraced rounds on either
            # side, so that the machine's drift over the run cancels
            times = [sum(r[0]) for r in rounds]
            ratios = [times[k] / statistics.mean(t for t in times[k - 1:k + 2:2])
                      for k in range(1, len(times), 2)]
            metrics, steady = spans.combine([r[2] for r in rounds if r[2] is not None],
                                            100 * (statistics.median(ratios) - 1))
            units = dict(spans.PER_LAYER)
            if not steady:
                messages.append("per-layer counts differ between traced rounds")
        else:
            per_query = [statistics.median(r[0][i] for r in rounds) for i in range(len(state))]
            tail_s, tail_pct = tail(per_query)
            metrics = {
                "queries_per_s": statistics.median(len(r[0]) / sum(r[0]) for r in rounds),
                "query_p50_ms": 1000 * statistics.median(per_query),
                "query_tail_ms": 1000 * tail_s,
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setup_times),
            }
            units = dict(END_TO_END)
            steady = True
            print(f"{name}: {len(state)} queries a round, {len(rounds)} rounds of "
                  f"{', '.join(f'{sum(r[0]):.2f}' for r in rounds)} s; "
                  f"tail is p{tail_pct:g} of {len(per_query)} per-query medians")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()

    first = [record for status, record in rounds[0][1] if status == "ok"]
    if len(first) == len(state):
        print(f"{name}: {state.summary(first)}")
    for message in messages[:20]:
        print(f"{name}: {message}")
    print(f"{name}: attempted {attempted}, failed {failed}, "
          f"checks {'pass' if not wrong and steady else 'FAIL'}")
    for key, value in metrics.items():
        print(f"  {key:28s} {value:14.6g} {units[key]}")
    result = {
        "correct": wrong == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result) + "\n")
    return result


def run_all(seed, seconds, trace):
    """Every workload, each in a fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="how long to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no program source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload is None:
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
