"""orthoseq benchmark: one closed-loop client, one workload per run.

Usage (from the repository root):

    python3 bench/run.py --workload surgery|cycles|roundtrip|all --seed N \\
        --seconds S --trace 0|1

The client issues one request at a time and waits for it (no threads).
Requests come in rounds (see workloads.py).  After one untimed warm-up
round, the run keeps starting rounds until the requests' summed latency
reaches S seconds, so every run measures whole rounds.  Each output is
checked right after its request, outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every round twice,
untraced and then traced, and prints the per-layer metrics (per traced
round) and the tracing overhead.  For one workload the last stdout line is
one JSON object; the full results (request list, latencies, environment)
and the spans of a traced run go to bench/out/.  ``--workload all`` runs the
three workloads in turn, each in its own process, and ends with one table.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

SETUP_REPEATS = 5
REQUEST_TIMEOUT_S = 30
# percentile reported as the tail, per workload, or the next lower one on the
# ladder if it would leave fewer than MIN_ABOVE samples above.  Each lands in
# the middle of one request type's latencies, away from the next type's: for
# cycles, (c,b,k) = (2,18,2).
TAIL_CAP = {"surgery": 90, "cycles": 83, "roundtrip": 95}
TAIL_LADDER = (99, 95, 90, 75, 50, 0)
MIN_ABOVE = 10


class RequestTimeout(Exception):
    pass


def tail_percentile(n: int, cap: float) -> float:
    """`cap`, or else the highest ladder percentile below it, whose
    nearest-rank sample leaves at least MIN_ABOVE samples above it."""
    for p in (cap, *(p for p in TAIL_LADDER if p < cap)):
        if n - max(1, math.ceil(p / 100 * n)) >= MIN_ABOVE:
            return p
    raise ValueError(f"{n} samples: too few for a tail percentile")


def nearest_rank(values: list, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


@contextmanager
def time_limit(seconds: float):
    """Raise RequestTimeout in this (main) thread after `seconds`."""

    def fire(signum, frame):
        raise RequestTimeout(f"request exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


# ----------------------------------------------------------------------
# set-up


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time from launching a fresh interpreter to its 'ready' line,
    repeated; each child imports orthoseq and builds the request list and
    files, exactly as a run does before its first request."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload,
               "--seed", str(seed)]
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                times.append(perf_counter() - t0)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
    return times


# ----------------------------------------------------------------------
# the closed loop


class Run:
    def __init__(self, bench, check, tracer=None):
        self.bench = bench
        self.check = check
        self.tracer = tracer
        self.records: list[dict] = []
        self.requests: list[dict] = []

    def round(self, r: int, traced: bool, hard_limit: float) -> float:
        """Issue one round, or its part before `hard_limit`; return its
        summed request latency."""
        total = 0.0
        for i, req in enumerate(self.bench.round(r)):
            if perf_counter() > hard_limit:
                break
            if req.output:
                Path(req.output).unlink(missing_ok=True)
            rid = f"{r}.{i}{'t' if traced else ''}"
            spans_path = None
            if traced and req.fresh_process:
                spans_path = self.bench.workdir / "child-spans.json"
                spans_path.unlink(missing_ok=True)
            call = self.bench.call(req, spans_path)
            # collect now, untimed: garbage left by earlier requests would
            # otherwise be collected during a random later one
            gc.collect()
            outcome, error = None, None
            t0 = perf_counter()
            try:
                with time_limit(REQUEST_TIMEOUT_S):
                    if traced:
                        with self.tracer.request(rid) as root:
                            outcome = call()
                    else:
                        outcome = call()
            except Exception as exc:  # a failed request is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            total += latency
            symbols = 0
            if error is None:
                try:
                    symbols = self.check(req, outcome)
                except Exception as exc:
                    error = f"check: {type(exc).__name__}: {exc}"
            if traced and spans_path is not None and error is None:
                child = json.loads(spans_path.read_text())
                self.tracer.merge_child(child, root, len(outcome.stdout.encode()))
            del outcome  # before the next request, so peak RSS holds one result at a time
            self.requests.append(req.to_json())
            self.records.append({
                "id": rid, "class": req.cls, "latency_s": latency, "symbols": symbols,
                "traced": traced, "error": error,
            })
        return total


def loop(run: Run, seconds: float, trace: bool) -> dict:
    """One warm-up round, then whole rounds until the summed latency reaches
    `seconds` (a traced run counts both passes); stop mid-round only past a
    hard limit.  The warm-up round's requests are checked and counted as
    attempted, but their latencies are left out of the metrics."""
    hard_limit = perf_counter() + 2 * seconds + 30
    run.round(0, False, hard_limit)
    for record in run.records:
        record["warmup"] = True
    untraced = traced = 0.0
    rounds = 0
    while untraced + traced < seconds and perf_counter() < hard_limit:
        untraced += run.round(rounds + 1, False, hard_limit)
        if trace:
            run.tracer.install()
            try:
                traced += run.round(rounds + 1, True, hard_limit)
            finally:
                run.tracer.uninstall()
        rounds += 1
    return {"rounds": rounds, "untraced_s": untraced, "traced_s": traced}


# ----------------------------------------------------------------------
# metrics


def end_to_end(workload: str, records: list, timed_s: float, setup_times: list) -> dict:
    timed = [r for r in records if not r.get("warmup")]
    ok = [r["latency_s"] * 1000 for r in timed if r["error"] is None]
    p = tail_percentile(len(ok), TAIL_CAP[workload])
    who = resource.RUSAGE_CHILDREN if workload == "cycles" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh-process set-ups"),
        "latency_p50_ms": (statistics.median(ok), "ms", f"n={len(ok)}"),
        "latency_tail_ms": (nearest_rank(ok, p), "ms",
                            f"p{p:g}, {len(ok) - max(1, math.ceil(p / 100 * len(ok)))}"
                            f" of n={len(ok)} above"),
        "symbols_per_s": (sum(r["symbols"] for r in timed) / timed_s, "1/s",
                          "certified symbols written + symbols checked, per timed second"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB",
                        "largest child" if workload == "cycles" else "this process"),
    }


def per_layer(tracer, loop_info: dict) -> dict:
    values = layer_metrics(tracer.spans, loop_info["rounds"])
    values["trace.overhead_frac"] = loop_info["traced_s"] / loop_info["untraced_s"] - 1
    per_round = loop_info["traced_s"] / loop_info["rounds"]
    notes = {"s": lambda v: f"per traced round, {100 * v / per_round:.1f}% of traced request time",
             "count": lambda v: "per traced round",
             "fraction": lambda v: "traced / untraced request time - 1"}
    return {name: (values[name], unit, notes[unit](values[name])) for name, unit in PER_LAYER}


def run_all(args, names) -> int:
    """Run each workload in its own process, then print one table."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        *report, last = proc.stdout.splitlines() or [""]
        print("\n".join(report))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(last)
    first = results[names[0]]["metrics"]
    print(f"\n{'metric':<38} {'unit':<8}" + "".join(f" {n:>14}" for n in names))
    for metric, m in first.items():
        row = "".join(f" {results[n]['metrics'][metric]['value']:14.6g}" for n in names)
        print(f"{metric:<38} {m['unit']:<8}{row}")
    row = "".join(f" {results[n]['failed'] / results[n]['attempted']:14.6g}" for n in names)
    print(f"{'failed_frac':<38} {'fraction':<8}{row}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orthoseq" / "__init__.py").is_file():
        print(f"error: no orthoseq source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import check  # these import orthoseq, so only after the check above
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = workloads.Workload(args.workload, args.seed, workdir)
        bench.round(0)  # the request list is part of set-up
        if args.setup_only:
            print("ready", flush=True)
            return 0
        setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
        run = Run(bench, check.check, Tracer() if args.trace else None)
        info = loop(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = run.records
    failed = sum(r["error"] is not None for r in records)
    if args.trace:
        metrics = per_layer(run.tracer, info)
        run.tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        metrics = end_to_end(args.workload, records, info["untraced_s"], setup_times)

    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "setup_s_samples": setup_times, **info,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "failed_frac": failed / len(records),
        "requests": run.requests, "records": records,
    }, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  rounds {info['rounds']}  "
          f"requests {len(records)}  trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<38} {value:14.6g} {unit:<8} {note}")
    print(f"  {'failed_frac':<38} {failed / len(records):14.6g} {'fraction':<8} "
          f"{failed} of {len(records)} requests")
    for r in records:
        if r["error"]:
            print(f"  failed {r['id']} ({r['class']}): {r['error']}")
    print(f"  results: {os.path.relpath(result_file)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
