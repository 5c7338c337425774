"""Run one workload in this process and print its measurements as JSON.

Started by ``run.py`` in a fresh single-threaded process per workload, so
that peak RSS belongs to one workload.  score_kit is imported from the
``src`` directory next to this one.  Usage::

    python3 perfbench/measure.py --workload select-sdr --seed 1 --seconds 30 \
        --trace 0 --workdir perfbench/.work/x
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# Everything imported below needs the checkout's score_kit on the path.
sys.path.insert(0, SRC)

import numpy as np

import score_kit

import checks
import inputs
import spans
import workloads


class Runner:
    """Executes operations, checks their outputs and keeps the samples."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.companions = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.oracle = {"agree": 0, "boundary": 0, "mismatch": 0}

    def execute(self, op):
        """Time one operation, then check it; returns ``(wall_s, outcome)``."""
        captured = io.StringIO()
        problems = []
        outcome = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(captured):
                outcome = op.call()
        except Exception:
            problems.append(traceback.format_exc(limit=3))
        wall = time.perf_counter() - start
        if not problems:
            try:
                problems = op.check(outcome)
            except Exception:
                problems.append(traceback.format_exc(limit=3))
        if op.oracle is not None:
            kind, weighted, alpha, gamma = op.oracle
            verdict = checks.oracle_check(kind, inputs.companion_instance(self.companions, weighted),
                                          alpha, gamma)
            self.oracle[verdict] += 1
            if verdict == "mismatch":
                problems.append(f"companion instance disagrees with the {kind} oracle")
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append({"type": op.type, "problems": problems,
                                      "stderr": captured.getvalue()[-500:]})
        return wall, outcome

    def warm_up(self):
        """Run the first operation of each type once, uncounted in the
        timings, and use a corruptible outcome for the checker self-test."""
        seen = set()
        self_test = None
        for op in self.workload.cycle(0):
            if op.type in seen:
                continue
            seen.add(op.type)
            _, outcome = self.execute(op)
            if self_test is None and op.corrupt is not None and outcome is not None:
                self_test = (op, outcome)
        return self_test

    def run(self, seconds, tracer=None):
        """Run whole cycles until the timed operations add up to ``seconds``."""
        samples = []
        spent = 0.0
        c = 0
        while spent < seconds:
            for op in self.workload.cycle(c):
                if tracer is not None:
                    tracer.op_type = op.type
                wall, _ = self.execute(op)
                samples.append((op.type, wall, op.points))
                spent += wall
            c += 1
        return samples


def checker_self_test(op, outcome):
    """Every deliberately corrupted outcome must be rejected by the check."""
    if op.check(outcome):
        return False
    return all(op.check(bad) for bad in op.corrupt(outcome))


def points_per_s(samples):
    return sum(s[2] for s in samples) / sum(s[1] for s in samples)


def end_to_end(samples):
    p50, p90 = np.percentile([s[1] for s in samples], [50, 90])
    return {
        "points_per_s": (points_per_s(samples), "1/s"),
        "latency_p50_s": (float(p50), "s"),
        "latency_p90_s": (float(p90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def check_predictions(tracer, workload, samples):
    """Does each predicted span group take more self time than any other
    span, on the operations it names?"""
    out = []
    for group, op_types in workload.predictions:
        self_s = tracer.span_self_s(op_types)
        mine = sum(self_s[name] for name in group)
        top_other = max((v, name) for name, v in self_s.items() if name not in group)
        wall = sum(s[1] for s in samples if op_types is None or s[0] in op_types)
        out.append({"layers": "+".join(group), "ops": "+".join(op_types or ("all",)),
                    "share": mine / wall, "next": top_other[1], "next_share": top_other[0] / wall,
                    "holds": mine > top_other[0]})
    return out


def per_type_p50(samples, types):
    out = {}
    for t in types:
        walls = [s[1] for s in samples if s[0] == t]
        out[t] = float(np.median(walls)) if walls else 0.0
    return out


def run_record(args, samples):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):      # numpy builds that do not report it
        blas_name = "unknown"
    counts = {}
    for s in samples:
        counts[s[0]] = counts.get(s[0], 0) + 1
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ops_per_type": counts,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    if not os.path.abspath(score_kit.__file__).startswith(SRC + os.sep):
        print(f"score_kit imported from {score_kit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    runner = Runner(workload, args.seed)
    self_test = runner.warm_up()
    self_test_ok = self_test is not None and checker_self_test(*self_test)

    extra = {}
    if args.trace:
        # Half the time untraced, for per-type latency and the overhead
        # baseline, then half traced.
        untraced = runner.run(args.seconds / 2)
        with spans.Tracer() as tracer:
            traced = runner.run(args.seconds / 2, tracer)
        traced_wall = sum(s[1] for s in traced)
        metrics = tracer.metrics(len(traced), traced_wall)
        metrics["trace.points_per_s_ratio"] = (points_per_s(traced) / points_per_s(untraced),
                                               "ratio")
        for t, v in per_type_p50(untraced, workloads.LATENCY_TYPES).items():
            metrics[f"op.{t}.p50_s"] = (v, "s")
        metrics["check.oracle_instances"] = (float(sum(runner.oracle.values())), "count")
        metrics["check.oracle_boundary_mismatches"] = (float(runner.oracle["boundary"]), "count")
        samples = untraced + traced
        extra["predictions"] = check_predictions(tracer, workload, traced)
        extra["computed"] = list(spans.COUNTS)
    else:
        samples = runner.run(args.seconds)
        metrics = end_to_end(samples)

    result = {
        "correct": runner.failed == 0 and self_test_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": len(samples),
        "self_test_ok": self_test_ok,
        "oracle": runner.oracle,
        "failures": runner.failures,
        "record": run_record(args, samples),
        **extra,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
