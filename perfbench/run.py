"""score-kit benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload select-sdr --seed 1 --seconds 30 --trace 0

Run from the root of a score-kit checkout; the library is imported from its
``src`` directory.  Workloads:

* ``select-sdr``   -- ``select --method sdr`` (boost none/hete/homo) and
  ``evalues --gamma`` at n=4000, m=1000, alpha in {0.15, 0.2, 0.25}; the exact
  unit-weight SDR kernel dominates.
* ``select-mixed`` -- MDR selection at n=m=20000 (plain and weighted), MDR
  with gamma > alpha, weighted SDR, conservative e-values and
  ``estimate-weights``: CSV I/O and every CLI path the unit-weight kernel
  does not run.
* ``simulate``     -- one ``run_experiment`` replicate per operation at the
  acceptance suite's sizes, rotating three configurations.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics: ``setup_s`` (median import time of ``score_kit`` and
``score_kit.cli`` over fresh interpreters), ``points_per_s``,
``latency_p50_s``, ``latency_p90_s`` and ``peak_rss_mb``; failed operations
are its ``failed`` count out of ``attempted``.  With ``--trace 1`` it holds
the per-layer metrics of a traced run instead.  The lines before it report
every metric with its unit and sample count, the oracle check counts and the
run record.  Exit code 0 means the run completed; ``correct`` says whether
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("select-sdr", "select-mixed", "simulate")
IMPORT_SAMPLES = 21
DEADLINE_S = 170.0
# Every workload process and import probe runs single-threaded.
PINNED_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import score_kit, score_kit.cli; "
                "print(time.perf_counter() - t)")


def child_env():
    env = dict(os.environ, **PINNED_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def setup_seconds(env, deadline):
    """Median import time over fresh interpreters, after one unmeasured
    import that leaves the byte-code caches written."""
    times = []
    for i in range(IMPORT_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                             cwd=os.path.join(ROOT, "src"), env=env, capture_output=True,
                             text=True, check=True, timeout=max(1.0, deadline - time.monotonic()))
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), len(times)


def report(result, setup):
    """Human-readable lines: every metric with unit and sample count."""
    samples = result["samples"]
    computed = set(result.get("computed", ()))
    for name, m in result["metrics"].items():
        n = setup[1] if name == "setup_s" else samples
        tag = " (computed)" if name in computed else ""
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']:<9} n={n}{tag}")
    ratio = result["failed"] / result["attempted"]
    print(f"{'failed_ops_ratio':<52} {ratio:>14.6g} {'ratio':<9} "
          f"({result['failed']} of {result['attempted']})")
    o = result["oracle"]
    print(f"oracle companions: {o['agree']} agree, {o['boundary']} boundary "
          f"(unguarded feasibility comparison), {o['mismatch']} mismatch")
    print(f"checker self-test: {'ok' if result['self_test_ok'] else 'FAILED'}")
    for p in result.get("predictions", ()):
        print(f"prediction {p['layers']} dominates self time on {p['ops']} ops: "
              f"{'holds' if p['holds'] else 'does not hold'} (share {p['share']:.3f}; "
              f"next {p['next']} {p['next_share']:.3f})")
    for f in result["failures"]:
        print(f"failed op {f['type']}: {f['problems']}")
    print("record " + json.dumps(result["record"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description="score-kit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "score_kit", "__init__.py")):
        print(f"no score-kit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = child_env()

    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        setup = setup_seconds(env, deadline) if not args.trace else None
        cmd = [sys.executable, os.path.join(HERE, "measure.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        print(f"timed out: {exc.cmd}", file=sys.stderr)
        return 3
    except subprocess.CalledProcessError as exc:
        print(f"import probe failed: {exc.stderr}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"workload process exited with {proc.returncode}", file=sys.stderr)
        return 3

    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup is not None:
        result["metrics"] = {"setup_s": {"value": setup[0], "unit": "s"}, **result["metrics"]}
    report(result, setup)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
