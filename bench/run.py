"""Certificate benchmark for bfstab.

    python3 bench/run.py --workload lsi-nd --seed 58213901 --seconds 32 --trace 0

Run from the root of a source checkout; bfstab is imported from ./src, so
nothing needs installing. Workloads (see cases.py and NOTES.md):

  lsi-nd        main theorem on 2-D/3-D mixtures and products, and on
                4-D/5-D inputs (QMC expectations; these error today)
  corollary-nd  the corollary: per-axis slice distances on 2-D/3-D inputs,
                outer Monte Carlo on 4-D inputs
  one-d         Talagrand chain, 1-D main theorem, pl-grid, sigma sweep

Every measurement runs in a fresh child process (worker.py) with BLAS and
OpenMP capped at one thread: one serial process per workload. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones from a run
with timing wrappers installed. The last line of standard output is the
JSON result; the lines before it are for people.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 2   # extra fresh processes that only set up; the run adds one
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def call_worker(mode, args, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)  # the worker puts ./src first itself
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=58213901)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "bfstab" / "__init__.py").is_file():
        print(f"bench: no bfstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = [] if args.trace else [
            call_worker("setup", args, deadline) for _ in range(SETUP_PROBES)]
        res = call_worker("trace" if args.trace else "run", args, deadline)
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    metrics = dict(res["metrics"])
    if not args.trace:
        setups.append(res)
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        print("bench: a metric is not a finite number", file=sys.stderr)
        return 3

    print("env " + json.dumps(res["env"]))
    print("info " + json.dumps(res["info"]))
    if setups:
        print("setup samples (s, at the usual host speed / as measured): " + ", ".join(
            f"{s['setup_s']:.4f}/{s['measured_setup_s']:.4f}" for s in setups))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    for name, unit in (("measured_certs_per_s", "1/s"), ("measured_case_s_p50", "s"),
                       ("measured_case_s_tail", "s"), ("host_factor", "1"),
                       ("error_share", "share"), ("wrong_share", "share"),
                       ("inconclusive_share", "share")):
        if name in res["info"]:
            print(f"  {name:<46} {res['info'][name]:>14.6g} {unit} (not gated)")
    for case_id, theorem, status, calls, secs in res["cases"]:
        print(f"case {theorem:<10} {case_id:<20} {status:<13} {calls:>4} calls {secs:.4f} s")
    for miss in res["wrong"]:
        print(f"WRONG {miss}")
    for suite in res["self_check_failed"]:
        print(f"SELF-CHECK generator differs from suite {suite}")
    print(json.dumps({
        "correct": not res["wrong"] and not res["self_check_failed"],
        "attempted": res["attempted"],
        "failed": len(res["wrong"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
