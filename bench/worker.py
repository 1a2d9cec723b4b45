"""One benchmark process: set up, run one workload, print one JSON line.

Started by run.py with the thread caps already in its environment; it is a
single serial process. Modes:

  setup   import bfstab and generate the cases, report the seconds taken;
  run     round(--seconds / nominal pass time) whole passes over the
          workload with tracing off; report the end-to-end figures;
  trace   one untraced pass, then the same cases again with the layer
          tracer installed (lsi-nd adds main-3d-prod-0 to both); report
          the per-layer figures and the overhead;
  record  rewrite reference.json from the current code at the default seed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import copy  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
sys.path[:0] = [str(SRC), str(HERE)]

VERDICTS = ("pass", "fail", "inconclusive")
# Least seconds of calls per case and pass in a timed run (see run_pass).
MIN_CASE_S = 0.05
# Host speed (see HostSpeed): one reference block at least this often during
# timed work, SETTLE_BLOCKS of them right after set-up, and the mean seconds
# of one block over ten runs on the development host (2-core x86_64).
CAL_EVERY_S = 0.25
SETTLE_BLOCKS = 12
CAL_REF_S = 0.014


class HostSpeed:
    """Times a fixed reference computation between the cases of a run.

    The development host runs the same code at speeds up to 1.5x apart, in
    phases of a few minutes, so whole runs land in a fast or a slow phase
    and no run length averages that out. The reference block does the same
    kinds of work as bfstab (array exp/log1p/ndtr, small NumPy calls from a
    Python loop, a pure Python loop) but none of bfstab's code, so only the
    host moves its time. ``factor`` is CAL_REF_S over the mean block time
    of the process: a time multiplied by it is the time at the development
    host's usual speed, and a rate divided by it likewise.
    """

    def __init__(self):
        import numpy as np
        from scipy import special

        rng = np.random.default_rng(0)
        self._np, self._ndtr = np, special.ndtr
        self._x = rng.standard_normal(100_000)
        self._w = rng.standard_normal(21)
        self._nodes = np.linspace(-5.0, 5.0, 21)
        self.samples = []
        self._last = -math.inf

    def block(self):
        np, x = self._np, self._x
        t = time.perf_counter()
        acc = 0.0
        for _ in range(2):
            acc += float(np.sum(np.log1p(np.exp(-0.5 * x * x)) * self._ndtr(x)))
        for i in range(1000):
            acc += float(np.dot(self._w, np.exp(-0.5 * (self._nodes + i * 1e-4) ** 2)))
        for i in range(10000):
            acc += math.sin(i * 1e-3)
        self._last = time.perf_counter()
        self.samples.append(self._last - t)

    def between_calls(self):
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.block()

    def factor(self, since: int = 0) -> float:
        """CAL_REF_S over the mean time of the blocks from number ``since`` on."""
        return CAL_REF_S / statistics.fmean(self.samples[since:])


def sigma_closed_form(s: float):
    """(deficit, lower bound) of the main theorem at N(0, s^2).

    delta_LS = (s^2-1)^2/(2 s^2) - (s^2-1-ln s^2)/2, and the scaling map
    T(x) = s x has d(N(0, s^2), gamma) = |1 - s| / max(1, s).
    """
    v = s * s
    d = abs(1.0 - s) / max(1.0, s)
    return (v - 1.0) ** 2 / (2.0 * v) - (v - 1.0 - math.log(v)) / 2.0, 0.5 * d * d


def check_report(case, rep, tol, reference):
    """Why a report is a wrong answer, or None when it is right."""
    fields = (rep.deficit, rep.lower_bound, rep.margin, rep.error_estimate)
    if not all(math.isfinite(v) for v in fields):
        return "non-finite field"
    if rep.status == "fail":
        return "fail verdict on a true theorem"
    if case.case_id.startswith("sigma-") and rep.status != "error":
        deficit, lower = sigma_closed_form(float(case.case_id[6:]))
        slack = tol + rep.error_estimate
        if abs(rep.deficit - deficit) > slack or abs(rep.lower_bound - lower) > slack:
            return "closed form missed"
    if reference is not None:
        ref = reference.get(f"{case.theorem}/{case.case_id}")
        if ref is None:
            return "no reference value"
        status, deficit, lower, err = ref
        if status != "error":
            if rep.status != status:
                return f"verdict changed from {status}"
            allow = max(err, rep.error_estimate, 1e-12)
            if abs(rep.deficit - deficit) > allow or abs(rep.lower_bound - lower) > allow:
                return "moved by more than error_estimate"
    return None


def run_pass(cases, reference, tracer=None, min_case_s=0.0, host=None):
    """Run every case of one pass; return one record per call and the pass wall.

    A case whose calls take less than ``min_case_s`` together is called
    again, each time on a fresh copy of its input, until they take that
    long: a 3 ms case timed once per pass says little. Every call is
    checked. With ``host``, a reference block runs between calls (outside
    their timing) at least every CAL_EVERY_S.
    """
    from bfstab.corpus import DEFAULT_TOL, run_case

    records = []
    start = time.perf_counter()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
        pristine = copy.deepcopy(case.obj) if min_case_s > 0 else None
        obj, spent = case.obj, 0.0
        while True:
            if host is not None:
                host.between_calls()
            t = time.perf_counter()
            rep = run_case(case.case_id, obj, case.theorem, **case.kwargs)
            dt = time.perf_counter() - t
            wrong = check_report(case, rep, DEFAULT_TOL[case.theorem], reference)
            records.append({"case_id": case.case_id, "theorem": case.theorem,
                            "status": rep.status, "seconds": dt, "wrong": wrong,
                            "report": [rep.status, rep.deficit, rep.lower_bound,
                                       rep.error_estimate]})
            spent += dt
            if spent >= min_case_s:
                break
            obj = copy.deepcopy(pristine)
    return records, time.perf_counter() - start


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "cpu": platform.processor() or platform.machine()}


def percentile(sorted_vals, p):
    """Linear-interpolation percentile, p in [0, 1], of a sorted list."""
    pos = p * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (pos - lo) * (sorted_vals[hi] - sorted_vals[lo])


def tail_p(n: int) -> float:
    """Highest percentile with at least ten samples above it.

    Below 20 samples no percentile above the median has ten samples above
    it; the tail is then reported at the median. There is no p90 cap: on
    one-d the nine sup-convolution cases are 10.1 % of the samples, so p90
    would fall on the gap between them and the 3 ms cases.
    """
    return max(0.5, 1.0 - 10.0 / n)


def end_to_end(passes, factor):
    """End-to-end metrics of a run from its passes, [(records, wall), ...].

    A case's time in a pass is the mean of its calls in that pass; each
    (case, pass) pair is one sample of case seconds, and the median and tail
    are taken over those samples. Throughput is the verdict cases of the
    workload list over the summed mean times of the whole list, error cases
    included: the list run once, at the run's average speed. Means over the
    whole run smooth the host's sub-second spells, where a median or minimum
    over a few second-long calls would pick one of them. The times are then
    brought to the development host's usual speed by ``factor`` (see
    HostSpeed); the info dict keeps them as measured. The shares count the
    cases of the list.
    """
    calls, samples = {}, []
    for recs, _ in passes:
        in_pass = {}
        for r in recs:
            key = (r["theorem"], r["case_id"])
            calls.setdefault(key, []).append(r)
            in_pass.setdefault(key, []).append(r)
        samples += [statistics.fmean(r["seconds"] for r in rs)
                    for rs in in_pass.values() if rs[0]["status"] in VERDICTS]
    status = {key: rs[0]["status"] for key, rs in calls.items()}
    n = len(calls)
    verdicts = sum(status[key] in VERDICTS for key in calls)
    list_s = sum(statistics.fmean(r["seconds"] for r in rs) for rs in calls.values())
    secs = sorted(samples)
    errors = sum(status[key] == "error" for key in calls)
    inconclusive = sum(status[key] == "inconclusive" for key in calls)
    wrong = sum(any(r["wrong"] is not None for r in rs) for rs in calls.values())
    pct = tail_p(len(secs)) if secs else float("nan")
    p50, tail = ((percentile(secs, 0.5), percentile(secs, pct)) if secs
                 else (float("nan"), float("nan")))
    return {
        "certs_per_s": (verdicts / (list_s * factor), "1/s"),
        "case_s_p50": (p50 * factor, "s"),
        "case_s_tail": (tail * factor, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "verdict_share": (1.0 - errors / n, "share"),
        "correct_share": (1.0 - wrong / n, "share"),
        "conclusive_share": (1.0 - inconclusive / n, "share"),
    }, {"cases": n, "passes": len(passes), "calls": sum(len(rs) for rs in calls.values()),
        "verdict_cases": verdicts, "case_s_samples": len(secs),
        "tail_percentile": 100.0 * pct, "wall_s": sum(w for _, w in passes),
        "host_factor": factor, "measured_certs_per_s": verdicts / list_s,
        "measured_case_s_p50": p50, "measured_case_s_tail": tail,
        "error_share": errors / n, "wrong_share": wrong / n,
        "inconclusive_share": inconclusive / n}


def case_table(records):
    """[case_id, theorem, status, calls, mean seconds] per case, in run order."""
    rows = {}
    for r in records:
        rows.setdefault((r["case_id"], r["theorem"], r["status"]), []).append(r["seconds"])
    return [[*key, len(t), statistics.fmean(t)] for key, t in rows.items()]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace", "record"),
                    required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=32.0)
    args = ap.parse_args(argv)

    import bfstab
    from cases import (DEFAULT_SEED, LSI_ND_TRACED, PASS_SECONDS, WORKLOADS,
                       self_check, workload_cases)

    if Path(bfstab.__file__).resolve().parent != SRC / "bfstab":
        sys.exit(f"bfstab imported from {bfstab.__file__}, not from {SRC}")
    if args.mode == "record":
        ref = {}
        for w in WORKLOADS:
            records, _ = run_pass(workload_cases(w, DEFAULT_SEED, traced=True), None)
            ref.update({f"{r['theorem']}/{r['case_id']}": r["report"] for r in records})
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"recorded": len(ref)}))
        return
    if args.workload not in WORKLOADS or args.seed is None:
        sys.exit(f"need --seed and a --workload from {WORKLOADS}")
    workload_cases(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    host = HostSpeed()
    for _ in range(SETTLE_BLOCKS):
        host.block()
    setup = {"setup_s": setup_s * host.factor(), "measured_setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(setup))
        return

    env = environment()
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        sys.exit(f"BLAS runs {env['blas_threads']} threads on {env['nproc']} cpus")
    mismatched = self_check()
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())

    out = dict(setup, env=env, self_check_failed=mismatched)
    if args.mode == "run":
        # a fixed number of passes for the run length, so a faster commit
        # does the same work sooner and every run has as many samples
        n_passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
        passes = [run_pass(workload_cases(args.workload, args.seed), reference,
                           min_case_s=MIN_CASE_S, host=host) for _ in range(n_passes)]
        records = [r for recs, _ in passes for r in recs]
        # the settle blocks ran back to back within a fraction of a second,
        # so they would weigh one moment of the run as much as 3 s of it
        metrics, info = end_to_end(passes, host.factor(since=SETTLE_BLOCKS))
        info["host_blocks"] = len(host.samples) - SETTLE_BLOCKS
    else:
        from layertrace import Tracer

        plain, plain_wall = run_pass(
            workload_cases(args.workload, args.seed, traced=True), reference)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_pass(
                workload_cases(args.workload, args.seed, traced=True), reference, tracer)
        finally:
            tracer.uninstall()
        records = plain + traced
        ids = [r["case_id"] for r in traced]
        explain = (ids.index(LSI_ND_TRACED) if LSI_ND_TRACED in ids else
                   max(range(len(traced)), key=lambda i: traced[i]["seconds"]))
        metrics, table = tracer.summary(explain)
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        metrics["trace.overhead_share"] = (traced_wall / plain_wall - 1.0, "share")
        info = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                "explained_case": ids[explain], "explained_untraced_s":
                plain[explain]["seconds"], "explained_by_layer_s": table}
    out.update(metrics=metrics, info=info, attempted=len(records),
               cases=case_table(records),
               wrong=[f"{r['theorem']}/{r['case_id']}: {r['wrong']}"
                      for r in records if r["wrong"] is not None])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
