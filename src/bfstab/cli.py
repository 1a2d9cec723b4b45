"""Command-line front end.

Subcommands: distance, deficit, talagrand, verify, sweep, pl-check. Densities
are given inline (gauss:mean,variance or mix:[w,m,v;...]) or from files
(file:payload.json for mixtures and products, file:samples.csv for gridded
densities). Reports are JSON or CSV, written atomically when --out is given,
and byte-identical for a fixed seed regardless of --jobs.

Exit codes: 0 all verifications pass, 1 parse or validation error, 2 any
failure (or case error), 3 inconclusive results only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .corpus import (DEFAULT_TOL, _SIN_BUMP, compatible, run_case,
                     suite_cases, suite_theorems, SUITES)
from .deficits import _REPORT_FIELDS, GFun, lambda_limit_diagnostics
from .density1d import (Density1D, GaussianMixture1D, StandardGaussian,
                        load_grid_csv)
from .densitynd import _MAX_MC_BUDGET, ProductFunction, mixture_from_json
from .errors import BfstabError, ParseError
from .sphereopt import _MAX_DIRECTIONS
from .transport1d import bf_distance_full


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; the contract wants 1.

    argparse also takes a word that starts with a minus sign for an option
    unless it is one plain number, so ``--values -1,0.5`` would leave
    --values without its list. Such a list is joined to its flag, as
    ``--values=-1,0.5``, before parsing.
    """

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        for i in range(len(args) - 1, 0, -1):
            if args[i - 1] == "--values" and re.match(r"-[\d.]", args[i]):
                args[i - 1:i + 1] = [f"--values={args[i]}"]
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# input parsing


def _parse_floats(text: str, what: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from None


def parse_density_spec(text: str):
    """gauss:m,v | mix:[w,m,v;...] | file:path -> density object."""
    kind, sep, payload = text.partition(":")
    if not sep:
        raise ParseError(f"density spec {text!r} needs a kind prefix "
                         "(gauss:, mix:, file:)")
    if kind == "gauss":
        vals = _parse_floats(payload, "gauss spec")
        if len(vals) != 2:
            raise ParseError(f"gauss spec needs mean,variance, got {payload!r}")
        m, v = vals
        if v <= 0:
            raise ParseError(f"gauss spec variance must be positive, got {v}")
        if m == 0.0 and v == 1.0:
            return StandardGaussian()
        return GaussianMixture1D([1.0], [m], [np.sqrt(v)])
    if kind == "mix":
        body = payload.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        rows = [r for r in body.split(";") if r.strip()]
        if not rows:
            raise ParseError("mix spec has no components")
        w, m, s = [], [], []
        for i, row in enumerate(rows):
            vals = _parse_floats(row, f"mix component {i}")
            if len(vals) != 3:
                raise ParseError(
                    f"mix component {i} needs weight,mean,variance, got {row!r}")
            if vals[0] <= 0 or vals[2] <= 0:
                raise ParseError(
                    f"mix component {i}: weight and variance must be positive")
            w.append(vals[0])
            m.append(vals[1])
            s.append(np.sqrt(vals[2]))
        w = np.asarray(w)
        return GaussianMixture1D(w / w.sum(), m, s)
    if kind == "file":
        return _load_density_file(payload)
    raise ParseError(f"unknown density spec kind {kind!r} "
                     "(expected gauss:, mix:, file:)")


def _load_density_file(path: str):
    if not os.path.exists(path):
        raise ParseError(f"density file not found: {path}")
    if path.endswith(".csv"):
        return load_grid_csv(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if isinstance(payload, dict) and "factors" in payload:
        if not isinstance(payload["factors"], list) or not payload["factors"]:
            raise ParseError(f"{path}: factors must be a non-empty list of "
                             "{weights, means, stds} objects")
        factors = [_mixture_1d(spec, f"{path}: factor {i}")
                   for i, spec in enumerate(payload["factors"])]
        # a one-factor product is its factor, a 1-D measure
        return factors[0] if len(factors) == 1 else ProductFunction(factors)
    if isinstance(payload, dict) and "stds" in payload:
        return _mixture_1d(payload, path)
    mix = mixture_from_json(payload)
    if mix.dim == 1:
        return GaussianMixture1D(mix.weights, mix.means[:, 0],
                                 np.sqrt(mix.covs[:, 0, 0]))
    return mix


def _mixture_1d(spec, where: str) -> GaussianMixture1D:
    """A 1-D mixture from a JSON object {weights, means, stds}."""
    try:
        return GaussianMixture1D(spec["weights"], spec["means"], spec["stds"])
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc}") from None
    except (TypeError, ValueError, BfstabError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def parse_g_spec(text: str) -> GFun:
    """zero | const:b | linear:a[,b] | quad:k[,a[,b]] | bump."""
    kind, _, payload = text.partition(":")
    if kind == "zero":
        return GFun.const(0.0)
    if kind == "bump":
        return _SIN_BUMP
    vals = _parse_floats(payload, f"g spec {kind}") if payload else []
    if kind == "const":
        return GFun.const(*(vals or [0.0]))
    if kind == "linear":
        if not 1 <= len(vals) <= 2:
            raise ParseError("linear g spec needs slope[,offset]")
        return GFun.linear(*vals)
    if kind == "quad":
        if not 1 <= len(vals) <= 3:
            raise ParseError("quad g spec needs curvature[,slope[,offset]]")
        return GFun.quadratic(*vals)
    raise ParseError(f"unknown g spec {text!r} "
                     "(expected zero, const:, linear:, quad:, bump)")


# ---------------------------------------------------------------------------
# output


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bfstab-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header, rows) -> str:
    """A CSV table, each float written as its repr, so it reads back to
    the same bits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(x) if isinstance(x, float) else x for x in row]
                     for row in rows)
    return buf.getvalue()


def _reports_csv(reports) -> str:
    return _csv(_REPORT_FIELDS, ([getattr(rep, c) for c in _REPORT_FIELDS]
                                 for rep in reports))


def _payload_json(command: str, config: dict, body: dict) -> str:
    payload = {"command": command, "version": __version__, "config": config}
    payload.update(body)
    return json.dumps(payload, indent=2) + "\n"


def _exit_code(statuses) -> int:
    """The exit code of reports with these statuses: 2 if any fails or
    errs, else 3 if any is inconclusive, else 0."""
    if {"fail", "error"} & set(statuses):
        return 2
    return 3 if "inconclusive" in statuses else 0


def _emit_reports(args, config: dict, reports) -> int:
    counts = {}
    for rep in reports:
        counts[rep.status] = counts.get(rep.status, 0) + 1
    if args.format == "csv":
        text = _reports_csv(reports)
    else:
        text = _payload_json(args.command, config, {
            "summary": {k: counts.get(k, 0)
                        for k in ("pass", "fail", "inconclusive", "error")},
            "reports": [r.to_json_dict() for r in reports]})
    _emit(text, args.out)
    return _exit_code(counts)


# ---------------------------------------------------------------------------
# task plumbing


def _budget_kwargs(args) -> dict:
    kw = {"seed": args.seed, "mc_budget": args.mc_budget,
          "directions": args.directions}
    if getattr(args, "tol", None) is not None:
        kw["tol"] = args.tol
    return kw


def _run_task(task):
    case_id, obj, theorem, kw = task
    return run_case(case_id, obj, theorem, **kw)


def _run_tasks(tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [_run_task(t) for t in tasks]
    # under fork, the pool starts all max_workers processes at once
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(_run_task, tasks))


def _science_config(args, for_theorems, **extra) -> dict:
    """Resolved settings that affect report values (never --jobs or --out)."""
    if args.tol is not None:
        tol = args.tol
    else:
        resolved = {t: DEFAULT_TOL[t] for t in for_theorems}
        tol = resolved if len(resolved) > 1 else next(iter(resolved.values()))
    cfg = {"seed": args.seed, "mc_budget": args.mc_budget,
           "directions": args.directions, "tol": tol}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def _cmd_distance(args) -> int:
    u = parse_density_spec(args.u)
    v = parse_density_spec(args.v)
    for name, d in (("--u", u), ("--v", v)):
        if not isinstance(d, Density1D):
            raise ParseError(f"{name}: the distance command works on 1-D "
                             "densities; use 'deficit --theorem main' for d_n")
    value, err = bf_distance_full(u, v, tol=args.tol)
    config = {"u": args.u, "v": args.v, "tol": args.tol}
    if args.format == "csv":
        _emit(_csv(("value", "error_estimate"), [(value, err)]), args.out)
    else:
        _emit(_payload_json("distance", config,
                            {"value": value, "error_estimate": err}), args.out)
    return 0


def _require_compatible(objs, theorem: str, what: str):
    """A theorem that no input can take is a usage error, not a case error
    (nor a run that verifies nothing)."""
    if not any(compatible(obj, theorem) for obj in objs):
        hint = (" (the corollary needs dimension at least 2)"
                if theorem == "corollary" else "")
        raise ParseError(f"--theorem {theorem} does not apply to {what}{hint}")


def _single_report_cmd(args, obj, theorem, config: dict, **body) -> int:
    """Verify one case and write its report, with the ``config`` settings
    and any extra JSON fields in ``body``; exit by its status."""
    rep = run_case(args.case_id, obj, theorem, **_budget_kwargs(args))
    if args.format == "csv":
        _emit(_reports_csv([rep]), args.out)
    else:
        config = _science_config(args, [theorem], **config)
        _emit(_payload_json(args.command, config,
                            {"report": rep.to_json_dict(), **body}), args.out)
    return _exit_code([rep.status])


def _cmd_deficit(args) -> int:
    if args.theorem == "pl":
        if args.g is None:
            raise ParseError("--theorem pl needs --g and --lam")
        obj = (parse_g_spec(args.g), args.lam)
    elif args.measure is None:
        raise ParseError("--measure is required")
    else:
        obj = parse_density_spec(args.measure)
        _require_compatible([obj], args.theorem, f"--measure {args.measure}")
    return _single_report_cmd(args, obj, args.theorem,
                              {"theorem": args.theorem})


def _cmd_verify(args) -> int:
    cases = suite_cases(args.suite)
    theorems = suite_theorems(args.suite, args.theorem)
    for thm in theorems:
        _require_compatible([obj for _, obj in cases], thm,
                            f"any case of --suite {args.suite}")
    kw = _budget_kwargs(args)
    tasks = [(cid, obj, thm, kw)
             for thm in theorems
             for cid, obj in cases if compatible(obj, thm)]
    reports = _run_tasks(tasks, args.jobs)
    config = _science_config(args, theorems, suite=args.suite,
                             theorems=theorems)
    return _emit_reports(args, config, reports)


def _cmd_sweep(args) -> int:
    values = _parse_floats(args.values, "--values")
    if not values:
        raise ParseError("--values must contain at least one number")
    kw = _budget_kwargs(args)
    cases = []
    if args.kind == "sigma":
        theorem = args.theorem or "main"
        for v in values:
            if v <= 0:
                raise ParseError("sigma values must be positive")
            mix = GaussianMixture1D([1.0], [0.0], [v])
            cases.append((f"sigma-{v:g}", mix))
    elif args.kind == "tilt":
        theorem = args.theorem or "main"
        for a in values:
            mix = GaussianMixture1D([1.0], [a], [1.0])
            cases.append((f"tilt-{a:g}", mix))
    elif args.kind == "lambda":
        theorem = args.theorem or "pl"
        g = parse_g_spec(args.g or "quad:0.5")
        for lam in values:
            if not 0.0 < lam < 1.0:
                raise ParseError("lambda values must lie in (0, 1)")
            cases.append((f"lambda-{lam:g}", (g, lam)))
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown sweep kind {args.kind!r}")
    _require_compatible([obj for _, obj in cases], theorem,
                        f"--kind {args.kind}")
    reports = _run_tasks([(cid, obj, theorem, kw) for cid, obj in cases],
                         args.jobs)
    config = _science_config(args, [theorem], kind=args.kind, values=values,
                             theorem=theorem)
    return _emit_reports(args, config, reports)


def _cmd_pl_check(args) -> int:
    if args.diagnostics and args.format == "csv":
        raise ParseError("--diagnostics needs --format json: a CSV report "
                         "has no place for the lambda-limit table")
    g = parse_g_spec(args.g)
    body = {}
    if args.diagnostics:
        body["diagnostics"] = [vars(r) for r in lambda_limit_diagnostics(g)]
    return _single_report_cmd(args, (g, args.lam), "pl",
                              {"g": args.g, "lam": args.lam}, **body)


# ---------------------------------------------------------------------------


def _checked(convert, ok, what: str):
    """argparse type: ``convert(text)``, rejected unless ``ok(value)``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    return parse


_positive_int = _checked(int, lambda n: n >= 1, "at least 1")
_mc_budget = _checked(int, lambda n: 1 <= n <= _MAX_MC_BUDGET,
                      f"between 1 and {_MAX_MC_BUDGET}")
_directions = _checked(int, lambda n: 1 <= n <= _MAX_DIRECTIONS,
                       f"between 1 and {_MAX_DIRECTIONS}")
_seed = _checked(int, lambda n: n >= 0, "at least 0")
# a negative tolerance raises the pass line above a true margin and a NaN
# one fails every comparison, so neither can give an honest verdict
_tolerance = _checked(float, lambda t: 0.0 <= t < math.inf,
                      "a finite number >= 0")
_lambda = _checked(float, lambda lam: 0.0 < lam < 1.0,
                   "strictly inside (0, 1)")


def _add_common(p):
    p.add_argument("--seed", type=_seed, default=0,
                   help="seed for all stochastic stages (default 0)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel case workers (default 1)")
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="pass tolerance override")
    p.add_argument("--mc-budget", dest="mc_budget", type=_mc_budget,
                   default=10 ** 6,
                   help="Sobol nodes per expectation above n = 3")
    p.add_argument("--directions", type=_directions, default=None,
                   help="coarse sphere-lattice size override")
    _add_output(p)


def _add_single_case(p):
    """Flags of the commands that verify one case."""
    _add_common(p)
    p.add_argument("--case-id", dest="case_id", default="cli",
                   help="identifier stamped into the report")


def _add_output(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (atomic write)")


def build_parser() -> _Parser:
    top = _Parser(prog="bfstab", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)

    p = sub.add_parser("distance", help="transport distance between two "
                                        "1-D densities")
    p.add_argument("--u", required=True, help="first density spec")
    p.add_argument("--v", required=True, help="second density spec")
    p.add_argument("--tol", type=_tolerance, default=1e-9,
                   help="quadrature tolerance of the distance (default 1e-9)")
    _add_output(p)
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("deficit", help="verify one inequality on one measure")
    p.add_argument("--measure", default=None, help="density spec")
    p.add_argument("--theorem", choices=("main", "corollary", "talagrand",
                                         "pl"), default="main")
    p.add_argument("--g", default=None, help="g spec for --theorem pl")
    p.add_argument("--lam", type=_lambda, default=0.5)
    _add_single_case(p)
    p.set_defaults(fn=_cmd_deficit)

    p = sub.add_parser("talagrand", help="Talagrand deficit bound, the same "
                                         "as deficit --theorem talagrand")
    p.add_argument("--measure", required=True)
    _add_single_case(p)
    p.set_defaults(fn=_cmd_deficit, theorem="talagrand")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--theorem", choices=("main", "corollary", "talagrand",
                                         "pl"), default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="parameter sweep, one report row per "
                                     "grid point")
    p.add_argument("--kind", required=True, choices=("sigma", "tilt",
                                                     "lambda"))
    p.add_argument("--values", required=True,
                   help="comma-separated parameter values")
    p.add_argument("--theorem", choices=("main", "corollary", "talagrand"),
                   default=None)
    p.add_argument("--g", default=None, help="g spec for lambda sweeps")
    _add_common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("pl-check", help="quantitative Prekopa-Leindler check")
    p.add_argument("--g", required=True)
    p.add_argument("--lam", type=_lambda, required=True)
    p.add_argument("--diagnostics", action="store_true",
                   help="append the lambda-limit expansion table")
    _add_single_case(p)
    p.set_defaults(fn=_cmd_pl_check)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BfstabError, OSError) as exc:
        print(f"bfstab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
