"""Command-line contract: specs, formats, exit codes, determinism."""

import csv
import io
import json
import math
import os
import warnings

import numpy as np
import pytest

from bfstab import cli
from bfstab.cli import main, parse_density_spec, parse_g_spec
from bfstab.corpus import _PL_GS
from bfstab.deficits import DeficitReport, GFun, lambda_limit_diagnostics
from bfstab.density1d import GaussianMixture1D, StandardGaussian
from bfstab.densitynd import GaussianMixtureND, ProductFunction
from bfstab.errors import ParseError


@pytest.fixture
def mix2d_file(tmp_path):
    path = tmp_path / "mix2d.json"
    path.write_text(json.dumps({
        "weights": [1.0],
        "means": [[0.0, 0.0]],
        "covs": [[[4.0, 0.0], [0.0, 1.0]]],
    }))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# density / g spec mini-language


def test_parse_gauss_spec():
    d = parse_density_spec("gauss:0.5,4")
    assert isinstance(d, GaussianMixture1D)
    assert abs(d.mean() - 0.5) < 1e-15
    assert abs(d.variance() - 4.0) < 1e-12
    # the standard Gaussian is gamma itself, whose distances take one
    # directed integral
    assert isinstance(parse_density_spec("gauss:0,1"), StandardGaussian)


def test_parse_mix_spec_normalizes_weights():
    d = parse_density_spec("mix:[1,0,1;3,1,4]")
    assert isinstance(d, GaussianMixture1D)
    assert np.allclose(d.weights, [0.25, 0.75])


def test_parse_file_specs(tmp_path, mix2d_file):
    assert isinstance(parse_density_spec(f"file:{mix2d_file}"),
                      GaussianMixtureND)
    prod = tmp_path / "prod.json"
    prod.write_text(json.dumps({"factors": [
        {"weights": [1.0], "means": [0.0], "stds": [2.0]},
        {"weights": [1.0], "means": [0.3], "stds": [1.0]},
    ]}))
    assert isinstance(parse_density_spec(f"file:{prod}"), ProductFunction)
    # the 1-D forms: weights/means/stds, the fields of a product factor,
    # and a one-factor product, which is its factor
    one = {"weights": [0.5, 0.5], "means": [-1.0, 1.0], "stds": [1.0, 2.0]}
    for name, payload in (("mix1d.json", one),
                          ("prod1.json", {"factors": [one]})):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        d = parse_density_spec(f"file:{path}")
        assert isinstance(d, GaussianMixture1D), name
        assert np.array_equal(d.stds, [1.0, 2.0]), name
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"weights": [1.0], "stds": [1.0]}))
    with pytest.raises(ParseError, match="missing field 'means'"):
        parse_density_spec(f"file:{bad}")


def test_parse_spec_errors():
    for bad in ("gauss:1", "gauss:0,-2", "mix:[]", "mix:[1,0]", "nope:1",
                "file:/does/not/exist.json", "plain"):
        with pytest.raises(ParseError):
            parse_density_spec(bad)


def test_parse_g_specs():
    assert parse_g_spec("zero").kind == "const"
    assert parse_g_spec("linear:1.5").slope == 1.5
    g = parse_g_spec("quad:0.5,0.1,-0.2")
    assert (g.curvature, g.slope, g.offset) == (0.5, 0.1, -0.2)
    assert parse_g_spec("bump").kind == "generic"
    with pytest.raises(ParseError):
        parse_g_spec("cubic:1")


# ---------------------------------------------------------------------------
# single-value commands


def test_distance_known_value(capsys):
    code, out, _ = run_cli(capsys, "distance", "--u", "gauss:0,4",
                           "--v", "gauss:0,1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 0.5) < 1e-7
    assert payload["version"]
    assert payload["config"]["u"] == "gauss:0,4"


def test_distance_rejects_nd_inputs(capsys, mix2d_file):
    code, _, err = run_cli(capsys, "distance", "--u", f"file:{mix2d_file}",
                           "--v", "gauss:0,1")
    assert code == 1
    assert "1-D" in err


def test_deficit_main_example(capsys, mix2d_file):
    code, out, _ = run_cli(capsys, "deficit", "--measure",
                           f"file:{mix2d_file}", "--theorem", "main")
    assert code == 0
    rep = json.loads(out)["report"]
    assert abs(rep["margin"] - 0.1931471805599453) < 1e-6
    assert rep["status"] == "pass"


def test_deficit_pl_via_flags(capsys):
    code, out, _ = run_cli(capsys, "deficit", "--theorem", "pl",
                           "--g", "quad:0.5", "--lam", "0.3")
    assert code == 0
    assert json.loads(out)["report"]["theorem"] == "pl"


def test_grid_csv_gets_verdicts(tmp_path, capsys):
    xs = np.linspace(-6.0, 6.0, 121)
    dens = (0.5 * np.exp(-0.5 * ((xs + 0.8) / 0.9) ** 2) / 0.9
            + 0.5 * np.exp(-0.5 * ((xs - 1.0) / 1.2) ** 2) / 1.2)
    path = tmp_path / "g.csv"
    path.write_text("x,density\n" + "".join(f"{x:.17g},{v:.17g}\n"
                                            for x, v in zip(xs, dens)))
    for argv in (("deficit", "--theorem", "main"), ("talagrand",)):
        code, out, _ = run_cli(capsys, *argv, "--measure", f"file:{path}")
        assert code == 0, argv
        assert json.loads(out)["report"]["status"] == "pass", argv


def assert_usage_error(code, out, err, prefix):
    # exit 1, one error line and nothing on stdout: no report, no traceback
    assert code == 1
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1, err


def test_grid_csv_corollary_needs_two_dims(tmp_path, capsys):
    # a theorem the measure cannot take is a usage error, not an error row
    xs = np.linspace(-6.0, 6.0, 121)
    path = tmp_path / "g.csv"
    path.write_text("x,density\n" + "".join(
        f"{x:.17g},{math.exp(-0.5 * x * x):.17g}\n" for x in xs))
    for measure in (f"file:{path}", "gauss:0,2"):
        code, out, err = run_cli(capsys, "deficit", "--theorem", "corollary",
                                 "--measure", measure)
        assert_usage_error(code, out, err,
                           "bfstab: error: --theorem corollary does not "
                           f"apply to --measure {measure} (the corollary "
                           "needs dimension at least 2)")


@pytest.mark.parametrize("suite,theorem,hint", [
    ("talagrand-1d", "corollary",
     " (the corollary needs dimension at least 2)"),
    ("pl-grid", "main", ""),
])
def test_verify_theorem_no_case_can_take_is_a_parse_error(capsys, suite,
                                                          theorem, hint):
    # no case of the suite fits: this used to print a bare header and exit 0
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--theorem",
                             theorem, "--format", "csv")
    assert_usage_error(code, out, err,
                       f"bfstab: error: --theorem {theorem} does not apply "
                       f"to any case of --suite {suite}{hint}\n")


@pytest.mark.parametrize("factors", [5, [], "abc", None])
def test_density_file_factors_must_be_a_list(tmp_path, capsys, factors):
    # {"factors": 5} ended in a TypeError traceback and [] in an IndexError
    path = tmp_path / "prod.json"
    path.write_text(json.dumps({"factors": factors}))
    code, out, err = run_cli(capsys, "deficit", "--measure", f"file:{path}")
    assert_usage_error(code, out, err, f"bfstab: error: {path}: factors "
                                       "must be a non-empty list")


def test_mixture_file_with_an_object_for_covs(tmp_path, capsys):
    # {"covs": {"a": 1}} ended in a TypeError traceback
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"weights": [1.0], "means": [[0.0, 0.0]],
                                "covs": {"a": 1}}))
    code, out, err = run_cli(capsys, "deficit", "--measure", f"file:{path}")
    assert_usage_error(code, out, err,
                       "bfstab: error: invalid mixture parameters")


@pytest.mark.parametrize("argv", [
    ["deficit", "--measure", "gauss:a,1"],
    ["deficit", "--measure", "mix:[0,0,1]"],
    ["deficit", "--measure", "file:{bad_json}"],
    ["pl-check", "--g", "linear:", "--lam", "0.5"],
    ["pl-check", "--g", "quad:1,2,3,4", "--lam", "0.5"],
    ["deficit", "--theorem", "pl"],
    ["deficit"],
    ["sweep", "--kind", "sigma", "--values", ","],
])
def test_malformed_inputs_are_usage_errors(tmp_path, capsys, argv):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    argv = [a.format(bad_json=bad_json) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert_usage_error(code, out, err, "bfstab: error: ")


def test_one_dimensional_covs_file_matches_mix_spec(tmp_path, capsys):
    path = tmp_path / "mix1d.json"
    path.write_text(json.dumps({"weights": [0.3, 0.7],
                                "means": [[-1.0], [1.2]],
                                "covs": [[[0.5]], [[2.0]]]}))
    outputs = []
    for spec in (f"file:{path}", "mix:[0.3,-1,0.5;0.7,1.2,2]"):
        code, out, _ = run_cli(capsys, "deficit", "--measure", spec,
                               "--format", "csv")
        assert code == 0, spec
        outputs.append(out)
    assert outputs[0] == outputs[1]


NARROW_MODES = "mix:[0.5,-8,0.0025;0.5,8,0.0025]"


def test_narrow_separated_modes_get_verdicts(capsys):
    # the mixture quantile inversion used to stall on the flat cdf between
    # these modes; against gamma no quantile is inverted
    code, out, _ = run_cli(capsys, "distance", "--u", NARROW_MODES,
                           "--v", "gauss:0,1")
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.876859) <= 1e-6
    code, out, _ = run_cli(capsys, "deficit", "--theorem", "main",
                           "--measure", NARROW_MODES)
    assert code == 0
    assert json.loads(out)["report"]["status"] == "pass"


FAR_NARROW = "mix:[0.01,-20,0.0001;0.99,0,1]"


def _distance(capsys, u, v):
    code, out, _ = run_cli(capsys, "distance", "--u", u, "--v", v)
    assert code == 0, (u, v)
    payload = json.loads(out)
    return payload["value"], payload["error_estimate"]


@pytest.mark.parametrize("u", [NARROW_MODES, FAR_NARROW])
@pytest.mark.parametrize("c", ["1", "-2.5"])
def test_distance_to_a_translate_of_gamma_matches_gamma(capsys, u, c):
    # v = N(c, 1) is a translate of gamma, so d(u, v) = d(u, gamma); the
    # first inverts both quantiles, u's across the flat stretches of its
    # cdf; the second inverts none
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, err = _distance(capsys, u, f"gauss:{c},1")
        ref, ref_err = _distance(capsys, u, "gauss:0,1")
    assert abs(value - ref) <= err + ref_err


def test_distance_between_separated_mixtures(capsys):
    # the Gaussian-scale integral inverts both mixtures' quantiles, each
    # across the flat stretch of its cdf between its modes; no warning fires
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, err = _distance(capsys, NARROW_MODES,
                               "mix:[0.5,-3,0.16;0.5,3,0.49]")
    assert 0.0 < value <= 1.0 and err < 1e-8


def test_distance_tolerance_past_the_panel_cap_exits_one(tmp_path, capsys):
    # wide pair 2 of test_transport1d._wide_pairs (u has a component of std
    # 1.1e-3 at 21.3): the default --tol is met, 1e-13 is not by the
    # quadrature's 8,192-panel cap, so that run exits 1 with a message that
    # names its error estimate and panel count
    paths = []
    for name, w, m, s in (
            ("u", [0.046361875995988934, 0.1773651225640914,
                   0.24913886994774512, 0.1399817354117064,
                   0.3871523960804682],
             [-18.503024458791884, 18.1418496680718, -18.520564436567984,
              -25.106842958189237, 21.31361845722421],
             [147.12991262701786, 181.6446363799795, 0.6783570082572813,
              0.044084947880404256, 0.0011029376741770085]),
            ("v", [0.11620690495235513, 0.22506192994050397,
                   0.5388477551366213, 0.11988340997051952],
             [-17.086909970221583, 8.35988280399527, 18.303289988700584,
              27.820252370698256],
             [0.008001086811733591, 0.7821216885136724, 233.50445626352482,
              0.34379649256545813])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"weights": w, "means": m, "stds": s}))
        paths.append(f"file:{path}")
    argv = ("distance", "--u", paths[0], "--v", paths[1])
    code, out, _ = run_cli(capsys, *argv)
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["value"] - 0.7510562764488) < 1e-13
    assert payload["error_estimate"] < 5.1e-10
    code, out, err = run_cli(capsys, *argv, "--tol", "1e-13")
    assert_usage_error(code, out, err,
                       "bfstab: error: adaptive_quad did not converge: "
                       "error estimate 6.618e-09 with 6163 panels")


def test_narrow_modes_against_a_mixture_are_pinned(capsys):
    # the pair of the CI verdict step against a SciPy oracle; the average of
    # the two directed integrals read 0.9057077834778 +- 4.9e-9 here
    value, err = _distance(capsys, NARROW_MODES, "mix:[0.5,-1,1;0.5,1,0.5]")
    assert abs(value - 0.9057077879416) <= err <= 1e-9


def test_talagrand_separated_modes_and_narrow_gaussian_pass(capsys):
    code, out, _ = run_cli(capsys, "talagrand", "--measure",
                           "mix:[0.5,-3,0.16;0.5,3,0.49]")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["status"] == "pass"
    middle = float(report["method"].split("bregman-chain middle=")[1])
    assert abs(middle - 1.65619) <= 1e-4
    code, out, _ = run_cli(capsys, "talagrand", "--measure", "gauss:0,1e-6")
    assert code == 0
    assert json.loads(out)["report"]["status"] == "pass"


def test_talagrand_gaussian_2d_closed_form(capsys, mix2d_file):
    # N(0, diag(4, 1)): 2H = 3 - log 4 and W2^2 = 1, which the principal
    # axes reach exactly; d_n = 1 - 1/2 along the first axis
    code, out, _ = run_cli(capsys, "talagrand", "--measure",
                           f"file:{mix2d_file}")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["status"] == "pass"
    err = report["error_estimate"]
    assert abs(report["deficit"] - (2.0 - math.log(4.0))) <= err
    assert abs(report["margin"] - (2.0 - math.log(4.0) - 0.125)) <= err


def test_talagrand_mode_the_measure_cannot_take(capsys, mix2d_file):
    # the measure picks the route, so the talagrand command has no --mode
    # flag: naming any mode is a parse error, never a report
    for measure, mode in (("gauss:0,2", "product"),
                          (f"file:{mix2d_file}", "1d"),
                          (f"file:{mix2d_file}", "knothe-nd")):
        with pytest.raises(SystemExit) as exc:
            main(["talagrand", "--measure", measure, "--mode", mode])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "unrecognized arguments: --mode" in out.err


def test_talagrand_command_matches_deficit_theorem_talagrand(capsys,
                                                             tmp_path,
                                                             mix2d_file):
    # one handler serves both, and the measure picks the route
    prod = tmp_path / "prod.json"
    prod.write_text(json.dumps({"factors": [
        {"weights": [1.0], "means": [0.0], "stds": [2.0]},
        {"weights": [1.0], "means": [0.3], "stds": [1.0]}]}))
    for spec, route in ((f"file:{prod}",
                         "tensorized per-axis Bregman integral 2B"),
                        (f"file:{mix2d_file}", "Knothe-Rosenblatt"),
                        ("gauss:0,2", "Bregman integral 2B")):
        outs = []
        for argv in (("talagrand",), ("deficit", "--theorem", "talagrand")):
            code, out, _ = run_cli(capsys, *argv, "--measure", spec,
                                   "--format", "csv")
            assert code == 0, argv
            outs.append(out)
        assert outs[0] == outs[1]
        row = next(csv.DictReader(io.StringIO(outs[0])))
        assert row["status"] == "pass"
        assert row["method"].startswith(route), spec


def test_talagrand_config_records_theorem_and_resolved_mode(capsys,
                                                         mix2d_file):
    # the route the measure resolves to is no setting, so the config
    # records the theorem alone and the report's method names the route
    code, out, _ = run_cli(capsys, "talagrand", "--measure",
                           f"file:{mix2d_file}")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "talagrand"
    assert payload["config"]["theorem"] == "talagrand"
    assert "mode" not in payload["config"]
    assert payload["report"]["method"].startswith("Knothe-Rosenblatt")


def test_talagrand_above_three_dims_passes(capsys, tmp_path):
    # an n >= 4 mixture takes the Knothe-Rosenblatt route on Sobol nodes
    path = tmp_path / "mix4d.json"
    path.write_text(json.dumps({
        "weights": [0.5, 0.5],
        "means": [[0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.5, 0.0]],
        "covs": [np.eye(4).tolist(), np.diag([2.0, 1.0, 0.5, 1.0]).tolist()],
    }))
    code, out, err = run_cli(capsys, "talagrand", "--measure", f"file:{path}",
                             "--mc-budget", "32768", "--format", "csv")
    assert code == 0 and err == ""
    assert ',pass,"Knothe-Rosenblatt W2^2 upper bound=' in out


def test_pl_check_with_diagnostics(capsys):
    # bump's Fisher limit needs g', which the CLI's bump used to lack; it
    # is the corpus sinbump entry
    for spec, g in (("linear:1", GFun.linear(1.0)),
                    ("bump", dict(_PL_GS)["sinbump"])):
        code, out, err = run_cli(capsys, "pl-check", "--g", spec,
                                 "--lam", "0.25", "--diagnostics")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["report"]["status"] == "pass"
        assert payload["diagnostics"] == [
            vars(r) for r in lambda_limit_diagnostics(g)]
        lams = [row["lam"] for row in payload["diagnostics"]]
        assert lams == sorted(lams, reverse=True)


def test_pl_check_past_the_double_range(capsys):
    # A = e^5000 used to end in the catch-all error status
    code, out, err = run_cli(capsys, "pl-check", "--g", "linear:1", "--lam",
                             "0.99", "--format", "csv")
    assert code == 0, err
    assert ',pass,"A=exp(' in out
    code, out, err = run_cli(capsys, "pl-check", "--g", "linear:12", "--lam",
                             "0.5", "--diagnostics")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["report"]["status"] == "pass"
    m = math.exp(72.0)
    for row in payload["diagnostics"]:
        assert row["entropy_limit"] == pytest.approx(72.0 * m, rel=1e-13)


@pytest.mark.parametrize("argv", [
    ("deficit", "--measure", "gauss:0,1e-320"),
    ("sweep", "--kind", "sigma", "--values", "1e-160")])
def test_fisher_information_past_the_double_range(capsys, argv):
    # 1/s^2 overflows below s of about 7.5e-155; it used to end in
    # OverflowError, reported as the catch-all error status
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 2 and err == ""
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["status"] == "error"
    assert row["method"].startswith("error: CapabilityError: ")
    assert "7.5e-155" in row["method"]


@pytest.mark.parametrize("command", ["deficit", "talagrand"])
def test_window_of_one_double_is_a_capability_error(capsys, command):
    # [m - 8.3, m + 8.3] rounds to the one double m at m = 3e17; it used
    # to end in DomainError from the quadrature
    code, out, err = run_cli(capsys, command, "--measure", "gauss:3e17,1",
                             "--format", "csv")
    assert code == 2 and err == ""
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["status"] == "error"
    assert row["method"] == (
        "error: CapabilityError: a mixture's working interval [3e+17, 3e+17] "
        "holds fewer than two doubles: its stds are too small beside its "
        "means")
    code, out, err = run_cli(capsys, "distance", "--u", "gauss:3e17,1",
                             "--v", "gauss:0,1")
    assert code == 1 and out == ""
    assert "holds fewer than two doubles" in err


def test_pl_check_diagnostics_need_json(capsys):
    # CSV output computed the lambda-limit table, then printed only the
    # report row, with exit 0
    code, out, err = run_cli(capsys, "pl-check", "--g", "linear:12", "--lam",
                             "0.5", "--diagnostics", "--format", "csv")
    assert_usage_error(code, out, err, "bfstab: error: --diagnostics needs "
                                       "--format json")


def test_pl_check_prints_large_integrals_as_exponentials(capsys):
    # A = e^288 used to print as a 126-digit fixed-point number
    code, out, err = run_cli(capsys, "pl-check", "--g", "linear:12", "--lam",
                             "0.5", "--format", "csv")
    assert code == 0, err
    assert '"A=exp(288.000000000000) B=exp(144.000000000000) ' in out
    # below 1e15 the fixed-point text stays
    code, out, err = run_cli(capsys, "pl-check", "--g", "linear:3", "--lam",
                             "0.5", "--format", "csv")
    assert code == 0, err
    assert '"A=65659969.137330509722 B=8103.083927575384 ' in out


# ---------------------------------------------------------------------------
# suites, sweeps, formats


def test_verify_suite_and_jobs_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1, _, _ = run_cli(capsys, "verify", "--suite", "talagrand-1d",
                          "--seed", "0", "--jobs", "1", "--out", str(out1))
    code2, _, _ = run_cli(capsys, "verify", "--suite", "talagrand-1d",
                          "--seed", "0", "--jobs", "2", "--out", str(out2))
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["summary"]["pass"] == 30
    assert len(payload["reports"]) == 30
    # config captures science knobs, never the worker count
    assert "jobs" not in payload["config"]


@pytest.mark.parametrize("value", ["0", "-3", "many"])
def test_directions_below_one_is_a_parse_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "main-corpus", "--directions", value])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "--directions" in out.err


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_tol_must_be_finite_and_nonnegative(capsys, value):
    # a negative tolerance failed a case that passes at the default, and a
    # NaN one left every case inconclusive
    with pytest.raises(SystemExit) as exc:
        main(["deficit", "--measure", "gauss:0,2", "--tol", value])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "--tol" in out.err


def test_tol_zero_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "deficit", "--measure", "gauss:0,2",
                           "--tol", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["tol"] == 0.0
    assert payload["report"]["status"] == "pass"


@pytest.mark.parametrize("argv", [["pl-check", "--g", "quad:0.5"],
                                  ["deficit", "--theorem", "pl", "--g",
                                   "quad:0.5"]])
@pytest.mark.parametrize("value", ["0", "1", "1.5"])
def test_lam_outside_unit_interval_is_a_parse_error(capsys, argv, value):
    # it used to reach the verifier and come back as an error report
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--lam", value])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "--lam" in out.err


@pytest.mark.parametrize("command", ["deficit", "talagrand", "verify"])
@pytest.mark.parametrize("option,value", [("--repeats", "1"),
                                          ("--repeats", "0"),
                                          ("--m-samples", "0"),
                                          ("--m-samples", "-2")])
def test_sampling_budget_below_minimum_is_a_parse_error(capsys, mix2d_file,
                                                        command, option,
                                                        value):
    # the sampled W2 estimator and its budget flags are gone: a command line
    # that still passes them stops at parse time instead of running a case
    # with the budget silently ignored
    target = (["--suite", "main-corpus"] if command == "verify"
              else ["--measure", f"file:{mix2d_file}"])
    with pytest.raises(SystemExit) as exc:
        main([command, *target, option, value])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments" in out.err and option in out.err


def assert_parse_error(capsys, mix2d_file, command, option, value):
    target = (["--suite", "main-corpus"] if command == "verify"
              else ["--measure", f"file:{mix2d_file}"])
    with pytest.raises(SystemExit) as exc:
        main([command, *target, option, value])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert option in out.err


@pytest.mark.parametrize("command", ["deficit", "talagrand", "verify"])
@pytest.mark.parametrize("option,value", [("--seed", "-1")])
def test_negative_seed_is_a_parse_error(capsys, mix2d_file, command, option,
                                        value):
    # NumPy's and SciPy's generators reject a negative seed, which used to
    # surface as an error report (exit 2) after the case had started
    assert_parse_error(capsys, mix2d_file, command, option, value)


@pytest.mark.parametrize("command", ["deficit", "talagrand", "verify"])
@pytest.mark.parametrize("option,value", [("--mc-budget", "-5"),
                                          ("--mc-budget", "0"),
                                          ("--jobs", "0")])
def test_budget_and_jobs_below_one_are_parse_errors(capsys, mix2d_file,
                                                    command, option, value):
    # a budget below 1 used to run with silent floors, and --jobs 0 serially
    assert_parse_error(capsys, mix2d_file, command, option, value)


@pytest.mark.parametrize("theorem", ["main", "corollary"])
@pytest.mark.parametrize("option,value", [
    ("--mc-budget", "20000000000"),
    ("--mc-budget", str(cli._MAX_MC_BUDGET + 1)),
    ("--directions", str(cli._MAX_DIRECTIONS + 1))])
def test_draws_past_the_sobol_range_are_parse_errors(capsys, tmp_path,
                                                     theorem, option, value):
    # a 4-D budget of 2e10 used to end in MemoryError, reported as the
    # catch-all error status with exit 2
    path = tmp_path / "m4.json"
    path.write_text(json.dumps({"weights": [1.0], "means": [[0.0] * 4],
                                "covs": [np.eye(4).tolist()]}))
    with pytest.raises(SystemExit) as exc:
        main(["deficit", "--measure", f"file:{path}", "--theorem", theorem,
              option, value])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert option in out.err


def test_largest_draws_parse():
    args = cli.build_parser().parse_args(
        ["verify", "--suite", "main-corpus",
         "--mc-budget", str(cli._MAX_MC_BUDGET),
         "--directions", str(cli._MAX_DIRECTIONS)])
    assert (args.mc_budget, args.directions) == (cli._MAX_MC_BUDGET,
                                                 cli._MAX_DIRECTIONS)


def test_process_pool_is_capped_at_the_task_count(monkeypatch):
    sizes = []

    class FakePool:
        # records the pool size and runs nothing, so no process starts
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [task[0] for task in tasks]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    tasks = [(f"case-{i}", None, "main", {}) for i in range(3)]
    assert cli._run_tasks(tasks, 64) == ["case-0", "case-1", "case-2"]
    assert cli._run_tasks(tasks, 2) == ["case-0", "case-1", "case-2"]
    assert sizes == [3, 2]


@pytest.mark.parametrize("statuses,expected", [
    (["pass"], 0), (["fail"], 2), (["inconclusive"], 3), (["error"], 2),
    (["pass", "pass"], 0), (["pass", "inconclusive"], 3),
    (["inconclusive", "fail"], 2), (["error", "inconclusive"], 2)])
def test_exit_code_follows_the_report_statuses(monkeypatch, capsys, statuses,
                                               expected):
    # one rule for one report and for many: 2 if any fails or errs, else 3
    # if any is inconclusive, else 0
    def fake_run_case(case_id, obj, theorem, **kw):
        return DeficitReport(case_id, theorem, 0.0, 0.0, 0.0, 0.0,
                             pending.pop(0), "fake")

    monkeypatch.setattr(cli, "run_case", fake_run_case)
    values = ",".join(str(i + 1) for i in range(len(statuses)))
    pending = list(statuses)
    assert run_cli(capsys, "sweep", "--kind", "sigma", "--values",
                   values)[0] == expected
    if len(statuses) == 1:
        for argv in (("deficit", "--measure", "gauss:0,2"),
                     ("pl-check", "--g", "zero", "--lam", "0.5")):
            pending = list(statuses)
            assert run_cli(capsys, *argv)[0] == expected, argv


def test_verify_unknown_suite_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "made-up"])
    assert exc.value.code == 1


def test_sweep_sigma_csv_format(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--kind", "sigma",
                           "--values", "0.5,2", "--format", "csv")
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == ("case_id,theorem,deficit,lower_bound,margin,"
                        "error_estimate,status,method")
    assert lines[1].startswith("sigma-0.5,main,")
    assert lines[2].startswith("sigma-2,main,")
    assert out.endswith("\n") and "\r" not in out
    deficit = float(lines[1].split(",")[2])
    assert abs(deficit - 0.8068528194400546) < 1e-9


def test_sweep_sigma_readme_example(capsys):
    # wide Gaussians (sigma = 4) get a verdict, not an error
    code, out, _ = run_cli(capsys, "sweep", "--kind", "sigma",
                           "--values", "0.5,1,2,4")
    assert code == 0
    assert json.loads(out)["summary"]["pass"] == 4


@pytest.mark.parametrize("kind,values,theorem", [
    ("sigma", "1,2", "corollary"),
    ("tilt", "0.5", "corollary"),
    ("lambda", "0.5", "main"),
])
def test_sweep_theorem_the_measure_cannot_take_is_a_parse_error(
        capsys, kind, values, theorem):
    # 1-D sweeps cannot take the corollary and a lambda sweep runs the pl
    # check only; each used to emit error rows or ignore --theorem
    code, out, err = run_cli(capsys, "sweep", "--kind", kind, "--values",
                             values, "--theorem", theorem, "--format", "csv")
    assert_usage_error(code, out, err, f"bfstab: error: --theorem {theorem} "
                                       f"does not apply to --kind {kind}")


def test_sweep_lambda_default_g(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--kind", "lambda",
                           "--values", "0.2,0.5")
    assert code == 0
    payload = json.loads(out)
    assert [r["case_id"] for r in payload["reports"]] == ["lambda-0.2",
                                                          "lambda-0.5"]
    assert payload["summary"]["pass"] == 2


def test_sweep_values_may_start_with_a_minus_sign(capsys):
    # argparse takes "-1,0,0.5,2" for an option; after a space it is still
    # the list of --values, the same as after "="
    spaced = run_cli(capsys, "sweep", "--kind", "tilt", "--values",
                     "-1,0,0.5,2", "--format", "csv")
    joined = run_cli(capsys, "sweep", "--kind", "tilt",
                     "--values=-1,0,0.5,2", "--format", "csv")
    assert spaced[0] == 0 and spaced == joined
    assert spaced[1].splitlines()[1].startswith("tilt--1,")


def test_sweep_rejects_bad_values(capsys):
    code, _, err = run_cli(capsys, "sweep", "--kind", "sigma",
                           "--values", "0,1")
    assert code == 1 and "positive" in err
    code, _, _ = run_cli(capsys, "sweep", "--kind", "lambda",
                         "--values", "1.5")
    assert code == 1


# ---------------------------------------------------------------------------
# output plumbing


def test_atomic_write_leaves_no_temp_files(tmp_path, capsys):
    out = tmp_path / "res.json"
    code, _, _ = run_cli(capsys, "distance", "--u", "gauss:0,1",
                         "--v", "gauss:0,1", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["value"] < 1e-9
    assert os.listdir(tmp_path) == ["res.json"]


def test_out_into_missing_directory_is_an_error(tmp_path, capsys):
    out = tmp_path / "missing" / "res.json"
    code, stdout, err = run_cli(capsys, "distance", "--u", "gauss:0,1",
                                "--v", "gauss:0,1", "--out", str(out))
    assert_usage_error(code, stdout, err, "bfstab: error: ")
    assert os.listdir(tmp_path) == []


def test_out_naming_a_directory_is_an_error(tmp_path, capsys):
    # the report is written to a temporary file that cannot replace a
    # directory; the temporary file is removed
    out = tmp_path / "res"
    out.mkdir()
    code, stdout, err = run_cli(capsys, "distance", "--u", "gauss:0,1",
                                "--v", "gauss:0,1", "--out", str(out))
    assert_usage_error(code, stdout, err, "bfstab: error: ")
    assert os.listdir(tmp_path) == ["res"]
    assert os.listdir(out) == []


def test_csv_single_report(capsys):
    code, out, _ = run_cli(capsys, "deficit", "--measure", "gauss:0,4",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "main"


def test_bad_flags_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["deficit", "--no-such-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--jobs", "2"],
                                  ["--mc-budget", "10"],
                                  ["--directions", "4"], ["--case-id", "x"]])
def test_distance_rejects_flags_it_does_not_read(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--u", "gauss:0,4", "--v", "gauss:0,1", *flag])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "equality-cases"],
    ["sweep", "--kind", "sigma", "--values", "2"]], ids=["verify", "sweep"])
def test_case_id_is_a_parse_error_on_suites_and_sweeps(capsys, argv):
    # their rows carry the suite's or the sweep's own ids
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--case-id", "foo"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --case-id" in captured.err


@pytest.mark.parametrize("argv", [
    ["deficit", "--measure", "gauss:0,4"], ["talagrand", "--measure", "gauss:0,4"],
    ["pl-check", "--g", "zero", "--lam", "0.5"]],
    ids=["deficit", "talagrand", "pl-check"])
def test_case_id_stamps_single_case_reports(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--case-id", "foo")
    assert code == 0
    assert json.loads(out)["report"]["case_id"] == "foo"
