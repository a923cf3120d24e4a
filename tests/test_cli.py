import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curvlab
import curvlab.verify as verify
from curvlab import paper_hopf, random_tensor
from curvlab.cli import build_parser, main
from curvlab.curvature import FRAME, ChernTensor
from curvlab.errors import UsageError
from curvlab.reports import IdentityReport, VerifyReport
from curvlab import perron_criterion_check
from curvlab.verify import run_suite


def run_cli(*argv):
    # the child imports the curvlab this process imported, also when only
    # pytest's own pythonpath setting made it importable
    src = str(Path(curvlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "curvlab.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_eval_fubini_study_hsc(capsys):
    code = main(["eval", "--metric", "fubini_study", "--dim", "2", "--point", "0,0",
                 "--functional", "hsc", "--cvector", "1,0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "value = 2"


def test_eval_refuses_an_ill_conditioned_metric_and_only_that(capsys):
    # the Hopf metric 4 I / |z|^2 has kappa = 1 at every |z|; Fubini-Study
    # at |w| = 660 has kappa = 4.4e5, where its frame tensor is off by O(1)
    code = main(["eval", "--metric", "hopf", "--point", "1e7,0", "--functional", "rbc",
                 "--vector", "1,1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "value = 0.25"
    code = main(["eval", "--metric", "fubini_study", "--dim", "2",
                 "--point=330+330j,330+330j", "--functional", "rbc", "--vector", "1,1"])
    assert code == 2
    assert "ill-conditioned" in capsys.readouterr().err


def test_eval_flat_rbc(capsys):
    code = main(["eval", "--metric", "euclidean", "--dim", "3", "--point", "1,2,3",
                 "--functional", "rbc", "--vector", "1,1,1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "value = 0"


def test_eval_hopf_paper_tensor_qobc(capsys):
    code = main(["eval", "--metric", "hopf", "--point", "1,0", "--functional", "qobc",
                 "--vector", "-0.7071,0.7071", "--use-paper-tensor"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "value = 8"


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["eval", "--metric", "hopf", "--point", "1,0",
                 "--functional", "bogus", "--vector", "1,0"]) == 1
    assert main(["eval", "--metric", "hopf", "--point", "0.01,0",
                 "--functional", "rbc", "--vector", "1,0"]) == 2
    assert main(["verify", "identities", "--seed", "1"]) == 0
    # the FD flags are gone: every metric eval can name has a closed-form jet
    for fd_flag in (["--fd-order", "2"], ["--fd-step", "1e-4"]):
        assert main(["eval", "--metric", "tricerri", "--point", "0,1j", "--functional",
                     "rbc", "--vector", "1,0", *fd_flag]) == 1
        assert fd_flag[0] in capsys.readouterr().err
    # sizes read from outside are bounded before anything is allocated
    zeros = ",".join(["0"] * 13)
    for dim in ("13", "1000000000"):
        assert main(["eval", "--metric", "euclidean", "--dim", dim, "--point", zeros,
                     "--functional", "rbc", "--vector", zeros]) == 1
    identity = ";".join(",".join("1" if i == j else "0" for j in range(13)) for i in range(13))
    assert main(["cone-check", "--matrix", identity, "--cone", "full"]) == 1
    assert main(["cone-check", "--matrix", "1,0;0,1", "--samples", "1000000000000"]) == 1
    # and from below: the Perron check needs at least 100 samples
    for samples in ("-5", "0", "99"):
        assert main(["cone-check", "--matrix", "1,0;0,1", "--samples", samples]) == 1
        assert "--samples" in capsys.readouterr().err
    assert main(["cone-check", "--matrix", "1,0;0,1", "--samples", "100"]) == 0
    sweep = ["sweep", "--metric", "euclidean", "--dim", "2", "--grid"]
    assert main(sweep + ["re1=0:1:1000000000000"]) == 1
    # so are the search budgets, on scans that run every restart and on
    # those that ignore them
    import curvlab.cli as cli_mod
    restricted = ["frame-scan", "--tensor", "random", "--tensor-params", '{"n": 2}',
                  "--functional", "rbc", "--cone", "orthant"]
    family = ["frame-scan", "--family", "tricerri", "--imw", "1", "--functional", "rbc"]
    for argv in (restricted, family, sweep + ["re1=0:1:2"]):
        for budget in (["--restarts", "1000000000"], ["--restarts", str(cli_mod.MAX_RESTARTS + 1)],
                       ["--restarts", "0"], ["--refine-steps", "-3"],
                       ["--refine-steps", str(cli_mod.MAX_REFINE_STEPS + 1)]):
            assert main(argv + budget) == 1
            assert budget[0] in capsys.readouterr().err
    assert main(restricted + ["--restarts", "1", "--refine-steps", "0"]) == 0
    monkeypatch.setattr(cli_mod, "MAX_GRID_POINTS", 3)    # the total, not an axis, is over
    assert main(sweep + ["re1=0:1:2,im1=0:1:2"]) == 1
    assert "at most 3 points" in capsys.readouterr().err
    # a seed must be an integer >= 0, from a flag or from a config file
    assert main(["frame-scan", "--tensor", "random", "--tensor-params", '{"n": 2}',
                 "--functional", "rbc", "--seed", "-1"]) == 1
    assert main(["verify", "identities", "--seed", "-5"]) == 1
    assert main(["cone-check", "--matrix", "1,0;0,1", "--seed", "-1"]) == 1
    for seed in (-1, 1.5, "3", True):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"seed": seed}))
        assert main(["verify", "tricerri", "--config", str(cfg)]) == 1
    # a config value must have the JSON type, and be one of the choices, of its flag
    for argv, value in (
            (["frame-scan", "--tensor", "random", "--tensor-params", '{"n": 2}',
              "--functional", "rbc"], {"restarts": "2"}),
            (["cone-check", "--matrix", "1,0;0,1"], {"samples": "x"}),
            (["frame-scan", "--family", "tricerri", "--functional", "rbc"], {"imw": "abc"}),
            (["eval", "--metric", "euclidean", "--dim", "2", "--point", "0,0",
              "--functional", "rbc", "--vector", "1,0"], {"use_paper_tensor": "no"}),
            (["frame-scan", "--tensor", "random", "--tensor-params", '{"n": 2}',
              "--functional", "rbc"], {"convention": "bogus"})):
        cfg = tmp_path / "values.json"
        cfg.write_text(json.dumps(value))
        assert main(argv + ["--config", str(cfg)]) == 1


OUT_OF_RANGE = [
    (["frame-scan", "--family", "tricerri", "--functional", "rbc", "--imw", "1e-100"], 2),
    (["frame-scan", "--family", "tricerri", "--functional", "rbc", "--imw", "inf"], 2),
    (["frame-scan", "--family", "tricerri", "--functional", "rbc", "--imw", "1e100"], 2),
    (["frame-scan", "--tensor", "paper_tricerri", "--tensor-params", '{"im_w": 1e-100}',
      "--functional", "rbc"], 2),
    (["cone-check", "--cone", "generators", "--generators", "1,nan;1,1",
      "--matrix", "1,0;0,1"], 2),
    (["cone-check", "--cone", "generators", "--generators", "1,inf;1,1",
      "--matrix", "1,0;0,1"], 2),
    (["eval", "--metric", "hopf", "--point", "1,0.5", "--functional", "rbc",
      "--vector", "inf,0"], 1),
    (["eval", "--metric", "hopf", "--point", "1,0.5", "--functional", "rbc",
      "--vector", "nan,0"], 1),
    # finite entries above MAX_ENTRY: a NaN search value, a NaN in the JSON
    # output, and an overflowing product in copositive_2x2
    (["frame-scan", "--tensor", "kahler_constant", "--tensor-params", '{"c": 1e308, "n": 2}',
      "--functional", "rbc", "--cone", "orthant"], 2),
    (["cone-check", "--matrix", "1e308,1e308;1e308,1e308", "--format", "json"], 2),
    (["cone-check", "--matrix", "1e200,-2e200;-2e200,1e200"], 2),
    # flags that would be ignored or overwritten
    (["cone-check", "--cone", "orthant", "--generators", "1,0", "--matrix", "1,0;0,1"], 1),
    (["sweep", "--metric", "euclidean", "--dim", "2", "--grid", "re1=1:2:2,re1=1:2:2"], 1),
    # Hopf points whose |z|^6 leaves the float range, and catalog points where
    # a closed form would overflow: each is rejected before any arithmetic
    (["frame-scan", "--tensor", "paper_hopf", "--tensor-params", '{"z": [1e60, 0]}',
      "--functional", "rbc"], 2),
    (["frame-scan", "--tensor", "paper_hopf", "--tensor-params", '{"z": [1e-120, 0]}',
      "--functional", "rbc"], 2),
    (["eval", "--metric", "hopf", "--point", "1e60,0", "--functional", "rbc",
      "--vector", "1,0"], 2),
    (["eval", "--metric", "hopf", "--point", "1e200,0", "--functional", "rbc",
      "--vector", "1,0", "--use-paper-tensor"], 2),
    (["sweep", "--metric", "hopf", "--point", "1,0", "--grid", "re1=1:1e60:3"], 2),
    (["eval", "--metric", "fubini_study", "--dim", "2", "--point", "1e200,1e200j",
      "--functional", "rbc", "--vector", "1,0"], 2),
    (["eval", "--metric", "conformal", "--dim", "2", "--point", "30,0",
      "--functional", "rbc", "--vector", "1,0"], 2),
    # non-finite numbers in --tensor-params
    (["frame-scan", "--tensor", "kahler_constant", "--tensor-params", '{"c": Infinity, "n": 2}',
      "--functional", "rbc"], 1),
    (["frame-scan", "--tensor", "kahler_constant", "--tensor-params", '{"c": -Infinity, "n": 2}',
      "--functional", "rbc"], 1),
    (["frame-scan", "--tensor", "paper_hopf", "--tensor-params", '{"z": [NaN, 1]}',
      "--functional", "rbc"], 1),
    (["frame-scan", "--tensor", "kahler_constant", "--tensor-params", '{"c": 1e400, "n": 2}',
      "--functional", "rbc"], 1),
    (["frame-scan", "--tensor", "paper_tricerri",
      "--tensor-params", '{"im_w": 1%s}' % ("0" * 400), "--functional", "rbc"], 1),
    # grid axes with a non-finite end or span, rejected before np.linspace
    (["sweep", "--metric", "hopf", "--point", "1,0", "--grid", "re1=1:inf:3"], 1),
    (["sweep", "--metric", "euclidean", "--dim", "2", "--point", "1,0",
      "--grid", "re1=-1e308:1e308:3"], 1),
    (["sweep", "--metric", "euclidean", "--dim", "2", "--point", "1,0",
      "--grid", "re1=nan:1:3"], 1),
]


@pytest.mark.parametrize("argv, code", OUT_OF_RANGE)
def test_out_of_range_values_exit_with_a_message(argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error:" if code == 1 else "domain error:")
    assert err.count("\n") == 1
    assert "nonzero" not in err and "Traceback" not in err


def test_eval_reads_only_the_direction_of_a_vector(capsys):
    base = ["eval", "--metric", "hopf", "--point", "1,0.5"]
    for flags, tiny in ((["--functional", "rbc", "--vector"], "1e-200,1e-200"),
                        (["--functional", "hsc", "--cvector"], "1e-200,0")):
        assert main(base + flags + [tiny]) == 0
        small = capsys.readouterr().out
        assert main(base + flags + [tiny.replace("1e-200", "1")]) == 0
        assert small == capsys.readouterr().out and "nan" not in small


def test_numerical_drift_exits_2(monkeypatch, capsys):
    import curvlab.search as search_mod
    real = search_mod.evaluate
    monkeypatch.setattr(search_mod, "evaluate", lambda kind, m, v: real(kind, m, v) + 1e-6)
    assert main(SCAN_RANDOM + ["--functional", "rbc"]) == 2
    assert "numerical error: frame extremum failed to re-evaluate" in capsys.readouterr().err


def test_cli_verification_failure_exit_code(tmp_path, capsys, monkeypatch):
    # force a failing suite through a stub to pin the exit code contract
    import curvlab.cli as cli_mod
    from curvlab.reports import VerifyReport

    def fake_run_suite(name, seed=0):
        rep = VerifyReport(suite=name)
        rep.add("always_fails", 0.0, 1.0, 1e-6)
        return rep

    monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
    assert main(["verify", "identities"]) == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [133, 95041])
def test_verify_fubini_study_passes_where_the_sampled_moment_check_failed(seed, capsys):
    # the 3-sigma Monte Carlo moment check failed at these seeds; the exact
    # rule does not depend on the seed
    rep = run_suite("fubini_study", seed=seed)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    moment = [c for c in rep.checks if c.name == "moment_identity_exact"]
    assert len(moment) == 1 and moment[0].tolerance == 1e-12
    assert main(["verify", "fubini_study", "--seed", str(seed)]) == 0


# checks whose subject is random; every other check of these suites is exact
SEEDED_CHECKS = {
    "hopf": {"fd_tensor_vs_closed_form", "altered_hsc_bounds_formula"},
    "tricerri": set(),
    "fubini_study": {"hsc_constant_2"},
    "identities": {"altered_hsc_additivity_and_diagonal", "qobc_constant_vector_zero",
                   "full_min_below_orthant_min", "scalar_trace_invariance"},
}


@pytest.mark.parametrize("suite", sorted(SEEDED_CHECKS))
def test_exact_verify_checks_do_not_depend_on_the_seed(suite):
    exact = None
    for seed in (0, 1, 133, 95041):
        rep = run_suite(suite, seed=seed)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]
        got = [(c.name, repr(c.actual)) for c in rep.checks
               if c.name not in SEEDED_CHECKS[suite]]
        assert exact is None or got == exact
        exact = got
    assert len(exact) == len(rep.checks) - len(SEEDED_CHECKS[suite])


def hopf_suite_with(monkeypatch, tensor):
    """verify hopf with tensor in place of the Hopf tensor at z = (1, (1 - i)/2),
    whose frame invariance the design checks test; its checks by name."""
    monkeypatch.setattr(verify, "paper_hopf", lambda z: tensor if list(z) == [1.0, 0.5 - 0.5j]
                        else paper_hopf(z))
    return {c.name: c for c in verify.suite_hopf(0).checks}


def test_hopf_design_checks_fail_on_frame_dependent_tensors(monkeypatch):
    for k in range(5):
        checks = hopf_suite_with(monkeypatch, random_tensor(k, 2))
        assert not checks["adjoint_component_invariance"].passed
        assert checks["adjoint_component_invariance"].actual > 0.1
    # shift the altered slice's off-diagonal pair R[0,1,1,0] = conj R[1,0,0,1]:
    # the qobc coefficient Re(alt'[0,1] + alt'[1,0]) is then 1 at the identity
    vals = paper_hopf([1.0, 0.5 - 0.5j]).values.copy()
    vals[0, 1, 1, 0] += 0.5
    vals[1, 0, 0, 1] += 0.5
    checks = hopf_suite_with(monkeypatch, ChernTensor(values=vals, basis=FRAME))
    assert not checks["altered_qobc_identically_zero"].passed
    assert checks["altered_qobc_identically_zero"].actual > 0.1


def test_tricerri_grid_fails_a_wrong_sign_family(monkeypatch):
    paper_tricerri = verify.paper_tricerri

    def flipped(b, d, im_w):
        vals = paper_tricerri(b, d, im_w).values.copy()
        vals[1, 1, 1, 1] *= -1.0         # the |d|^2 entry with the wrong sign
        return ChernTensor(values=vals, basis=FRAME)

    assert verify.tricerri_eigen_formula_error() < 1e-9
    monkeypatch.setattr(verify, "paper_tricerri", flipped)
    assert verify.tricerri_eigen_formula_error() > 0.1


def test_sweep_euclidean_all_zero(capsys):
    code = main(["sweep", "--metric", "euclidean", "--dim", "2",
                 "--grid", "re1=0:1:2", "--seed", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "index"
    assert "qobc_sup" in header
    for line in lines[1:]:
        vals = [float(x) for x in line.split(",")]
        assert all(v == 0.0 for v in vals[5:])


def test_sweep_rejects_out_of_domain_grid():
    code = main(["sweep", "--metric", "hopf", "--point", "0,0",
                 "--grid", "re1=0:0.04:2"])
    assert code == 2


def test_sweep_tricerri_paper_tensor(capsys):
    code = main(["sweep", "--metric", "tricerri", "--point", "0,1j",
                 "--grid", "im2=1:2:2", "--use-paper-tensor", "--seed", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    idx = header.index("rbc_inf")
    inf1 = float(lines[1].split(",")[idx])
    inf2 = float(lines[2].split(",")[idx])
    target = -0.75 * (1 + np.sqrt(2.0))
    assert abs(inf1 - target) <= 0.02 * abs(target)
    assert abs(inf2 - target / 16.0) <= 0.02 * abs(target / 16.0)


def test_sweep_hopf_paper_tensor_qobc_column(capsys):
    code = main(["sweep", "--metric", "hopf", "--point", "1,0",
                 "--grid", "re1=1:1.41421356237:2", "--use-paper-tensor", "--seed", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    idx = lines[0].split(",").index("qobc_sup")
    sup1 = float(lines[1].split(",")[idx])
    sup2 = float(lines[2].split(",")[idx])
    assert abs(sup1 - 8.0) <= 0.01 * 8.0
    assert abs(sup2 - 2.0) <= 0.01 * 2.0


def test_cone_check_generator_cone(capsys):
    code = main(["cone-check", "--matrix", "1,-1;-1,1", "--cone", "generators",
                 "--generators", "1,0;1,1", "--samples", "150", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cone_min"]["value"] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("scaled, plain", [("1e200,1;1,1", "1,1e-200;1,1"),
                                           ("1e-200,0;0,1", "1,0;0,1")])
def test_cone_check_reads_generators_of_any_scale(scaled, plain, capsys):
    # a huge or tiny generator row spans the same ray as its rescaled copy:
    # the same minimum, with no overflow warning and no "nonzero" error
    base = ["cone-check", "--matrix", "1,2;3,4", "--cone", "generators", "--format", "json"]
    minima = []
    for gens in (scaled, plain):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(base + ["--generators", gens]) == 0
        minima.append(json.loads(capsys.readouterr().out)["cone_min"])
    assert minima[0]["value"] == minima[1]["value"] == 1.0
    assert_allclose(minima[0]["argmin"], minima[1]["argmin"], rtol=1e-15)
    assert_allclose(minima[0]["argmin"], [1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("gens", ["1e5,0;0,1e-5", "1e10,0;0,1e-10"])
def test_cone_check_keeps_the_face_of_generators_of_unequal_scale(gens, capsys):
    # the two rows span the orthant, where the minimum is -1 at (1, 1)/sqrt(2)
    assert main(["cone-check", "--matrix", "1,-2;-2,1", "--cone", "generators",
                 "--generators", gens, "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)["cone_min"]
    assert got["value"] == pytest.approx(-1.0, abs=1e-12)
    assert_allclose(got["argmin"], [np.sqrt(0.5)] * 2, atol=1e-12)


TRICERRI_RBC = ["frame-scan", "--family", "tricerri", "--functional", "rbc"]
GENERATOR_CONE = ["cone-check", "--matrix", "1,0;0,1", "--cone", "generators",
                  "--samples", "100"]


# each row gives the value after `spelling`, the full flag or a unique prefix
# of it, and compares that with --flag=value
MINUS_VALUE_ROWS = [
    (GENERATOR_CONE, "--generators", "--generators", "-1,1;1,1", 0, "out"),
    (GENERATOR_CONE, "--gen", "--generators", "-1,1;1,1", 0, "out"),
    (TRICERRI_RBC, "--imw", "--imw", "-1e-3", 2, "err"),
    (TRICERRI_RBC, "--im", "--imw", "-1e-3", 2, "err"),
    (TRICERRI_RBC, "--imw", "--imw", "-inf", 2, "err"),
    (["eval", "--metric", "euclidean", "--dim", "2", "--point", "0,0", "--functional", "rbc"],
     "--vec", "--vector", "-1,0", 0, "out"),
    (["eval", "--metric", "hopf", "--functional", "rbc", "--vector", "1,0"],
     "--point", "--point", "-nan,1", 2, "err"),
]


@pytest.mark.parametrize("argv, spelling, flag, value, code, stream", MINUS_VALUE_ROWS,
                         ids=[f"{row[1]} {row[3]}" for row in MINUS_VALUE_ROWS])
def test_a_leading_minus_value_parses_like_its_equals_spelling(argv, spelling, flag, value,
                                                               code, stream, capsys):
    outputs = []
    for tokens in ([spelling, value], [f"{flag}={value}"]):
        assert main(argv + tokens) == code
        outputs.append(getattr(capsys.readouterr(), stream))
    assert outputs[0] == outputs[1] != ""


def _parsed(parser, argv):
    try:
        return parser.parse_args(argv)
    except UsageError as exc:
        return str(exc)


def test_every_value_flag_takes_a_leading_minus_value():
    # every unique prefix of every flag that takes a value, the full flag
    # included, reads each value like the flag's '=' spelling does
    parser = build_parser()
    flags = set()
    for name, sub in parser.commands.items():
        command = [name, "all"] if name == "verify" else [name]
        options = [o for action in sub._actions for o in action.option_strings]
        for action in sub.flags.values():
            if action.nargs is not None:
                continue
            flag, = action.option_strings
            flags.add(flag)
            prefixes = [flag[:k] for k in range(3, len(flag) + 1)
                        if k == len(flag) or sum(o.startswith(flag[:k]) for o in options) == 1]
            for value in ("-1", "-1e-3", "-.5", "-inf", "-1,1;1,1"):
                expected = _parsed(parser, command + [f"{flag}={value}"])
                for prefix in prefixes:
                    assert _parsed(parser, command + [prefix, value]) == expected, \
                        (name, prefix, value)
    assert {"--generators", "--imw", "--vector", "--format"} <= flags


def test_frame_scan_family_json(capsys):
    code = main(["frame-scan", "--family", "tricerri", "--imw", "1",
                 "--functional", "rbc", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inf"] == pytest.approx(-0.75 * (1 + np.sqrt(2.0)))
    assert payload["sup"] == pytest.approx(0.75)


def test_searched_zero_sup_prints_zero(capsys):
    # a searched sup is minus the least value of the negated form; an exact
    # zero there must not print as -0
    argv = ["frame-scan", "--tensor", "paper_tricerri", "--tensor-params", '{"im_w": 1.0}',
            "--functional", "rbc", "--cone", "orthant"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[2] == "sup = 0"
    assert main(argv + ["--format", "json"]) == 0
    sup = json.loads(capsys.readouterr().out)["sup"]["value"]
    assert sup == 0.0 and np.copysign(1.0, sup) == 1.0


def test_cone_check_json(capsys):
    code = main(["cone-check", "--matrix", "0,-1;-1,0", "--samples", "200",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dual_edm_member"] is False
    assert payload["copositive_2x2"] is False
    assert payload["cone_min"]["value"] == pytest.approx(-1.0, abs=1e-6)


def test_out_file_and_determinism(tmp_path):
    argv = ["eval", "--metric", "hopf", "--point", "1,1", "--functional",
            "altered_hsc", "--vector", "0.6,0.8", "--use-paper-tensor",
            "--format", "json"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_subprocess_determinism_and_entrypoint():
    for argv in (["verify", "identities", "--seed", "9", "--format", "json"],
                 ["sweep", "--metric", "euclidean", "--dim", "2",
                  "--grid", "re1=0:1:3", "--seed", "2"]):
        code1, out1, _ = run_cli(*argv)
        code2, out2, _ = run_cli(*argv)
        assert code1 == code2 == 0
        assert out1 == out2


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": "euclidean", "dim": 3, "point": "1,2,3",
                               "functional": "rbc", "vector": "1,1,1"}))
    code = main(["eval", "--config", str(cfg)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "value = 0"
    # an explicit flag overrides the config value
    code = main(["eval", "--config", str(cfg), "--functional", "qobc"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "value = 0"
    # a point may also be a list of numbers
    cfg.write_text(json.dumps({"metric": "hopf", "point": [1, 0], "functional": "rbc",
                               "vector": "1,0", "use_paper_tensor": True}))
    assert main(["eval", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "value = 0"


def test_config_precedence_flag_over_config_over_default(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"restarts": 2}))
    base = ["frame-scan", "--tensor", "random", "--tensor-params", '{"n": 2}',
            "--functional", "rbc", "--format", "json"]
    echoed = []
    for extra in ([], ["--config", str(cfg)], ["--config", str(cfg), "--restarts", "1"],
                  ["--restarts", "1", "--config", str(cfg)]):
        assert main(base + extra) == 0
        echoed.append(json.loads(capsys.readouterr().out)["restarts"])
    assert echoed == [8, 2, 1, 1]
    # a config value with a leading minus, and a switch set to false, read as
    # the same flags would
    hopf = ["eval", "--metric", "hopf", "--point", "1,0", "--functional", "qobc"]
    outputs = []
    for switch in ([], ["--use-paper-tensor"]):
        assert main(hopf + switch + ["--vector", "-0.7071,0.7071"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1].splitlines()[0] == "value = 8" and outputs[0] != outputs[1]
    cfg.write_text(json.dumps({"vector": "-0.7071,0.7071", "use_paper_tensor": False}))
    for switch, expected in (([], outputs[0]), (["--use-paper-tensor"], outputs[1])):
        assert main(hopf + switch + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == expected


def test_main_builds_no_parser(monkeypatch, capsys):
    import curvlab.cli as cli_mod

    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli_mod, "build_parser", no_parser)
    for argv in (["eval", "--metric", "euclidean", "--dim", "2", "--point", "0,0",
                  "--functional", "rbc", "--vector", "1,0"],
                 ["verify", "identities"],
                 ["sweep", "--metric", "euclidean", "--dim", "2", "--grid", "re1=0:1:2"],
                 SCAN_RANDOM + ["--functional", "rbc"],
                 ["cone-check", "--matrix", "1,0;0,1", "--samples", "100"]):
        assert main(argv) == 0, argv


def test_reports_round_trip():
    rep = run_suite("identities", seed=4)
    again = VerifyReport.from_dict(json.loads(json.dumps(rep.to_dict())))
    assert again == rep
    ident = perron_criterion_check(np.array([[0.0, -1.0], [-1.0, 0.0]]), samples=150, seed=0)
    again = IdentityReport.from_dict(json.loads(json.dumps(ident.to_dict())))
    assert again == ident


SCAN_RANDOM = ["frame-scan", "--tensor", "random", "--tensor-params", '{"n": 2}',
               "--restarts", "1", "--refine-steps", "1"]


def test_frame_scan_unknown_functional_is_usage_error(capsys):
    assert main(SCAN_RANDOM + ["--functional", "bogus"]) == 1
    assert "unknown functional 'bogus'" in capsys.readouterr().err


BAD_TENSOR_PARAMS = [
    ("random", "{n:2}", "--tensor-params"),
    ("random", "[2]", "--tensor-params"),
    ("random", '{"n": "2"}', "parameter 'n'"),
    ("random", '{"n": 0}', "parameter 'n'"),
    ("kahler_constant", '{"n": 2.5, "c": 1}', "parameter 'n'"),
    ("skew_pair", '{"n": 2, "c": "1"}', "parameter 'c'"),
    ("random", '{"n": 2, "seed": -1}', "parameter 'seed'"),
    ("paper_hopf", '{"z": ["a", 1]}', "parameter 'z'"),
    ("random", '{"n": 13}', "parameter 'n'"),
    ("random", '{"n": 1000000000}', "parameter 'n'"),
]


@pytest.mark.parametrize("tensor, params, message", BAD_TENSOR_PARAMS,
                         ids=[params for _, params, _ in BAD_TENSOR_PARAMS])
def test_frame_scan_bad_tensor_params_is_usage_error(tensor, params, message, capsys):
    argv = ["frame-scan", "--tensor", tensor, "--tensor-params", params,
            "--functional", "rbc"]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, bad", [
    (["eval", "--metric", "euclidean", "--dim", "2", "--point", "0,0",
      "--functional", "rbc", "--vector", "1,0"], "csv"),
    (["verify", "identities"], "csv"),
    (SCAN_RANDOM + ["--functional", "rbc"], "csv"),
    (["cone-check", "--matrix", "1,0;0,1", "--samples", "100"], "csv"),
    (["sweep", "--metric", "euclidean", "--dim", "2", "--grid", "re1=0:1:2"], "json"),
])
def test_format_a_command_cannot_write_is_usage_error(argv, bad, capsys):
    assert main(argv + ["--format", bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid choice: '{bad}'" in captured.err


def test_cone_check_resolution_flag_is_gone(capsys):
    assert main(["cone-check", "--matrix", "1,0;0,1", "--resolution", "24"]) == 1
    assert "--resolution" in capsys.readouterr().err


def test_cone_check_schema_and_determinism(capsys):
    argv = ["cone-check", "--matrix", "1,-2,0;-2,1,0.5;0,0.5,-1", "--cone", "monotone",
            "--samples", "150", "--seed", "3", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert sorted(payload["cone_min"]) == ["argmin", "value"]
    v = np.array(payload["cone_min"]["argmin"])
    assert v.min() >= 0.0 and np.all(np.diff(v) <= 1e-12)


@pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-dir", "dir"])
def test_unwritable_out_path_is_usage_error(target, tmp_path, capsys):
    out = tmp_path / target
    assert main(SCAN_RANDOM + ["--functional", "rbc", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write output file {out}" in captured.err


def test_full_full_scan_is_exact_and_ignores_the_search_flags(capsys):
    # the full/full extrema are eigenvalues: restarts, refine steps and seed
    # leave the output unchanged, and restarts is still echoed
    base = ["frame-scan", "--tensor", "random", "--tensor-params", '{"n": 3, "seed": 2}',
            "--functional", "qobc", "--format", "json"]
    payloads = []
    for extra in ([], ["--restarts", "1", "--refine-steps", "0", "--seed", "9"]):
        assert main(base + extra) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    for key in ("inf", "sup"):
        assert payloads[0][key] == payloads[1][key]
    assert [p["restarts"] for p in payloads] == [8, 1]


INVARIANT_COMMANDS = [
    ["frame-scan", "--tensor", "paper_hopf", "--tensor-params", '{"z": [0.3, 0.7]}',
     "--functional", "qobc", "--convention", "adjoint", "--cone", "orthant"],
    ["frame-scan", "--tensor", "kahler_constant", "--tensor-params", '{"c": -1.5, "n": 3}',
     "--functional", "altered_hsc", "--cone", "monotone"],
    ["frame-scan", "--tensor", "skew_pair", "--tensor-params", '{"c": 2.0, "n": 3, "seed": 4}',
     "--functional", "qobc", "--cone", "orthant"],
    ["sweep", "--metric", "hopf", "--point", "0.8+0.3j,-0.5+0.7j", "--grid", "re1=0.8:1.1:2",
     "--use-paper-tensor"],
    ["sweep", "--metric", "conformal", "--dim", "2", "--point", "0.3,0.1+0.2j",
     "--grid", "im1=-0.2:0.2:3"],
]


@pytest.mark.parametrize("argv", INVARIANT_COMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_invariant_scans_ignore_the_search_flags(argv, capsys):
    # frame-invariant kinds are read at the identity frame: seed, restarts
    # and refine steps leave the output bytes unchanged
    outputs = []
    for extra in ([], ["--seed", "9"], ["--restarts", "1"], ["--refine-steps", "0"],
                  ["--restarts", "3", "--refine-steps", "50", "--seed", "4"]):
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and all(out == outputs[0] for out in outputs)


@pytest.mark.parametrize("z", [[1e-2, 5e-3], [1e-4, 5e-5]])
@pytest.mark.parametrize("kind", ["qobc", "altered_qobc"])
@pytest.mark.parametrize("convention", ["full", "adjoint"])
@pytest.mark.parametrize("cone", ["full", "orthant"])
def test_large_tensors_reevaluate(z, kind, convention, cone, capsys):
    # paper_hopf grows like |z|^-4; its extrema re-evaluate within the
    # drift bound scaled by max |R|, where a unit floor fell below rounding
    argv = ["frame-scan", "--tensor", "paper_hopf", "--tensor-params", json.dumps({"z": z}),
            "--functional", kind, "--convention", convention, "--cone", cone]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(f"kind={kind}")


def test_small_frame_dependent_tensors_are_searched(capsys):
    # at z = (1e6, 5e5) every entry is below 3e-24; rbc still depends on the
    # frame under the full convention, so the scan searches and reports the
    # restarts' best, not the identity frame's 5.12e-25
    argv = ["frame-scan", "--tensor", "paper_hopf", "--tensor-params", '{"z": [1e6, 5e5]}',
            "--functional", "rbc", "--cone", "orthant"]
    for extra, inf in (([], "1.48703599168e-25"), (["--restarts", "2"], "2.74782008136e-25")):
        assert main(argv + extra) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"inf = {inf}"
