"""curvlab command line: eval | verify | sweep | frame-scan | cone-check.

Exit codes: 0 success, 1 usage error, 2 domain or numerical error,
3 verification failure.  Every command accepts --format, --out PATH, --seed N
(an integer >= 0, default 0) and --config PATH, a JSON object keyed by flag
name ("refine_steps" for --refine-steps, true or false for a switch).  A
config value is parsed and checked exactly like its flag; precedence is flag
> config file > default.  Defaults: sweep --convention adjoint --restarts 4
--refine-steps 12; frame-scan --cone full --convention full --restarts 8
--refine-steps 30; cone-check --cone orthant --samples 1000.  Sizes read
from outside are bounded: dimensions by MAX_DIM (12), --samples by
MIN_SAMPLES..MAX_SAMPLES, grid points by MAX_GRID_POINTS per axis and in
total, --restarts by 1..MAX_RESTARTS and --refine-steps by
0..MAX_REFINE_STEPS.  Each command's --format lists only the formats it
writes: sweep writes CSV (--format csv), the other commands text (default)
or json.  A flag may be given as any unique prefix of it (--gen for
--generators).  A value that starts with '-' and then a digit, a dot, inf or
nan is read as a value in every spelling: --gen -1,1;1,1 parses like
--generators=-1,1;1,1.  Output is deterministic for a fixed command line
and seed.
"""

import argparse
import json
import re
import sys

import numpy as np

from .errors import CurvlabError, DomainError, NumericalError, UsageError
from .config import MAX_DIM
from .linalg import _integer, _square
from .metrics import jet_at, make_metric
from .curvature import (FrameConvention, curvature_from_jet, make_synthetic,
                        paper_hopf, paper_tricerri, scalars, to_frame)
from .functionals import FunctionalKind, evaluate, hsc, matrices_from, rayleigh_bounds
from .cones import (_KINDS as CONE_KINDS, MIN_SAMPLES, copositive_2x2, cone_min, make_cone,
                    perron_criterion_check)
from .search import SearchConfig, _extremize_kinds, extremize, tricerri_family_extrema
from .verify import SUITES, run_suite
from . import reports

MAX_SAMPLES = 100_000
MAX_RESTARTS = 1_000       # search budgets of sweep and frame-scan
MAX_REFINE_STEPS = 1_000
MAX_GRID_POINTS = 10_000
FORMATS = {"eval": ("text", "json"), "verify": ("text", "json"), "sweep": ("csv",),
           "frame-scan": ("text", "json"), "cone-check": ("text", "json")}


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting, and keeps its flags (all but
    --help) by dest so config-file values can be checked against them."""

    def __init__(self, *args, **kwargs):
        self.flags = {}
        super().__init__(*args, **kwargs)
        # argparse's own rule for which tokens that start with '-' are values:
        # it holds after a flag's full spelling and after any unique prefix,
        # and no option string of this parser matches it
        self._negative_number_matcher = re.compile(r"^-([\d.]|inf|nan)", re.IGNORECASE)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.dest != "help":
            self.flags[action.dest] = action
        return action

    def error(self, message):
        raise UsageError(message)


def parse_complex_vector(text):
    try:
        return np.array([complex(part) for part in text.split(",")], dtype=complex)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex vector '{text}': {exc}") from None


def parse_real_vector(text):
    try:
        return np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise UsageError(f"cannot parse vector '{text}': {exc}") from None


def parse_matrix(text):
    rows = [parse_real_vector(row) for row in text.split(";")]
    if len({r.size for r in rows}) != 1:
        raise UsageError("matrix rows have unequal lengths")
    return np.vstack(rows)


def _config_type_ok(flag, value):
    """Whether a JSON value has the type of its flag: true/false for a switch,
    an integer (not a bool) for an int flag, a number for a float flag and a
    string otherwise."""
    if flag.nargs == 0:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if flag.type is int:
        return isinstance(value, int)
    if flag.type is float:
        return isinstance(value, (int, float))
    return isinstance(value, str)


def _load_config(path, flags):
    """The config file's values as command-line tokens: '--name=value', a
    true switch as its bare flag and a false one as nothing.  A key naming
    one of the command's flags must hold a value of that flag's JSON type
    and, if the flag has choices, one of them; a point may also be a list of
    numbers.  Other keys are ignored."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    point = data.get("point")
    if isinstance(point, list) and all(isinstance(x, (int, float, str))
                                       and not isinstance(x, bool) for x in point):
        data["point"] = ",".join(map(str, point))
    tokens = []
    for name, value in data.items():
        flag = flags.get(name)
        if flag is None:
            continue
        if not _config_type_ok(flag, value):
            raise UsageError(f"config value {name}={value!r} has the wrong type "
                             f"for {flag.option_strings[0]}")
        if flag.choices is not None and value not in flag.choices:
            raise UsageError(f"config value {name}={value!r} is not one of "
                             f"{', '.join(flag.choices)}")
        if flag.nargs != 0:
            tokens.append(f"{flag.option_strings[0]}={value}")
        elif value:
            tokens.append(flag.option_strings[0])
    return tokens


def _bounds(args):
    """The integers a command reads from outside, each within its bounds:
    --seed, --restarts and --refine-steps (also where a command ignores them)
    and --samples."""
    for dest, least, most in (("seed", 0, None), ("restarts", 1, MAX_RESTARTS),
                              ("refine_steps", 0, MAX_REFINE_STEPS),
                              ("samples", MIN_SAMPLES, MAX_SAMPLES)):
        if dest in args:
            _integer(getattr(args, dest), "--" + dest.replace("_", "-"), least, most)


def _finite_json(convert):
    """JSON number and constant parser by convert that rejects NaN, Infinity,
    -Infinity and a literal beyond the float range with a usage error."""
    def parse(text):
        value = convert(text)
        if not abs(value) <= sys.float_info.max:   # NaN compares false
            raise UsageError(f"--tensor-params must hold finite numbers, got {text}")
        return value
    return parse


def _tensor_params(text):
    try:
        params = json.loads(text, parse_float=_finite_json(float), parse_int=_finite_json(int),
                            parse_constant=_finite_json(float))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"cannot parse --tensor-params as JSON: {exc}") from None
    if not isinstance(params, dict):
        raise UsageError("--tensor-params must be a JSON object")
    return params


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


_EXACT_NOTE = ("ignored on full-cone, full-convention scans, which are exact, "
               "and for frame-invariant functionals, read at the identity frame; "
               "both ignore --seed too")
_RESTARTS_HELP = f"search restarts; {_EXACT_NOTE}"
_REFINE_HELP = f"coordinate-descent sweeps per restart; {_EXACT_NOTE}"


def build_parser():
    """The curvlab argument parser; every option default is declared here."""
    parser = _Parser(prog="curvlab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a curvature functional at a point")
    p_eval.add_argument("--functional")
    p_eval.add_argument("--vector", help="real vector for the quadratic kinds")
    p_eval.add_argument("--cvector", help="complex vector for hsc")

    p_verify = subs.add_parser(
        "verify", help="run a reproduction suite",
        description="Run a reproduction suite.  Polynomial identities, and the qobc "
                    "hypotheses of ricci_qobc_bounds over every frame, are checked exactly "
                    "and do not depend on --seed.  --seed moves only the checks whose "
                    "subject is random: hopf fd_tensor_vs_closed_form and "
                    "altered_hsc_bounds_formula (random points), the cones oracles, "
                    "fubini_study hsc_constant_2, and the identities suite's random "
                    "tensors, scalar_trace_invariance's included.")
    p_verify.add_argument("suite", choices=[*SUITES, "all"])

    p_sweep = subs.add_parser("sweep", help="sweep a point grid to CSV")
    p_sweep.add_argument("--grid", help="axis sweeps, e.g. 'im2=1:2:2,re1=0:1:3'")
    conventions = [c.value for c in FrameConvention]
    p_sweep.add_argument("--convention", choices=conventions, default="adjoint")
    p_sweep.add_argument("--restarts", type=int, default=4, help=_RESTARTS_HELP)
    p_sweep.add_argument("--refine-steps", type=int, default=12, help=_REFINE_HELP)

    p_scan = subs.add_parser("frame-scan", help="extremize a functional over frames")
    p_scan.add_argument("--tensor", help="synthetic tensor kind instead of a metric")
    p_scan.add_argument("--tensor-params", help="JSON parameters for --tensor")
    p_scan.add_argument("--family", choices=["tricerri"])
    p_scan.add_argument("--imw", type=float)
    p_scan.add_argument("--functional")
    # frame-scan has no flag for generator rows
    p_scan.add_argument("--cone", choices=[k for k in CONE_KINDS if k != "generators"],
                        default="full")
    p_scan.add_argument("--convention", choices=conventions, default="full")
    p_scan.add_argument("--restarts", type=int, default=8, help=_RESTARTS_HELP)
    p_scan.add_argument("--refine-steps", type=int, default=30, help=_REFINE_HELP)

    p_cone = subs.add_parser("cone-check", help="copositivity and dual-EDM tests")
    p_cone.add_argument("--matrix", help="inline CSV, rows ';'-separated")
    p_cone.add_argument("--matrix-file", help="JSON file with a nested list")
    p_cone.add_argument("--cone", choices=CONE_KINDS, default="orthant")
    p_cone.add_argument("--generators",
                        help="generator vectors for --cone generators, inline CSV")
    p_cone.add_argument("--samples", type=int, default=1000)

    for sub, point_help in ((p_eval, None), (p_sweep, "base point"), (p_scan, None)):
        sub.add_argument("--metric")
        sub.add_argument("--dim", type=int)
        sub.add_argument("--point", help=point_help)
        sub.add_argument("--use-paper-tensor", action="store_true")
    for name, sub in subs.choices.items():
        sub.add_argument("--format", choices=FORMATS[name], default=FORMATS[name][0])
        sub.add_argument("--out")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--config")
    parser.commands = subs.choices
    return parser


_PARSER = build_parser()


# ---------------------------------------------------------------------------
# pipelines

def _tensor_at_point(metric, point, use_paper):
    p = np.asarray(point, dtype=complex)
    if p.size != metric.n:
        raise UsageError(f"point has dimension {p.size}, metric '{metric.name}' has {metric.n}")
    if not metric.domain(p):
        raise DomainError(f"point {point} lies outside the domain of '{metric.name}'")
    if use_paper:
        if metric.name == "hopf":
            return paper_hopf(p), {"tensor_source": "paper_hopf"}
        if metric.name == "tricerri":
            return (paper_tricerri(0.0, 1.0, float(p[1].imag)),
                    {"tensor_source": "paper_tricerri(b=0,d=1)"})
        raise UsageError("--use-paper-tensor is available for hopf and tricerri only")
    jet = jet_at(metric, p)
    coord = curvature_from_jet(jet)
    frame = to_frame(coord)
    diag = {"tensor_source": "metric_jet",
            "jet_source": "closed_form" if metric.jet is not None else "finite_difference",
            "hermitian_residual": frame.sym_residual}
    return frame, diag


def cmd_eval(args):
    for name in ("metric", "point", "functional"):
        if getattr(args, name) is None:
            raise UsageError(f"eval needs --{name}")
    # hsc takes a complex vector and is no FunctionalKind
    kind = None if args.functional == "hsc" else FunctionalKind(args.functional)
    point = parse_complex_vector(args.point)
    metric = make_metric(args.metric, dim=args.dim)
    tensor, diag = _tensor_at_point(metric, point, args.use_paper_tensor)
    matrices = matrices_from(tensor)
    diag["imag_residual"] = matrices.imag_residual
    diag["hermitian_residual"] = tensor.sym_residual
    scal, scal_alt = scalars(tensor)

    if kind is None:
        if args.cvector is None:
            raise UsageError("hsc needs --cvector")
        value = hsc(tensor, parse_complex_vector(args.cvector))
    else:
        if args.vector is None:
            raise UsageError(f"{kind.value} needs --vector")
        value = evaluate(kind, matrices, parse_real_vector(args.vector))

    payload = {"command": "eval", "metric": args.metric,
               "point": [str(z) for z in point], "functional": args.functional,
               "value": value, "scal": scal, "altered_scal": scal_alt,
               "diagnostics": diag}
    if args.format == "json":
        return reports.dumps(payload), True
    lines = [f"value = {value:.12g}",
             f"scal = {scal:.12g}  altered_scal = {scal_alt:.12g}"]
    for key in sorted(diag):
        lines.append(f"{key} = {diag[key]}")
    return "\n".join(lines) + "\n", True


def cmd_verify(args):
    report = run_suite(args.suite, seed=args.seed)
    text = reports.dumps(report) if args.format == "json" else reports.render_table(report)
    return text, report.passed


def _parse_grid(grid_text, base, n):
    """Grid spec 'axis=start:stop:count,...' with axes re1,im1,..., each at
    most once.  Returns the list of points in row-major grid order."""
    axes = []
    for part in grid_text.split(","):
        try:
            name, rng_text = part.split("=")
            start, stop, count = rng_text.split(":")
            start, stop, count = float(start), float(stop), int(count)
            kind, idx = name[:2], int(name[2:]) - 1
        except ValueError:
            raise UsageError(f"cannot parse grid axis '{part}'; "
                             "expected name=start:stop:count") from None
        if not np.isfinite(stop - start):   # also a non-finite start or stop
            raise UsageError(f"grid axis '{name}' needs a finite start, stop and span")
        if count < 1:
            raise UsageError("grid axis count must be >= 1")
        if count > MAX_GRID_POINTS:
            raise UsageError(f"grid axis count must be <= {MAX_GRID_POINTS}")
        if kind not in ("re", "im") or not 0 <= idx < n:
            raise UsageError(f"unknown grid axis '{name}' for dimension {n}")
        if any(axis[:2] == (kind, idx) for axis in axes):
            raise UsageError(f"grid axis '{name}' is given twice")
        values = np.linspace(start, stop, count) if count > 1 else np.array([start])
        axes.append((kind, idx, values))
    shape = [len(a[2]) for a in axes]
    if np.prod(shape, dtype=float) > MAX_GRID_POINTS:
        raise UsageError(f"a grid has at most {MAX_GRID_POINTS} points, got {shape}")
    points = []
    for multi in np.ndindex(*shape):
        p = base.copy()
        for (kind, idx, values), i in zip(axes, multi):
            if kind == "re":
                p[idx] = values[i] + 1j * p[idx].imag
            else:
                p[idx] = p[idx].real + 1j * values[i]
        points.append(p)
    return points


def cmd_sweep(args):
    if args.metric is None:
        raise UsageError("sweep needs --metric")
    metric = make_metric(args.metric, dim=args.dim)
    base = (parse_complex_vector(args.point) if args.point
            else np.zeros(metric.n, dtype=complex))
    if base.size != metric.n:
        raise UsageError("base point dimension mismatch")
    if args.grid is None:
        raise UsageError("sweep needs --grid")
    points = _parse_grid(args.grid, base, metric.n)
    offenders = [p for p in points if not metric.domain(p)]
    if offenders:
        listing = "; ".join(str([str(z) for z in p]) for p in offenders[:5])
        raise DomainError(f"{len(offenders)} grid points leave the domain of "
                          f"'{metric.name}': {listing}")

    use_paper = args.use_paper_tensor
    family = use_paper and metric.name == "tricerri"
    convention = FrameConvention(args.convention)
    search = SearchConfig(restarts=args.restarts, refine_steps=args.refine_steps,
                          seed=args.seed)

    header = ["index"]
    for k in range(metric.n):
        header += [f"re{k + 1}", f"im{k + 1}"]
    header += ["scal", "altered_scal"]
    for kind in FunctionalKind:
        header += [f"{kind.value}_inf", f"{kind.value}_sup"]
    header += ["herm_residual", "imag_residual"]

    def one_row(idx, p):
        tensor, _ = _tensor_at_point(metric, p, use_paper)
        m = matrices_from(tensor)
        scal, scal_alt = scalars(tensor)
        row = [float(idx)]
        for z in p:
            row += [z.real, z.imag]
        row += [scal, scal_alt]
        if family:
            for kind in FunctionalKind:
                scan = tricerri_family_extrema(float(p[1].imag), kind)
                row += [scan["inf"], scan["sup"]]
        else:
            # all kinds in one lockstep search
            for inf_ext, sup_ext in _extremize_kinds(tensor, FunctionalKind,
                                                     convention=convention, cfg=search):
                row += [inf_ext.value, sup_ext.value]
        row += [tensor.sym_residual, m.imag_residual]
        return row

    rows = [one_row(idx, p) for idx, p in enumerate(points)]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.12g}" for x in row))
    return "\n".join(lines) + "\n", True


def cmd_frame_scan(args):
    if args.functional is None:
        raise UsageError("frame-scan needs --functional")
    kind = FunctionalKind(args.functional)

    if args.family == "tricerri":
        if args.imw is None:
            raise UsageError("--family tricerri needs --imw")
        scan = tricerri_family_extrema(args.imw, kind)
        payload = {"command": "frame-scan", "family": "tricerri", **scan}
        if args.format == "json":
            return reports.dumps(payload), True
        return (f"family=tricerri imw={args.imw} kind={kind.value}\n"
                f"inf = {scan['inf']:.12g} at (|b|^2,|d|^2)={scan['inf_at']}\n"
                f"sup = {scan['sup']:.12g} at (|b|^2,|d|^2)={scan['sup_at']}\n"), True

    if args.tensor is not None:
        params = _tensor_params(args.tensor_params or "{}")
        tensor = make_synthetic(args.tensor, **params)
        source = {"tensor": args.tensor, "params": params}
    else:
        if args.metric is None or args.point is None:
            raise UsageError("frame-scan needs --metric/--point, --tensor, or --family")
        point = parse_complex_vector(args.point)
        metric = make_metric(args.metric, dim=args.dim)
        tensor, diag = _tensor_at_point(metric, point, args.use_paper_tensor)
        source = {"metric": args.metric, "point": [str(z) for z in point], **diag}

    cone = make_cone(args.cone, tensor.n)
    convention = FrameConvention(args.convention)
    cfg_search = SearchConfig(restarts=args.restarts, refine_steps=args.refine_steps,
                              seed=args.seed)
    inf_ext, sup_ext = extremize(tensor, kind, cone=cone, convention=convention,
                                 cfg=cfg_search)
    payload = {"command": "frame-scan", "functional": kind.value,
               "cone": cone.kind, "convention": convention.value, "source": source,
               "inf": {"value": inf_ext.value,
                       "vector": [float(x) for x in np.real(inf_ext.vector)]},
               "sup": {"value": sup_ext.value,
                       "vector": [float(x) for x in np.real(sup_ext.vector)]},
               "restarts": cfg_search.restarts}
    if args.format == "json":
        return reports.dumps(payload), True
    return (f"kind={kind.value} cone={cone.kind} convention={convention.value}\n"
            f"inf = {inf_ext.value:.12g}\nsup = {sup_ext.value:.12g}\n"), True


def cmd_cone_check(args):
    path = args.matrix_file
    if args.matrix is not None:
        m = parse_matrix(args.matrix)
    elif path is not None:
        try:
            with open(path) as fh:
                m = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read matrix from {path}: {exc}") from None
    else:
        raise UsageError("cone-check needs --matrix or --matrix-file")
    m = _square(m, "matrix")
    _integer(m.shape[0], "matrix dimension", 1, MAX_DIM)

    if args.generators is not None and args.cone != "generators":
        raise UsageError(f"--generators is read only with --cone generators, not {args.cone}")
    cone = make_cone(args.cone, m.shape[0],
                     generators=parse_matrix(args.generators) if args.generators else None)

    minimum = cone_min(m, cone)
    lo, hi = rayleigh_bounds(m)
    report = perron_criterion_check(m, samples=args.samples, seed=args.seed)
    payload = {
        "command": "cone-check", "n": m.shape[0], "cone": cone.kind,
        "cone_min": {"value": minimum.value,
                     "argmin": [float(x) for x in minimum.argmin]},
        "rayleigh_bounds": [lo, hi],
        "dual_edm_member": report.details["verdict_dual_edm"],
        "perron_criterion": report.to_dict(),
    }
    if m.shape[0] == 2:
        payload["copositive_2x2"] = copositive_2x2(m)
    if args.format == "json":
        return reports.dumps(payload), True
    lines = [f"cone_min[{cone.kind}] = {minimum.value:.12g}",
             f"rayleigh bounds = ({lo:.12g}, {hi:.12g})",
             f"dual EDM member = {payload['dual_edm_member']}",
             f"perron criterion verdict = {report.details['verdict_criterion']}"]
    if "copositive_2x2" in payload:
        lines.append(f"copositive (exact 2x2) = {payload['copositive_2x2']}")
    return "\n".join(lines) + "\n", True


COMMANDS = {
    "eval": cmd_eval,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "frame-scan": cmd_frame_scan,
    "cone-check": cmd_cone_check,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
        if args.config:
            # config tokens go right after the command name, so flags win
            at = argv.index(args.command) + 1
            tokens = _load_config(args.config, _PARSER.commands[args.command].flags)
            args = _PARSER.parse_args(argv[:at] + tokens + argv[at:])
        _bounds(args)
        text, ok = COMMANDS[args.command](args)
        _emit(text, args.out)
        return 0 if ok else 3
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except CurvlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
