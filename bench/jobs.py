"""The three workloads: seeded job mixes, how each job runs, and how its
output is checked.

A job runs through curvlab's public API or through ``curvlab.cli.main(argv)``
in the calling process.  Modules are looked up at call time, so a tracer that
replaces module attributes sees every call.  Each job carries a check: it
raises ``CheckFailed`` when the output is wrong, and otherwise returns the
relative shortfalls of the extrema the job reported (see ``refs.shortfall``),
each as a triple (shortfall, mean, variance) where mean and variance describe
the shortfall the seed commit shows on such a job.  They are zero where the
reference is a closed form or exact; for searches and grid cone minima they
come from ``references.json`` (see ``make_references.py``).

Workloads are built round by round.  A round holds every job class of the
workload once, in a seeded order, with inputs drawn from the seed and the
round number, so every run of a workload does the same mix of work.
"""

import contextlib
import hashlib
import io
import json

import numpy as np

import refs

TOL = 1e-9          # relative tolerance for values that should match exactly
FD_TOL = 1e-6       # finite-difference tensor against the closed form, relative
SEARCH_SEEDS = 8    # searches draw their --seed from range(SEARCH_SEEDS)


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


class Job:
    """One unit of client work: ``run()`` returns the output, ``check(out)``
    validates it and returns the shortfall triples of its reported extrema."""

    __slots__ = ("cls", "n", "run", "check")

    def __init__(self, cls, n, run, check):
        self.cls, self.n, self.run, self.check = cls, n, run, check


def fingerprint(obj):
    """Stable digest of a job output, used to compare runs bit for bit."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + str(x.shape).encode() + x.tobytes())
        elif isinstance(x, (tuple, list)):
            h.update(b"(")
            for item in x:
                feed(item)
            h.update(b")")
        else:
            h.update(repr(x).encode())
    feed(obj)
    return h.hexdigest()


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(actual, expected, tol=TOL):
    return abs(actual - expected) <= tol * max(1.0, abs(expected))


def cplx(z):
    return f"{z.real:.6f}{z.imag:+.6f}j"


def csv(values):
    return ",".join(f"{x:.6f}" for x in values)


def matrix_text(m):
    return ";".join(csv(row) for row in m)


def rounded(x):
    return np.round(x, 6)


def exact_gap(found, ref, side):
    """Shortfall triple of an extremum whose reference is exact."""
    return refs.shortfall(found, ref, side), 0.0, 0.0


def seed_gap(found, ref, side, stats):
    """Shortfall triple with the seed commit's (mean, variance) ``stats``."""
    return (refs.shortfall(found, ref, side), *stats)


# ---------------------------------------------------------------------------
# running jobs

class Library:
    """Handles on the curvlab modules, resolved at call time."""

    def __init__(self):
        import curvlab.cli
        import curvlab.curvature
        import curvlab.functionals
        import curvlab.metrics
        import curvlab.verify
        self.cli = curvlab.cli
        self.curvature = curvlab.curvature
        self.functionals = curvlab.functionals
        self.metrics = curvlab.metrics
        self.verify = curvlab.verify
        self.fd_evals = 0
        self.fd_jets = 0

    def main(self, argv):
        """``curvlab`` command line in-process: (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def counted(self, evaluate):
        """The metric evaluator handed to finite differences, counting calls."""
        def counting(p):
            self.fd_evals += 1
            return evaluate(p)
        self.fd_jets += 1
        return counting


def cli_json(out):
    code, stdout, stderr = out
    expect(code == 0, f"exit code {code}: {stderr.strip()[:200]}")
    return json.loads(stdout)


# ---------------------------------------------------------------------------
# frame_search

SCAN_BUDGET = {2: (2, 8), 3: (2, 4), 4: (1, 4)}   # n -> (restarts, refine steps)


def scan_argv(tensor, params, kind, budget, seed, extra=()):
    restarts, refine = budget
    return ["frame-scan", "--tensor", tensor, "--tensor-params", json.dumps(params),
            "--functional", kind, "--restarts", str(restarts), "--refine-steps", str(refine),
            "--seed", str(seed), "--format", "json", *extra]


def job_scan_random(lib, stored, rng, n, kind):
    pool = sorted(int(k.split("/")[1]) for k in stored["full"] if k.startswith(f"{n}/"))
    tseed = int(rng.choice(pool))
    argv = scan_argv("random", {"n": n, "seed": tseed}, kind, SCAN_BUDGET[n],
                     int(rng.integers(SEARCH_SEEDS)))
    ref_inf, ref_sup = stored["full"][f"{n}/{tseed}"][kind]
    seed_stats = stored["expected"]["full"][f"{n}/{tseed}"][kind]
    id_lo, id_hi = refs.fixed_frame_bounds(kind, refs.random_tensor(tseed, n))

    def check(out):
        data = cli_json(out)
        lo, hi = data["inf"]["value"], data["sup"]["value"]
        expect(np.isfinite(lo) and np.isfinite(hi) and lo <= hi, f"bad extrema {lo}, {hi}")
        # restart 0 starts at the identity frame and improvement is monotone
        expect(lo <= id_lo + TOL * max(1.0, abs(id_lo)), f"inf {lo} above identity frame {id_lo}")
        expect(hi >= id_hi - TOL * max(1.0, abs(id_hi)), f"sup {hi} below identity frame {id_hi}")
        return [seed_gap(lo, ref_inf, "inf", seed_stats["inf"]),
                seed_gap(hi, ref_sup, "sup", seed_stats["sup"])]
    return Job(f"scan_random_n{n}", n, lambda: lib.main(argv), check)


def scan_exact_check(ref_lo, ref_hi):
    def check(out):
        data = cli_json(out)
        lo, hi = data["inf"]["value"], data["sup"]["value"]
        expect(close(lo, ref_lo) and close(hi, ref_hi),
               f"extrema ({lo}, {hi}) differ from the closed form ({ref_lo}, {ref_hi})")
        return [exact_gap(lo, ref_lo, "inf"), exact_gap(hi, ref_hi, "sup")]
    return check


def job_scan_hopf(lib, rng):
    z = rounded(rng.uniform(0.5, 1.5, 2) * rng.choice([-1.0, 1.0], 2))
    argv = scan_argv("paper_hopf", {"z": z.tolist()}, "qobc", SCAN_BUDGET[2],
                     int(rng.integers(1 << 16)), extra=("--convention", "adjoint"))
    ref = refs.hopf_qobc_extrema(z)
    return Job("scan_paper_hopf", 2, lambda: lib.main(argv), scan_exact_check(*ref))


def job_scan_constant(lib, rng, tensor, n=3):
    c = float(rounded(rng.choice([-1, 1]) * rng.uniform(0.5, 3.0)))
    kind = str(rng.choice(refs.KINDS))
    if tensor == "kahler_constant":
        params, values = {"c": c, "n": n}, refs.kahler_constant(c, n)
    else:
        tseed = int(rng.integers(1000))
        params, values = {"c": c, "n": n, "seed": tseed}, refs.skew_pair(c, n, tseed)
    argv = scan_argv(tensor, params, kind, SCAN_BUDGET[3], int(rng.integers(1 << 16)))
    # both tensors' extrema over frames equal their fixed-frame Rayleigh bounds
    return Job(f"scan_{tensor}", n, lambda: lib.main(argv),
               scan_exact_check(*refs.fixed_frame_bounds(kind, values)))


def job_scan_family(lib, rng, kind):
    im_w = float(rounded(rng.uniform(0.7, 2.0)))
    argv = ["frame-scan", "--family", "tricerri", "--imw", str(im_w),
            "--functional", kind, "--format", "json"]
    ref_lo, ref_hi = refs.tricerri_family_extrema(kind, im_w)

    def check(out):
        data = cli_json(out)
        expect(close(data["inf"], ref_lo) and close(data["sup"], ref_hi),
               f"family extrema ({data['inf']}, {data['sup']}) vs ({ref_lo}, {ref_hi})")
        return [exact_gap(data["inf"], ref_lo, "inf"), exact_gap(data["sup"], ref_hi, "sup")]
    return Job(f"scan_tricerri_family_{kind}", 2, lambda: lib.main(argv), check)


def job_sweep(lib, rng):
    z = rounded(rng.uniform(0.6, 1.2, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
    stop = float(rounded(z[0].real + rng.uniform(0.2, 0.5)))
    argv = ["sweep", "--metric", "hopf", "--point", f"{cplx(z[0])},{cplx(z[1])}",
            "--grid", f"re1={z[0].real:.6f}:{stop:.6f}:2", "--use-paper-tensor",
            "--restarts", "1", "--refine-steps", "2", "--seed", str(int(rng.integers(1 << 16)))]

    def check(out):
        code, stdout, stderr = out
        expect(code == 0, f"exit code {code}: {stderr.strip()[:200]}")
        lines = stdout.strip().splitlines()
        header = lines[0].split(",")
        expect(len(lines) == 3, f"expected 2 sweep rows, got {len(lines) - 1}")
        gaps = []
        for line in lines[1:]:
            row = dict(zip(header, map(float, line.split(","))))
            point = np.array([row["re1"] + 1j * row["im1"], row["re2"] + 1j * row["im2"]])
            ref_lo, ref_hi = refs.hopf_qobc_extrema(point)
            # the CSV carries 12 significant digits
            expect(close(row["qobc_inf"], ref_lo, 1e-10) and close(row["qobc_sup"], ref_hi, 1e-10),
                   f"qobc columns ({row['qobc_inf']}, {row['qobc_sup']}) vs ({ref_lo}, {ref_hi})")
            gaps += [exact_gap(row["qobc_inf"], ref_lo, "inf"),
                     exact_gap(row["qobc_sup"], ref_hi, "sup")]
        return gaps
    return Job("sweep_hopf", 2, lambda: lib.main(argv), check)


def job_verify(lib, suite):
    # Suites run at their default seed: the cones and fubini_study suites are
    # statistical tests that fail at some seeds (see CHANGES.md).
    argv = ["verify", suite, "--format", "json"]

    def check(out):
        data = cli_json(out)
        failed = [c["name"] for c in data["checks"] if not c["passed"]]
        expect(data["passed"] and not failed, f"verify {suite} failed: {failed[:5]}")
        return []
    return Job(f"verify_{suite}", 0, lambda: lib.main(argv), check)


def frame_search(lib, stored, rng):
    jobs = [job_scan_random(lib, stored, rng, n, kind)
            for n in SCAN_BUDGET for kind in refs.KINDS]
    jobs += [job_scan_hopf(lib, rng), job_scan_constant(lib, rng, "kahler_constant"),
             job_scan_constant(lib, rng, "skew_pair"), job_sweep(lib, rng)]
    jobs += [job_scan_family(lib, rng, kind) for kind in ("rbc", "altered_rbc")]
    jobs += [job_verify(lib, s) for s in ("hopf", "tricerri", "identities")]
    return jobs


def frame_search_warmup(lib, stored, rng):
    return [job_scan_random(lib, stored, rng, 2, "rbc"), job_scan_hopf(lib, rng),
            job_scan_constant(lib, rng, "kahler_constant"),
            job_scan_constant(lib, rng, "skew_pair"), job_scan_family(lib, rng, "rbc"),
            job_sweep(lib, rng), job_verify(lib, "identities")]


# ---------------------------------------------------------------------------
# cone_oracles

CONE_SAMPLES = 10_000
ORACLE_BATCH = 4          # matrices per cone_oracle_disagreements job
ORACLE_SAMPLES = 10_000   # generators sampled by both the Perron and the direct oracle
RESTRICTED_BUDGET = (1, 1)   # (restarts, refine steps) of orthant and monotone scans
RESTRICTED_KINDS = ("rbc", "qobc")


def cone_check_input(rng, n, cone):
    """A cone-check matrix, and generator rows for the generator cone."""
    m = rounded(rng.standard_normal((n, n)))
    return m, rounded(rng.standard_normal((n, n))) if cone == "generators" else None


def cone_check_argv(m, cone, gens, samples, seed):
    argv = ["cone-check", f"--matrix={matrix_text(m)}", "--cone", cone,
            "--samples", str(samples), "--seed", str(seed), "--format", "json"]
    if gens is not None:
        argv.append(f"--generators={matrix_text(gens)}")
    return argv


def job_cone_check(lib, stored, rng, n, cone):
    m, gens = cone_check_input(rng, n, cone)
    argv = cone_check_argv(m, cone, gens, CONE_SAMPLES, int(rng.integers(1 << 16)))
    exact = refs.cone_min_exact(m, cone, gens)
    # Upper limits the seed commit meets on every input: its orthant grid is
    # exact (to 2e-15), and its generator grid holds every generator, so its
    # minimum is never above the best one.  Its monotone grid is neither (it
    # is 0.12 above the best generator at n = 5, where 1/5 is off the grid);
    # the value-gap gate holds monotone minima to the seed's mean excess.
    upper = None
    if cone == "orthant":
        upper = exact
    elif cone == "generators":
        upper = min(refs.rayleigh(m, g) for g in gens if np.any(g))
    seed_stats = stored["expected"]["cone_check"][f"{cone}/{n}"]
    ray_lo = float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])

    def check(out):
        data = cli_json(out)
        value = data["cone_min"]["value"]
        argmin = np.array(data["cone_min"]["argmin"])
        scale = max(1.0, abs(exact))
        expect(close(data["rayleigh_bounds"][0], ray_lo), "Rayleigh minimum is wrong")
        expect(value >= data["rayleigh_bounds"][0] - TOL * scale,
               f"cone minimum {value} below the Rayleigh minimum")
        expect(value >= exact - TOL * scale, f"cone minimum {value} below the exact {exact}")
        expect(upper is None or value <= upper + TOL * scale,
               f"cone minimum {value} above {upper} (exact minimum {exact})")
        expect(close(refs.rayleigh(m, argmin), value), "cone minimum is not attained at argmin")
        expect(refs.in_cone(argmin, cone), f"argmin {argmin} lies outside the {cone} cone")
        expect(data["perron_criterion"]["passed"], "Perron criterion readings disagree")
        if n == 2 and cone == "orthant":
            copositive = refs.copositive_2x2(m)
            expect(data["copositive_2x2"] == copositive, "copositive_2x2 verdict is wrong")
            if abs(exact) > 1e-6:
                expect((value >= 0) == copositive, "orthant verdict disagrees with copositive_2x2")
        return [seed_gap(value, exact, "inf", seed_stats)]
    return Job(f"cone_check_{cone}_n{n}", n, lambda: lib.main(argv), check)


def job_oracle_batch(lib, rng, n):
    seed = int(rng.integers(1 << 16))
    # equal sample counts make the Perron criterion read the direct samples
    expected = refs.oracle_disagreements(n, ORACLE_BATCH, seed, ORACLE_SAMPLES)

    def run():
        return lib.verify.cone_oracle_disagreements(n, ORACLE_BATCH, seed,
                                                    thm_samples=ORACLE_SAMPLES,
                                                    direct_samples=ORACLE_SAMPLES)

    def check(bad):
        expect(bad == expected, f"{bad} oracle disagreements, expected {expected}")
        return []
    return Job(f"oracle_batch_n{n}", n, run, check)


def job_scan_restricted(lib, stored, rng, n, cone):
    pool = sorted({int(k.split("/")[1]) for k in stored["restricted"] if k.startswith(f"{n}/")})
    tseed = int(rng.choice(pool))
    kind = str(rng.choice(RESTRICTED_KINDS))
    argv = scan_argv("random", {"n": n, "seed": tseed}, kind, RESTRICTED_BUDGET,
                     int(rng.integers(SEARCH_SEEDS)), extra=("--cone", cone))
    ref_inf, ref_sup = stored["restricted"][f"{n}/{tseed}/{cone}"][kind]
    seed_stats = stored["expected"]["restricted"][f"{n}/{tseed}/{cone}"][kind]

    def check(out):
        data = cli_json(out)
        lo, hi = data["inf"]["value"], data["sup"]["value"]
        expect(np.isfinite(lo) and np.isfinite(hi) and lo <= hi, f"bad extrema {lo}, {hi}")
        for side in ("inf", "sup"):
            expect(refs.in_cone(data[side]["vector"], cone), f"{side} vector outside {cone}")
        return [seed_gap(lo, ref_inf, "inf", seed_stats["inf"]),
                seed_gap(hi, ref_sup, "sup", seed_stats["sup"])]
    return Job(f"scan_{cone}_n{n}", n, lambda: lib.main(argv), check)


def cone_oracles(lib, stored, rng):
    jobs = [job_cone_check(lib, stored, rng, n, cone)
            for n in (2, 3, 4, 5, 6) for cone in ("orthant", "monotone", "generators")]
    jobs += [job_oracle_batch(lib, rng, n) for n in (3, 4, 5)]
    jobs += [job_scan_restricted(lib, stored, rng, n, cone)
             for n in (2, 3) for cone in ("orthant", "monotone")]
    return jobs


def cone_oracles_warmup(lib, stored, rng):
    return ([job_cone_check(lib, stored, rng, 2, cone)
             for cone in ("orthant", "monotone", "generators")]
            + [job_oracle_batch(lib, rng, 3), job_scan_restricted(lib, stored, rng, 2, "orthant"),
               job_verify(lib, "identities")])


# ---------------------------------------------------------------------------
# point_pipeline

FD_STEP = {2: 1e-4, 4: 1e-3}   # stencil order -> base step


def domain_point(rng, name, n):
    if name == "hopf":
        return rounded(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
    if name == "tricerri":
        return rounded(np.array([rng.uniform(-0.8, 0.8) + 1j * rng.uniform(-0.8, 0.8),
                                 rng.uniform(-1, 1) + 1j * rng.uniform(0.7, 2.0)]))
    return rounded(0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2 * n))


def job_pipeline(lib, rng, name, n, order):
    p = domain_point(rng, name, n)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def run():
        metric = lib.metrics.make_metric(name, dim=n)
        jet = lib.metrics.jet_at(metric, p)
        fd = lib.metrics.finite_difference_jet(lib.counted(metric.evaluate), p, FD_STEP[order],
                                               order=order, domain=metric.domain)
        coord = lib.curvature.curvature_from_jet(jet)
        coord_fd = lib.curvature.curvature_from_jet(fd)
        frame = lib.curvature.to_frame(coord)
        mats = lib.functionals.matrices_from(frame)
        ric = [lib.curvature.ricci(frame, k) for k in (1, 2, 3, 4)]
        return (coord.values, coord_fd.values, frame.values, lib.curvature.scalars(frame),
                ric, lib.functionals.rayleigh_bounds(mats.rbc),
                lib.functionals.rayleigh_bounds(mats.altered), lib.functionals.hsc(frame, w))

    def check(out):
        coord, coord_fd, frame, (scal, scal_alt), ric, rb_rbc, rb_alt, h = out
        scale = max(1.0, float(np.abs(coord).max()))
        fd_err = float(np.abs(coord_fd - coord).max()) / scale
        expect(fd_err <= FD_TOL, f"FD tensor differs from the closed form by {fd_err:.2e}")
        fscale = max(1.0, float(np.abs(frame).max()))
        expect(np.abs(np.conj(frame) - frame.transpose(1, 0, 3, 2)).max() <= TOL * fscale,
               "frame tensor lost Hermitian symmetry")
        expect(close(scal, float(np.einsum("iikk->", frame).real))
               and close(scal_alt, float(np.einsum("ikki->", frame).real)), "scalar traces")
        expect(np.abs(ric[0] - np.einsum("ijkk->ij", frame)).max() <= TOL * fscale, "Ricci")
        gaps = []
        for kind, got in (("rbc", rb_rbc), ("altered_rbc", rb_alt)):
            lo, hi = refs.fixed_frame_bounds(kind, frame)
            expect(close(got[0], lo) and close(got[1], hi), f"{kind} Rayleigh bounds")
            gaps += [exact_gap(got[0], lo, "inf"), exact_gap(got[1], hi, "sup")]
        ref_h = float(np.einsum("ijkl,i,j,k,l->", frame, w, np.conj(w), w, np.conj(w)).real
                      / float(np.sum(np.abs(w) ** 2)) ** 2)
        expect(close(h, ref_h), f"hsc {h} vs {ref_h}")
        if name == "euclidean":
            expect(np.abs(frame).max() == 0.0, "flat metric has curvature")
        elif name == "fubini_study":
            # constant holomorphic sectional curvature 2
            expect(np.abs(frame - refs.kahler_constant(2.0, n)).max() <= 1e-8 * fscale,
                   "Fubini-Study frame tensor is not the constant-curvature tensor")
            expect(close(h, 2.0, 1e-8), f"Fubini-Study hsc {h} != 2")
        elif name == "hopf":
            expect(np.abs(coord - refs.hopf_tensor(p)).max() <= TOL * scale,
                   "Hopf tensor differs from the closed form")
        return gaps
    return Job(f"pipeline_{name}_n{n}_fd{order}", n, run, check)


def job_eval(lib, rng, which):
    if which == "fubini_study_hsc":
        n = 3
        p = domain_point(rng, "fubini_study", n)
        w = rounded(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        argv = ["eval", "--metric", "fubini_study", "--dim", str(n),
                "--point", ",".join(map(cplx, p)), "--functional", "hsc",
                "--cvector", ",".join(map(cplx, w))]
        ref = 2.0
    elif which == "hopf_qobc":
        n, z = 2, domain_point(rng, "hopf", 2)
        argv = ["eval", "--metric", "hopf", "--point", ",".join(map(cplx, z)),
                "--functional", "qobc", "--vector", "-1,1", "--use-paper-tensor"]
        ref = refs.hopf_qobc_extrema(z)[1]   # attained at (-1, 1)
    else:
        n = 4
        p, v = domain_point(rng, "euclidean", n), rounded(rng.standard_normal(n))
        argv = ["eval", "--metric", "euclidean", "--dim", str(n),
                "--point", ",".join(map(cplx, p)), "--functional", "rbc", "--vector", csv(v)]
        ref = 0.0
    argv += ["--format", "json"]

    def check(out):
        value = cli_json(out)["value"]
        expect(close(value, ref, 1e-8), f"eval value {value} vs {ref}")
        return []
    return Job(f"eval_{which}", n, lambda: lib.main(argv), check)


PIPELINE_METRICS = [(name, n) for name in ("euclidean", "conformal", "fubini_study")
                    for n in (2, 3, 4, 6, 8)] + [("hopf", 2), ("tricerri", 2)]
EVALS = ("fubini_study_hsc", "hopf_qobc", "euclidean_rbc")


def point_pipeline(lib, stored, rng):
    jobs = [job_pipeline(lib, rng, name, n, order)
            for name, n in PIPELINE_METRICS for order in (2, 4)]
    jobs += [job_eval(lib, rng, which) for which in EVALS]
    jobs.append(job_verify(lib, "fubini_study"))
    return jobs


def point_pipeline_warmup(lib, stored, rng):
    return ([job_pipeline(lib, rng, name, 2, order)
             for name in ("conformal", "hopf", "tricerri") for order in (2, 4)]
            + [job_eval(lib, rng, which) for which in EVALS]
            + [job_verify(lib, "fubini_study")])


WORKLOADS = {
    "frame_search": (frame_search, frame_search_warmup),
    "cone_oracles": (cone_oracles, cone_oracles_warmup),
    "point_pipeline": (point_pipeline, point_pipeline_warmup),
}
