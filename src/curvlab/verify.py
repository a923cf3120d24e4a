"""Reproduction suites: each suite re-derives a battery of published
desk-scale numbers and identities and reports per-check pass/fail.

Suites: hopf, tricerri, fubini_study, cones, identities, all.

Claims that are polynomial identities are checked exactly, with no samples:
the Hopf frame invariance by ``search.invariance_test``, the
constant-curvature identities as matrix equalities, and the Tricerri
eigenvalue formula on a 3 x 3 grid.  ``--seed`` moves only the checks whose
subject is random: the Hopf finite-difference check and the altered-HSC
bounds points, the cone oracles, the Fubini-Study hsc points, and the
identities suite's random tensors.
``ricci_qobc_bounds`` decides its qobc hypotheses over every frame exactly.
The cone oracles, ``copositive_2x2_vs_cone_min`` and the identities suite's
vectors draw their samples as one block from a seeded stream, laid out in
the order a per-sample loop would draw them, and evaluate them in one
stacked call.  ``hopf_domain_points``, the Fubini-Study ``hsc_constant_2``
points and ``edm_outside_psd_cone`` (one stream per vector) draw one sample
at a time, and the identities suite's random tensors one seed per tensor.

The sampled points then go through the pointwise pipeline as stacks: the
Hopf finite-difference check makes one stacked jet, Chern tensor and
``paper_hopf`` tensor of its 20 points, the altered-HSC bounds one stacked
Hopf tensor, ``hsc_constant_2`` one jet, frame tensor and ``hsc`` call per
dimension drawn, the Tricerri second-derivative check one stacked order-4
jet, and the identities suite checks its random tensors as one stack.  Each
stacked row equals its single call bit for bit, so every reported number is
the one a per-point loop gives.
"""

import numpy as np

from .config import DEFAULT
from .errors import UsageError
from .linalg import _identifier, _integer, rng_from
from .metrics import finite_difference_jet, hopf, fubini_study, tricerri, jet_at
from .curvature import (FRAME, ChernTensor, FrameConvention, RicciKind, _random_values,
                        curvature_from_jet, kahler_constant, paper_hopf, paper_tricerri,
                        random_tensor, ricci, scalars, skew_pair, to_frame)
from .functionals import (ConstAlteredHBC, ConstAlteredRBC, ConstHSC,
                          FunctionalKind, _moment_cubature, _rule_moments,
                          constant_identity_check, evaluate, frame_form, hsc,
                          matrices_from, moment_target, rayleigh_bounds, ricci_qobc_bounds)
from .cones import (MIN_SAMPLES, _perron_pass, copositive_2x2, cone_min,
                    difference_form_pairings, dual_edm_test, edm_from_vector, nonneg_orthant,
                    perron_weights)
from .search import invariance_test, tricerri_family_extrema
from .reports import VerifyReport

def hopf_domain_points(seed, count):
    """(count, 2) points of C^2 with 0.1 <= |z| < 3, uniform in direction."""
    rng = rng_from(seed)
    pts = np.empty((count, 2), dtype=complex)
    for k in range(count):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pts[k] = u / np.linalg.norm(u) * rng.uniform(0.1, 3.0)
    return pts


def hopf_fd_worst_error(seed):
    """Largest entrywise deviation (relative to the tensor sup-norm) between
    the finite-difference Chern tensor of the Hopf metric and its closed form,
    over 20 random points 0.1 < |z| < 3."""
    metric = hopf()
    z = hopf_domain_points(seed, 20)
    # step proportional to |z| keeps truncation and cancellation error at
    # one relative size across the shell: the worst of 20 points is about
    # 1e-7 (6e-8 to 1.1e-7 at seeds 0-2)
    h = 1e-4 * np.array([float(np.linalg.norm(q)) for q in z])
    jet = finite_difference_jet(metric.evaluate, z, h, scale_with_point=False,
                                domain=metric.domain)
    r_fd = curvature_from_jet(jet).values
    r_ref = paper_hopf(z).values
    axes = (1, 2, 3, 4)
    return float((np.abs(r_fd - r_ref).max(axis=axes) / np.abs(r_ref).max(axis=axes)).max())


def hopf_altered_hsc_bounds(z):
    """Closed-form extrema of the altered sectional form on the Hopf surface."""
    a1, a2 = abs(z[0]) ** 2, abs(z[1]) ** 2
    rho = a1 + a2
    root = np.sqrt(5 * a1 ** 2 - 6 * a1 * a2 + 5 * a2 ** 2)
    return ((2.0 / rho ** 3) * (2.0 * rho - root), (2.0 / rho ** 3) * (2.0 * rho + root))


def suite_hopf(seed=0):
    rep = VerifyReport(suite="hopf")
    rep.add("fd_tensor_vs_closed_form", 0.0, hopf_fd_worst_error(seed), 1e-6)

    t = paper_hopf([1.0, 0.0])
    m = matrices_from(t)
    rep.add("rbc_matrix_at_(1,0)", 0.0,
            float(np.abs(m.rbc - np.array([[0.0, 0.0], [4.0, 4.0]])).max()), 0.0)
    rep.add("altered_matrix_at_(1,0)", 0.0,
            float(np.abs(m.altered - np.diag([0.0, 4.0])).max()), 0.0)

    points = hopf_domain_points(seed + 1, 10)
    forms = matrices_from(paper_hopf(points))
    lo, hi = rayleigh_bounds(forms.rbc + forms.altered)
    flo, fhi = np.array([hopf_altered_hsc_bounds(z) for z in points]).T
    worst = float(max(np.abs(lo - flo).max(), np.abs(hi - fhi).max()))
    rep.add("altered_hsc_bounds_formula", 0.0, worst, 1e-9)

    t11 = paper_hopf([1.0, 1.0])
    m11 = matrices_from(t11)
    lo, hi = rayleigh_bounds(m11.rbc + m11.altered)
    rep.add("altered_hsc_lower_at_(1,1)", 0.5, lo, 1e-12)
    rep.add("altered_hsc_upper_at_(1,1)", 1.5, hi, 1e-12)

    # the six listed components under the adjoint action are the entries
    # (a, g) of rbc'[a,g] = R'[a,a,g,g] and of altered'[a,g] = R'[a,g,g,a]
    # for a != g; they read the slices R[a,g,:,:] that altered_rbc reads, so
    # they stay fixed on all of U(2) exactly when altered_rbc is invariant
    t_gen = paper_hopf([1.0, 0.5 - 0.5j])
    _, residual = invariance_test(t_gen, FunctionalKind.ALTERED_RBC, FrameConvention.ADJOINT)
    rep.add("adjoint_component_invariance", 0.0, residual, 1e-9)

    for z in ([1.0, 0.0], [1.0, 1.0], [0.3, -0.7j]):
        mm = matrices_from(paper_hopf(z))
        rho = float(np.sum(np.abs(np.asarray(z, complex)) ** 2))
        v_min = np.array([1.0, 1.0]) / np.sqrt(2.0)
        v_max = np.array([-1.0, 1.0]) / np.sqrt(2.0)
        rep.add(f"qobc_min_at_{z}", 0.0, evaluate(FunctionalKind.QOBC, mm, v_min), 1e-9)
        rep.add(f"qobc_max_at_{z}", 8.0 / rho ** 2,
                evaluate(FunctionalKind.QOBC, mm, v_max), 1e-9)

    # at n = 2 the altered qobc is Re(alt'[0,1] + alt'[1,0]) (v_0 - v_1)^2 / |v|^2;
    # flipping the sign of one frame row negates that coefficient, so it is
    # frame-invariant exactly when it is zero in every frame
    _, residual = invariance_test(t_gen, FunctionalKind.ALTERED_QOBC, FrameConvention.ADJOINT)
    rep.add("altered_qobc_identically_zero", 0.0, residual, 1e-9)

    ric1 = ricci(t, RicciKind.FIRST).real
    ric2 = ricci(t, RicciKind.SECOND).real
    rep.add("ric1_at_(1,0)", 0.0, float(np.abs(ric1 - np.diag([0.0, 8.0])).max()), 1e-12)
    rep.add("ric2_at_(1,0)", 0.0, float(np.abs(ric2 - np.diag([4.0, 4.0])).max()), 1e-12)
    s, s_alt = scalars(t)
    rep.add("scal_at_(1,0)", 8.0, s, 1e-12)
    rep.add("altered_scal_at_(1,0)", 4.0, s_alt, 1e-12)

    bounds = ricci_qobc_bounds(t)
    margins = dict((name, val) for name, val in bounds.details["margins"])
    rep.add("ricci_pair_margin", 16.0, margins["ric12_pair[0,1]"], 1e-10)
    rep.add("scal_bound_margin", 8.0, margins["scal_bound"], 1e-10)
    rep.add_bool("ricci_qobc_bounds_pass", bounds.passed)
    return rep


def tricerri_second_derivative_error():
    """Worst |ddg_ww - 3/(2 Im^4)| over three chart points, fourth-order
    differences."""
    metric = tricerri()
    p = np.array([[0.2 + 0.1j, 0.3 + 1.0j], [0.0j, 1.6j], [-0.4j, 0.1 + 0.8j]])
    jet = finite_difference_jet(metric.evaluate, p, 1e-3, order=4, scale_with_point=False,
                                domain=metric.domain)
    return max(abs(float(d.real) - 1.5 / float(y) ** 4)
               for d, y in zip(jet.ddg[:, 1, 1, 1, 1], p[:, 1].imag))


TRICERRI_IM_W = (1.0, 2.0)


def tricerri_eigen_formula_error():
    """Deviation of the family Rayleigh bounds from the printed closed form
    -(3/(4 Im^4)) (|d|^2 -+ sqrt(|b|^4 + |d|^4)), over the members with
    (|b|^2, |d|^2) on the grid {0, 1/2, 1}^2, at each Im w of
    ``TRICERRI_IM_W``.

    The family's symmetric rbc matrix is R0 [[0, |b|^2/2], [|b|^2/2, |d|^2]],
    so its trace and determinant, and those of the printed pair, are
    polynomials of degree <= 2 in each of |b|^2 and |d|^2; agreement on the
    3 x 3 grid therefore decides the formula on the whole unit square."""
    grid = np.array([0.0, 0.5, 1.0])
    bb, dd = (x.ravel() for x in np.meshgrid(grid, grid, indexing="ij"))
    worst = 0.0
    for im_w in TRICERRI_IM_W:
        family = np.stack([paper_tricerri(b, d, im_w).values
                           for b, d in zip(np.sqrt(bb), np.sqrt(dd))])
        lo, hi = rayleigh_bounds(matrices_from(ChernTensor(family, FRAME)).rbc)
        root = np.sqrt(bb ** 2 + dd ** 2)
        pref = 3.0 / (4.0 * im_w ** 4)
        worst = max(worst, float(np.abs(lo + pref * (dd + root)).max()),
                    float(np.abs(hi + pref * (dd - root)).max()))
    return worst


def suite_tricerri(seed=0):
    rep = VerifyReport(suite="tricerri")
    rep.add("gww_second_derivative_fd", 0.0, tricerri_second_derivative_error(), 1e-8)
    rep.add("family_eigenvalue_formula", 0.0, tricerri_eigen_formula_error(), 1e-9)

    for im_w in TRICERRI_IM_W:
        scan = tricerri_family_extrema(im_w, FunctionalKind.RBC)
        target_inf = -0.75 * (1.0 + np.sqrt(2.0)) / im_w ** 4
        target_sup = 0.75 / im_w ** 4
        rep.add(f"rbc_family_inf[imw={im_w}]", target_inf, scan["inf"],
                1e-12 * abs(target_inf))
        rep.add(f"rbc_family_sup[imw={im_w}]", target_sup, scan["sup"],
                1e-12 * abs(target_sup))
        alt = tricerri_family_extrema(im_w, FunctionalKind.ALTERED_RBC)
        rep.add(f"altered_rbc_family_inf[imw={im_w}]", -1.5 / im_w ** 4, alt["inf"],
                1e-12 * 1.5 / im_w ** 4)
        rep.add(f"altered_rbc_family_sup[imw={im_w}]", 0.0, alt["sup"], 1e-9)

    # the printed R0 = -3/(2 Im^4) is -d_w d_wbar g_wwbar alone; the Chern
    # coordinate entry adds the correction term and is -1/(2 Im^4), and the
    # metric-derived frame tensor is R[1,1,0,0] = 1/4, R[1,1,1,1] = -1/2 at
    # every Im w.  The gap is no normalization; report it, don't judge
    metric = tricerri()
    p = np.array([0.1 + 0.2j, 0.4 + 1.0j])
    derived = to_frame(curvature_from_jet(jet_at(metric, p)))
    printed = paper_tricerri(0.0, 1.0, float(p[1].imag))
    gap = float(np.abs(derived.values - printed.values).max())
    rep.add("metric_vs_printed_tensor_gap", "reported", gap, None)
    return rep


def suite_fubini_study(seed=0):
    rep = VerifyReport(suite="fubini_study")
    rng = rng_from(seed)
    drawn = {}
    for _ in range(25):
        n = int(rng.integers(2, 4))
        # the point, then four directions: real and imaginary part of each
        z = rng.standard_normal((5, 2, n))
        drawn.setdefault(n, []).append(z[:, 0] + 1j * z[:, 1])
    worst = 0.0
    for n, z in drawn.items():   # one stack per dimension; every point is in the chart
        z = np.array(z)
        t = to_frame(curvature_from_jet(fubini_study(n).jet(0.5 * z[:, 0])))
        worst = max(worst, float(np.abs(hsc(t, np.swapaxes(z[:, 1:], 0, 1)) - 2.0).max()))
    rep.add("hsc_constant_2", 0.0, worst, 1e-7)

    t0 = to_frame(curvature_from_jet(jet_at(fubini_study(2), np.zeros(2))))
    const_check = constant_identity_check(t0, ConstHSC(2.0))
    rep.add_bool("const_hsc_identities", const_check.passed)
    ric_all = [ricci(t0, k).real for k in RicciKind]
    rep.add("all_ricci_equal_3I", 0.0,
            float(max(np.abs(r - 3 * np.eye(2)).max() for r in ric_all)), 1e-9)
    s, s_alt = scalars(t0)
    rep.add("scal_6", 6.0, s, 1e-9)
    rep.add("altered_scal_6", 6.0, s_alt, 1e-9)

    # the fourth moments of the unit sphere in C^2 by an exact 9-node rule
    moments = _rule_moments(*_moment_cubature(2))
    rep.add("moment_identity_exact", 0.0,
            float(np.abs(moments - moment_target(2)).max()), 1e-12)
    return rep


def cone_oracle_disagreements(n, count, seed, thm_samples, direct_samples, witness=False):
    """Number of matrices where the PSD oracle (``dual_edm_test``), the
    sampled Perron-weight criterion and direct distance-matrix sampling
    disagree about nonnegativity of the difference form, or where the Perron
    pass fails its per-sample cross-check.

    The Perron and direct oracles share one seeded sample stream per matrix,
    drawn and paired with the symmetric part of m once: the Perron pass reads
    its first thm_samples rows, and the direct oracle its first
    direct_samples trace pairings, those of the pass and, past them, of rows
    drawn next from the same stream (``difference_form_pairings``).  The
    sampled verdicts read ``Tolerances.cone_agreement`` as an absolute tol,
    the PSD oracle times it by max|W| (``cones._exact_verdicts``).  With
    witness, when the PSD oracle fails, W's least eigenvector v* on the
    complement of 1 follows the random prefix of both sampled streams, so
    both must flag a negative cone too thin for random generators."""
    for name, value, least in (("n", n, 1), ("count", count, 0),
                               ("thm_samples", thm_samples, MIN_SAMPLES),
                               ("direct_samples", direct_samples, 1)):
        _integer(value, f"parameter '{name}'", least)
    tol = DEFAULT.cone_agreement
    bad = 0
    for k in range(count):
        m = rng_from(seed, n, k).standard_normal((n, n))
        rng = rng_from((seed + 1) * 1_000_003 + 101 * n + k)
        rep, traces = _perron_pass(m, rng, thm_samples, witness)
        verdict_direct = bool(traces[:direct_samples].min() >= -tol
                              and traces[thm_samples:].min(initial=np.inf) >= -tol)
        if direct_samples > thm_samples:
            rest = rng.standard_normal((direct_samples - thm_samples, n))
            verdict_direct &= bool(difference_form_pairings(rest, 0.5 * (m + m.T)).min() >= -tol)
        verdict_perron = traces.min() >= -tol
        agree = rep.passed and rep.details["verdict_dual_edm"] == verdict_perron == verdict_direct
        bad += 0 if agree else 1
    return bad


def suite_cones(seed=0):
    rep = VerifyReport(suite="cones")
    for n in (3, 4, 5):
        bad = cone_oracle_disagreements(n, 120, seed + n, thm_samples=1500,
                                        direct_samples=4000, witness=True)
        rep.add(f"oracle_disagreements[n={n}]", 0, bad, 0.0)

    ms = rng_from(seed + 10).standard_normal((1000, 2, 2)) * 2.0
    mismatches = int(np.sum(copositive_2x2(ms)
                            != (cone_min(ms, nonneg_orthant(2)).value >= -1e-7)))
    rep.add("copositive_2x2_vs_cone_min", 0, mismatches, 0.0)

    sigma = edm_from_vector([0.0, 1.0, 2.0])
    r = perron_weights(sigma)
    root6 = np.sqrt(6.0)
    rep.add("perron_r2_(0,1,2)", (root6 - 2.0) / (2.0 + root6), float(r[0]), 1e-12)
    rep.add("perron_r3_(0,1,2)", 4.0 / (2.0 + root6), float(r[1]), 1e-12)

    neg_eig_ok = True
    for k in range(500):
        v = rng_from(seed + 20, k).standard_normal(4)
        sig = edm_from_vector(v)
        neg_eig_ok &= bool(np.linalg.eigvalsh(sig.sigma)[0] < -1e-12)
    rep.add_bool("edm_outside_psd_cone", neg_eig_ok)

    rep.add_bool("dual_edm[hopf_rbc_matrix]",
                 dual_edm_test(matrices_from(paper_hopf([1.0, 0.0])).rbc))
    return rep


def suite_identities(seed=0):
    rep = VerifyReport(suite="identities")
    rep.add_bool("kahler_constant_const_hsc",
                 constant_identity_check(kahler_constant(2.0, 3), ConstHSC(2.0)).passed)
    rep.add_bool("skew_pair_const_altered_hbc",
                 constant_identity_check(skew_pair(3.0, 3, seed=7), ConstAlteredHBC(3.0)).passed)
    rep.add_bool("skew_pair_const_altered_rbc",
                 constant_identity_check(skew_pair(5.0, 4, seed=11), ConstAlteredRBC(2.5)).passed)

    # cross-sign: constant altered form forces a sign on the plain form,
    # c rbc(v) >= 0 for every v, i.e. lambda_min(c rbc) >= 0
    ok = True
    for c in (1.5, -2.0):
        m = matrices_from(skew_pair(2.0 * c, 3, seed=13))
        ok &= bool(rayleigh_bounds(c * m.rbc)[0] >= -1e-12)
    rep.add_bool("cross_sign_rbc", ok)

    # 50 random tensors, each from its own seed, checked as one stack; one
    # vector each, all checks stacked over the tensors
    tensors = ChernTensor(np.stack([_random_values(seed + 100 + k, 3) for k in range(50)]),
                          FRAME)
    m = matrices_from(tensors)
    # rows 400-449 of this stream, so that v keeps the values it had when the
    # cross-sign check drew its 400 vectors first
    v = rng_from(seed + 1).standard_normal((450, 3))[400:]
    e1 = np.eye(3)[np.arange(50) % 3]
    worst_const = float(np.abs(evaluate(FunctionalKind.QOBC, m, np.ones(3))).max())
    rbc_e1 = evaluate(FunctionalKind.RBC, m, e1)
    hsc_e1 = hsc(tensors, e1.astype(complex))
    worst_add = float(max(
        np.abs(evaluate(FunctionalKind.ALTERED_HSC, m, v)
               - (evaluate(FunctionalKind.RBC, m, v)
                  + evaluate(FunctionalKind.ALTERED_RBC, m, v))).max(),
        np.abs(hsc_e1 - rbc_e1).max(),
        np.abs(rbc_e1 - evaluate(FunctionalKind.ALTERED_RBC, m, e1)).max()))
    full_min = rayleigh_bounds(m.rbc)[0]
    orthant_min = cone_min(m.rbc, nonneg_orthant(3)).value
    rep.add("altered_hsc_additivity_and_diagonal", 0.0, worst_add, 1e-12)
    rep.add("qobc_constant_vector_zero", 0.0, worst_const, 0.0)
    rep.add_bool("full_min_below_orthant_min", bool(np.all(full_min <= orthant_min + 1e-9)))

    # scalar traces are invariant under genuine (full-convention) frame
    # changes: every frame has sum_a u_a^T conj(u_a) = I, so Scal and altered
    # Scal are the rbc and altered forms at A = I, n c^T F c with F the
    # ``frame_form`` and c the coordinates of I / sqrt(n)
    t = random_tensor(seed + 3, 3)
    c = np.zeros(9)
    c[:3] = 1.0 / np.sqrt(3.0)
    traces = [3.0 * (c @ frame_form(t, kind) @ c)
              for kind in (FunctionalKind.RBC, FunctionalKind.ALTERED_RBC)]
    worst = float(np.abs(np.subtract(traces, scalars(t))).max())
    rep.add("scalar_trace_invariance", 0.0, worst, 1e-9)
    return rep


SUITES = {
    "hopf": suite_hopf,
    "tricerri": suite_tricerri,
    "fubini_study": suite_fubini_study,
    "cones": suite_cones,
    "identities": suite_identities,
}


def run_suite(name, seed=0):
    """The report of the named suite, or of all of them, at seed, an integer
    >= 0 that is checked before any suite runs."""
    _integer(seed, "parameter 'seed'")
    if _identifier(name, "verify suite") == "all":
        combined = VerifyReport(suite="all")
        for key, suite in SUITES.items():
            for check in suite(seed=seed).checks:
                check.name = f"{key}:{check.name}"
                combined.checks.append(check)
        return combined
    if name not in SUITES:
        raise UsageError(f"unknown verify suite '{name}'; "
                         f"suites: {', '.join([*SUITES, 'all'])}")
    return SUITES[name](seed=seed)
