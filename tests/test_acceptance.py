"""End-to-end acceptance battery.

Each test covers one numbered criterion at its stated tolerance and prints a
single pass/fail line; run with `pytest -s tests/test_acceptance.py` to see
the full scoreboard.
"""

import contextlib

import numpy as np
import pytest

from curvlab import (ConstAlteredHBC, ConstHSC, FunctionalKind, constant_identity_check,
                     cone_min, copositive_2x2, curvature_from_jet, dual_edm_test,
                     evaluate, hsc, invariance_test, jet_at,
                     kahler_constant, matrices_from, nonneg_orthant, paper_hopf,
                     paper_tricerri, random_tensor, rayleigh_bounds, ricci,
                     ricci_qobc_bounds, scalars, skew_pair, perron_criterion_check, to_frame,
                     transform_frame, weitzenbock)
from curvlab.curvature import FrameConvention, RicciKind, hermitian_tensor_residual
from curvlab.functionals import _moment_cubature, _rule_moments, moment_target
from curvlab.linalg import haar_from_rng, rng_from
from curvlab.metrics import fubini_study
from curvlab.search import tricerri_family_extrema
from curvlab.verify import (cone_oracle_disagreements, hopf_altered_hsc_bounds,
                            hopf_domain_points, hopf_fd_worst_error,
                            tricerri_eigen_formula_error,
                            tricerri_second_derivative_error)

SEED = 20260810


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num:2d} FAIL  {description}")
        raise
    print(f"[acceptance] criterion {num:2d} PASS  {description}")


def test_criterion_1_hopf_fd_closed_form():
    with criterion(1, "Hopf FD Chern tensor matches closed form at 1e-6 relative"):
        assert hopf_fd_worst_error(SEED) < 1e-6


def test_criterion_2_hopf_matrices_and_bounds():
    with criterion(2, "printed Hopf matrices exact; altered-HSC bounds at 1e-9"):
        for z in hopf_domain_points(SEED + 1, 10):
            abs2 = np.abs(z) ** 2
            rho = float(abs2.sum())
            m = matrices_from(paper_hopf(z))
            printed_rbc = np.array([[4.0 * abs2[1] / rho ** 3, 4.0 * abs2[1] / rho ** 3],
                                    [4.0 * abs2[0] / rho ** 3, 4.0 * abs2[0] / rho ** 3]])
            printed_alt = np.diag([4.0 * abs2[1] / rho ** 3, 4.0 * abs2[0] / rho ** 3])
            assert np.array_equal(m.rbc, printed_rbc)
            assert np.array_equal(m.altered, printed_alt)
            lo, hi = rayleigh_bounds(m.rbc + m.altered)
            flo, fhi = hopf_altered_hsc_bounds(z)
            assert abs(lo - flo) < 1e-9 and abs(hi - fhi) < 1e-9
        m11 = matrices_from(paper_hopf([1.0, 1.0]))
        lo, hi = rayleigh_bounds(m11.rbc + m11.altered)
        assert abs(lo - 0.5) < 1e-12 and abs(hi - 1.5) < 1e-12


def test_criterion_3_hopf_frame_invariance():
    with criterion(3, "adjoint action fixes the Hopf components over 1000 frames"):
        t = paper_hopf([1.0, 0.6 - 0.8j])
        listed = [(0, 0, 0, 0), (1, 1, 1, 1), (0, 0, 1, 1), (1, 1, 0, 0),
                  (0, 1, 1, 0), (1, 0, 0, 1)]
        base = [t.values[idx] for idx in listed]
        rng = rng_from(SEED + 2)
        worst = 0.0
        for _ in range(1000):
            u = haar_from_rng(2, rng)
            moved = transform_frame(t, u, FrameConvention.ADJOINT)
            worst = max(worst, max(abs(moved.values[idx] - b)
                                   for idx, b in zip(listed, base)))
        assert worst < 1e-9
        for kind in (FunctionalKind.RBC, FunctionalKind.ALTERED_RBC,
                     FunctionalKind.ALTERED_HSC):
            invariant, dev = invariance_test(t, kind, FrameConvention.ADJOINT)
            assert invariant, (kind, dev)


def test_criterion_4_hopf_qobc_extrema():
    with criterion(4, "Hopf difference-form extrema 0 and 8/|z|^4; altered variant 0"):
        rng = rng_from(SEED + 4)
        for z in ([1.0, 0.0], [1.0, 1.0], [0.5, -1.2j]):
            rho = float(np.sum(np.abs(np.asarray(z, complex)) ** 2))
            m = matrices_from(paper_hopf(z))
            v_min = np.array([1.0, 1.0]) / np.sqrt(2.0)
            v_max = np.array([-1.0, 1.0]) / np.sqrt(2.0)
            assert abs(evaluate(FunctionalKind.QOBC, m, v_min)) < 1e-9
            assert abs(evaluate(FunctionalKind.QOBC, m, v_max) - 8.0 / rho ** 2) < 1e-9
            lo, hi = rayleigh_bounds(weitzenbock(m.rbc))
            assert abs(lo) < 1e-9 and abs(hi - 8.0 / rho ** 2) < 1e-9
        t = paper_hopf([1.0, 0.3 + 0.4j])
        worst = 0.0
        for _ in range(100):
            u = haar_from_rng(2, rng)
            m = matrices_from(transform_frame(t, u, FrameConvention.ADJOINT))
            for _ in range(10):
                v = rng.standard_normal(2)
                worst = max(worst, abs(evaluate(FunctionalKind.ALTERED_QOBC, m, v)))
        assert worst < 1e-9


def test_criterion_5_tricerri():
    with criterion(5, "Tricerri: FD second derivative, family spectra, pinching"):
        assert tricerri_second_derivative_error() < 1e-8
        assert tricerri_eigen_formula_error() < 1e-9
        for im_w in (1.0, 2.0):
            scan = tricerri_family_extrema(im_w, FunctionalKind.RBC)
            target_inf = -0.75 * (1.0 + np.sqrt(2.0)) / im_w ** 4
            target_sup = 0.75 / im_w ** 4
            assert abs(scan["inf"] - target_inf) <= 1e-12 * abs(target_inf)
            assert abs(scan["sup"] - target_sup) <= 1e-12 * abs(target_sup)
            alt = tricerri_family_extrema(im_w, FunctionalKind.ALTERED_RBC)
            assert abs(alt["inf"] + 1.5 / im_w ** 4) <= 1e-12 * 1.5 / im_w ** 4
            assert abs(alt["sup"]) <= 1e-12 * 1.5 / im_w ** 4


def _per_sample_eigen_formula_error(seed, count):
    """Sampled reference for tricerri_eigen_formula_error: the worst deviation
    over count members, alternately a column of a Haar unitary and an
    independent (|b|, |d|) in the unit square, at Im w uniform in [0.7, 2]."""
    rng = rng_from(seed)
    worst = 0.0
    for k in range(count):
        if k % 2 == 0:
            u = haar_from_rng(2, rng)
            b, d = u[0, 1], u[1, 1]
        else:
            b, d = np.sqrt(rng.uniform()), np.sqrt(rng.uniform())
        im_w = rng.uniform(0.7, 2.0)
        lo, hi = rayleigh_bounds(matrices_from(paper_tricerri(b, d, im_w)).rbc)
        bb, dd = abs(b) ** 2, abs(d) ** 2
        root = np.sqrt(bb ** 2 + dd ** 2)
        pref = 3.0 / (4.0 * im_w ** 4)
        worst = max(worst, abs(lo + pref * (dd + root)), abs(hi + pref * (dd - root)))
    return worst


@pytest.mark.parametrize("count", [-1, 0, 1, 2, 3, 7, 100])
def test_tricerri_eigen_formula_error_any_count(count):
    # the 3 x 3 grid and the sampled reference agree on the verdict, and the
    # sampled deviation stays within 16 times the grid's: both are rounding,
    # and at Im w >= 0.7 the eigenvalues are at most (1/0.7)^4 < 4.2 times
    # their size at Im w = 1, and each reading is off by a few ulps
    got = tricerri_eigen_formula_error()
    assert isinstance(got, float)
    sampled = _per_sample_eigen_formula_error(SEED + 5, count)
    assert (got < 1e-9) == (sampled < 1e-9)
    assert sampled <= 16 * got


def test_criterion_6_moment_identity():
    with criterion(6, "sphere fourth moments exact by the cubature rule"):
        for n in (2, 3):
            moments = _rule_moments(*_moment_cubature(n))
            assert np.abs(moments - moment_target(n)).max() <= 1e-12


def test_criterion_7_constant_curvature_identities():
    with criterion(7, "constant-curvature identity batteries below 1e-10"):
        for c, n in ((2.0, 2), (2.0, 3), (-1.0, 4)):
            rep = constant_identity_check(kahler_constant(c, n), ConstHSC(c))
            assert rep.passed and rep.max_residual < 1e-10
        fs = to_frame(curvature_from_jet(jet_at(fubini_study(2), np.zeros(2))))
        rep = constant_identity_check(fs, ConstHSC(2.0))
        assert rep.passed and rep.max_residual < 1e-10
        for c, n, s in ((3.0, 3, 7), (1.0, 2, 1), (-2.0, 4, 5)):
            rep = constant_identity_check(skew_pair(c, n, seed=s), ConstAlteredHBC(c))
            assert rep.passed and rep.max_residual < 1e-10


def test_criterion_8_cone_oracle_equivalence():
    with criterion(8, "distance-cone oracles agree on 500 matrices per size"):
        for n in (3, 4, 5):
            bad = cone_oracle_disagreements(n, 500, SEED + 10 + n,
                                            thm_samples=10_000, direct_samples=10_000)
            assert bad == 0, f"n={n}: {bad} disagreements"
        rng = rng_from(SEED + 14)
        mismatch = 0
        for _ in range(1000):
            m = rng.standard_normal((2, 2)) * 2.0
            exact = copositive_2x2(m)
            grid = cone_min(m, nonneg_orthant(2)).value >= -1e-7
            mismatch += exact != grid
        assert mismatch == 0


def test_criterion_9_ricci_margins():
    with criterion(9, "Ricci/scalar inequality margins on Hopf and Fubini-Study"):
        rep = ricci_qobc_bounds(paper_hopf([1.0, 0.0]))
        assert rep.passed
        margins = dict((name, val) for name, val in rep.details["margins"])
        assert abs(margins["ric12_pair[0,1]"] - 16.0) < 1e-10
        assert abs(margins["scal_bound"] - 8.0) < 1e-10
        fs = to_frame(curvature_from_jet(jet_at(fubini_study(2), np.zeros(2))))
        rep_fs = ricci_qobc_bounds(fs)
        assert rep_fs.passed
        s, _ = scalars(fs)
        cross = float(np.real(fs.values[0, 1, 1, 0] + fs.values[1, 0, 0, 1]))
        assert s - cross >= -1e-10 and abs(s - 6.0) < 1e-10 and abs(cross - 2.0) < 1e-10


def test_criterion_10_property_suites():
    with criterion(10, "structural property batteries all green"):
        rng = rng_from(SEED + 17)
        t = random_tensor(SEED, 3)

        # Hermitian symmetry survives construction and both transforms
        for k in range(100):
            sample = random_tensor(SEED + k, 3)
            scale = max(1.0, float(np.abs(sample.values).max()))
            assert hermitian_tensor_residual(sample.values) < 1e-8 * scale
            u = haar_from_rng(3, rng)
            for conv in FrameConvention:
                moved = transform_frame(sample, u, conv)
                assert hermitian_tensor_residual(moved.values) < 1e-8 * scale

        # composition of full transforms
        for _ in range(100):
            u = haar_from_rng(3, rng)
            v = haar_from_rng(3, rng)
            once = transform_frame(transform_frame(t, u, "full"), v, "full")
            joint = transform_frame(t, v @ u, "full")
            assert np.abs(once.values - joint.values).max() < 1e-9

        # scalar traces under genuine frame changes
        s0 = scalars(t)
        for _ in range(100):
            u = haar_from_rng(3, rng)
            s1 = scalars(transform_frame(t, u, "full"))
            assert abs(s1[0] - s0[0]) < 1e-9 and abs(s1[1] - s0[1]) < 1e-9

        # Rayleigh bracketing, constant-vector zero, additivity
        m = matrices_from(t)
        lo, hi = rayleigh_bounds(m.rbc)
        for _ in range(1000):
            v = rng.standard_normal(3)
            q = evaluate(FunctionalKind.RBC, m, v)
            assert lo - 1e-12 <= q <= hi + 1e-12
        assert evaluate(FunctionalKind.QOBC, m, np.ones(3)) == 0.0
        for k in range(100):
            mm = matrices_from(random_tensor(SEED + 500 + k, 3))
            v = rng.standard_normal(3)
            assert abs(evaluate(FunctionalKind.ALTERED_HSC, mm, v)
                       - evaluate(FunctionalKind.RBC, mm, v)
                       - evaluate(FunctionalKind.ALTERED_RBC, mm, v)) < 1e-12

        # four Ricci contractions coincide on the Kaehler-symmetric tensor
        fs = to_frame(curvature_from_jet(jet_at(fubini_study(3), np.zeros(3))))
        rics = [ricci(fs, k) for k in RicciKind]
        assert max(float(np.abs(rics[0] - r).max()) for r in rics) < 1e-10

        # sectional probe agreement along basis directions
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = 1.0
            assert abs(hsc(t, e.astype(complex))
                       - evaluate(FunctionalKind.RBC, m, e)) < 1e-12

        # dual-cone membership of the distance-form matrices is frame-checked
        assert dual_edm_test(matrices_from(paper_hopf([1.0, 0.0])).rbc)
        assert perron_criterion_check(matrices_from(paper_hopf([1.0, 0.0])).rbc,
                           samples=500, seed=SEED).passed
