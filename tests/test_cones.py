import contextlib
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvlab import (DomainError, UsageError, cone_min, copositive_2x2, dual_edm_test,
                     edm_from_vector, full_cone, generator_cone, matrices_from,
                     monotone_nonneg, nonneg_orthant, paper_hopf, paper_tricerri,
                     perron_weights, rayleigh_bounds, perron_criterion_check,
                     weitzenbock)
from curvlab.cli import main
from curvlab.cones import _edm_rank3, _faces, _perron_pass, difference_form_pairings
from curvlab.linalg import rng_from
from curvlab.reports import IdentityReport
from curvlab import verify
from curvlab.verify import cone_oracle_disagreements


def test_cone_min_hopf_orthant():
    m = matrices_from(paper_hopf([1.0, 0.0])).rbc
    res = cone_min(m, nonneg_orthant(2))
    assert res.value == pytest.approx(0.0, abs=1e-10)
    assert_allclose(res.argmin, [1.0, 0.0], atol=1e-6)


def test_cone_min_full_equals_rayleigh():
    m = matrices_from(paper_hopf([1.0, 0.0])).rbc
    res = cone_min(m, full_cone(2))
    assert res.value == pytest.approx(2.0 - 2.0 * np.sqrt(2.0))
    assert res.value == rayleigh_bounds(m)[0]
    assert float(res.argmin @ m @ res.argmin) == pytest.approx(res.value, abs=1e-12)


def test_cone_min_identity_any_cone():
    for cone in (full_cone(3), nonneg_orthant(3), monotone_nonneg(3),
                 generator_cone(np.eye(3))):
        assert cone_min(np.eye(3), cone).value == pytest.approx(1.0)


def test_cone_min_monotone_respects_order():
    # min of v^T diag(0, 0, -1) v on the full orthant is -1 at e3, but the
    # ordered cone forces mass onto earlier coordinates
    m = np.diag([0.0, 0.0, -1.0])
    free = cone_min(m, nonneg_orthant(3)).value
    ordered = cone_min(m, monotone_nonneg(3)).value
    assert free == pytest.approx(-1.0, abs=1e-9)
    assert ordered == pytest.approx(-1.0 / 3.0, abs=1e-6)


def test_cone_min_guard_rails():
    with pytest.raises(UsageError):
        cone_min(np.eye(13), nonneg_orthant(13))
    with pytest.raises(UsageError):
        cone_min(np.eye(2), generator_cone(np.ones((13, 2))))
    assert cone_min(-np.eye(12), nonneg_orthant(12)).value == pytest.approx(-1.0)
    with pytest.raises(UsageError):
        cone_min(np.eye(3), nonneg_orthant(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200, -1e308])
def test_cone_tests_reject_entries_over_the_bound(bad):
    # at 1e200 the product s11 s22 of copositive_2x2 overflowed, and it read
    # this matrix, whose minimum on the orthant is -1e200, as copositive
    m = np.array([[bad, -2.0 * bad], [-2.0 * bad, bad]])
    for test in (lambda: cone_min(m, nonneg_orthant(2)), lambda: copositive_2x2(m),
                 lambda: dual_edm_test(m), lambda: perron_criterion_check(m, samples=100)):
        with pytest.raises(DomainError, match="MAX_ENTRY"):
            test()
    assert cone_min(2.0 ** 499 * np.eye(2), nonneg_orthant(2)).value == 2.0 ** 499


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cone_generators_are_domain_errors(bad):
    with pytest.raises(DomainError, match="cone generators"):
        generator_cone([[1.0, bad], [1.0, 1.0]])


def stack_cones(n, rng):
    """The restricted cones in R^n, with a random generator set and one
    whose Gram matrix is singular (a repeated and a dependent generator)."""
    gens = rng.standard_normal((max(2, n), n))
    singular = np.vstack([gens, 2.0 * gens[:1], gens[:1] + gens[-1:]])
    return [nonneg_orthant(n), monotone_nonneg(n), generator_cone(rng.standard_normal((n + 1, n))),
            generator_cone(singular), full_cone(n)]


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_cone_min_equals_single_calls(n):
    rng = rng_from(70 + n)
    ms = rng.standard_normal((12, n, n)) * rng.uniform(0.1, 10.0, (12, 1, 1))
    ms[:3] = np.abs(ms[:3])       # copositive members: the minimum is interior or a face
    for cone in stack_cones(n, rng):
        stacked = cone_min(ms, cone)
        assert stacked.value.shape == (12,) and stacked.argmin.shape == (12, n)
        for j, m in enumerate(ms):
            single = cone_min(m, cone)
            assert isinstance(single.value, float)
            assert single.value == stacked.value[j]
            assert np.array_equal(single.argmin, stacked.argmin[j])


def test_singleton_faces_equal_lapack():
    """The 1 x 1 Gram factors and pencils skip LAPACK; they must be its bits."""
    rng = rng_from(77)
    g = rng.standard_normal((8, 5)) * np.logspace(-150, 150, 8)[:, None]
    rows, inv = _faces(g)[0]
    b = (g @ g.T)[rows[:, :, None], rows[:, None, :]]
    assert rows.shape == (8, 1)
    assert np.array_equal(inv, np.linalg.inv(np.linalg.cholesky(b)))
    w = rng.standard_normal((6, 8, 1, 1)) * np.logspace(-150, 150, 8)[:, None, None]
    vals, vecs = np.linalg.eigh(w)
    assert np.array_equal(vals, w[..., 0]) and np.array_equal(vecs, np.ones_like(w))


def test_stacked_cone_min_boundaries():
    ms = rng_from(5).standard_normal((4, 3, 3))
    for bad in (np.nan, np.inf):
        broken = ms.copy()
        broken[2, 1, 0] = bad
        for cone in (nonneg_orthant(3), full_cone(3)):
            with pytest.raises(DomainError):
                cone_min(broken, cone)
    for shape in ((4, 3, 2), (2, 4, 3, 3), (0, 3, 3), (3,)):
        with pytest.raises(UsageError):
            cone_min(np.ones(shape), nonneg_orthant(3))
    with pytest.raises(UsageError):
        cone_min(ms, nonneg_orthant(2))
    # on the full cone a stack gives each matrix's Rayleigh minimum and a
    # unit eigenvector
    res = cone_min(ms, full_cone(3))
    sym = 0.5 * (ms + ms.transpose(0, 2, 1))
    assert np.array_equal(res.value, rayleigh_bounds(ms)[0])
    assert_allclose(np.linalg.norm(res.argmin, axis=1), 1.0, atol=1e-15)
    assert_allclose(np.einsum("ki,kij,kj->k", res.argmin, sym, res.argmin), res.value,
                    atol=1e-14)


def test_copositive_2x2_examples():
    assert copositive_2x2(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert not copositive_2x2(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    boundary = np.array([[1.0, -0.5], [-0.5, 0.25]])
    assert copositive_2x2(boundary)
    # boundary case vanishes at v proportional to (1, 2)
    v = np.array([1.0, 2.0])
    assert float(v @ boundary @ v) == pytest.approx(0.0)
    with pytest.raises(UsageError):
        copositive_2x2(np.eye(3))


def test_copositive_agrees_with_grid():
    rng = rng_from(1)
    ms = rng.standard_normal((1000, 2, 2)) * 2.0
    for m in ms:
        exact = copositive_2x2(m)
        grid = cone_min(m, nonneg_orthant(2)).value >= -1e-7
        assert exact == grid
    # a stack gives the single verdicts
    assert np.array_equal(copositive_2x2(ms), [copositive_2x2(m) for m in ms])


def test_edm_examples():
    assert_allclose(edm_from_vector([0.0, 1.0]).sigma, [[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(edm_from_vector([0.0, 1.0, 2.0]).sigma,
                    [[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
    assert np.all(edm_from_vector([2.0, 2.0, 2.0]).sigma == 0)


def test_perron_weights_examples():
    assert perron_weights(edm_from_vector([0.0, 1.0]))[0] == pytest.approx(1.0)
    r = perron_weights(edm_from_vector([0.0, 1.0, 2.0]))
    root6 = np.sqrt(6.0)
    assert r[0] == pytest.approx((root6 - 2.0) / (2.0 + root6))
    assert r[1] == pytest.approx(4.0 / (2.0 + root6))
    with pytest.raises(DomainError):
        perron_weights(edm_from_vector([1.0, 1.0]))


def test_perron_weights_bounded_by_one():
    for k in range(200):
        v = rng_from(2, k).standard_normal(5)
        r = perron_weights(edm_from_vector(v))
        assert np.all(r <= 1.0) and np.all(r >= 0.0) and np.all(np.diff(r) >= -1e-12)


def test_edm_has_negative_eigenvalue():
    for k in range(500):
        v = rng_from(3, k).standard_normal(4)
        sigma = edm_from_vector(v).sigma
        assert np.linalg.eigvalsh(sigma)[0] < -1e-10 * max(1.0, sigma.max())


def test_dual_edm_examples():
    assert dual_edm_test(np.eye(2))
    assert not dual_edm_test(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert dual_edm_test(matrices_from(paper_hopf([1.0, 0.0])).rbc)


@pytest.mark.parametrize("n", [3, 5])
def test_dual_edm_membership_does_not_depend_on_the_scale(n):
    # an interior point: W of I + 1 1^T + 0.1 (A + A^T) is positive definite
    # on the complement of 1, while its zero eigenvalue on 1 carries rounding
    # of size eps |W|
    for seed in range(10):
        a = rng_from(seed).standard_normal((n, n))
        m = np.eye(n) + np.ones((n, n)) + 0.1 * (a + a.T)
        for k in (0, 20, 27, 40, 100, 300, 490):
            assert dual_edm_test(2.0 ** k * m), (seed, k)
            assert not dual_edm_test(-(2.0 ** k) * m), (seed, k)


def test_perron_criterion_examples():
    rep = perron_criterion_check(np.eye(3), samples=500, seed=1)
    assert rep.passed and rep.details["verdict_criterion"]
    assert rep.details["agrees_with_dual"]

    rep = perron_criterion_check(np.array([[0.0, 1.0], [1.0, 0.0]]), samples=500, seed=1)
    assert rep.passed and rep.details["verdict_criterion"] and rep.details["verdict_dual_edm"]

    rep = perron_criterion_check(np.array([[0.0, -1.0], [-1.0, 0.0]]), samples=500, seed=1)
    assert rep.passed  # both readings agree sample by sample
    assert not rep.details["verdict_criterion"]
    assert not rep.details["verdict_dual_edm"]
    assert rep.details["counterexample"] is not None
    v = np.array(rep.details["counterexample"])
    sigma = edm_from_vector(v).sigma
    assert float(np.sum(sigma * np.array([[0.0, -1.0], [-1.0, 0.0]]))) < 0

    # the eigenvalue reading of the bound is vacuous: it holds here too
    assert rep.details["eigenvalue_bound_holds"]

    with pytest.raises(UsageError):
        perron_criterion_check(np.eye(2), samples=10)


def test_oracle_equivalence_random_matrices():
    bad = 0
    for n in (3, 4):
        for k in range(60):
            m = rng_from(4, n, k).standard_normal((n, n))
            rep = perron_criterion_check(m, samples=800, seed=1000 + k)
            psd = dual_edm_test(m)
            traces_ok = rep.details["verdict_trace"]
            if not (rep.details["verdict_criterion"] == psd == traces_ok and rep.passed):
                bad += 1
    assert bad == 0


def test_hopf_orthant_forms_nonnegative():
    # both restricted quadratic forms of the Hopf tensor are nonnegative on
    # the orthant at every point, although the unrestricted altered form
    # changes sign
    rng = rng_from(6)
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        m = matrices_from(paper_hopf(z))
        assert cone_min(m.rbc, nonneg_orthant(2)).value >= -1e-9
        combined = m.rbc + m.altered
        assert cone_min(combined, nonneg_orthant(2)).value >= -1e-9
    # off the orthant the combined form does change sign at some points
    m = matrices_from(paper_hopf([1.0, 0.0]))
    assert rayleigh_bounds(m.rbc + m.altered)[0] < 0


def test_tricerri_orthant_forms_nonpositive():
    rng = rng_from(7)
    for _ in range(20):
        bb, dd = rng.uniform(size=2)
        m = matrices_from(paper_tricerri(np.sqrt(bb), np.sqrt(dd), 1.0))
        hi = -cone_min(-m.rbc, nonneg_orthant(2)).value
        assert hi <= 1e-9
        hi_alt = -cone_min(-m.altered, nonneg_orthant(2)).value
        assert hi_alt <= 1e-9
        # restricted minimum of the altered form is -(3 |d|^2)/(2 Im^4)
        lo_alt = cone_min(m.altered, nonneg_orthant(2)).value
        assert lo_alt == pytest.approx(-1.5 * dd, abs=1e-9)


def test_weitzenbock_trace_pairing_identity():
    # tr(M_sym Sigma_v) equals the difference form, the bridge between the
    # sampling oracle and the PSD oracle
    rng = rng_from(5)
    m = rng.standard_normal((4, 4))
    s = 0.5 * (m + m.T)
    w = weitzenbock(m)
    for _ in range(200):
        v = rng.standard_normal(4)
        sigma = edm_from_vector(v).sigma
        assert float(np.sum(s * sigma)) == pytest.approx(float(v @ w @ v), abs=1e-9)


# ---------------------------------------------------------------------------
# the rank-3 compression against a dense eigendecomposition of Sigma_v

def sigma_eigh_reference(vs, s):
    """Descending spectrum of every Sigma_v (samples, n) and the Perron
    criterion q_1 - sum r_k q_k read from a batched eigh of the stack."""
    sigma = (vs[:, :, None] - vs[:, None, :]) ** 2
    delta, u = np.linalg.eigh(sigma)
    delta, u = delta[:, ::-1], u[:, :, ::-1]
    q = np.einsum("aki,kl,ali->ai", u, s, u)
    r = -delta[:, 1:] / np.maximum(delta[:, :1], 1e-300)
    return delta, q[:, 0] - np.sum(r * q[:, 1:], axis=1)


def assert_compression_matches_reference(vs, s, rtol):
    """The compression's eigenvalues (with the n - 3 zeros it leaves out) and
    Perron criterion equal the dense reference's to rtol, with no warning; a
    zero Sigma_v has zero eigenvalues and the e0 form 1^T s 1 / n as its
    criterion, since every Perron weight is 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta, q = _edm_rank3(vs, s)
    samples, n = vs.shape
    crit = q[:, 0] - np.sum(-delta[:, 1:] / np.maximum(delta[:, :1], 1e-300) * q[:, 1:], axis=1)
    ref_delta, ref_crit = sigma_eigh_reference(vs, s)
    assert np.all(np.isfinite(delta)) and np.all(np.isfinite(crit))
    scale = np.abs(ref_delta).max(axis=1, keepdims=True)
    full = np.concatenate([delta, np.zeros((samples, max(n - 3, 0)))], axis=1)
    ref_full = np.concatenate([ref_delta, np.zeros((samples, max(3 - n, 0)))], axis=1)
    assert np.all(np.abs(np.sort(full) - np.sort(ref_full)) <= rtol * scale)
    live = scale[:, 0] > 0
    assert np.all(np.abs(crit - ref_crit)[live] <= rtol * np.abs(s).max())
    assert np.all(delta[~live] == 0.0)
    assert_allclose(crit[~live], s.sum() / n, rtol=1e-14)


def reference_perron_verdicts(m, samples, seed, tol=1e-8):
    """The report fields of perron_criterion_check, from the dense reference
    and the einsum trace on the same sample stream."""
    s = 0.5 * (m + m.T)
    vs = rng_from(seed).standard_normal((samples, m.shape[0]))
    delta, crit = sigma_eigh_reference(vs, s)
    delta1 = np.maximum(delta[:, 0], 1e-300)
    trace = np.einsum("aij,ij->a", (vs[:, :, None] - vs[:, None, :]) ** 2, s)
    crit_ok, trace_ok = crit >= -tol / delta1, trace >= -tol
    lam = np.linalg.eigvalsh(s)[::-1]
    r = -delta[:, 1:] / delta1[:, None]
    dual = dual_edm_test(m, tol)
    return {"passed": bool(np.all(crit_ok == trace_ok)) and bool(crit_ok.all() == trace_ok.all()),
            "verdict_criterion": bool(crit_ok.all()), "verdict_trace": bool(trace_ok.all()),
            "verdict_dual_edm": dual, "agrees_with_dual": bool(crit_ok.all()) == dual,
            "eigenvalue_bound_holds": bool(np.all(lam[0] >= r @ lam[1:] - tol))}


def test_compression_edge_cases_match_the_reference():
    # n = 1 and constant generators have Sigma_v = 0; n = 2 has rank 2; two
    # distinct values leave p = 0 at any n
    cases = [np.array([[0.3], [-2.0]]), np.full((2, 4), 0.1), np.array([[0.0, 1.0], [5.0, -1.0]]),
             np.array([[0.0, 0.0, 1.0, 1.0], [0.1, 0.7, 0.7, 0.1]]),
             np.array([[1e6, 1e6 + 1.0, 1e6 + 3.0], [7.0, 7.0, 7.0]])]
    rng = rng_from(11)
    for vs in cases:
        m = rng.standard_normal((vs.shape[1],) * 2)
        assert_compression_matches_reference(vs, 0.5 * (m + m.T), 1e-13)


@pytest.mark.parametrize("n", range(1, 13))
def test_difference_form_pairings_equal_the_trace(n):
    rng = rng_from(12, n)
    vs = np.concatenate([rng.standard_normal((50, n)), 1e6 + rng.standard_normal((50, n)),
                         rng.integers(-3, 4, (50, n)).astype(float)])
    m = rng.standard_normal((n, n))
    sigma = (vs[:, :, None] - vs[:, None, :]) ** 2
    expected = np.einsum("aij,ij->a", sigma, 0.5 * (m + m.T))
    scale = np.abs(m).max() * sigma.max(axis=(1, 2))
    got = difference_form_pairings(vs, 0.5 * (m + m.T))
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)
    # a nonsymmetric matrix pairs through its symmetric part
    assert np.all(np.abs(difference_form_pairings(vs, m) - expected) <= 1e-12 * scale)


def test_report_verdicts_equal_the_reference_path():
    fields = ("passed", "verdict_criterion", "verdict_trace", "verdict_dual_edm",
              "agrees_with_dual", "eigenvalue_bound_holds")
    seen = set()
    for n in range(1, 9):
        for k in range(8):
            rng = rng_from(13, n, k)
            m = rng.standard_normal((n, n))
            if k % 2:   # -P/2 with P PSD and P 1 = 0 has Weitzenboeck matrix P
                basis = np.linalg.qr(np.column_stack([np.ones(n),
                                                      rng.standard_normal((n, n - 1))]))[0]
                ev = np.abs(rng.standard_normal(n))
                ev[0] = 0.0
                ev[min(1, n - 1)] *= [1.0, -1e-3, 1e-9, -1e-9][k // 2]
                m = -0.5 * (basis * ev) @ basis.T + (m - m.T)
            rep = perron_criterion_check(m, samples=400, seed=k)
            ref = reference_perron_verdicts(m, 400, k)
            got = {"passed": rep.passed, **{f: rep.details[f] for f in fields[1:]}}
            assert got == ref, (n, k)
            seen.add(ref["verdict_criterion"])
    assert seen == {True, False}


def test_cone_check_on_a_1x1_matrix_passes():
    # Sigma_v = 0 for n = 1: both readings hold at every sample
    for text in ("2", "-2"):
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out):
            warnings.simplefilter("error")
            assert main(["cone-check", "--matrix", text, "--format", "json"]) == 0
        criterion = json.loads(out.getvalue())["perron_criterion"]
        assert criterion["passed"] and criterion["details"]["verdict_criterion"]
        assert criterion["details"]["min_trace_pairing"] == 0.0


# ---------------------------------------------------------------------------
# the blocked Perron pass and the oracles that share its stream

def single_block_perron_check(m, samples, seed, tol=1e-8, tail=None):
    """perron_criterion_check with every sample, and the rows of tail after
    them, in one full-length block: the reference the blocked pass must equal
    bit for bit."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    s = 0.5 * (m + m.T)
    lam = np.linalg.eigvalsh(s)[::-1]
    vs = rng_from(seed).standard_normal((samples, n))
    vs = vs if tail is None else np.vstack([vs, tail])
    delta, q = _edm_rank3(vs, s)
    delta1 = np.maximum(delta[:, :1], 1e-300)
    r = -delta[:, 1:] / delta1
    trace = difference_form_pairings(vs, s)
    crit = q[:, 0] - np.sum(r * q[:, 1:], axis=1)
    trace_ok = trace >= -tol
    crit_ok = crit >= -tol / delta1[:, 0]
    both = trace_ok == crit_ok
    k = min(n - 1, 2)
    eig_bound_ok = bool(np.all(lam[0] >= np.sum(r[:, 2 - k:] * lam[n - k:], axis=1) - tol))
    verdict_criterion = bool(np.all(crit_ok))
    verdict_trace = bool(np.all(trace_ok))
    verdict_dual = dual_edm_test(m, tol)
    witnesses = []
    max_resid = 0.0
    for a in np.nonzero(~both)[0][:5]:
        witnesses.append([["disagreement", int(a)], [float(trace[a]), 0.0],
                          [float(crit[a]), 0.0]])
        max_resid = max(max_resid, abs(float(trace[a])))
    counterexample = None
    if not verdict_trace:
        counterexample = [float(x) for x in vs[int(np.argmin(trace))]]
    details = {"verdict_criterion": verdict_criterion, "verdict_trace": verdict_trace,
               "verdict_dual_edm": verdict_dual, "eigenvalue_bound_holds": eig_bound_ok,
               "agrees_with_dual": verdict_criterion == verdict_dual,
               "min_trace_pairing": float(trace.min()), "counterexample": counterexample,
               "samples": len(vs)}
    passed = bool(np.all(both)) and verdict_criterion == verdict_trace
    return IdentityReport(name="perron_weight_criterion", passed=passed,
                          max_residual=max_resid, witnesses=witnesses, details=details)


@pytest.mark.parametrize("n", range(1, 9))
def test_blocked_perron_check_keeps_the_bits(n):
    # a large diagonal pairs to 0 with every Sigma_v, so both readings are
    # rounding noise around -tol: disagreement witnesses and counterexamples
    seen = {"witness": False, "counterexample": False}
    for samples in (100, 1500, 2047, 2048, 2049, 4095, 4096, 4097, 10_000, 12_289):
        for seed in range(3):
            rng = rng_from(14, n, samples, seed)
            for m in (rng.standard_normal((n, n)), np.diag(1e8 * rng.standard_normal(n))):
                got = perron_criterion_check(m, samples=samples, seed=seed).to_dict()
                ref = single_block_perron_check(m, samples, seed).to_dict()
                assert json.dumps(got) == json.dumps(ref), (samples, seed)
                seen["witness"] |= bool(ref["witnesses"])
                seen["counterexample"] |= ref["details"]["counterexample"] is not None
    assert seen == {"witness": n > 1, "counterexample": n > 1}


def redraw_oracle_disagreements(n, count, seed, thm_samples, direct_samples, tol=1e-8):
    """cone_oracle_disagreements with the direct oracle drawing and pairing
    its own copy of the stream: the reference for the shared pass."""
    bad = 0
    for k in range(count):
        m = rng_from(seed, n, k).standard_normal((n, n))
        sample_seed = (seed + 1) * 1_000_003 + 101 * n + k
        rep = perron_criterion_check(m, samples=thm_samples, seed=sample_seed, tol=tol)
        vs = rng_from(sample_seed).standard_normal((direct_samples, n))
        verdict_direct = bool(difference_form_pairings(vs, 0.5 * (m + m.T)).min() >= -tol)
        agree = (rep.details["verdict_dual_edm"] == rep.details["verdict_criterion"]
                 == verdict_direct) and rep.passed
        bad += 0 if agree else 1
    return bad


@pytest.mark.parametrize("thm, direct", [(10_000, 10_000), (1500, 4000), (4000, 1500),
                                         (2000, 10_000)])
def test_shared_oracle_stream_keeps_the_counts(thm, direct, monkeypatch):
    # at seed 118 one matrix of the n = 5 batch disagrees when the direct
    # oracle reads 1500 or 4000 samples, and none with 10 000
    for n in (3, 4, 5):
        got = cone_oracle_disagreements(n, 4, 118, thm_samples=thm, direct_samples=direct)
        assert got == redraw_oracle_disagreements(n, 4, 118, thm, direct), n
    # the rows the direct oracle pairs past the Perron prefix are the next
    # rows of the same stream
    paired = []
    monkeypatch.setattr(verify, "difference_form_pairings",
                        lambda vs, s: paired.append(vs) or difference_form_pairings(vs, s))
    cone_oracle_disagreements(3, 2, 118, thm_samples=thm, direct_samples=direct)
    stream = [rng_from(119 * 1_000_003 + 303 + k).standard_normal((max(thm, direct), 3))
              for k in range(2)]
    assert len(paired) == (2 if direct > thm else 0)
    for rows, full in zip(paired, stream):
        assert np.array_equal(rows, full[thm:direct])


def test_perron_pass_reads_a_tail_after_its_blocks():
    # a tail row is one more block: the report equals the one-block reference
    # on the stream followed by the tail, and a tail row that pairs lowest is
    # the counterexample
    m = rng_from(15).standard_normal((4, 4))
    lam, vecs = np.linalg.eigh(weitzenbock(m))
    assert lam[0] < -1e-3
    for samples in (100, 1500, 2048, 4097):
        for tail in (vecs[:, :1].T, -vecs[:, :1].T, rng_from(16).standard_normal((3, 4))):
            got, traces = _perron_pass(m, rng_from(samples), samples, 1e-8, tail)
            ref = single_block_perron_check(m, samples, samples, tail=tail)
            assert json.dumps(got.to_dict()) == json.dumps(ref.to_dict())
            assert traces.shape == (samples + len(tail),)
    got, traces = _perron_pass(m, rng_from(0), 100, 1e-8, 10.0 * vecs[:, :1].T)
    assert np.argmin(traces) == 100
    assert_allclose(got.details["counterexample"], 10.0 * vecs[:, 0])


@pytest.mark.parametrize("seed", [11, 13, 36])
def test_verify_cones_passes_where_sampling_misses_a_thin_negative_cone(seed):
    # at these seeds one matrix (n = 5 at 11 and 13, n = 4 at 36) has a
    # Weitzenboeck matrix with a thin negative cone that neither sampled
    # oracle finds in its random generators; W's bottom eigenvector after the
    # random prefix is a witness both sampled readings flag
    n = 4 if seed == 36 else 5
    assert cone_oracle_disagreements(n, 120, seed + n, thm_samples=1500,
                                     direct_samples=4000) == 1
    assert cone_oracle_disagreements(n, 120, seed + n, thm_samples=1500,
                                     direct_samples=4000, witness=True) == 0
    rep = verify.run_suite("cones", seed=seed)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    assert all(c.tolerance == 0.0 for c in rep.checks if c.name.startswith("oracle"))


def test_perron_check_validates_its_input():
    for bad in (np.zeros((2, 3)), np.zeros((0, 0)), np.zeros(3), np.zeros((2, 2, 2)),
                np.eye(13)):
        with pytest.raises(UsageError):
            perron_criterion_check(bad, samples=100)
    for value in (np.nan, np.inf, -np.inf):
        m = np.eye(3)
        m[0, 1] = value
        with pytest.raises(DomainError):
            perron_criterion_check(m, samples=100)


def test_perron_check_memory_stays_block_sized():
    # about 4 MB traced at n = 12 and 100 000 samples: the full-length
    # pairings and verdicts plus one block's temporaries; full-length
    # temporaries take about 105 MB
    m = rng_from(15).standard_normal((12, 12))
    perron_criterion_check(m, samples=100)
    tracemalloc.start()
    try:
        perron_criterion_check(m, samples=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak / 2 ** 20
