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
from curvlab.cones import (Cone, _centred, _edm_rank3_of_centred, _faces, _perron_pass,
                           difference_form_pairings)
from curvlab.linalg import rng_from
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


def test_cone_min_reads_generator_rows_of_any_scale():
    # a row scaled by 1e200 or 1e-200 spans the same ray: cone_min finds the
    # same minimum with no overflow or underflow warning; rows in the normal
    # range keep their bits
    gens = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, -0.5], [0.3, 0.0, 1.0], [-1.0, 1.0, 1.0]])
    m = rng_from(17).standard_normal((3, 3))
    ref = cone_min(m, generator_cone(gens))
    for row in range(len(gens)):
        for scale in (1e200, 1e-200):
            scaled = gens.copy()
            scaled[row] *= scale
            cone = generator_cone(scaled)
            assert np.array_equal(np.delete(cone.generators, row, axis=0),
                                  np.delete(gens, row, axis=0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = cone_min(m, cone)
            assert res.value == pytest.approx(ref.value, rel=1e-12, abs=1e-12)
            assert_allclose(res.argmin, ref.argmin, atol=1e-12)


def test_cone_min_keeps_the_faces_of_generators_of_unequal_scale():
    # a face is kept or dropped by the conditioning of its unit rows, not by
    # the rows' lengths: rows scaled by up to 1e10, which generator_cone keeps
    # as given, span the same cone and give the same minimum
    m = np.array([[1.0, -2.0], [-2.0, 1.0]])
    for big in (1e5, 1e10):
        res = cone_min(m, generator_cone([[big, 0.0], [0.0, 1.0 / big]]))
        assert res.value == pytest.approx(-1.0, abs=1e-12)
        assert_allclose(res.argmin, [np.sqrt(0.5)] * 2, atol=1e-12)
    gens = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, -0.5], [0.3, 0.0, 1.0], [-1.0, 1.0, 1.0]])
    ms = rng_from(18).standard_normal((20, 3, 3))
    ref = cone_min(ms, generator_cone(gens))
    for scales in ([1e6, 1e-6, 1.0, 1.0], [1e-8, 1.0, 1e8, 1e-3]):
        res = cone_min(ms, generator_cone(gens * np.array(scales)[:, None]))
        assert_allclose(res.value, ref.value, rtol=1e-9, atol=1e-12)
        assert_allclose(res.argmin, ref.argmin, atol=1e-9)


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
    # the counterexample is the unit generator (1, -1) / sqrt(2) up to sign,
    # which pairs to -2 (v_0 - v_1)^2 = -4
    v = np.array(rep.details["counterexample"])
    assert_allclose(np.abs(v), np.sqrt(0.5), rtol=1e-15)
    assert v.sum() == pytest.approx(0.0, abs=1e-15)
    sigma = edm_from_vector(v).sigma
    assert float(np.sum(sigma * np.array([[0.0, -1.0], [-1.0, 0.0]]))) == pytest.approx(-4.0)
    assert rep.details["min_trace_pairing"] == pytest.approx(-4.0, rel=1e-15)

    with pytest.raises(UsageError):
        perron_criterion_check(np.eye(2), samples=10)


def test_oracle_equivalence_random_matrices():
    # the direct oracle pairs the check's own samples
    bad = 0
    for n in (3, 4):
        for k in range(60):
            m = rng_from(4, n, k).standard_normal((n, n))
            rep = perron_criterion_check(m, samples=800, seed=1000 + k)
            psd = dual_edm_test(m)
            vs = rng_from(1000 + k).standard_normal((800, n))
            traces_ok = bool(difference_form_pairings(vs, 0.5 * (m + m.T)).min() >= -1e-8)
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
        delta, q = (x.T for x in _edm_rank3_of_centred(_centred(vs), s))
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
    and the einsum trace on the same sample stream, and the verdicts from the
    least eigenpair of W on an SVD basis of the complement of 1, with the
    dense reference's criterion at that eigenvector, both formed from the
    off-diagonal part of the symmetric part."""
    s = 0.5 * (m + m.T)
    n = m.shape[0]
    vs = rng_from(seed).standard_normal((samples, n))
    delta, crit = sigma_eigh_reference(vs, s)
    delta1 = np.maximum(delta[:, 0], 1e-300)
    trace = np.einsum("aij,ij->a", (vs[:, :, None] - vs[:, None, :]) ** 2, s)
    crit_ok, trace_ok = crit >= -tol / delta1, trace >= -tol
    off = s - np.diag(np.diag(s))   # Sigma_v has a zero diagonal
    tau = tol * np.abs(weitzenbock(off)).max()
    lam, criterion = 0.0, True
    if n > 1:
        basis = np.linalg.svd(np.ones((1, n)))[2][1:].T
        vals, vecs = np.linalg.eigh(basis.T @ weitzenbock(off) @ basis)
        lam = float(vals[0])
        delta, crit = sigma_eigh_reference((basis @ vecs[:, :1]).T, off)
        criterion = bool(crit[0] >= -tau / delta[0, 0])
    dual = lam >= -tau
    return {"passed": bool(np.all(crit_ok == trace_ok)), "verdict_criterion": criterion,
            "verdict_dual_edm": dual, "agrees_with_dual": criterion == dual,
            "min_trace_pairing": lam}


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
    fields = ("passed", "verdict_criterion", "verdict_dual_edm", "agrees_with_dual")
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
            assert rep.details["min_trace_pairing"] == pytest.approx(
                ref.pop("min_trace_pairing"), abs=1e-13 * np.abs(m).max())
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


def planted_member(n, rng, least):
    """-P/2 plus an antisymmetric part, with P 1 = 0 and P's spectrum on the
    complement of 1 positive but for one eigenvalue, least: its Weitzenboeck
    matrix is P, so its least pairing with a unit generator is least."""
    basis = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, n - 1))]))[0]
    ev = 0.5 + np.abs(rng.standard_normal(n))
    ev[0] = 0.0
    ev[1] = least
    a = rng.standard_normal((n, n))
    return -0.5 * (basis * ev) @ basis.T + (a - a.T)


def cone_check_json(m, samples):
    """The text and the JSON report of cone-check on m."""
    text = ";".join(",".join(repr(float(x)) for x in row) for row in m)
    outs = []
    for fmt in ("text", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["cone-check", "--matrix", text, "--samples", str(samples),
                         "--format", fmt]) == 0
        outs.append(out.getvalue())
    return outs[0], json.loads(outs[1])


@pytest.mark.parametrize("samples", [1000, 100_000])
def test_cone_check_decides_a_thin_negative_cone_exactly(samples):
    # W is PSD on the complement of 1 but for one eigenvalue -1e-6: random
    # generators pair positive, the least eigenvector v* pairs to -1e-6
    m = planted_member(4, rng_from(17), -1e-6)
    text, payload = cone_check_json(m, samples)
    lines = dict(line.split(" = ") for line in text.splitlines())
    assert lines["dual EDM member"] == lines["perron criterion verdict"] == "False"
    details = payload["perron_criterion"]["details"]
    assert payload["perron_criterion"]["passed"] and details["agrees_with_dual"]
    tau = 1e-8 * np.abs(weitzenbock(m)).max()
    assert details["min_trace_pairing"] == pytest.approx(-1e-6, abs=tau)
    v = np.array(details["counterexample"])
    assert abs(v @ v - 1.0) <= 1e-15 and abs(v.sum()) <= 1e-15
    pairing = difference_form_pairings(v[None], 0.5 * (m + m.T))[0]
    assert pairing == pytest.approx(details["min_trace_pairing"], abs=tau)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_perron_verdicts_do_not_change_when_the_matrix_is_scaled(n):
    # 2^k I pairs to 0 with every Sigma_v; the planted matrix has a thin
    # negative cone.  Both verdicts, and their agreement, keep their k = 0
    # value, and the least pairing scales with the matrix
    for m in (np.eye(n), planted_member(n, rng_from(18, n), -1e-6)):
        ref = perron_criterion_check(m, samples=1000, seed=n).details
        assert ref["verdict_dual_edm"] == (m[0, 0] == 1.0)
        for k in (-40, 0, 20, 30, 60):
            got = perron_criterion_check(2.0 ** k * m, samples=1000, seed=n).details
            assert got["agrees_with_dual"], k
            assert (got["verdict_criterion"], got["verdict_dual_edm"]) == \
                (ref["verdict_criterion"], ref["verdict_dual_edm"]), k
            assert got["min_trace_pairing"] == pytest.approx(
                2.0 ** k * ref["min_trace_pairing"], rel=1e-9, abs=1e-15 * 2.0 ** k)


def test_a_diagonal_shift_changes_no_exact_verdict():
    # Sigma_v has a zero diagonal, so m + c I pairs as m does with every
    # generator: the exact report keeps every bit, and a large diagonal does
    # not widen the bound around lambda*
    for m in (np.array([[0.0, -1.0], [-1.0, 0.0]]), planted_member(4, rng_from(18, 4), -1e-6)):
        ref = perron_criterion_check(m, samples=100).details
        assert not ref["verdict_dual_edm"] and not ref["verdict_criterion"]
        for k in (-40, 0, 3, 20, 30, 60):
            for c in (2.0 ** k, -(2.0 ** k)):
                shifted = m + c * np.eye(len(m))
                assert perron_criterion_check(shifted, samples=100).details == ref, c
                assert not dual_edm_test(shifted), c
    # W = [[-2, 2], [2, -2]]: (1, -1) / sqrt(2) pairs to -4
    assert not dual_edm_test(np.array([[1e9, -1.0], [-1.0, 1e9]]))


@pytest.mark.parametrize("n", range(2, 9))
def test_least_pairing_is_read_on_the_complement_of_ones(n):
    # m = (J - n I) / 2 has W = n I - 1 1^T: every unit generator pairs to n,
    # above max|W| = n - 1, the eigenvalue a shift of W by max|W| puts on 1
    m = 0.5 * (np.ones((n, n)) - n * np.eye(n))
    assert_allclose(weitzenbock(m), n * np.eye(n) - 1.0)
    details = perron_criterion_check(m, samples=100).details
    assert details["min_trace_pairing"] == pytest.approx(n, rel=1e-14)
    assert details["verdict_dual_edm"] and details["verdict_criterion"]
    assert details["counterexample"] is None


def test_each_matrix_runs_one_symmetric_eigensolve(monkeypatch):
    # the exact verdicts, the counterexample and the witness row all read one
    # eigh of W on the complement of 1; n = 1 needs none
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _real=real, **kw: calls.append(1) or _real(*a, **kw))
    for n in range(1, 9):
        for m in (rng_from(19, n).standard_normal((n, n)), np.eye(n)):
            del calls[:]
            perron_criterion_check(m, samples=100)
            assert len(calls) == (n > 1), n
    for witness in (False, True):
        del calls[:]
        cone_oracle_disagreements(4, 6, 36, thm_samples=100, direct_samples=100,
                                  witness=witness)
        assert len(calls) == 6


# ---------------------------------------------------------------------------
# the blocked Perron pass and the oracles that share its stream

def sampled_fields(report):
    """The fields of a Perron report that its samples decide."""
    return {"passed": report.passed, "max_residual": report.max_residual,
            "witnesses": report.witnesses, "samples": report.details["samples"]}


def single_block_perron_check(m, samples, seed, tol=1e-8, tail=None):
    """The ``sampled_fields`` of perron_criterion_check with every sample,
    and the rows of tail after them, in one full-length block: the reference
    the blocked pass must equal bit for bit."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    s = 0.5 * (m + m.T)
    vs = rng_from(seed).standard_normal((samples, n))
    vs = vs if tail is None else np.vstack([vs, tail])
    delta, q = (x.T for x in _edm_rank3_of_centred(_centred(vs), s))
    delta1 = np.maximum(delta[:, :1], 1e-300)
    r = -delta[:, 1:] / delta1
    trace = difference_form_pairings(vs, s)
    crit = q[:, 0] - np.sum(r * q[:, 1:], axis=1)
    trace_ok = trace >= -tol
    crit_ok = crit >= -tol / delta1[:, 0]
    both = trace_ok == crit_ok
    witnesses = []
    max_resid = 0.0
    for a in np.nonzero(~both)[0][:5]:
        witnesses.append([["disagreement", int(a)], [float(trace[a]), 0.0],
                          [float(crit[a]), 0.0]])
        max_resid = max(max_resid, abs(float(trace[a])))
    return {"passed": bool(np.all(both)), "max_residual": max_resid, "witnesses": witnesses,
            "samples": len(vs)}


@pytest.mark.parametrize("n", range(1, 9))
def test_blocked_perron_check_keeps_the_bits(n):
    # a large diagonal pairs to 0 with every Sigma_v, so both readings are
    # rounding noise around -tol: disagreement witnesses.  The verdicts read
    # W's least eigenpair, so they do not depend on the samples or the seed
    seen = {"witness": False, "counterexample": False}
    for samples in (100, 1500, 2047, 2048, 2049, 4095, 4096, 4097, 10_000, 12_289):
        for seed in range(3):
            rng = rng_from(14, n, samples, seed)
            for m in (rng.standard_normal((n, n)), np.diag(1e8 * rng.standard_normal(n))):
                got = perron_criterion_check(m, samples=samples, seed=seed)
                ref = single_block_perron_check(m, samples, seed)
                assert json.dumps(sampled_fields(got)) == json.dumps(ref), (samples, seed)
                exact = perron_criterion_check(m, samples=100, seed=seed + 1).details
                assert got.details == {**exact, "samples": samples}
                seen["witness"] |= bool(ref["witnesses"])
                seen["counterexample"] |= got.details["counterexample"] is not None
    assert seen == {"witness": n > 1, "counterexample": n > 1}


def redraw_oracle_disagreements(n, count, seed, thm_samples, direct_samples, tol=1e-8):
    """cone_oracle_disagreements with the sampled oracles drawing and pairing
    their own copy of the stream: the reference for the shared pass."""
    bad = 0
    for k in range(count):
        m = rng_from(seed, n, k).standard_normal((n, n))
        sample_seed = (seed + 1) * 1_000_003 + 101 * n + k
        rep = perron_criterion_check(m, samples=thm_samples, seed=sample_seed)
        vs = rng_from(sample_seed).standard_normal((max(thm_samples, direct_samples), n))
        traces = difference_form_pairings(vs, 0.5 * (m + m.T))
        verdict_perron = bool(traces[:thm_samples].min() >= -tol)
        verdict_direct = bool(traces[:direct_samples].min() >= -tol)
        agree = (rep.details["verdict_dual_edm"] == verdict_perron == verdict_direct
                 and rep.passed)
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
    # with witness, a failing dual verdict puts v* after the samples as one
    # more block: the sampled fields equal the one-block reference on the
    # stream followed by v*, whose pairing is the least one, lambda*; the
    # samples before it and the verdicts are those of the pass without it
    m = rng_from(15).standard_normal((4, 4))
    for samples in (100, 1500, 2048, 4097):
        got, traces = _perron_pass(m, rng_from(samples), samples, witness=True)
        v = np.array(got.details["counterexample"])
        assert got.details["min_trace_pairing"] < -1e-3
        ref = single_block_perron_check(m, samples, samples, tail=v[None])
        assert json.dumps(sampled_fields(got)) == json.dumps(ref)
        assert traces.shape == (samples + 1,)
        assert traces[-1] == pytest.approx(got.details["min_trace_pairing"], rel=1e-12)
        plain, prefix = _perron_pass(m, rng_from(samples), samples)
        assert np.array_equal(prefix, traces[:-1])
        assert plain.details == {**got.details, "samples": samples}
    # a member gets no witness row
    got, traces = _perron_pass(np.eye(4), rng_from(0), 100, witness=True)
    assert got.details["verdict_dual_edm"] and traces.shape == (100,)


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


BAD_CONES = {
    "NaN row": (lambda: Cone("generators", 2, [[np.nan, 1.0], [0.0, 1.0]]), DomainError),
    "no rows": (lambda: Cone("generators", 2), UsageError),
    "zero row": (lambda: Cone("generators", 2, [[0.0, 0.0], [0.0, 1.0]]), UsageError),
    "rows of width 3": (lambda: Cone("generators", 2, np.eye(3)[:2]), UsageError),
    "unknown kind": (lambda: Cone("bogus", 2), UsageError),
    "orthant over MAX_DIM": (lambda: Cone("orthant", 13), UsageError),
    "rows for the orthant": (lambda: Cone("orthant", 2, np.eye(2)), UsageError),
    "fractional n": (lambda: Cone("monotone", 2.5), UsageError),
    "rows over MAX_DIM": (lambda: Cone("generators", 2, np.ones((13, 2))), UsageError),
}


@pytest.mark.parametrize("build, error", BAD_CONES.values(), ids=BAD_CONES.keys())
def test_a_hand_built_cone_is_checked_when_it_is_built(build, error):
    # the NaN row used to reach cone_min, which returned a minimum of -1.0
    with pytest.raises(error):
        build()


def test_a_hand_built_cone_holds_the_rows_generator_cone_makes():
    rows = [[2.0 ** 300, 1.0], [0.0, 1.0]]
    cone = Cone("generators", 2, rows)
    assert cone.generators.tolist() == [[0.5, 2.0 ** -301], [0.0, 1.0]]
    assert np.array_equal(cone.generators, generator_cone(rows).generators)
    assert not cone.generators.flags.writeable
    # the bits of this minimum before cones checked themselves
    res = cone_min(np.array([[0.5, -1.25], [0.75, 1.0]]), cone)
    assert res.value == float.fromhex("0x1.95f619980c433p-2")
    assert [x.hex() for x in res.argmin] == ["0x1.d906bcf328d46p-1", "0x1.87de2a6aea963p-2"]
    assert np.array_equal(nonneg_orthant(3).generators, np.eye(3))
    assert np.array_equal(monotone_nonneg(3).generators, np.tril(np.ones((3, 3))))
    assert full_cone(3).generators is None
