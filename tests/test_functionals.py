import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvlab import (ConstAlteredHBC, ConstAlteredRBC, ConstHSC, FunctionalKind,
                     UsageError, bisectional, constant_identity_check, evaluate,
                     hsc, kahler_constant, matrices_from, paper_hopf,
                     paper_tricerri, random_tensor, rayleigh_bounds, ricci_qobc_bounds,
                     skew_pair, weitzenbock)
from curvlab import functionals, reports
from curvlab.cones import perron_criterion_check
from curvlab.curvature import ChernTensor, FRAME, curvature_from_jet, to_frame
from curvlab.functionals import (CurvatureMatrices, _moment_cubature, _report, _rule_moments,
                                 moment_target)
from curvlab.linalg import rng_from
from curvlab.reports import IdentityReport
from curvlab.metrics import fubini_study, jet_at
from curvlab import transform_frame
from curvlab.linalg import haar_from_rng


def fs_tensor(n=2):
    return to_frame(curvature_from_jet(jet_at(fubini_study(n), np.zeros(n))))


def zero_tensor(n=2):
    return ChernTensor(values=np.zeros((n, n, n, n), dtype=complex), basis=FRAME)


# ---------------------------------------------------------------------------
# matrices and pointwise functionals

def test_matrices_from_examples():
    m = matrices_from(paper_hopf([1.0, 0.0]))
    assert_allclose(m.rbc, [[0.0, 0.0], [4.0, 4.0]])
    assert_allclose(m.altered, np.diag([0.0, 4.0]))
    assert m.imag_residual == 0.0

    mk = matrices_from(kahler_constant(2.0, 2))
    assert_allclose(mk.rbc, [[2.0, 1.0], [1.0, 2.0]])
    assert_allclose(mk.altered, [[2.0, 1.0], [1.0, 2.0]])

    mz = matrices_from(zero_tensor())
    assert np.all(mz.rbc == 0) and np.all(mz.altered == 0)


def test_matrices_diagonals_agree():
    m = matrices_from(random_tensor(2, 4))
    assert_allclose(np.diag(m.rbc), np.diag(m.altered), atol=1e-14)


def test_hsc_examples():
    rng = rng_from(1)
    for _ in range(20):
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert hsc(kahler_constant(-1.2, 3), w) == pytest.approx(-1.2)
    assert hsc(fs_tensor(), np.array([1, 0], complex)) == pytest.approx(2.0)
    # paper hopf: hsc(e2) = 4 |z1|^2 / |z|^6
    assert hsc(paper_hopf([1.0, 0.0]), np.array([0, 1], complex)) == pytest.approx(4.0)
    z = np.array([0.5, 1.0 - 0.5j])
    rho = float(np.sum(np.abs(z) ** 2))
    assert hsc(paper_hopf(z), np.array([0, 1], complex)) == pytest.approx(
        4.0 * abs(z[0]) ** 2 / rho ** 3)


def test_hsc_scale_invariant_and_zero_vector():
    t = random_tensor(9, 3)
    rng = rng_from(2)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert hsc(t, 3.7j * w) == pytest.approx(hsc(t, w))
    with pytest.raises(UsageError):
        hsc(t, np.zeros(3))


def test_bisectional_examples():
    e1 = np.array([1, 0], complex)
    e2 = np.array([0, 1], complex)
    assert bisectional(kahler_constant(1.5, 2), e1, e1) == pytest.approx(3.0)
    assert bisectional(paper_hopf([1.0, 0.0]), e1, e2) == pytest.approx(4.0)
    t = random_tensor(12, 3)
    rng = rng_from(3)
    for _ in range(100):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert bisectional(t, x, y) == pytest.approx(bisectional(t, y, x))


def test_bisectional_variants_at_basis_vectors():
    # at basis vectors e_a, e_g the single-term form is Re R[a,a,g,g], and
    # the altered form adds Re R[g,g,a,a]
    t = random_tensor(13, 3)
    r = t.values
    e = np.eye(3, dtype=complex)
    for a, g in itertools.product(range(3), repeat=2):
        assert bisectional(t, e[a], e[g], altered=False) == r[a, a, g, g].real
        assert bisectional(t, e[a], e[g]) == (r[a, a, g, g] + r[g, g, a, a]).real
    # the single-term form is not symmetric in the pair
    assert bisectional(t, e[0], e[1], altered=False) != bisectional(t, e[1], e[0], altered=False)


def test_evaluate_examples():
    m = matrices_from(paper_hopf([1.0, 0.0]))
    v = np.array([-1.0, 1.0]) / np.sqrt(2.0)
    assert evaluate(FunctionalKind.QOBC, m, v) == pytest.approx(8.0)

    ms = matrices_from(skew_pair(2.0, 3, seed=4))
    rng = rng_from(4)
    for _ in range(50):
        v = rng.standard_normal(3)
        assert evaluate(FunctionalKind.RBC, ms, v) == pytest.approx(
            1.0 * np.sum(v) ** 2 / (v @ v))

    m11 = matrices_from(paper_hopf([1.0, 1.0]))
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert evaluate(FunctionalKind.ALTERED_HSC, m11, v) == pytest.approx(1.5)


def test_evaluate_errors():
    m = matrices_from(zero_tensor())
    with pytest.raises(UsageError):
        evaluate(FunctionalKind.HSC, m, np.array([1.0, 0.0]))
    with pytest.raises(UsageError):
        evaluate(FunctionalKind.RBC, m, np.zeros(2))


QUAD_KINDS = [k for k in FunctionalKind if k is not FunctionalKind.HSC]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_evaluate_and_hsc_on_stacks_match_single_calls(n):
    rng = rng_from(40 + n)
    tensors = [random_tensor(60 + n + k, n) for k in range(4)]
    single = [matrices_from(t) for t in tensors]
    stacked = CurvatureMatrices.from_slices(np.stack([m.rbc for m in single]),
                                            np.stack([m.altered for m in single]))
    vs = rng.standard_normal((4, 6, n))
    for kind in QUAD_KINDS:
        scale = 4.0 * max(np.abs(m.rbc).max() + np.abs(m.altered).max() for m in single)
        ref = np.array([[evaluate(kind, m, v) for v in row] for m, row in zip(single, vs)])
        # a stack of vectors on one matrix pair, and matrices against vectors
        got_rows = np.array([evaluate(kind, m, row) for m, row in zip(single, vs)])
        got_all = evaluate(kind, CurvatureMatrices.from_slices(stacked.rbc[:, None],
                                                               stacked.altered[:, None]), vs)
        got_one = evaluate(kind, stacked, vs[:, 0])
        assert got_all.shape == (4, 6) and got_one.shape == (4,)
        assert np.abs(got_rows - ref).max() <= 1e-15 * scale
        assert np.abs(got_all - ref).max() <= 1e-15 * scale
        assert np.abs(got_one - ref[:, 0]).max() <= 1e-15 * scale
        assert isinstance(evaluate(kind, single[0], vs[0, 0]), float)
    ws = rng.standard_normal((3, 5, n)) + 1j * rng.standard_normal((3, 5, n))
    for t in tensors:
        ref = np.array([[hsc(t, w) for w in row] for row in ws])
        got = hsc(t, ws)
        assert got.shape == (3, 5)
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(t.values).max() * n ** 4
        assert isinstance(hsc(t, ws[0, 0]), float)


def test_stacked_functionals_reject_bad_rows():
    t = random_tensor(3, 3)
    m = matrices_from(t)
    vs = np.ones((4, 3))
    vs[2] = 0.0
    with pytest.raises(UsageError):
        evaluate(FunctionalKind.RBC, m, vs)
    with pytest.raises(UsageError):
        evaluate(FunctionalKind.QOBC, m, vs[None])
    with pytest.raises(UsageError):
        hsc(t, vs.astype(complex))
    for bad in (np.ones((4, 2)), np.ones(4), np.ones((2, 0))):
        with pytest.raises(UsageError):
            evaluate(FunctionalKind.ALTERED_HSC, m, bad)
        with pytest.raises(UsageError):
            hsc(t, bad)
    # leading axes that do not broadcast against the stacked matrices
    stacked = CurvatureMatrices.from_slices(np.stack([m.rbc] * 3), np.stack([m.altered] * 3))
    with pytest.raises(UsageError):
        evaluate(FunctionalKind.RBC, stacked, np.ones((4, 3)))
    with pytest.raises(UsageError):
        hsc(t, 1.0 + 0j)
    with pytest.raises(UsageError):
        bisectional(t, np.ones((2, 3)), np.ones(3))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_values_depend_only_on_the_direction(n):
    # every row is scaled by a power of two before the quotient, so a tiny
    # or huge multiple of a vector gives the same bits, where |v|^2 alone
    # would underflow (2**-600) or overflow (2**600)
    rng = rng_from(70 + n)
    t = random_tensor(71 + n, n)
    m = matrices_from(t)
    v = rng.standard_normal((5, n))
    w = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    for scale in (2.0 ** -600, 2.0 ** 600):
        for kind in QUAD_KINDS:
            assert np.array_equal(evaluate(kind, m, scale * v), evaluate(kind, m, v))
        assert np.array_equal(hsc(t, scale * w), hsc(t, w))
        assert bisectional(t, scale * w[0], w[1]) == bisectional(t, w[0], w[1])
    # a scale that is not a power of two moves the vector, not the direction
    assert_allclose(evaluate("qobc", m, 1e-200 * v), evaluate("qobc", m, v),
                    rtol=1e-13, atol=1e-13 * np.abs(m.rbc).max())
    # single vectors keep the bits of the parent's unscaled arithmetic
    u = rng.standard_normal(n)
    row, col = u[None], u[:, None]
    assert evaluate("rbc", m, u) == (row @ m.rbc @ col)[0, 0] / (row @ col)[0, 0]


def test_non_finite_vectors_are_usage_errors():
    t = random_tensor(3, 2)
    m = matrices_from(t)
    for bad in ([np.inf, 0.0], [np.nan, 1.0], [[1.0, 1.0], [1.0, -np.inf]]):
        with pytest.raises(UsageError, match="finite entries"):
            evaluate("rbc", m, bad)
        with pytest.raises(UsageError, match="finite entries"):
            hsc(t, np.asarray(bad, dtype=complex))
    with pytest.raises(UsageError, match="finite entries"):
        hsc(t, [1.0, complex(0.0, np.nan)])
    with pytest.raises(UsageError, match="finite entries"):
        bisectional(t, [1.0, 0.0], [np.inf, 1.0])


def test_rayleigh_bounds_examples():
    lo, hi = rayleigh_bounds(np.array([[0.0, 0.0], [4.0, 4.0]]))
    assert (lo, hi) == (pytest.approx(2 - 2 * np.sqrt(2)), pytest.approx(2 + 2 * np.sqrt(2)))
    assert rayleigh_bounds(np.eye(3)) == (pytest.approx(1.0), pytest.approx(1.0))
    lo, hi = rayleigh_bounds(matrices_from(paper_tricerri(1.0, 0.0, 1.0)).rbc)
    assert (lo, hi) == (pytest.approx(-0.75), pytest.approx(0.75))


def test_rayleigh_bracketing_over_random_vectors():
    rng = rng_from(6)
    m = rng.standard_normal((4, 4))
    lo, hi = rayleigh_bounds(m)
    sym = 0.5 * (m + m.T)
    for _ in range(1000):
        v = rng.standard_normal(4)
        q = float(v @ sym @ v / (v @ v))
        assert lo - 1e-12 <= q <= hi + 1e-12


def test_weitzenbock_examples():
    assert np.all(weitzenbock(np.eye(2)) == 0)
    assert_allclose(weitzenbock(np.array([[0.0, 1.0], [1.0, 0.0]])),
                    [[2.0, -2.0], [-2.0, 2.0]])
    w = weitzenbock(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert_allclose(w, [[-2.0, 2.0], [2.0, -2.0]])
    assert np.linalg.eigvalsh(w)[0] < 0
    m = matrices_from(paper_hopf([1.0, 0.0])).rbc
    assert_allclose(weitzenbock(m), [[4.0, -4.0], [-4.0, 4.0]])


def test_weitzenbock_reproduces_difference_form():
    rng = rng_from(7)
    m = rng.standard_normal((5, 5))
    w = weitzenbock(m)
    for _ in range(1000):
        v = rng.standard_normal(5)
        direct = float(np.sum(m * (v[:, None] - v[None, :]) ** 2))
        assert direct == pytest.approx(float(v @ w @ v), rel=1e-10, abs=1e-10)


def test_qobc_vanishes_on_constant_vectors():
    for k in range(20):
        m = matrices_from(random_tensor(100 + k, 3))
        assert evaluate(FunctionalKind.QOBC, m, np.ones(3)) == 0.0


def test_altered_hsc_additivity():
    rng = rng_from(8)
    for k in range(100):
        m = matrices_from(random_tensor(200 + k, 3))
        v = rng.standard_normal(3)
        combined = evaluate(FunctionalKind.ALTERED_HSC, m, v)
        split = (evaluate(FunctionalKind.RBC, m, v)
                 + evaluate(FunctionalKind.ALTERED_RBC, m, v))
        assert combined == pytest.approx(split, abs=1e-12)


def test_diagonal_agreement_hsc_rbc_altered():
    for k in range(50):
        t = random_tensor(300 + k, 3)
        m = matrices_from(t)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = 1.0
            r = evaluate(FunctionalKind.RBC, m, e)
            assert hsc(t, e.astype(complex)) == pytest.approx(r, abs=1e-12)
            assert evaluate(FunctionalKind.ALTERED_RBC, m, e) == pytest.approx(r, abs=1e-12)


# ---------------------------------------------------------------------------
# constant-curvature identities

def test_const_hsc_on_kahler_constant_and_fs():
    rep = constant_identity_check(kahler_constant(2.0, 3), ConstHSC(2.0))
    assert rep.passed and rep.max_residual < 1e-12
    rep_fs = constant_identity_check(fs_tensor(), ConstHSC(2.0))
    assert rep_fs.passed


def test_const_hsc_detects_violation():
    rep = constant_identity_check(paper_hopf([1.0, 0.0]), ConstHSC(2.0))
    assert not rep.passed
    assert rep.max_residual > 0.1


def test_const_altered_hbc_on_skew_pair():
    rep = constant_identity_check(skew_pair(3.0, 3, seed=7), ConstAlteredHBC(3.0))
    assert rep.passed and rep.max_residual < 1e-10


def test_const_altered_rbc_on_scaled_skew_pair():
    # skew_pair(2c) satisfies the pair-sum relations with constant 2c, i.e.
    # the altered quadratic form is constant c across frames
    rep = constant_identity_check(skew_pair(4.0, 3, seed=9), ConstAlteredRBC(2.0))
    assert rep.passed and rep.max_residual < 1e-10


def random_hermitian(n, rng):
    """(Z + Z^H) / 2 for a complex Gaussian Z, real block then imaginary."""
    g = rng.standard_normal((2, n, n))
    z = g[0] + 1j * g[1]
    return 0.5 * (z + z.conj().T)


def reference_identity_rows(tensor, hypothesis, tol=1e-10, seed=0, samples=100):
    """Sampled reference for constant_identity_check: every residual row as
    (label, lhs, rhs, residual, weight), drawn and evaluated one sample at a
    time.  A row evaluates one of the exact check's matrix equalities
    lhs - rhs = D at a sample, and weight bounds it: |row| <= weight max|D|.
    A quadratic form at a unit direction is at most n max|D|, hsc at most
    n^2 max|D|, and a trace identity at a Hermitian x = sum c_i B_i at most
    (sum |c_i|)^2 max|D| <= n^2 |x|_F^2 max|D|."""
    rng = rng_from(seed)
    r, n, c = tensor.values, tensor.n, hypothesis.c
    rows = []

    def pair_sums(target):
        s = r + r.transpose(2, 3, 0, 1)
        for idx in np.ndindex(n, n, n, n):
            rows.append((list(idx), s[idx], target[idx], abs(s[idx] - target[idx]), 1.0))

    eye = np.eye(n)
    dd = np.einsum("ij,kl->ijkl", eye, eye)
    m = matrices_from(tensor)
    if isinstance(hypothesis, ConstHSC):
        for i in range(n):
            rows.append(([i] * 4, r[i, i, i, i], c, abs(r[i, i, i, i] - c), 1.0))
        for i in range(n):
            for k in range(n):
                if i != k:
                    lhs = r[i, i, k, k] + r[k, i, i, k] + r[i, k, k, i] + r[k, k, i, i]
                    rows.append(([i, k], lhs, 2 * c, abs(lhs - 2 * c), 1.0))
        for s in range(samples):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            lhs = v @ (m.rbc + m.altered) @ v
            rhs = c * (1.0 + np.sum(v) ** 2)
            rows.append((["altered_hsc", s], lhs, rhs, abs(lhs - rhs), n))
        for s in range(samples):
            x = random_hermitian(n, rng)
            lhs = np.einsum("klst,kl,st->", r, x, x) + np.einsum("klst,kt,sl->", r, x, x)
            rhs = c * (np.trace(x) ** 2 + np.trace(x @ x))
            rows.append((["trace_identity", s], lhs, rhs, abs(lhs - rhs),
                         n * n * np.sum(np.abs(x) ** 2)))
    elif isinstance(hypothesis, ConstAlteredRBC):
        pair_sums(2 * c * dd)
        for s in range(samples):
            x = random_hermitian(n, rng)
            lhs = np.einsum("klst,kt,sl->", r, x, x)
            rhs = c * np.trace(x @ x)
            rows.append((["trace_identity", s], lhs, rhs, abs(lhs - rhs),
                         n * n * np.sum(np.abs(x) ** 2)))
        for s in range(samples):
            v = rng.standard_normal(n)
            lhs = v @ m.rbc @ v / (v @ v)
            rhs = c * np.sum(v) ** 2 / (v @ v)
            rows.append((["rbc_closed_form", s], lhs, rhs, abs(lhs - rhs), n))
    else:
        pair_sums(c * dd)
        half = 0.5 * c
        for s in range(samples):
            v = rng.standard_normal(n)
            lhs = v @ m.rbc @ v / (v @ v)
            rhs = half * np.sum(v) ** 2 / (v @ v)
            rows.append((["rbc_closed_form", s], lhs, rhs, abs(lhs - rhs), n))
            if abs(lhs) > abs(half) * n + tol:
                rows.append((["rbc_bound", s], abs(lhs), abs(half) * n,
                             abs(lhs) - abs(half) * n, 1.0))
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            h = np.einsum("ijkl,i,j,k,l->", r, w, np.conj(w), w, np.conj(w)).real
            h /= np.sum(np.abs(w) ** 2) ** 2
            rows.append((["hsc_constant", s], h, half, abs(h - half), n * n))
            alt = v @ m.altered @ v / (v @ v)
            rows.append((["altered_rbc_constant", s], alt, half, abs(alt - half), n))
    return rows


def coherent_pair_sums(c, eps, n):
    """(c/2) d_ij d_kl + (eps/2) a_i conj(a_j) a_k conj(a_l) for unit-modulus
    a with distinct phases: the pair sums are off by eps a_i conj(a_j) a_k
    conj(a_l), so hsc - c/2 = (eps/2) |a . w|^4 / |w|^4 ranges up to
    eps n^2 / 2, the hsc rows lead the ConstAlteredHBC(c) witnesses, and
    hsc(conj w) differs from hsc(w)."""
    eye = np.eye(n)
    a = np.exp(1j * np.arange(1, n + 1))
    vals = (0.5 * c * np.einsum("ij,kl->ijkl", eye, eye)
            + 0.5 * eps * np.einsum("i,j,k,l->ijkl", a, np.conj(a), a, np.conj(a)))
    return ChernTensor(values=vals, basis=FRAME)


IDENTITY_CASES = [
    # (tensor, hypothesis): each hypothesis on a tensor that meets it and on
    # tensors that break it
    (lambda n: kahler_constant(2.0, n), ConstHSC(2.0)),
    (lambda n: random_tensor(5, n), ConstHSC(1.0)),
    (lambda n: skew_pair(5.0, n, seed=11), ConstAlteredRBC(2.5)),
    (lambda n: random_tensor(6, n), ConstAlteredRBC(-0.5)),
    (lambda n: kahler_constant(2.0, n), ConstAlteredRBC(1.0)),
    (lambda n: skew_pair(3.0, n, seed=7), ConstAlteredHBC(3.0)),
    (lambda n: random_tensor(7, n), ConstAlteredHBC(-1.0)),
    (lambda n: skew_pair(3.0, n, seed=7), ConstAlteredHBC(0.2)),
    (lambda n: coherent_pair_sums(2.0, 0.1, n), ConstAlteredHBC(2.0)),
]


@pytest.mark.parametrize("case", range(len(IDENTITY_CASES)))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_constant_identity_check_matches_per_sample_reference(case, n):
    # the exact check and the sampled reference give the same verdict, and
    # every sampled row stays within its weight times the exact residual,
    # up to the rounding of its own sums
    build, hypothesis = IDENTITY_CASES[case]
    tensor = build(n)
    rep = constant_identity_check(tensor, hypothesis)
    scale = max(1.0, abs(hypothesis.c), float(np.abs(tensor.values).max()))
    for seed in (0, 3):
        rows = reference_identity_rows(tensor, hypothesis, seed=seed, samples=60)
        assert rep.passed == (max(float(row[3]) for row in rows) <= 1e-10)
        for label, _, _, res, weight in rows:
            assert res <= weight * (rep.max_residual + 64 * np.finfo(float).eps * scale), label


def identity_residuals(monkeypatch, tensor, hypothesis):
    """The largest residual of each identity of constant_identity_check, by
    name ("index" for the rows labelled by indices alone)."""
    seen = {}

    def spy(name, rows, tol, details=None):
        for label, _, _, res in rows:
            key = label(0)[0] if isinstance(label(0)[0], str) else "index"
            seen[key] = max(seen.get(key, 0.0), float(np.max(res)))
        return report(name, rows, tol, details)

    report = functionals._report
    monkeypatch.setattr(functionals, "_report", spy)
    rep = constant_identity_check(tensor, hypothesis)
    monkeypatch.setattr(functionals, "_report", report)
    return rep, seen


PERTURBATIONS = [
    # (tensor meeting the hypothesis, hypothesis, entry, identity it breaks)
    (lambda: kahler_constant(2.0, 3), ConstHSC(2.0), (0, 0, 1, 1), "altered_hsc"),
    # R[0,1,0,1] is in no rbc, altered, diagonal or four-term entry
    (lambda: kahler_constant(2.0, 3), ConstHSC(2.0), (0, 1, 0, 1), "trace_identity"),
    (lambda: skew_pair(4.0, 3, seed=9), ConstAlteredRBC(2.0), (0, 1, 1, 0), "trace_identity"),
    (lambda: skew_pair(4.0, 3, seed=9), ConstAlteredRBC(2.0), (0, 0, 1, 1), "rbc_closed_form"),
    (lambda: skew_pair(3.0, 3, seed=7), ConstAlteredHBC(3.0), (0, 0, 1, 1), "rbc_closed_form"),
    (lambda: skew_pair(3.0, 3, seed=7), ConstAlteredHBC(3.0), (0, 0, 0, 0), "rbc_bound"),
    (lambda: skew_pair(3.0, 3, seed=7), ConstAlteredHBC(3.0), (0, 1, 0, 1), "hsc_constant"),
    (lambda: skew_pair(3.0, 3, seed=7), ConstAlteredHBC(3.0), (0, 1, 1, 0),
     "altered_rbc_constant"),
]


@pytest.mark.parametrize("build, hypothesis, entry, name", PERTURBATIONS,
                         ids=[f"{type(h).__name__}-{name}" for _, h, _, name in PERTURBATIONS])
def test_one_entry_perturbation_fails_its_identity(monkeypatch, build, hypothesis, entry, name):
    tensor = build()
    rep, seen = identity_residuals(monkeypatch, tensor, hypothesis)
    assert rep.passed and max(seen.values()) <= 1e-14
    assert name in seen
    vals = tensor.values.copy()
    vals[entry] += 0.5
    rep, seen = identity_residuals(monkeypatch, ChernTensor(values=vals, basis=FRAME),
                                   hypothesis)
    assert not rep.passed and seen[name] > 0.1


def test_unknown_hypothesis_is_a_usage_error():
    # the type decides before the hypothesis's constant is read
    for bad in (None, 2.0, "ConstHSC"):
        with pytest.raises(UsageError, match="unknown hypothesis"):
            constant_identity_check(kahler_constant(2.0, 2), bad)


def test_report_witnesses_keep_row_order_on_ties():
    # many tied residuals: the witnesses are the first rows of the largest
    # value, as a stable sort over the rows gives them
    rng = rng_from(31)
    for _ in range(5):
        res = rng.integers(0, 3, 200).astype(float)
        rows = [(lambda j: ["a", j], 0.0, 0.0, res[:120]),
                (lambda j: ["b", j], 0.0, 0.0, res[120:])]
        rep = _report("ties", rows, 1.0)
        ranked = sorted(range(200), key=lambda i: -res[i])[:5]
        assert [w[0] for w in rep.witnesses] == [["a", i] if i < 120 else ["b", i - 120]
                                                 for i in ranked]
        assert rep.max_residual == 2.0 and rep.passed is False


def test_identity_reports_round_trip_through_json():
    t3 = kahler_constant(2.0, 3)
    checks = [constant_identity_check(t3, ConstHSC(2.0)),
              constant_identity_check(random_tensor(2, 3), ConstHSC(2.0)),
              constant_identity_check(skew_pair(5.0, 4, seed=11), ConstAlteredRBC(2.5)),
              constant_identity_check(skew_pair(3.0, 3, seed=7), ConstAlteredHBC(3.0)),
              constant_identity_check(random_tensor(4, 3), ConstAlteredHBC(1.0)),
              ricci_qobc_bounds(paper_hopf([1.0, 0.0])),
              ricci_qobc_bounds(random_tensor(5, 3)),
              perron_criterion_check(np.array([[0.0, -1.0], [-1.0, 0.0]]), samples=150),
              perron_criterion_check(np.eye(3), samples=150)]
    for rep in checks:
        assert type(rep.passed) is bool and type(rep.max_residual) is float
        text = reports.dumps(rep)
        assert IdentityReport.from_dict(json.loads(text)) == rep
        assert reports.dumps(IdentityReport.from_dict(json.loads(text))) == text


def test_cross_sign_both_directions():
    rng = rng_from(10)
    for c in (2.0, -1.0):
        t = skew_pair(2.0 * c, 3, seed=21)
        m = matrices_from(t)
        for _ in range(200):
            v = rng.standard_normal(3)
            assert evaluate(FunctionalKind.RBC, m, v) * c >= -1e-12

    # converse: constant plain form forces the sign of the altered form
    def constant_rbc_tensor(c, n, seed):
        vals = np.zeros((n, n, n, n), dtype=complex)
        s = rng_from(seed).standard_normal((n, n))
        t_skew = 0.5 * (s - s.T)
        for i in range(n):
            for k in range(n):
                vals[i, k, k, i] = c
                if i != k:
                    vals[i, i, k, k] = t_skew[i, k]
        return ChernTensor(values=vals, basis=FRAME)

    for c in (1.0, -0.5):
        t = constant_rbc_tensor(c, 3, seed=22)
        m = matrices_from(t)
        for _ in range(200):
            v = rng.standard_normal(3)
            assert evaluate(FunctionalKind.RBC, m, v) == pytest.approx(c)
            assert evaluate(FunctionalKind.ALTERED_RBC, m, v) * c >= -1e-12


def test_negative_pair_sums_control_orthant_form():
    # pair sums <= -delta and diagonal <= -delta/2 force the squared-weight
    # form below -(delta/2)(sum v_i^2)^2
    delta = 1.3
    rng = rng_from(11)
    t = skew_pair(-delta, 4, seed=23)
    u = np.abs(rng.standard_normal((4, 4)))
    u = 0.5 * (u + u.T)
    vals = t.values.copy()
    for i in range(4):
        for j in range(4):
            vals[i, i, j, j] -= u[i, j]
    t2 = ChernTensor(values=vals, basis=FRAME)
    for tensor in (t, t2):
        r = tensor.values
        for _ in range(1000):
            v = rng.standard_normal(4)
            s2 = v ** 2
            lhs = float(np.real(np.einsum("iijj,i,j->", r, s2, s2)))
            assert lhs <= -0.5 * delta * float(s2.sum()) ** 2 + 1e-10


# ---------------------------------------------------------------------------
# Ricci inequalities and moments

def test_ricci_qobc_bounds_examples():
    rep = ricci_qobc_bounds(paper_hopf([1.0, 0.0]))
    assert rep.passed
    margins = dict((name, val) for name, val in rep.details["margins"])
    assert margins["ric12_pair[0,1]"] == pytest.approx(16.0)
    assert margins["scal_bound"] == pytest.approx(8.0)
    assert rep.details["qobc_nonneg"]

    rep_fs = ricci_qobc_bounds(fs_tensor())
    assert rep_fs.passed
    fs_margins = dict((name, val) for name, val in rep_fs.details["margins"])
    assert fs_margins["scal_bound"] == pytest.approx(4.0)  # 6 - 2/(n-1)

    rep_zero = ricci_qobc_bounds(zero_tensor(3))
    assert rep_zero.passed and rep_zero.max_residual == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_moment_cubature_is_exact(n):
    nodes, weights = _moment_cubature(n)
    assert nodes.shape == (3 ** (n - 1) * n * (n + 1) // 2, n)
    assert weights.shape == nodes.shape[:1]
    assert abs(weights.sum() - 1.0) <= 1e-15
    assert_allclose(np.linalg.norm(nodes, axis=1), 1.0, rtol=1e-15)
    assert np.abs(_rule_moments(nodes, weights) - moment_target(n)).max() <= 1e-15
    assert _moment_cubature(n) is _moment_cubature(n)
    assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("n", [2, 3])
def test_two_phase_rule_misses_the_moments(n):
    # phases +-1 alias frequency 2 onto 0: E[z_1^2 conj(z_2)^2] comes out
    # nonzero, so a wrong rule fails the 1e-12 check by a wide margin
    nodes, weights = _moment_cubature(n)
    k = 3 ** (n - 1)   # nodes per simplex point
    s = np.abs(nodes[::k]) ** 2
    phases = np.array([(1.0,) + p for p in itertools.product((1.0, -1.0), repeat=n - 1)])
    two = (np.sqrt(s)[:, None, :] * phases[None, :, :]).reshape(-1, n)
    w = np.repeat(k * weights[::k] / len(phases), len(phases))
    assert abs(w.sum() - 1.0) <= 1e-15
    assert np.abs(_rule_moments(two, w) - moment_target(n)).max() > 1e-3


def test_moment_target_values():
    tgt = moment_target(2)
    assert tgt[0, 0, 0, 0] == pytest.approx(1.0 / 3.0)
    assert tgt[0, 0, 1, 1] == pytest.approx(1.0 / 6.0)
    assert tgt[0, 1, 1, 1] == 0.0


def test_symmetrized_hsc_matches_sphere_average():
    # contracting the tensor against fourth moments of the sphere reproduces
    # the squared-weight altered sectional form
    rng = rng_from(12)
    for k in range(3):
        t = random_tensor(400 + k, 2)
        m = matrices_from(t)
        tau = rng.standard_normal(2)
        n_samp = 200_000
        w = rng.standard_normal((n_samp, 2)) + 1j * rng.standard_normal((n_samp, 2))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        v = w * tau
        summand = np.einsum("ijkl,ai,aj,ak,al->a", t.values, v, np.conj(v), v, np.conj(v))
        mc = summand.mean()
        se = summand.std(ddof=1) / np.sqrt(n_samp)
        tau2 = tau ** 2
        target = float(tau2 @ (m.rbc + m.altered) @ tau2) / 6.0  # n (n+1) = 6
        assert abs(mc.real - target) <= 3.0 * se + 1e-12
        assert abs(mc.imag) <= 3.0 * se + 1e-12


def test_stacked_matrices_from_equals_single_calls_bit_for_bit():
    t = random_tensor(3, 4)
    for convention in ("full", "adjoint"):
        moved = transform_frame(t, haar_from_rng(4, rng_from(1), 5), convention)
        stacked = matrices_from(moved)
        assert stacked.rbc.shape == stacked.altered.shape == (5, 4, 4)
        for i, single in enumerate(moved):
            m = matrices_from(single)
            assert np.array_equal(stacked.rbc[i], m.rbc)
            assert np.array_equal(stacked.altered[i], m.altered)
    coord = ChernTensor(values=t.values, basis="coordinate", metric=np.eye(4))
    with pytest.raises(UsageError, match="matrices_from"):
        matrices_from([t, coord])
