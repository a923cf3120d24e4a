import numpy as np
import pytest
from numpy.testing import assert_allclose

import dataclasses
import pathlib
import re

from curvlab import DomainError, Tolerances, cholesky_frame, rayleigh_bounds
from curvlab.linalg import haar_from_rng, rng_from, unitary_residual


# the spectra of quadratic forms: rayleigh_bounds calls LAPACK's eigh on the
# symmetric part, with its input checked where it enters

def test_eigen_identity():
    assert rayleigh_bounds(np.eye(3)) == (1.0, 1.0)


def test_eigen_offdiagonal_swap():
    assert_allclose(rayleigh_bounds(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0],
                    atol=1e-14)


def test_eigen_hopf_altered_sectional_matrix():
    # symmetric part of the combined quadratic-form matrix at z = (1, 0)
    bounds = rayleigh_bounds(np.array([[0.0, 2.0], [2.0, 8.0]]))
    root5 = np.sqrt(5.0)
    assert_allclose(bounds, [4.0 - 2.0 * root5, 4.0 + 2.0 * root5], atol=1e-12)
    # matches (2/|z|^6)(2|z|^2 -+ sqrt(5|z1|^4 - 6|z1|^2|z2|^2 + 5|z2|^4)) at (1,0)
    assert_allclose(bounds, [2.0 * (2.0 - root5), 2.0 * (2.0 + root5)], atol=1e-12)


def test_eigen_rejects_nonfinite():
    with pytest.raises(DomainError, match="matrix contains NaN or Inf"):
        rayleigh_bounds(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DomainError, match="matrix contains NaN or Inf"):
        rayleigh_bounds(np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, np.inf], [0.0, 1.0]]]))


def test_eigen_reads_the_symmetric_part():
    assert_allclose(rayleigh_bounds(np.array([[0.0, 1.0], [0.0, 0.0]])), [-0.5, 0.5],
                    atol=1e-14)
    # an asymmetric stack: each pair of bounds is that of its symmetric part
    m = rng_from(12).standard_normal((5, 4, 4))
    values = np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, -1, -2)))
    lo, hi = rayleigh_bounds(m)
    assert_allclose(lo, values[:, 0], atol=1e-12)
    assert_allclose(hi, values[:, -1], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eigen_trace_det_invariants(n):
    # the bounds bracket every diagonal entry and the mean eigenvalue; at
    # n = 2 they are the whole spectrum, so they give the trace and the
    # determinant
    rng = rng_from(10 + n)
    for _ in range(20):
        m = rng.standard_normal((n, n))
        m = 0.5 * (m + m.T)
        lo, hi = rayleigh_bounds(m)
        scale = max(1.0, float(np.abs(m).max()))
        for inside in (np.diagonal(m).min(), np.diagonal(m).max(), np.trace(m) / n):
            assert lo - 1e-12 * scale <= inside <= hi + 1e-12 * scale
        if n == 2:
            assert abs(lo + hi - np.trace(m)) <= 1e-9 * scale
            assert abs(lo * hi - np.linalg.det(m)) <= 1e-7 * scale ** n


def test_rayleigh_bracketing():
    rng = rng_from(3)
    m = rng.standard_normal((4, 4))
    sym = 0.5 * (m + m.T)
    lo, hi = rayleigh_bounds(sym)
    for _ in range(1000):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        q = float(v @ sym @ v)
        assert lo - 1e-12 <= q <= hi + 1e-12


def test_cholesky_frame_identity_and_diagonal():
    assert_allclose(cholesky_frame(np.eye(3)), np.eye(3), atol=1e-14)
    assert_allclose(cholesky_frame(np.diag([4.0, 9.0])),
                    np.diag([0.5, 1.0 / 3.0]), atol=1e-14)


def test_cholesky_frame_general():
    g = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    e = cholesky_frame(g)
    assert_allclose(e.T @ g @ np.conj(e), np.eye(2), atol=1e-12)
    # real metric: the sesquilinear normalization holds as well
    assert_allclose(e.conj().T @ g @ e, np.eye(2), atol=1e-12)


def test_cholesky_frame_complex_metric():
    g = np.array([[2.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
    e = cholesky_frame(g)
    assert_allclose(e.T @ g @ np.conj(e), np.eye(2), atol=1e-12)


def test_cholesky_frame_rejects_non_pd():
    with pytest.raises(DomainError, match="eigenvalue"):
        cholesky_frame(np.diag([1.0, -1.0]))


def test_cholesky_frame_conditioning_test_is_scale_free():
    # refused unless lambda_min > 1e-4 lambda_max, at any scale
    for scale in (1e-30, 1.0, 1e30):
        e = cholesky_frame(scale * np.diag([1.0, 2e-4]))
        assert_allclose(e, np.diag([1.0, 1.0 / np.sqrt(2e-4)]) / np.sqrt(scale), rtol=1e-14)
        for g in (np.diag([1.0, 5e-5]), np.diag([1.0, 0.0]), np.diag([1.0, -1.0])):
            with pytest.raises(DomainError, match=r"ill-conditioned: eigenvalues min .* <= "
                                                  r"1e-04 x max"):
                cholesky_frame(scale * g)


def test_cholesky_frame_refuses_a_skew_metric_at_every_scale():
    # the Hermitian part of g = 2^k [[1, 0.5], [0, 1]] is well conditioned,
    # but its orthonormality residual is 0.258 at every k: dimensionless, so
    # its bound does not grow with |g|
    for k in (-40, 0, 20, 40):
        with pytest.raises(DomainError, match="frame orthonormality residual 2.58"):
            cholesky_frame(2.0 ** k * np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_haar_determinism_and_unit_modulus():
    u1 = haar_from_rng(3, rng_from(7))
    u2 = haar_from_rng(3, rng_from(7))
    assert np.array_equal(u1, u2)
    assert unitary_residual(u1) < 1e-12
    scalar = haar_from_rng(1, rng_from(5))
    assert abs(abs(scalar[0, 0]) - 1.0) < 1e-12


def test_haar_first_entry_moment():
    n, count = 4, 1000
    vals = np.array([abs(haar_from_rng(n, rng_from(1000 + k))[0, 0]) ** 2
                     for k in range(count)])
    se = vals.std(ddof=1) / np.sqrt(count)
    assert abs(vals.mean() - 1.0 / n) <= 3.0 * se


def test_block_draws_read_the_per_sample_streams():
    # a stack of draws reads the stream of as many single draws, bit for bit
    for n in (1, 2, 3, 5):
        rng = rng_from(9, n)
        singles = [haar_from_rng(n, rng) for _ in range(7)]
        assert np.array_equal(haar_from_rng(n, rng_from(9, n), 7), singles)
        block = haar_from_rng(n, rng_from(10, n), 12)
        assert unitary_residual(block) < 1e-12
        rng = rng_from(10, n)
        haar_from_rng(n, rng, 6)
        assert np.array_equal(haar_from_rng(n, rng), block[6])


def test_every_tolerance_has_a_reader():
    # a Tolerances field that no module reads as DEFAULT.<field> is a dead knob
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "curvlab"
    text = "".join(p.read_text() for p in sorted(src.glob("*.py")) if p.name != "config.py")
    unread = [f.name for f in dataclasses.fields(Tolerances)
              if not re.search(rf"\bDEFAULT\.{f.name}\b", text)]
    assert unread == []
