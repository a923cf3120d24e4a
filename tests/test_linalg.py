import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvlab import DomainError, cholesky_frame, self_adjoint_eigen
from curvlab.linalg import haar_from_rng, rng_from, unitary_residual


def test_eigen_identity():
    dec = self_adjoint_eigen(np.eye(3))
    assert_allclose(dec.values, [1.0, 1.0, 1.0])


def test_eigen_offdiagonal_swap():
    dec = self_adjoint_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(dec.values, [-1.0, 1.0], atol=1e-14)


def test_eigen_hopf_altered_sectional_matrix():
    # symmetric part of the combined quadratic-form matrix at z = (1, 0)
    dec = self_adjoint_eigen(np.array([[0.0, 2.0], [2.0, 8.0]]))
    root5 = np.sqrt(5.0)
    assert_allclose(dec.values, [4.0 - 2.0 * root5, 4.0 + 2.0 * root5], atol=1e-12)
    # matches (2/|z|^6)(2|z|^2 -+ sqrt(5|z1|^4 - 6|z1|^2|z2|^2 + 5|z2|^4)) at (1,0)
    assert_allclose(dec.values, [2.0 * (2.0 - root5), 2.0 * (2.0 + root5)], atol=1e-12)


def test_eigen_rejects_nonfinite():
    with pytest.raises(DomainError):
        self_adjoint_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigen_reads_the_symmetric_part():
    dec = self_adjoint_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert_allclose(dec.values, [-0.5, 0.5], atol=1e-14)
    # an asymmetric stack: each spectrum is that of its Hermitian part
    g = rng_from(12).standard_normal((2, 5, 4, 4))
    m = g[0] + 1j * g[1]
    h = 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))
    assert_allclose(self_adjoint_eigen(m).values, np.linalg.eigvalsh(h), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eigen_trace_det_invariants(n):
    rng = rng_from(10 + n)
    for _ in range(20):
        g = rng.standard_normal((2, n, n))
        z = g[0] + 1j * g[1]
        m = 0.5 * (z + z.conj().T)
        dec = self_adjoint_eigen(m)
        scale = max(1.0, float(np.abs(m).max()))
        assert abs(dec.values.sum() - np.trace(m).real) <= 1e-9 * scale
        assert abs(np.prod(dec.values) - np.linalg.det(m).real) <= 1e-7 * scale ** n


def test_rayleigh_bracketing():
    rng = rng_from(3)
    m = rng.standard_normal((4, 4))
    sym = 0.5 * (m + m.T)
    dec = self_adjoint_eigen(sym)
    for _ in range(1000):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        q = float(v @ sym @ v)
        assert dec.values[0] - 1e-12 <= q <= dec.values[-1] + 1e-12


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
