"""Small dense matrix kernel: seeded streams, self-adjoint spectra, metric
frames, Haar unitaries, and two fixed tables: an orthonormal basis of
Herm(n) and the single-qubit Clifford group.

Everything here targets matrices of size n <= 8 and is backed by LAPACK via
numpy.  Residuals, spectra and Haar draws also work on stacks of matrices
along leading axes, checked once per stack.  Eigenvalues always come back
ascending; Haar sampling follows the QR-with-phase-fix construction
(diagonal of the triangular factor made real positive), which gives exactly
Haar measure.  All randomness in the package
flows through PCG64 generators built by ``rng_from``.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, MAX_ENTRY
from .errors import DomainError, UsageError


def rng_from(seed, *key):
    """PCG64 generator for ``seed``, optionally keyed by a derivation path."""
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(seq))


def ensure_finite(arr, what="input"):
    arr = np.asarray(arr)
    if not np.isfinite(arr).all():  # a complex entry is finite iff both parts are
        raise DomainError(f"{what} contains NaN or Inf entries")
    return arr


def max_modulus(arr, what="input"):
    """Largest entry modulus of arr; DomainError unless every entry is finite
    and at most ``config.MAX_ENTRY`` in modulus."""
    top = float(np.abs(arr).max(initial=0.0))
    if not top <= MAX_ENTRY:   # NaN compares false
        raise DomainError(f"{what} has an entry that is NaN, Inf or above "
                          f"MAX_ENTRY = {MAX_ENTRY:.3g} in modulus")
    return top


def _adjoint(m):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(np.conj(m), -1, -2)


def hermitian_residual(m):
    """Largest deviation of ``m`` (or of any matrix of a stack) from its
    conjugate transpose."""
    m = np.asarray(m)
    return float(np.abs(m - _adjoint(m)).max()) if m.size else 0.0


def unitary_residual(u):
    """Largest entry of |U^H U - I| over a matrix or a stack of matrices."""
    u = np.asarray(u)
    return float(np.abs(_adjoint(u) @ u - np.eye(u.shape[-1])).max())


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum of a self-adjoint matrix, or of a stack of them.

    values are ascending along the last axis; vectors holds the matching
    orthonormal eigenvectors as columns.  asymmetry records how far the
    original input was from self-adjoint before the internal symmetrization;
    for a stack, both residuals are the largest over the stack.
    """

    values: np.ndarray
    vectors: np.ndarray
    asymmetry: float
    reconstruction_residual: float


def self_adjoint_eigen(m):
    """Full spectrum of a (nearly) self-adjoint matrix, ascending; a stack of
    matrices along leading axes gives a stack of spectra.

    The input is symmetrized first; the asymmetry it carried is recorded on
    the result rather than raised, because quadratic-form consumers only ever
    see the symmetric part.  The eigen-reconstruction residual of every
    matrix is checked against its own scale.
    """
    m = np.asarray(m)
    m = ensure_finite(m.astype(complex if np.iscomplexobj(m) else float, copy=False),
                      "matrix")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise UsageError(f"expected a square matrix, got shape {m.shape}")
    asym = hermitian_residual(m)
    h = 0.5 * (m + _adjoint(m))
    values, vectors = np.linalg.eigh(h)
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    recon = np.abs(h @ vectors - vectors * values[..., None, :]).max(axis=(-2, -1))
    if (recon > DEFAULT.eigen_reconstruction * scale).any():
        raise DomainError(f"eigendecomposition residual {recon.max():.3e} exceeds tolerance")
    return EigenDecomposition(values=values, vectors=vectors, asymmetry=asym,
                              reconstruction_residual=float(recon.max()))


def cholesky_frame(g, pd_floor=None):
    """Columns of E are a g-orthonormal frame of (1,0)-vectors.

    Orthonormality is with respect to <X, Y> = sum g_{i jbar} X_i conj(Y_j),
    the pairing every curvature contraction here uses, so the condition is
    E^T g conj(E) = I; it is built from the Cholesky factor g = L L^H as
    E = (L^{-1})^T.  For real metrics this coincides with E^H g E = I, and
    diagonal metrics give diagonal frames.
    """
    pd_floor = DEFAULT.positive_definite if pd_floor is None else pd_floor
    g = ensure_finite(np.asarray(g, dtype=complex), "metric")
    lambda_min = float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0])
    if lambda_min <= pd_floor:
        raise DomainError(
            f"metric is not positive definite: smallest eigenvalue {lambda_min:.6e}")
    low = np.linalg.cholesky(0.5 * (g + g.conj().T))
    e = np.linalg.inv(low).T
    residual = float(np.abs(e.T @ g @ np.conj(e) - np.eye(g.shape[0])).max())
    if residual > DEFAULT.frame_orthonormal * max(1.0, float(np.abs(g).max())):
        raise DomainError(f"frame orthonormality residual {residual:.3e} too large")
    return e


def haar_from_rng(n, rng, count=None):
    """Haar-distributed unitary drawn from an existing generator, or a
    (count, n, n) stack of them.

    Each unitary consumes the real and then the imaginary n x n Gaussian
    block, so a stack of count draws reads the same stream as count single
    draws and gives the same unitaries.
    """
    lead = () if count is None else (count,)
    return haar_from_gaussians(rng.standard_normal(lead + (2, n, n)))


def haar_from_gaussians(g):
    """Haar unitaries from standard Gaussian blocks g of shape (..., 2, n, n),
    the real and then the imaginary part of each: QR of (re + i im) / sqrt(2)
    with the phases of the triangular factor's diagonal moved into Q.  Any
    slice of a block stream that holds the 2 n^2 draws of one unitary in
    order gives the unitary ``haar_from_rng`` makes from the same draws."""
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


@functools.lru_cache(maxsize=None)
def _hermitian_basis(n):
    """(n^2, n^2) array whose rows, read as n x n matrices, are a real
    orthonormal basis of Herm(n) under <A, B> = tr(A B): E_pp for each p,
    then for each p < q (E_pq + E_qp)/sqrt(2) and i (E_pq - E_qp)/sqrt(2)."""
    rows = []
    for p in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[p, p] = 1.0
        rows.append(e)
    for p in range(n):
        for q in range(p + 1, n):
            for phase in (1.0, 1j):
                e = np.zeros((n, n), dtype=complex)
                e[p, q], e[q, p] = phase, np.conj(phase)
                rows.append(e / np.sqrt(2.0))
    basis = np.array(rows).reshape(n * n, n * n)
    basis.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=None)
def clifford_frames():
    """The 24 elements of the single-qubit Clifford group, up to phase, as a
    read-only (24, 2, 2) stack, built on first use by closing {I} under left
    multiplication by H and S; each element is stored with its first entry of
    modulus > 1/2 made real positive.

    The group is a unitary 2-design (Gross, Audenaert & Eisert, J. Math.
    Phys. 48, 2007; Dankert, Cleve, Emerson & Livine, Phys. Rev. A 80, 2009):
    its mean of any polynomial of degree (2, 2) in (U, conj U) is the Haar
    mean.  Its entries have modulus 0, 1/sqrt(2) or 1."""
    gens = (np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), np.diag([1.0, 1j]))
    frames = [np.eye(2, dtype=complex)]
    for u in frames:                       # grows while it is walked: a closure
        for g in gens:
            v = g @ u
            first = v.flat[int(np.argmax(np.abs(v.ravel()) > 0.5))]
            v = v * (abs(first) / first)
            if not any(np.allclose(v, w, atol=1e-12) for w in frames):
                frames.append(v)
    frames = np.array(frames)
    frames.flags.writeable = False
    return frames
