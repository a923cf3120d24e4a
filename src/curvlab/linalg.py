"""Small dense matrix kernel: seeded streams, self-adjoint spectra, metric
frames, Haar unitaries, and one fixed table: an orthonormal basis of
Herm(n).

Everything here targets matrices of size n <= 8 and is backed by LAPACK via
numpy.  Residuals, spectra and Haar draws also work on stacks of matrices
along leading axes, checked once per stack.  Eigenvalues always come back
ascending; Haar sampling follows the QR-with-phase-fix construction
(diagonal of the triangular factor made real positive), which gives exactly
Haar measure.  All randomness in the package
flows through PCG64 generators built by ``rng_from``.

The argument checks that every public entry point shares live here too, one
per kind of argument (``_integer``, ``_number``, ``_numeric``, ``_square``);
each raises UsageError naming the argument.
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, MAX_ENTRY
from .errors import DomainError, UsageError


def _integer(value, what, least=0, most=None):
    """value as an int if it is an integer (not a bool) in least..most, no
    upper bound when most is None; else UsageError."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and least <= value and (most is None or value <= most)):
        return int(value)
    bound = f">= {least}" if most is None else f"in {least}..{most}"
    raise UsageError(f"{what} must be an integer {bound}, got {value!r}")


def _number(value, what, kind=numbers.Real):
    """value itself if it is a number of kind (not a bool), else UsageError;
    kind numbers.Complex admits complex numbers too."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    real = "real " if kind is numbers.Real else ""
    raise UsageError(f"{what} must be a {real}number, got {value!r}")


def _numeric(value, what, dtype=float):
    """value as an array of dtype (None: numpy's own).  Anything that is not
    an array of numbers (text, None, a ragged list), or that numpy cannot
    convert to dtype, is a UsageError."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind not in "biufc" and not (  # e.g. integers beyond int64
                arr.dtype.kind == "O" and all(isinstance(x, numbers.Number) for x in arr.flat)):
            raise ValueError
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be numeric") from None


def _square(value, what, dtype=float, stack=0):
    """value as a nonempty ``_numeric`` array of square matrices: one, or a
    stack of them along at most stack leading axes (None: any number); else
    UsageError."""
    m = _numeric(value, what, dtype)
    most = m.ndim if stack is None else 2 + stack
    if not 2 <= m.ndim <= most or m.shape[-1] != m.shape[-2] or m.size == 0:
        shapes = " or a nonempty stack of them" if stack != 0 else ""
        raise UsageError(f"{what} must be a nonempty square matrix{shapes}, got shape {m.shape}")
    return m


def rng_from(seed, *key):
    """PCG64 generator for ``seed``, an integer >= 0, optionally keyed by a
    derivation path."""
    seq = np.random.SeedSequence(_integer(seed, "parameter 'seed'"),
                                 spawn_key=tuple(int(k) for k in key))
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


def unitary_residual(u):
    """Largest entry of |U^H U - I| over a matrix or a stack of matrices."""
    u = np.asarray(u)
    return float(np.abs(_adjoint(u) @ u - np.eye(u.shape[-1])).max())


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum of a self-adjoint matrix, or of a stack of them.

    values are ascending along the last axis; vectors holds the matching
    orthonormal eigenvectors as columns.
    """

    values: np.ndarray
    vectors: np.ndarray


def self_adjoint_eigen(m):
    """Full spectrum of a (nearly) self-adjoint matrix, ascending; a stack of
    matrices along leading axes gives a stack of spectra.

    The input is symmetrized first, because quadratic-form consumers only
    ever see the symmetric part.  The eigen-reconstruction residual of every
    matrix is checked against its own scale.
    """
    m = _square(m, "matrix", None, stack=None)
    m = ensure_finite(m.astype(complex if np.iscomplexobj(m) else float, copy=False),
                      "matrix")
    h = 0.5 * (m + _adjoint(m))
    values, vectors = np.linalg.eigh(h)
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    recon = np.abs(h @ vectors - vectors * values[..., None, :]).max(axis=(-2, -1))
    if (recon > DEFAULT.eigen_reconstruction * scale).any():
        raise DomainError(f"eigendecomposition residual {recon.max():.3e} exceeds tolerance")
    return EigenDecomposition(values=values, vectors=vectors)


def cholesky_frame(g):
    """Columns of E are a g-orthonormal frame of (1,0)-vectors.

    Orthonormality is with respect to <X, Y> = sum g_{i jbar} X_i conj(Y_j),
    the pairing every curvature contraction here uses, so the condition is
    E^T g conj(E) = I; it is built from the Cholesky factor g = L L^H as
    E = (L^{-1})^T.  For real metrics this coincides with E^H g E = I, and
    diagonal metrics give diagonal frames.

    It alone decides whether g is usable, by the scale-free test lambda_min >
    ``Tolerances.metric_conditioning`` x lambda_max on its Hermitian part.
    """
    g = ensure_finite(_square(g, "metric", complex), "metric")
    h = 0.5 * (g + g.conj().T)
    lo, hi = (float(x) for x in np.linalg.eigvalsh(h)[[0, -1]])
    if not lo > DEFAULT.metric_conditioning * hi:
        raise DomainError(f"metric is not positive definite or too ill-conditioned: eigenvalues "
                          f"min {lo:.6e} <= {DEFAULT.metric_conditioning:.0e} x max {hi:.6e}")
    low = np.linalg.cholesky(h)
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
    draws and gives the same unitaries: QR of (re + i im) / sqrt(2) with the
    phases of the triangular factor's diagonal moved into Q.
    """
    lead = () if count is None else (count,)
    g = rng.standard_normal(lead + (2, n, n))
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
