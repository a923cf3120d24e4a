"""Small dense matrix kernel: seeded streams, metric frames, Haar
unitaries, and one fixed table: an orthonormal basis of Herm(n).

Everything here targets matrices of size n <= 8 and is backed by LAPACK via
numpy.  Residuals and Haar draws also work on stacks of matrices along
leading axes, checked once per stack.  Haar sampling follows the
QR-with-phase-fix construction (diagonal of the triangular factor made real
positive), which gives exactly Haar measure.  All randomness in the package
flows through PCG64 generators built by ``rng_from``.  Eigenproblems call
numpy's ``eigh`` directly: LAPACK's symmetric eigensolver is backward
stable, so its result is not re-checked, and its inputs are checked where
they enter.

The argument checks that every public entry point shares live here too, one
per kind of argument (``_integer``, ``_number``, ``_numeric``, ``_square``,
``_shape`` for an array field read without a pass over its data,
``_instance`` for an object of one of the package's types, and
``_identifier`` for the name of an enum member or a table entry); each
raises UsageError naming the argument.
"""

import functools
import numbers

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


def _instance(value, cls, what):
    """value itself if it is a cls, else UsageError naming the expected type."""
    if isinstance(value, cls):
        return value
    raise UsageError(f"{what} must be a {cls.__name__}, got {type(value).__name__}")


def _shape(value, what):
    """The shape of value if it is a numeric ndarray, else UsageError: read
    from its attributes alone, with no pass over the data."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "biufc":
        return value.shape
    raise UsageError(f"{what} must be a numeric array, got {type(value).__name__}")


def _identifier(value, what, integer=False):
    """value itself if it can name an enum member or a table entry: a str,
    or with integer also an integer >= 0 read through ``_integer``; else
    UsageError.  Called before the lookup, so an array never reaches an
    enum's comparisons or a table's hash, and a name that is not there
    fails with the lookup's own message."""
    if isinstance(value, str):
        return value
    if integer:
        return _integer(value, what)
    raise UsageError(f"{what} must be a name, got {value!r}")


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


def unitary_residual(u):
    """Largest entry of |U^H U - I| over a matrix or a stack of matrices."""
    u = np.asarray(u)
    return float(np.abs(np.swapaxes(np.conj(u), -1, -2) @ u - np.eye(u.shape[-1])).max())


def cholesky_frame(g):
    """Columns of E are a g-orthonormal frame of (1,0)-vectors.

    Orthonormality is with respect to <X, Y> = sum g_{i jbar} X_i conj(Y_j),
    the pairing every curvature contraction here uses, so the condition is
    E^T g conj(E) = I; it is built from the Cholesky factor g = L L^H as
    E = (L^{-1})^T.  For real metrics this coincides with E^H g E = I, and
    diagonal metrics give diagonal frames.

    It alone decides whether g is usable, by the scale-free test lambda_min >
    ``Tolerances.metric_conditioning`` x lambda_max on its Hermitian part,
    and by the orthonormality residual |E^T g conj(E) - I|, which is
    dimensionless and so is bounded by ``Tolerances.frame_orthonormal``
    alone: a skew part that the Hermitian part hides is refused at any scale.
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
    if residual > DEFAULT.frame_orthonormal:
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
    n = _integer(n, "parameter 'n'", 1)
    lead = () if count is None else (_integer(count, "parameter 'count'"),)
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
