"""Small dense matrix kernel: seeded streams, metric frames, Haar
unitaries, and one fixed table: an orthonormal basis of Herm(n).

Everything here targets matrices of size n <= 8 and is backed by LAPACK via
numpy.  Residuals, Haar draws and metric frames also work on stacks of
matrices along leading axes, checked once per stack: a stacked check that
refuses names the first bad item's index (``_first_bad``).  Haar sampling
follows the QR-with-phase-fix construction (diagonal of the triangular
factor made real positive), which gives exactly Haar measure.  All
randomness in the package flows through PCG64 generators built by
``rng_from``.  Eigenproblems call
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


def _at(index):
    """' at stack index i' naming a stack item (a tuple of indices past one
    axis), '' for the () of one item."""
    return f" at stack index {index[0] if len(index) == 1 else index}" if index else ""


def _first_bad(bad):
    """None if bad, one verdict per item of a stack (0-d for one item), is
    all False; else (index, ``_at(index)``) of its first True in row-major
    order, index () for one item.  The verdicts are read as Python bools: for
    a few items that costs less than numpy's any()."""
    bad = np.asarray(bad)
    flags = bad.ravel().tolist()
    if True not in flags:
        return None
    index = tuple(int(i) for i in np.unravel_index(flags.index(True), bad.shape))
    return index, _at(index)


def _items(arr, rank):
    """The axes of each item of a stack of rank-dimensional items; all axes
    when rank is None."""
    return None if rank is None else tuple(range(arr.ndim - rank, arr.ndim))


def ensure_finite(arr, what="input", rank=None):
    """arr as an array, DomainError unless every entry is finite; with rank,
    arr is a stack of rank-dimensional items and the error names the first
    bad one."""
    arr = np.asarray(arr)
    finite = np.isfinite(arr)   # a complex entry is finite iff both parts are
    if not finite.all():
        raise DomainError(f"{what}{_first_bad(~finite.all(axis=_items(arr, rank)))[1]} "
                          "contains NaN or Inf entries")
    return arr


def max_modulus(arr, what="input", rank=None):
    """Largest entry modulus of arr, or with rank of each rank-dimensional
    item of a stack (an array over its leading axes, a float for one item);
    DomainError unless every entry is finite and at most ``config.MAX_ENTRY``
    in modulus, naming the first bad item of a stack."""
    top = np.abs(arr).max(axis=_items(np.asarray(arr), rank), initial=0.0)
    refused = _first_bad(~(top <= MAX_ENTRY))   # NaN compares false
    if refused:
        raise DomainError(f"{what}{refused[1]} has an entry that is NaN, Inf or "
                          f"above MAX_ENTRY = {MAX_ENTRY:.3g} in modulus")
    return float(top) if top.ndim == 0 else top


def hermitian_tensor_residual(values):
    """max |conj(R[i,j,k,l]) - R[j,i,l,k]| of a tensor, read off the last four
    axes: a float for one tensor, an array of one residual per tensor for a
    stack."""
    lead = range(values.ndim - 4)
    out = np.abs(np.conj(values) - values.transpose(*lead, -3, -4, -1, -2)).max(
        axis=(-4, -3, -2, -1))
    return float(out) if out.ndim == 0 else out


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

    g may be a (..., n, n) stack of metrics: every test then runs on the
    whole stack at once, a refusal names the first refused metric's index,
    and each frame equals its single call bit for bit.
    """
    g = ensure_finite(_square(g, "metric", complex, stack=None), "metric", rank=2)
    h = 0.5 * (g + g.conj().swapaxes(-1, -2))
    spectrum = np.linalg.eigvalsh(h)
    lo, hi = spectrum[..., 0], spectrum[..., -1]
    refused = _first_bad(~(lo > DEFAULT.metric_conditioning * hi))
    if refused:
        index, at = refused
        raise DomainError(f"metric{at} is not positive definite or too ill-conditioned: "
                          f"eigenvalues min {float(lo[index]):.6e} <= "
                          f"{DEFAULT.metric_conditioning:.0e} x max {float(hi[index]):.6e}")
    e = np.linalg.inv(np.linalg.cholesky(h)).swapaxes(-1, -2)
    residual = np.abs(e.swapaxes(-1, -2) @ g @ np.conj(e)
                      - np.eye(g.shape[-1])).max(axis=(-2, -1))
    refused = _first_bad(residual > DEFAULT.frame_orthonormal)
    if refused:
        index, at = refused
        raise DomainError(f"frame orthonormality residual{at} {float(residual[index]):.3e} "
                          "too large")
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
