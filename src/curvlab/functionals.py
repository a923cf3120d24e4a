"""Curvature functionals on unitary-frame tensors.

The holomorphic sectional curvature contracts the full tensor against a
complex vector.  Everything else in the zoo is a real quadratic form built
from two real n x n matrices extracted from the tensor in a fixed frame:

    rbc[a, g]     = Re R[a, a, g, g]      (repeated outer pair)
    altered[a, g] = Re R[a, g, g, a]      (cross-contracted middle pair)

and the functional family is

    rbc          v^T rbc v / |v|^2
    altered_rbc  v^T altered v / |v|^2
    altered_hsc  v^T (rbc + altered) v / |v|^2
    qobc         sum rbc[a,g] (v_a - v_g)^2 / |v|^2
    altered_qobc sum altered[a,g] (v_a - v_g)^2 / |v|^2

The difference-form functionals are quadratic forms in disguise: the
Weitzenboeck matrix W = Diag(row sums) + Diag(col sums) - (M + M^T) satisfies
v^T W v = sum M[a,g] (v_a - v_g)^2, so their nonnegativity is exactly the
positive semidefiniteness of W.

Frame searches need the two matrices in many frames at once:
``frame_matrices`` computes them for a stack of frame changes without forming
any frame-changed n^4 tensor, and the matrix builders broadcast over leading
axes.  ``evaluate`` and ``hsc`` take stacks of vectors of shape (..., n),
broadcast against stacked matrices (``hsc`` against a stacked tensor), with
every row checked nonzero; a single vector on single matrices still gives a
float.  ``matrices_from`` and ``hsc`` take a stacked ``ChernTensor``, each
row equal bit for bit to its single call; every other function here takes
one tensor.

Every check here is exact and draws no random numbers.  ``frame_form`` is
the form on Herm(n) whose extreme eigenvalues are a functional's inf and sup
over every frame and vector under the full convention: the frame search
reads its exact extrema from it, and ``ricci_qobc_bounds`` its qobc
hypotheses.  The constant-curvature identities are matrix equalities, whose
entrywise residuals stay arrays until the report picks its witnesses, and
the fourth moments of the unit sphere come from an exact cubature rule.
"""

import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .errors import UsageError
from .linalg import (_hermitian_basis, _identifier, _instance, _number, _numeric, _shape,
                     _square, ensure_finite)
from .curvature import FrameConvention, _checked_frame_change, require_frame, scalars
from .reports import IdentityReport


class FunctionalKind(str, enum.Enum):
    """The quadratic-form family; hsc, which takes complex vectors, is the
    function ``hsc(tensor, w)``."""
    RBC = "rbc"
    ALTERED_RBC = "altered_rbc"
    ALTERED_HSC = "altered_hsc"
    QOBC = "qobc"
    ALTERED_QOBC = "altered_qobc"

    @classmethod
    def _missing_(cls, value):
        hint = " outside the quadratic-form family: use hsc(tensor, w)" if value == "hsc" else ""
        raise UsageError(f"unknown functional '{value}'{hint}; "
                         f"quadratic-form kinds: {[k.value for k in cls]}")


@dataclass(frozen=True)
class CurvatureMatrices:
    """Real quadratic-form matrices of a frame tensor (or stacks of them along
    leading axes), plus the largest imaginary part dropped when taking real
    parts."""

    rbc: np.ndarray
    altered: np.ndarray
    imag_residual: float

    def __post_init__(self):
        """Shapes alone are checked, with no pass over the data: both fields
        are numeric (..., n, n) stacks of one shape, n >= 1."""
        shape = _shape(self.rbc, "CurvatureMatrices field 'rbc'")
        if len(shape) < 2 or shape[-1] != shape[-2] or shape[-1] == 0:
            raise UsageError(f"CurvatureMatrices field 'rbc' must be an n x n matrix or a stack "
                             f"of them, n >= 1, got shape {shape}")
        if _shape(self.altered, "CurvatureMatrices field 'altered'") != shape:
            raise UsageError(f"CurvatureMatrices field 'altered' must have the shape of 'rbc', "
                             f"{shape}, got {self.altered.shape}")

    @classmethod
    def from_slices(cls, rbc, altered):
        """Real parts of the complex slices R[a,a,g,g] and R[a,g,g,a]."""
        resid = max(float(np.abs(rbc.imag).max()), float(np.abs(altered.imag).max()))
        rbc = rbc.real.copy()
        altered = altered.real.copy()
        rbc.flags.writeable = False
        altered.flags.writeable = False
        return cls(rbc=rbc, altered=altered, imag_residual=resid)

    @property
    def n(self):
        return self.rbc.shape[-1]

    def take(self, index):
        """The matrices at index (a boolean mask or integer array) of a
        stack."""
        return CurvatureMatrices(rbc=self.rbc[index], altered=self.altered[index],
                                 imag_residual=self.imag_residual)


def matrices_from(tensor):
    """rbc and altered matrices of a frame tensor, stacked for a stacked one
    (such as that of a stacked ``transform_frame``); the slices are gathers,
    so each stacked matrix equals its single call bit for bit."""
    r = require_frame(tensor, "matrices_from", stack=True).values
    return CurvatureMatrices.from_slices(np.einsum("...aagg->...ag", r),
                                         np.einsum("...agga->...ag", r))


def frame_matrices(tensor, u, convention):
    """Complex slices rbc'[a,g] = R'[a,a,g,g] and altered'[a,g] = R'[a,g,g,a]
    of the tensor R' = transform_frame(tensor, u, convention), for a frame
    change u of shape (n, n) or a stack of them of shape (..., n, n).

    Only the two slices are computed.  Under the full convention, with
    P[a, (p, q)] = u[a, p] conj(u[a, q]),

        rbc' = P R_(pq)(st) P^T,    altered' = P R_(pt)(qs) conj(P)^T;

    under the adjoint convention both are einsums straight from R, on the
    stack made C-contiguous first (numpy's einsum rounds a strided stack's
    rows differently).  Every row of a stack of any size or layout equals
    its single call bit for bit.  The stack is checked once per call; the
    result needs no check, since the tensor's entries are at most MAX_ENTRY
    and u is unitary.
    """
    u = np.ascontiguousarray(_checked_frame_change(tensor, u, "frame_matrices"))
    n = tensor.n
    r = tensor.values
    uc = np.conj(u)
    if FrameConvention(_identifier(convention, "frame convention")) is FrameConvention.FULL:
        p = (u[..., :, None] * uc[..., None, :]).reshape(u.shape[:-1] + (n * n,))
        pt = np.swapaxes(p, -1, -2)
        rbc = p @ r.reshape(n * n, n * n) @ pt
        alt = p @ r.transpose(0, 3, 1, 2).reshape(n * n, n * n) @ np.conj(pt)
    else:
        rbc = np.einsum("...gs,...gt,aast->...ag", u, uc, r)
        alt = np.einsum("...gs,...at,agst->...ag", u, uc, r)
    return rbc, alt


def _direction_rows(v, name="vector"):
    """The float or complex array v as vectors along its last axis, each
    checked to be finite and nonzero, and each multiplied by the power of two
    that brings its largest real or imaginary part into [0.5, 1).  That
    scaling is exact, so a quotient of degree 0 in a row keeps its bits
    wherever |v|^2 is in range, and stays finite where |v|^2 would under- or
    overflow."""
    v = np.asarray(v)
    if v.ndim == 0:
        raise UsageError(f"{name} must be a nonzero vector")
    if not np.isfinite(v).all():
        raise UsageError(f"{name} must have finite entries (every row of a stack)")
    parts = np.ascontiguousarray(v).view(float)   # a complex row as (re, im) pairs
    top = np.abs(parts).max(axis=-1, keepdims=True, initial=0.0)
    if not top.all():
        raise UsageError(f"{name} must be a nonzero vector (every row of a stack)")
    return np.ldexp(parts, -np.frexp(top)[1]).view(v.dtype)


def _direction_vector(v, name="vector"):
    v = _direction_rows(v, name)
    if v.ndim != 1:
        raise UsageError(f"{name} must be a nonzero vector")
    return v


def _require_broadcast(*shapes):
    """Check that the leading (stack) axes of several operands broadcast."""
    try:
        np.broadcast_shapes(*shapes)
    except ValueError:
        raise UsageError(f"stacks of shapes {', '.join(map(str, shapes))} "
                         "do not broadcast") from None


def _bilinear(x, q):
    """x^T q x (no conjugation) for each row x of a stack, against q or a
    stack of q broadcast with it.  einsum keeps BLAS out: a threaded
    matrix-vector product at n^2 = 64 costs more than the whole form and
    leaves the BLAS threads spinning."""
    return np.einsum("...p,...pq,...q->...", x, q, x)


def hsc(tensor, w):
    """Holomorphic sectional curvature of a complex direction.

    w may be a stack of directions of shape (..., n) and the tensor a stack
    of tensors; their leading axes broadcast, and the result is then an array
    of their broadcast shape, each entry equal bit for bit to its single
    call.  With a[(i, j)] = w_i conj(w_j) the numerator R(w, wbar, w, wbar)
    is the bilinear form a R_(ij)(kl) a^T.
    """
    r = require_frame(tensor, "hsc", stack=True).values
    n = tensor.n
    w = _direction_rows(_numeric(w, "vector", complex))
    if w.shape[-1] != n:
        raise UsageError(f"vector has dimension {w.shape[-1]}, tensor has {n}")
    if r.ndim > 4:
        _require_broadcast(r.shape[:-4], w.shape[:-1])
    a = (w[..., :, None] * np.conj(w)[..., None, :]).reshape(w.shape[:-1] + (n * n,))
    num = _bilinear(a, r.reshape(r.shape[:-4] + (n * n, n * n)))
    out = num.real / np.sum(np.abs(w) ** 2, axis=-1) ** 2
    return float(out) if out.ndim == 0 else out


def bisectional(tensor, x, y, altered=True):
    """Bisectional curvature of a pair of complex directions.

    altered=True gives the symmetric two-term form
    (R(X, Xbar, Y, Ybar) + R(Y, Ybar, X, Xbar)) / (|X|^2 |Y|^2); the
    single-term variant keeps only the first summand.  Passing orthogonal
    (resp. unitary) pairs restricts to the orthogonal flavors.
    """
    r = require_frame(tensor, "bisectional").values
    x = _direction_vector(_numeric(x, "X", complex), "X")
    y = _direction_vector(_numeric(y, "Y", complex), "Y")
    first = np.einsum("ijkl,i,j,k,l->", r, x, np.conj(x), y, np.conj(y))
    value = first + np.einsum("ijkl,i,j,k,l->", r, y, np.conj(y), x, np.conj(x)) if altered else first
    denom = float(np.sum(np.abs(x) ** 2) * np.sum(np.abs(y) ** 2))
    return float(np.real(value)) / denom


def quadratic_form_matrix(kind, matrices):
    """Symmetric-form carrier of a quadratic functional kind; stacked
    matrices give a stack of carriers."""
    kind = FunctionalKind(_identifier(kind, "functional kind"))
    if kind is FunctionalKind.RBC:
        return matrices.rbc
    if kind is FunctionalKind.ALTERED_RBC:
        return matrices.altered
    if kind is FunctionalKind.ALTERED_HSC:
        return matrices.rbc + matrices.altered
    if kind is FunctionalKind.QOBC:
        return weitzenbock(matrices.rbc)
    return weitzenbock(matrices.altered)


def evaluate(kind, matrices, v):
    """Evaluate a quadratic functional at a real nonzero vector.

    v may be a stack of vectors of shape (..., n) and the matrices a stack
    of shape (..., n, n); their leading axes broadcast against each other
    and the result is an array of the broadcast shape.  A single vector on
    single matrices gives a float.  Each value is computed as for a single
    vector, with the same rounding, and depends only on the direction of
    the vector: 2**-600 * v and v give equal values.
    """
    kind = FunctionalKind(_identifier(kind, "functional kind"))
    _instance(matrices, CurvatureMatrices, "matrices")
    v = _direction_rows(_numeric(v, "vector"))
    if v.shape[-1] != matrices.n:
        raise UsageError(f"vector has dimension {v.shape[-1]}, matrices have {matrices.n}")
    _require_broadcast(matrices.rbc.shape[:-2], v.shape[:-1])
    row, col = v[..., None, :], v[..., :, None]
    norm2 = (row @ col)[..., 0, 0]
    if kind in (FunctionalKind.QOBC, FunctionalKind.ALTERED_QOBC):
        m = matrices.rbc if kind is FunctionalKind.QOBC else matrices.altered
        num = np.sum(m * (col - row) ** 2, axis=(-2, -1))
    else:
        num = (row @ quadratic_form_matrix(kind, matrices) @ col)[..., 0, 0]
    out = num / norm2
    return float(out) if out.ndim == 0 else out


def rayleigh_bounds(m):
    """Sharp bounds of v^T m v / |v|^2: extreme eigenvalues of the symmetric
    part; a stack of matrices gives two arrays, one eigensolve for all."""
    m = ensure_finite(_square(m, "matrix", stack=None), "matrix")
    values = np.linalg.eigh(0.5 * (m + np.swapaxes(m, -1, -2)))[0]
    lo, hi = values[..., 0], values[..., -1]
    return (float(lo), float(hi)) if lo.ndim == 0 else (lo, hi)


def weitzenbock(m):
    """Symmetric W with v^T W v = sum_{a,g} m[a,g] (v_a - v_g)^2, for a
    matrix or a stack of them."""
    m = _square(m, "matrix", stack=None)
    sums = np.zeros(m.shape)
    diag = np.arange(m.shape[-1])
    sums[..., diag, diag] = m.sum(axis=-1) + m.sum(axis=-2)
    return sums - (m + np.swapaxes(m, -1, -2))


def frame_form(tensor, kind):
    """Real symmetric n^2 x n^2 form Q on Herm(n), in the basis of
    ``_hermitian_basis``, whose quadratic form at the coordinates c of
    A = sum_a x_a u_a^T conj(u_a) is |x|^2 times the functional at frame rows
    u_a and vector x under the full convention.  Every Hermitian A arises
    this way, with |x| = |A|_F, so the extreme eigenvalues of Q are the inf
    and sup of the functional over every frame and vector.

    With S = R for the rbc slice and S = R_(pt)(qs) for the altered slice,
    S(A, A) = sum A[p,q] S[p,q,s,t] A[s,t] is the repeated-pair form; the
    difference forms add the row and column sums S(A^2, I) + S(I, A^2), which
    are the linear functional ell[p,q] = S[p,q,s,s] + S[s,s,p,q] at A^2.
    """
    kind = FunctionalKind(_identifier(kind, "functional kind"))
    require_frame(tensor, "frame_form")
    if kind is FunctionalKind.ALTERED_HSC:
        return frame_form(tensor, "rbc") + frame_form(tensor, "altered_rbc")
    n = tensor.n
    basis = _hermitian_basis(n)
    s = tensor.values
    if kind in (FunctionalKind.ALTERED_RBC, FunctionalKind.ALTERED_QOBC):
        s = s.transpose(0, 3, 2, 1)
    q = (basis @ s.reshape(n * n, n * n) @ basis.T).real
    if kind in (FunctionalKind.QOBC, FunctionalKind.ALTERED_QOBC):
        ell = np.einsum("pqss->pq", s) + np.einsum("sspq->pq", s)
        # ell(B_k B_l) = sum B_k[p, r] (ell B_l^T)[p, r]
        mats = basis.reshape(n * n, n, n)
        pushed = ell @ np.swapaxes(mats, -1, -2)
        q = (basis @ pushed.reshape(n * n, n * n).T).real - 2.0 * q
    return 0.5 * (q + q.T)


# ---------------------------------------------------------------------------
# constant-curvature hypothesis checks

@dataclass(frozen=True)
class _Constant:
    c: float

    def __post_init__(self):
        _number(self.c, "constant c")


class ConstHSC(_Constant):
    pass


class ConstAlteredRBC(_Constant):
    pass


class ConstAlteredHBC(_Constant):
    pass


def _report(name, rows, tol, details=None):
    """IdentityReport over blocks of residual rows.

    Each block is (label, lhs, rhs, res): res holds the residual of each
    row, lhs and rhs the two sides (broadcast against res, complex or real),
    and label(i) the label of row i.  The witnesses are the five largest
    residuals, ties kept in row order.
    """
    res = np.concatenate([np.zeros(0)] + [np.ravel(block[3]) for block in rows])
    ends = np.cumsum([np.size(block[3]) for block in rows])
    witnesses = []
    for i in np.argsort(-res, kind="stable")[:5]:
        b = int(np.searchsorted(ends, i, side="right"))
        label, lhs, rhs, block_res = rows[b]
        j = int(i) - (int(ends[b - 1]) if b else 0)
        sides = [complex(np.broadcast_to(x, np.shape(block_res)).flat[j]) for x in (lhs, rhs)]
        witnesses.append([label(j)] + [[z.real, z.imag] for z in sides])
    max_resid = float(res.max()) if res.size else 0.0
    return IdentityReport(
        name=name, passed=bool(max_resid <= tol), max_residual=max_resid,
        witnesses=witnesses, details=details or {})


def _index_labels(shape):
    return lambda j: [int(i) for i in np.unravel_index(j, shape)]


def _pair_sum_residuals(r, target):
    """Rows R[i,j,k,l] + R[k,l,i,j] == target[i,j,k,l], all tuples."""
    s = r + r.transpose(2, 3, 0, 1)
    return _index_labels(r.shape), s, target, np.abs(s - target)


def _equality_rows(name, lhs, rhs):
    """Rows lhs[idx] == rhs[idx] of an array equality, labelled [name, *idx]."""
    index = _index_labels(np.shape(lhs))
    return lambda j: [name] + index(j), lhs, rhs, np.abs(lhs - rhs)


def _sym(m):
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def constant_identity_check(tensor, hypothesis):
    """Check the algebraic identities forced by a constant-curvature hypothesis.

    Each identity between quadratic forms is checked exactly, as the
    equality of the symmetric matrices (or tensors) that carry them, entry
    by entry; witnesses are labelled by identity name and entry.  B is the
    orthonormal basis of Herm(n) of ``linalg._hermitian_basis``, read as an
    (n^2, n^2) array, t_i = tr B_i, and 1 the all-ones vector.

    ConstHSC(c): diagonal entries R_iiii = c; the four-term sums
        R_iikk + R_kiik + R_ikki + R_kkii = 2c for i != k; the altered
        sectional form c(1 + (sum v)^2) on unit vectors, i.e.
        sym(rbc + altered) = c (I + 1 1^T); and the frame-quantified trace
        identity sum R[k,l,s,t] (x[k,l] x[s,t] + x[k,t] x[s,l])
        = c (tr(x)^2 + tr(x^2)) over Hermitian x, i.e.
        sym(B (R_(kl)(st) + R_(kt)(sl)) B^T) = c (t t^T + I).
    ConstAlteredRBC(c): pair sums R[i,j,k,l] + R[k,l,i,j] = 2c d_ij d_kl; the
        trace identity sum R[k,l,s,t] x[k,t] x[s,l] = c tr(x^2), i.e.
        sym(B R_(kt)(sl) B^T) = c I; and the rbc closed form
        c (sum v)^2 / |v|^2, i.e. sym(rbc) = c 1 1^T.
    ConstAlteredHBC(c): pair sums = c d_ij d_kl; the rbc closed form
        (c/2)(sum v)^2 / |v|^2, i.e. sym(rbc) = (c/2) 1 1^T; the bound
        |rbc| <= c n / 2 on both Rayleigh bounds of rbc; hsc == c/2, i.e. the
        real part of R symmetrized in its two holomorphic and its two
        antiholomorphic slots equals (c/2) (d_ij d_kl + d_il d_kj) / 2; and
        altered rbc == c/2, i.e. sym(altered) = (c/2) I.
    """
    require_frame(tensor, "constant_identity_check")
    if not isinstance(hypothesis, (ConstHSC, ConstAlteredRBC, ConstAlteredHBC)):
        raise UsageError(f"unknown hypothesis {hypothesis!r}")
    r = tensor.values
    n = tensor.n
    eye, ones = np.eye(n), np.ones((n, n))
    dd = np.einsum("ij,kl->ijkl", eye, eye)                # d_ij d_kl
    basis = _hermitian_basis(n)
    flat = r.reshape(n * n, n * n)                         # R_(kl)(st)
    crossed = r.transpose(0, 3, 2, 1).reshape(n * n, n * n)  # R_(kt)(sl)
    rows = []
    details = {"hypothesis": type(hypothesis).__name__, "c": hypothesis.c}
    c = hypothesis.c

    if isinstance(hypothesis, ConstHSC):
        diag = np.einsum("iiii->i", r)
        rows.append((lambda j: [j] * 4, diag, c, np.abs(diag - c)))
        rbc, alt = np.einsum("aagg->ag", r), np.einsum("agga->ag", r)
        off = ~np.eye(n, dtype=bool)
        pairs = np.argwhere(off)
        four = (rbc + alt.T + alt + rbc.T)[off]  # R_iikk + R_kiik + R_ikki + R_kkii
        rows.append((lambda j: [int(i) for i in pairs[j]], four, 2 * c, np.abs(four - 2 * c)))
        rows.append(_equality_rows("altered_hsc", _sym(rbc.real + alt.real), c * (eye + ones)))
        traces = np.trace(basis.reshape(n * n, n, n), axis1=1, axis2=2).real
        rows.append(_equality_rows("trace_identity", _sym(basis @ (flat + crossed) @ basis.T),
                                   c * (np.outer(traces, traces) + np.eye(n * n))))

    elif isinstance(hypothesis, ConstAlteredRBC):
        rows.append(_pair_sum_residuals(r, 2 * c * dd))
        rows.append(_equality_rows("trace_identity", _sym(basis @ crossed @ basis.T),
                                   c * np.eye(n * n)))
        rows.append(_equality_rows("rbc_closed_form", _sym(matrices_from(tensor).rbc), c * ones))

    else:
        rows.append(_pair_sum_residuals(r, c * dd))
        m = matrices_from(tensor)
        half = 0.5 * c
        bound = abs(half) * n
        rows.append(_equality_rows("rbc_closed_form", _sym(m.rbc), half * ones))
        extremes = np.abs(rayleigh_bounds(m.rbc))
        rows.append((lambda j: ["rbc_bound", ("min", "max")[j]], extremes, bound,
                     np.maximum(extremes - bound, 0.0)))
        # hsc(w) is the real part of sum R[i,j,k,l] w_i conj(w_j) w_k conj(w_l);
        # conj(R[j,i,l,k]) carries its conjugate
        real = 0.5 * (r + np.conj(r.transpose(1, 0, 3, 2)))
        holo = 0.5 * (real + real.transpose(2, 1, 0, 3))
        sym_r = 0.5 * (holo + holo.transpose(0, 3, 2, 1))
        target = 0.5 * half * (dd + dd.transpose(0, 3, 2, 1))   # d_il d_kj
        rows.append(_equality_rows("hsc_constant", sym_r, target))
        rows.append(_equality_rows("altered_rbc_constant", _sym(m.altered), half * eye))

    return _report(f"constant_identity[{type(hypothesis).__name__}]", rows,
                   DEFAULT.identity_check, details)


# ---------------------------------------------------------------------------
# Ricci vs difference-form curvature inequalities

def ricci_qobc_bounds(tensor):
    """Margins of the Ricci and scalar inequalities implied by nonnegative
    difference-form curvatures.

    For every pair k != l the report lists

        Ric1_kk + Ric1_ll + Ric2_kk + Ric2_ll - 2 (R[k,l,l,k] + R[l,k,k,l])
        Ric3_kk + Ric3_ll + Ric4_kk + Ric4_ll - 2 (R[k,k,l,l] + R[l,l,k,k])

    together with the two scalar-trace margins; passed means all margins are
    >= -``Tolerances.identity_check``.  The nonnegativity hypotheses
    themselves, qobc and altered qobc >= 0 in every unitary frame under the
    full convention, are decided exactly and recorded in the details, not
    enforced: the least value of each over every frame and vector is the
    least eigenvalue of its ``frame_form``.
    """
    n = require_frame(tensor, "ricci_qobc_bounds").n
    m = matrices_from(tensor)
    scal, scal_alt = scalars(tensor)
    # diag(Ric1 + Ric2) is the row plus the column sums of rbc, diag(Ric3 + Ric4) of altered
    k, l = np.triu_indices(n, 1)
    diag12, diag34 = (s.sum(axis=1) + s.sum(axis=0) for s in (m.rbc, m.altered))
    cross, cross_alt = (s[k, l] + s[l, k] for s in (m.altered, m.rbc))
    pair12 = diag12[k] + diag12[l] - 2.0 * cross
    pair34 = diag34[k] + diag34[l] - 2.0 * cross_alt
    margins = [(f"ric{name}_pair[{a},{b}]", float(value))
               for a, b, v12, v34 in zip(k, l, pair12, pair34)
               for name, value in (("12", v12), ("34", v34))]
    if n > 1:
        margins.append(("scal_bound", scal - float(cross.sum()) / (n - 1)))
        margins.append(("scal_alt_bound", scal_alt - float(cross_alt.sum()) / (n - 1)))
    values = np.array([val for _, val in margins])
    rows = [(lambda j: [margins[j][0]], values, 0.0, np.maximum(0.0, -values))]

    # inf of qobc and altered qobc over every frame and vector: one stacked
    # eigensolve of their frame forms
    lowest, _ = rayleigh_bounds(np.stack([frame_form(tensor, FunctionalKind.QOBC),
                                          frame_form(tensor, FunctionalKind.ALTERED_QOBC)]))
    qobc_psd, alt_psd = (bool(x) for x in lowest >= -DEFAULT.cone_agreement)

    details = {"margins": [[name, val] for name, val in margins],
               "scal": scal, "altered_scal": scal_alt,
               "qobc_nonneg": qobc_psd, "altered_qobc_nonneg": alt_psd,
               "qobc_min_over_frames": float(lowest[0]),
               "altered_qobc_min_over_frames": float(lowest[1])}
    return _report("ricci_qobc_bounds", rows, DEFAULT.identity_check, details)


# ---------------------------------------------------------------------------
# moment identity on the complex unit sphere

def moment_target(n):
    """Exact fourth moments of the uniform unit sphere in C^n:
    E[w_i conj(w_j) w_k conj(w_l)] = (d_ij d_kl + d_il d_kj) / (n (n+1))."""
    eye = np.eye(n)
    return (np.einsum("ij,kl->ijkl", eye, eye)
            + np.einsum("il,kj->ijkl", eye, eye)) / (n * (n + 1.0))


@functools.lru_cache(maxsize=None)
def _moment_cubature(n):
    """(nodes, weights) of a rule on the unit sphere of C^n that integrates
    every z_i conj(z_j) z_k conj(z_l) exactly (Stroud, 1971, product style).

    Write z_c = sqrt(t_c) e^(i theta_c) with t uniform on the simplex
    (Dirichlet(1, ..., 1)) and independent uniform phases.  A fourth moment
    has phase frequency m_c in [-2, 2] in each coordinate, summing to 0, so
    it is invariant under a global phase: the first phase is fixed at 0, and
    each other phase takes the values e^(2 pi i k / 3), k = 0, 1, 2, whose
    mean of e^(i m theta) is exact for |m| <= 2.  Where every frequency
    vanishes the moment is t_i t_k, which the degree-2 simplex rule
    integrates exactly: weight (3 - n) / (n (n + 1)) on the n vertices and
    4 / (n (n + 1)) on the n (n - 1) / 2 edge midpoints.  That makes
    3^(n-1) n (n + 1) / 2 nodes, 9 at n = 2.
    """
    eye = np.eye(n)
    pairs = list(itertools.combinations(range(n), 2))
    simplex = np.concatenate([eye] + [0.5 * (eye[[i]] + eye[[j]]) for i, j in pairs])
    simplex_w = np.concatenate([np.full(n, (3.0 - n) / (n * (n + 1.0))),
                                np.full(len(pairs), 4.0 / (n * (n + 1.0)))])
    roots = np.array([1.0, complex(-0.5, np.sqrt(0.75)), complex(-0.5, -np.sqrt(0.75))])
    phases = np.array([(1.0,) + p for p in itertools.product(roots, repeat=n - 1)])
    nodes = (np.sqrt(simplex)[:, None, :] * phases[None, :, :]).reshape(-1, n)
    weights = np.repeat(simplex_w / len(phases), len(phases))
    for table in (nodes, weights):
        table.flags.writeable = False
    return nodes, weights


def _rule_moments(nodes, weights):
    """sum_a weights[a] z_i conj(z_j) z_k conj(z_l) over the rows z of nodes,
    as the weighted Gram product A^T diag(weights) A with
    A[a, (i, j)] = z_i conj(z_j)."""
    n = nodes.shape[-1]
    a = (nodes[:, :, None] * np.conj(nodes)[:, None, :]).reshape(-1, n * n)
    return (a.T @ (weights[:, None] * a)).reshape((n,) * 4)
