"""Chern curvature tensors: assembly from metric jets, frame conversion,
frame transformations, Ricci contractions, and synthetic test tensors.

Index convention throughout: R[i, j, k, l] means R_{i jbar k lbar}, with the
Hermitian symmetry conj(R[i, j, k, l]) = R[j, i, l, k].  A tensor is either
in the coordinate basis (metric attached) or in a unitary frame (implicit
metric = identity); contractions to Ricci and scalar curvatures require the
frame basis.

Two frame-change conventions coexist because both appear in practice:

* full      all four indices transform, R ~ (U x Ubar x U x Ubar) R;
* adjoint   only the endomorphism block transforms: for each fixed (i, j)
            the matrix M[k, l] = R[i, j, k, l] maps to U M U^H.

The full convention is the honest change of unitary frame; the adjoint one
treats the tensor as a matrix of invariant (1,1)-forms and is the convention
under which the Hopf-surface components are frame independent.
"""

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import DEFAULT, MAX_DIM, MAX_ENTRY
from .errors import DomainError, UsageError
from .linalg import (_identifier, _instance, _integer, _number, _numeric, _square,
                     cholesky_frame, max_modulus, rng_from, unitary_residual)
from .metrics import HOPF_SQ_RANGE, MetricJet, _chart_sq_norm

COORDINATE = "coordinate"
FRAME = "frame"


class FrameConvention(str, enum.Enum):
    FULL = "full"
    ADJOINT = "adjoint"

    @classmethod
    def _missing_(cls, value):
        raise UsageError(f"unknown frame convention '{value}'; "
                         f"choices: {[c.value for c in cls]}")


class RicciKind(enum.IntEnum):
    FIRST = 1
    SECOND = 2
    THIRD = 3
    FOURTH = 4

    @classmethod
    def _missing_(cls, value):
        raise UsageError(f"unknown Ricci kind {value!r}; choices: {[k.value for k in cls]}")


def hermitian_tensor_residual(values):
    return float(np.abs(np.conj(values) - values.transpose(1, 0, 3, 2)).max())


@dataclass(frozen=True)
class ChernTensor:
    """Dense n^4 curvature tensor with a basis tag, checked once when built.

    A UsageError unless values is a numeric (n, n, n, n) array, n >= 1, the
    basis 'coordinate' or 'frame', and an (n, n) numeric metric present
    exactly on a coordinate tensor; a DomainError unless every entry is
    finite and at most MAX_ENTRY, and ``sym_residual``, the Hermitian
    residual, at most ``Tolerances.tensor_hermitian`` x max(1, max|R|).  The
    values are kept as a read-only complex copy.
    """

    values: np.ndarray
    basis: str
    metric: Optional[np.ndarray] = None
    sym_residual: float = field(init=False)

    def __post_init__(self):
        values = np.array(_numeric(self.values, "curvature tensor", complex))
        n = values.shape[0] if values.ndim else 0
        if n == 0 or values.shape != (n,) * 4:
            raise UsageError(f"curvature tensor must be an (n, n, n, n) array with n >= 1, "
                             f"got shape {values.shape}")
        if _identifier(self.basis, "tensor basis") not in (COORDINATE, FRAME):
            raise UsageError(f"unknown tensor basis '{self.basis}'; bases: {COORDINATE}, {FRAME}")
        if (self.metric is None) == (self.basis == COORDINATE):
            raise UsageError("a tensor carries a metric if and only if its basis is 'coordinate'")
        if self.metric is not None and _square(self.metric, "tensor metric", None).shape != (n, n):
            raise UsageError(f"tensor metric must be {n} x {n}, got shape {np.shape(self.metric)}")
        scale = max(1.0, max_modulus(values, "curvature tensor"))
        resid = hermitian_tensor_residual(values)
        if resid > DEFAULT.tensor_hermitian * scale:
            raise DomainError(f"tensor violates Hermitian symmetry: residual {resid:.3e}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sym_residual", resid)

    @property
    def n(self):
        return self.values.shape[0]


def require_frame(tensor, op):
    """tensor itself if it is a frame ChernTensor, else UsageError."""
    if _instance(tensor, ChernTensor, f"tensor given to {op}").basis != FRAME:
        raise UsageError(f"{op} needs a unitary-frame tensor; convert with to_frame first")
    return tensor


def curvature_from_jet(jet):
    """Coordinate-basis Chern curvature of a metric 2-jet:

        R_{i jbar k lbar} = - ddg[i,j,k,l]
                            + sum_{p,q} g^{p qbar} dg[i,k,q] conj(dg[j,l,p])

    where g^{p qbar} is the inverse metric in the convention
    sum_q g^{p qbar} g_{s qbar} = delta_{p s}.  That is g^{-1} = conj(E) E^T
    for the frame E of ``cholesky_frame``, which refuses an unusable g, so with
    D[(i,k), q] = dg[i,k,q] the correction D g^{-1} D^H is Y Y^H, Y = D conj(E).
    """
    g = np.asarray(_instance(jet, MetricJet, "jet").g, dtype=complex)
    y = np.reshape(jet.dg, (jet.n ** 2, jet.n)) @ np.conj(cholesky_frame(g))
    correction = (y @ np.conj(y).T).reshape((jet.n,) * 4).transpose(0, 2, 1, 3)
    return ChernTensor(-jet.ddg + correction, COORDINATE, metric=g)


def _change_indices(r, factors):
    """sum_{pqst} f0[i,p] f1[j,q] f2[k,s] f3[l,t] r[p,q,s,t] for factors
    (f0, f1, f2, f3), each a matrix, a (k, n, n) stack (the result is then
    (k, n, n, n, n)) or None (its index stays), in four one-index steps: each
    moves the next index to the end and multiplies the (n^3, n) matrix by the
    factor's transpose, O(n^5).  For one matrix that is numpy's tensordot bit
    for bit; every row of a stack of any layout equals its single call."""
    n = r.shape[-1]
    for factor in factors:
        r = r.transpose(*range(r.ndim - 4), -3, -2, -1, -4)
        if factor is not None:
            r = r.reshape(r.shape[:-4] + (n ** 3, n)) @ np.swapaxes(factor, -1, -2)
            r = r.reshape(r.shape[:-2] + (n,) * 4)
    return r


def _checked_frame_change(tensor, u, op, ranks=None):
    """u as a complex (n, n) unitary or stack of them (of a rank in ranks, if
    given) for the frame tensor.  A wrong shape, an empty stack, a non-numeric
    or non-finite entry, or a matrix farther than
    ``Tolerances.frame_change_unitary`` from unitary is a UsageError."""
    n = require_frame(tensor, op).n
    u = _numeric(u, "frame-change matrix", complex)
    if (ranks is not None and u.ndim not in ranks) or u.shape[-2:] != (n, n) or u.size == 0:
        raise UsageError(f"unitary has shape {u.shape}, tensor has dimension {n}")
    if not np.isfinite(u).all():
        raise UsageError("frame-change matrix contains NaN or Inf entries")
    if unitary_residual(u) > DEFAULT.frame_change_unitary:
        raise UsageError("frame-change matrix is not unitary")
    return u


def to_frame(tensor):
    """Convert a coordinate tensor to the unitary frame of its metric."""
    if _instance(tensor, ChernTensor, "tensor given to to_frame").basis == FRAME:
        return tensor
    e = cholesky_frame(tensor.metric).T
    return ChernTensor(_change_indices(tensor.values, (e, np.conj(e), e, np.conj(e))), FRAME)


def transform_frame(tensor, u, convention):
    """Apply a unitary frame change under the named convention: all four
    indices change under the full one, the last two under the adjoint one.

    u may also be a (k, n, n) stack of unitaries: the result is then a tuple
    of k frame tensors from one stacked frame change, with the whole stack
    checked once, and each tensor equal bit for bit to its single call,
    whatever the stack's size or layout.
    """
    u = _checked_frame_change(tensor, u, "transform_frame", ranks=(2, 3))
    uc = np.conj(u)
    full = FrameConvention(_identifier(convention, "frame convention")) is FrameConvention.FULL
    values = _change_indices(tensor.values, ((u, uc) if full else (None, None)) + (u, uc))
    if u.ndim == 3:
        return tuple(ChernTensor(v, FRAME) for v in values)
    return ChernTensor(values, FRAME)


def ricci(tensor, kind):
    """One of the four Ricci contractions of a frame tensor."""
    r = require_frame(tensor, "ricci").values
    kind = RicciKind(_identifier(kind, "Ricci kind", integer=True))
    if kind is RicciKind.FIRST:
        out = np.einsum("ijkk->ij", r)
    elif kind is RicciKind.SECOND:
        out = np.einsum("iikl->kl", r)
    elif kind is RicciKind.THIRD:
        out = np.einsum("ijki->kj", r)
    else:
        out = np.einsum("ikkl->il", r)
    return out


def scalars(tensor):
    """(Scal, altered Scal): the two scalar traces of a frame tensor."""
    r = require_frame(tensor, "scalars").values
    s = complex(np.einsum("iikk->", r))
    s_alt = complex(np.einsum("ikki->", r))
    scale = max(1.0, float(np.abs(r).max()))
    if max(abs(s.imag), abs(s_alt.imag)) > DEFAULT.scalar_imag * scale:
        raise DomainError("scalar traces have non-negligible imaginary part")
    return s.real, s_alt.real


# ---------------------------------------------------------------------------
# synthetic frame tensors

def kahler_constant(c, n):
    """Tensor of a Kaehler metric with constant holomorphic sectional
    curvature c: R = (c/2)(delta_ij delta_kl + delta_il delta_kj)."""
    c = _number(c, "parameter 'c'")
    n = _integer(n, "parameter 'n'", 1)
    eye = np.eye(n)
    vals = 0.5 * c * (np.einsum("ij,kl->ijkl", eye, eye) + np.einsum("il,kj->ijkl", eye, eye))
    return ChernTensor(vals, FRAME)


def skew_pair(c, n, seed):
    """Tensor satisfying the constant altered-bisectional relations
    R_{i jbar k lbar} + R_{k lbar i jbar} = c delta_ij delta_kl:
    diagonal R_{i ibar i ibar} = c/2 and R_{i ibar j jbar} = c/2 + s_ij with
    s a seeded antisymmetric real matrix."""
    c = _number(c, "parameter 'c'")
    n = _integer(n, "parameter 'n'", 1)
    rng = rng_from(seed)
    a = rng.standard_normal((n, n))
    s = 0.5 * (a - a.T)
    vals = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            vals[i, i, j, j] = 0.5 * c + s[i, j]
    return ChernTensor(vals, FRAME)


def paper_hopf(z):
    """Closed-form Hopf-surface components, used verbatim as frame components:
    R[i,j,k,l] = 4 delta_kl (delta_ij |z|^2 - z_j conj(z_i)) / |z|^6.  A z
    whose |z|^6 is not a normal float (|z|^2 outside HOPF_SQ_RANGE) is a
    DomainError."""
    z = _numeric(z, "parameter 'z'", complex).reshape(-1)
    if z.size != 2:
        raise UsageError("the Hopf tensor lives on n = 2")
    rho = float(_chart_sq_norm(z))
    if rho == 0.0:
        raise DomainError("the Hopf tensor is singular at z = 0")
    low, high = HOPF_SQ_RANGE
    if not low <= rho <= high:
        raise DomainError(f"the Hopf tensor needs {low:.3g} <= |z|^2 <= {high:.3g}, where "
                          f"|z|^6 is a normal float, got z = {z.tolist()}")
    abs2 = np.abs(z) ** 2
    block = -4.0 * np.einsum("j,i->ij", z, np.conj(z)) / rho ** 3
    block[0, 0] = 4.0 * abs2[1] / rho ** 3
    block[1, 1] = 4.0 * abs2[0] / rho ** 3
    vals = np.einsum("ij,kl->ijkl", block, np.eye(2))
    return ChernTensor(vals, FRAME)


def paper_tricerri(b, d, im_w):
    """Two-parameter Tricerri frame family: the only nonzero entries are
    R[2,2,1,1] = |b|^2 R0 and R[2,2,2,2] = |d|^2 R0 with
    R0 = -3 / (2 Im(w)^4).  Unitarity bounds each row entry: |b| <= 1 and
    |d| <= 1.  An Im(w) that is not positive and finite, or whose |R0|
    exceeds MAX_ENTRY, is a DomainError."""
    # a part above 2 puts |b|^2 above the row bound; 4 stands in for a square
    # that could overflow
    bb, dd = (4.0 if max(abs(z.real), abs(z.imag)) > 2.0 else abs(z) ** 2
              for z in (complex(_number(b, "parameter 'b'", numbers.Complex)),
                        complex(_number(d, "parameter 'd'", numbers.Complex))))
    bound = 1.0 + DEFAULT.tricerri_row_bound
    if bb > bound or dd > bound:
        raise UsageError("|b| and |d| must each be <= 1 (unitarity row bound)")
    im_w = float(_number(im_w, "parameter 'im_w'"))
    try:
        r0 = -1.5 / im_w ** 4
    except (OverflowError, ZeroDivisionError):   # Im(w)^4 over- or underflows
        r0 = math.nan
    if not (0.0 < im_w < math.inf and abs(r0) <= MAX_ENTRY):
        raise DomainError(f"Im(w) must be positive and finite, with 3/(2 Im(w)^4) "
                          f"at most MAX_ENTRY = {MAX_ENTRY:.3g}, got {im_w!r}")
    vals = np.zeros((2, 2, 2, 2), dtype=complex)
    vals[1, 1, 0, 0] = bb * r0
    vals[1, 1, 1, 1] = dd * r0
    return ChernTensor(vals, FRAME)


def random_tensor(seed, n):
    """Seeded random tensor with Hermitian symmetry enforced."""
    n = _integer(n, "parameter 'n'", 1)
    rng = rng_from(seed)
    raw = rng.standard_normal((n, n, n, n)) + 1j * rng.standard_normal((n, n, n, n))
    vals = 0.5 * (raw + np.conj(raw).transpose(1, 0, 3, 2))
    return ChernTensor(vals, FRAME)


def make_synthetic(kind, **params):
    """Dispatcher used by the CLI: kahler_constant | skew_pair | paper_hopf |
    paper_tricerri | random.  Each builder checks its own parameters; here n
    is bounded by MAX_DIM first."""
    builders = {
        "kahler_constant": lambda: kahler_constant(params["c"], params["n"]),
        "skew_pair": lambda: skew_pair(params["c"], params["n"], params.get("seed", 0)),
        "paper_hopf": lambda: paper_hopf(params["z"]),
        "paper_tricerri": lambda: paper_tricerri(params.get("b", 0.0), params.get("d", 1.0),
                                                 params["im_w"]),
        "random": lambda: random_tensor(params.get("seed", 0), params["n"]),
    }
    try:
        builder = builders[_identifier(kind, "synthetic tensor kind")]
    except KeyError:
        raise UsageError(f"unknown synthetic tensor '{kind}'; kinds: {sorted(builders)}") from None
    if "n" in params:
        _integer(params["n"], "parameter 'n'", 1, MAX_DIM)
    try:
        return builder()
    except KeyError as missing:
        raise UsageError(f"synthetic tensor '{kind}' needs parameter {missing}") from None
