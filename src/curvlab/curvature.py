"""Chern curvature tensors: assembly from metric jets, frame conversion,
frame transformations, Ricci contractions, and synthetic test tensors.

Index convention throughout: R[i, j, k, l] means R_{i jbar k lbar}, with the
Hermitian symmetry conj(R[i, j, k, l]) = R[j, i, l, k].  A tensor is either
in the coordinate basis (metric attached) or in a unitary frame (implicit
metric = identity); contractions to Ricci and scalar curvatures require the
frame basis.

The pointwise pipeline takes stacks: a ``ChernTensor`` may hold a
(..., n, n, n, n) stack of tensors, checked in one pass, and
``curvature_from_jet``, ``to_frame`` and ``paper_hopf`` map a stack of jets,
tensors or points to one stacked tensor, as ``transform_frame`` does a stack
of unitaries.  Each row of a stacked result equals its single call bit for
bit, and a stacked check that refuses names the first bad index.  Every
other operation here takes one tensor (``require_frame``).

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
from .linalg import (_first_bad, _identifier, _instance, _integer, _number, _numeric,
                     _square, cholesky_frame, hermitian_tensor_residual, max_modulus, rng_from,
                     unitary_residual)
from .metrics import HOPF_SQ_RANGE, MetricJet, _chart_sq_norm, _pow

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


@dataclass(frozen=True)
class ChernTensor:
    """Dense n^4 curvature tensor, or a stack of them, with a basis tag,
    checked once when built.

    A UsageError unless values is a numeric (n, n, n, n) array or a nonempty
    (..., n, n, n, n) stack of them, n >= 1, the basis 'coordinate' or
    'frame', and a numeric metric, (n, n) or the stack's (..., n, n),
    present exactly on a coordinate tensor; a DomainError unless every entry
    is finite and at most MAX_ENTRY, and ``sym_residual``, the Hermitian
    residual, at most ``Tolerances.tensor_hermitian`` x max(1, max|R|).  A
    stack is checked in one pass with one bound per tensor, and a refusal
    names the first bad index.  The values are kept as a read-only complex
    copy.  ``sym_residual`` is a float for one tensor and an array over the
    stack otherwise; indexing and iterating a stack give its tensors, which
    share its checked values.
    """

    values: np.ndarray
    basis: str
    metric: Optional[np.ndarray] = None
    sym_residual: float = field(init=False)

    def __post_init__(self):
        values = np.array(_numeric(self.values, "curvature tensor", complex))
        n = values.shape[-1] if values.ndim >= 4 else 0
        if n == 0 or values.shape[-4:] != (n,) * 4 or values.size == 0:
            raise UsageError(f"curvature tensor must be an (n, n, n, n) array with n >= 1, "
                             f"or a nonempty stack of them, got shape {values.shape}")
        if _identifier(self.basis, "tensor basis") not in (COORDINATE, FRAME):
            raise UsageError(f"unknown tensor basis '{self.basis}'; bases: {COORDINATE}, {FRAME}")
        if (self.metric is None) == (self.basis == COORDINATE):
            raise UsageError("a tensor carries a metric if and only if its basis is 'coordinate'")
        if (self.metric is not None and _square(self.metric, "tensor metric", None, stack=None)
                .shape != values.shape[:-4] + (n, n)):
            raise UsageError(f"tensor metric must be {n} x {n} for each tensor, got shape "
                             f"{np.shape(self.metric)} for tensors of shape {values.shape}")
        top = max_modulus(values, "curvature tensor", rank=4)
        resid = hermitian_tensor_residual(values)
        tol = DEFAULT.tensor_hermitian   # resid above tol x max(1, max|R|), tensor by tensor
        refused = _first_bad((resid > tol) & (resid > tol * top))
        if refused:
            index, at = refused
            raise DomainError(f"tensor{at} violates Hermitian symmetry: "
                              f"residual {np.asarray(resid)[index]:.3e}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sym_residual", resid)

    @property
    def n(self):
        return self.values.shape[-1]

    def __getitem__(self, index):
        """The tensor, or stack of tensors, at index of the stack's leading
        axes, sharing the stack's checked values; IndexError on one tensor."""
        resid = np.asarray(self.sym_residual)[index]
        part = object.__new__(ChernTensor)
        for name, value in (("values", self.values[index]), ("basis", self.basis),
                            ("metric", None if self.metric is None else self.metric[index]),
                            ("sym_residual", float(resid) if resid.ndim == 0 else resid)):
            object.__setattr__(part, name, value)
        return part

    def __iter__(self):
        """The tensors along the stack's first axis."""
        return (self[j] for j in range(self.values.shape[0]))


def require_frame(tensor, op, stack=False):
    """tensor itself if it is a frame ChernTensor, and with stack=False a
    single one, else UsageError."""
    if _instance(tensor, ChernTensor, f"tensor given to {op}").basis != FRAME:
        raise UsageError(f"{op} needs a unitary-frame tensor; convert with to_frame first")
    if not stack and tensor.values.ndim != 4:
        raise UsageError(f"{op} takes one tensor, got a stack of shape {tensor.values.shape[:-4]}")
    return tensor


def curvature_from_jet(jet):
    """Coordinate-basis Chern curvature of a metric 2-jet, or the stacked
    tensor of a stacked jet:

        R_{i jbar k lbar} = - ddg[i,j,k,l]
                            + sum_{p,q} g^{p qbar} dg[i,k,q] conj(dg[j,l,p])

    where g^{p qbar} is the inverse metric in the convention
    sum_q g^{p qbar} g_{s qbar} = delta_{p s}.  That is g^{-1} = conj(E) E^T
    for the frame E of ``cholesky_frame``, which refuses an unusable g, so with
    D[(i,k), q] = dg[i,k,q] the correction D g^{-1} D^H is Y Y^H, Y = D conj(E).
    """
    g = np.asarray(_instance(jet, MetricJet, "jet").g, dtype=complex)
    n, lead = jet.n, g.shape[:-2]
    y = np.reshape(jet.dg, lead + (n * n, n)) @ np.conj(cholesky_frame(g))
    correction = (y @ y.conj().swapaxes(-1, -2)).reshape(lead + (n,) * 4)
    return ChernTensor(-jet.ddg + correction.swapaxes(-3, -2), COORDINATE, metric=g)


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
    """Convert a coordinate tensor, or a stack of them, to the unitary frame
    of its metric."""
    if _instance(tensor, ChernTensor, "tensor given to to_frame").basis == FRAME:
        return tensor
    e = cholesky_frame(tensor.metric).swapaxes(-1, -2)
    return ChernTensor(_change_indices(tensor.values, (e, np.conj(e), e, np.conj(e))), FRAME)


def transform_frame(tensor, u, convention):
    """Apply a unitary frame change under the named convention: all four
    indices change under the full one, the last two under the adjoint one.

    u may also be a (k, n, n) stack of unitaries: the result is then one
    stacked frame tensor of k tensors from one stacked frame change, with the
    unitaries and the tensors each checked once per stack, and each tensor
    equal bit for bit to its single call, whatever the stack's size or
    layout.
    """
    u = _checked_frame_change(tensor, u, "transform_frame", ranks=(2, 3))
    uc = np.conj(u)
    full = FrameConvention(_identifier(convention, "frame convention")) is FrameConvention.FULL
    return ChernTensor(_change_indices(tensor.values, ((u, uc) if full else (None, None))
                                       + (u, uc)), FRAME)


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
    """(Scal, altered Scal): real parts of the two scalar traces of a frame
    tensor, whose Hermitian check bounds their imaginary parts."""
    r = require_frame(tensor, "scalars").values
    return float(np.einsum("iikk->", r).real), float(np.einsum("ikki->", r).real)


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
    R[i,j,k,l] = 4 delta_kl (delta_ij |z|^2 - z_j conj(z_i)) / |z|^6, one
    tensor for a point z in C^2 and a stacked tensor for a (..., 2) stack of
    points.  A z whose |z|^6 is not a normal float (|z|^2 outside
    HOPF_SQ_RANGE) is a DomainError naming the first such point."""
    z = _numeric(z, "parameter 'z'", complex)
    z = z.reshape(-1) if z.ndim < 2 else z
    if z.shape[-1] != 2:
        raise UsageError("the Hopf tensor lives on n = 2")
    rho = _chart_sq_norm(z)
    low, high = HOPF_SQ_RANGE
    outside = _first_bad(~((low <= rho) & (rho <= high)))   # low > 0: z = 0 is outside
    if outside:
        zero = _first_bad(rho == 0.0)
        if zero:
            raise DomainError(f"the Hopf tensor is singular at z = 0{zero[1]}")
        index, at = outside
        raise DomainError(f"the Hopf tensor needs {low:.3g} <= |z|^2 <= {high:.3g}, where "
                          f"|z|^6 is a normal float, got z = {z[index].tolist()}{at}")
    cube = _pow(rho, 3)[..., None, None]
    abs2 = np.abs(z) ** 2
    block = -4.0 * np.einsum("...j,...i->...ij", z, np.conj(z)) / cube
    block[..., 0, 0] = 4.0 * abs2[..., 1] / cube[..., 0, 0]
    block[..., 1, 1] = 4.0 * abs2[..., 0] / cube[..., 0, 0]
    vals = np.einsum("...ij,kl->...ijkl", block, np.eye(2))
    return ChernTensor(vals, FRAME)


def paper_tricerri(b, d, im_w):
    """Two-parameter Tricerri frame family: the only nonzero entries are
    R[2,2,1,1] = |b|^2 R0 and R[2,2,2,2] = |d|^2 R0 with
    R0 = -3 / (2 Im(w)^4).  Unitarity bounds each row entry: |b| <= 1 and
    |d| <= 1.  An Im(w) that is not positive and finite, or whose |R0|
    exceeds MAX_ENTRY, is a DomainError."""
    return ChernTensor(_tricerri_values(b, d, im_w), FRAME)


def _tricerri_values(b, d, im_w):
    """The values of ``paper_tricerri(b, d, im_w)``, its parameters checked:
    a stack of members makes one tensor with one check."""
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
    # R0 < 0, so a zero weight would store -0.0; adding 0.0 stores +0.0
    vals[1, 1, 0, 0] = bb * r0 + 0.0
    vals[1, 1, 1, 1] = dd * r0 + 0.0
    return vals


def random_tensor(seed, n):
    """Seeded random tensor with Hermitian symmetry enforced."""
    return ChernTensor(_random_values(seed, n), FRAME)


def _random_values(seed, n):
    """The values of ``random_tensor(seed, n)``, unchecked: a stack of them
    from several seeds makes one tensor with one check."""
    n = _integer(n, "parameter 'n'", 1)
    rng = rng_from(seed)
    raw = rng.standard_normal((n, n, n, n)) + 1j * rng.standard_normal((n, n, n, n))
    return 0.5 * (raw + np.conj(raw).transpose(1, 0, 3, 2))


def make_synthetic(kind, /, **params):
    """Dispatcher used by the CLI: kahler_constant | skew_pair | paper_hopf |
    paper_tricerri | random.  A key the builder does not read, or one it
    needs and lacks, is a UsageError; n is bounded by MAX_DIM first."""
    builders = {   # kind -> (builder, keys it needs, defaults of the others)
        "kahler_constant": (kahler_constant, ("c", "n"), {}),
        "skew_pair": (skew_pair, ("c", "n"), {"seed": 0}),
        "paper_hopf": (paper_hopf, ("z",), {}),
        "paper_tricerri": (paper_tricerri, ("im_w",), {"b": 0.0, "d": 1.0}),
        "random": (random_tensor, ("n",), {"seed": 0}),
    }
    try:
        builder, needs, defaults = builders[_identifier(kind, "synthetic tensor kind")]
    except KeyError:
        raise UsageError(f"unknown synthetic tensor '{kind}'; kinds: {sorted(builders)}") from None
    keys = sorted(needs + tuple(defaults))
    unknown = sorted(params.keys() - keys)
    missing = [key for key in needs if key not in params]
    if unknown or missing:
        fault = (f"takes no parameter '{unknown[0]}'" if unknown
                 else f"needs parameter '{missing[0]}'")
        raise UsageError(f"synthetic tensor '{kind}' {fault}; parameters: {keys}")
    if "n" in params:
        _integer(params["n"], "parameter 'n'", 1, MAX_DIM)
    return builder(**{**defaults, **params})
