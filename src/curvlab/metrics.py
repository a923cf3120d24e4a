"""Hermitian metric fields on domains in C^n and their 2-jets.

A metric field packages the dimension, a chart-domain predicate, a pointwise
evaluator returning the Hermitian matrix g_{i jbar}(p), and (for catalog
entries) a closed-form jet.  The jet of a metric at a point consists of

    g                  the metric matrix,
    dg[i, k, l]        d g_{k lbar} / d z_i,
    ddg[i, j, k, l]    d^2 g_{k lbar} / (d z_i d zbar_j),

which is exactly the data the Chern curvature formula consumes.  Jets can
also be produced by central finite differences in the Wirtinger convention
d/dz = (d/dx - i d/dy)/2.  The mixed derivatives d^2/dz_i dzbar_j come from
the Levi form d_v dbar_v g, a quarter of the Laplacian of g on the complex
line through the point along v: five-point Laplacians along e_i, e_i + e_j
and e_i + i e_j give the whole mixed block by polarization.  The stencil
offsets come from a per-dimension table, and each point is evaluated once.

The evaluator and domain test of every catalog field are stacked: given a
(..., n) stack of points they return values that broadcast to (..., n, n)
and (...) (a constant field returns its constant), and each row equals the
call on that point alone bit for bit.  Finite differences then evaluate and
domain-check a whole stencil in one call each.  A plain callable, such as a
user-built field or a wrapper around a catalog evaluator, is evaluated one
point at a time.

The pipeline downstream takes stacks too.  A ``MetricJet`` may hold a stack
of jets along leading axes; the catalog fields' closed-form ``jet`` takes a
(..., n) stack of points, and ``finite_difference_jet`` a (k, n) stack with
one step for all or one per point, checked and evaluated as one stencil
stack.  Each stacked jet equals its single call bit for bit, and a refusal
names the first bad point's index.
"""

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT, MAX_DIM, MAX_ENTRY
from .errors import DomainError, UsageError
from .linalg import (_at, _first_bad, _identifier, _instance, _integer, _numeric, _shape,
                     ensure_finite, hermitian_tensor_residual)

CHART_BOUND = 10.0      # |coordinate| bound for the Tricerri fundamental-domain chart
HOPF_MARGIN = 0.05      # hopf domain: |z| > margin
# hopf domain and paper_hopf: |z|^2 in this range keeps |z|^6 a normal float
HOPF_SQ_RANGE = (sys.float_info.min ** (1 / 3), sys.float_info.max ** (1 / 3))
TRICERRI_MARGIN = 0.05  # tricerri domain: Im(w) > margin


@dataclass(frozen=True)
class MetricJet:
    """Metric value and first/mixed-second derivatives at a point, or at each
    point of a stack.

    Shapes alone are checked when a jet is built, with no pass over the
    data: g, dg and ddg are numeric arrays of shapes (n, n), (n, n, n) and
    (n, n, n, n), n >= 1, or stacks of them along the same leading axes."""

    g: np.ndarray
    dg: np.ndarray
    ddg: np.ndarray

    def __post_init__(self):
        shapes = [_shape(self.g, "jet field 'g'"), _shape(self.dg, "jet field 'dg'"),
                  _shape(self.ddg, "jet field 'ddg'")]
        lead, n = shapes[0][:-2], shapes[0][-1:]
        for name, shape, rank in zip(("g", "dg", "ddg"), shapes, (2, 3, 4)):
            if n in ((), (0,)) or shape != lead + n * rank:
                raise UsageError(f"jet field '{name}' must have shape (n,) * {rank} after the "
                                 f"leading axes of g, n >= 1 the size of its last axis, got "
                                 f"{shape} with g of shape {shapes[0]}")

    @property
    def n(self):
        return self.g.shape[-1]

    def reality_residual(self):
        """Deviation from conj(ddg[i,j,k,l]) == ddg[j,i,l,k] and the matching
        Hermitian condition on g, read off the last axes; zero for the jet of
        a genuine metric.  A float for one jet, one residual per jet for a
        stack."""
        r_g = np.abs(self.g - self.g.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        out = np.maximum(r_g, hermitian_tensor_residual(self.ddg))
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MetricField:
    """A Hermitian metric g_{i jbar}(p) on a chart domain in C^n.  When it is
    built, n is checked to be an integer >= 1, evaluate and domain callable,
    and jet callable or None."""

    name: str
    n: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], bool]
    jet: Optional[Callable[[np.ndarray], MetricJet]] = None

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "metric field 'n'", 1))
        for name in ("evaluate", "domain", "jet"):
            value = getattr(self, name)
            if not (callable(value) or (name == "jet" and value is None)):
                raise UsageError(f"metric field '{name}' must be callable, "
                                 f"got {type(value).__name__}")


def as_point(p, n=None):
    p = _numeric(p, "point", complex).reshape(-1)
    ensure_finite(p, "point")
    if n is not None and p.size != n:
        raise UsageError(f"point has dimension {p.size}, expected {n}")
    return p


# ---------------------------------------------------------------------------
# finite differences

def _stacked(fn):
    """Mark a catalog evaluator or domain test as taking a (..., n) stack of
    points (see the module docstring)."""
    fn.stacked = True
    return fn


def _leaves_domain(points, index):
    """The refusal of stencil point index of the (..., S, n) points, naming
    the index of its point in the stack."""
    at = _at(tuple(int(i) for i in index[:-1]))
    return DomainError(f"finite-difference stencil point {points[index].tolist()}{at} "
                       "leaves the domain")


# d/dz_i f ~ sum_a _DZ[a] f(p + _UNITS[a] h e_i) / h, the central differences
# ((f(+h) - f(-h)) - i (f(+ih) - f(-ih))) / (4 h); d/dzbar has conj(_DZ)
_UNITS = (1.0, -1.0, 1j, -1j)
_DZ = np.array([1.0, -1.0, -1j, 1j]) / 4.0


@functools.lru_cache(maxsize=None)
def _stencil(n):
    """(offsets, i, j) of the stencil in C^n, offsets in units of h.

    The n^2 directions are e_i, then e_i + e_j for the pairs i < j (the pair
    m is (i[m], j[m])), then e_i + i e_j for the same pairs.  offsets[0] is
    the centre and offsets[1 + 4 d + a] is _UNITS[a] times direction d: the
    points of the five-point Laplacian on the complex line through p along
    it.  The axis points _UNITS[a] e_i, rows 1 to 4 n, also give dg.
    """
    eye = np.eye(n, dtype=complex)
    i, j = np.triu_indices(n, 1)
    directions = list(eye) + list(eye[i] + eye[j]) + list(eye[i] + 1j * eye[j])
    offsets = np.array([(0j,) * n] + [a * v for v in directions for a in _UNITS])
    for table in (offsets, i, j):
        table.flags.writeable = False
    return offsets, i, j


def _stencil_values(evaluate, points, domain):
    """Metric values at the (..., S, n) stencil points, each domain-checked,
    stacked.  A stacked domain test checks every point in one call before
    any is evaluated; a stacked evaluator then evaluates them in one call.  A
    plain domain test checks each point, and a plain evaluator evaluates it,
    in turn, in row-major order."""
    n = points.shape[-1]
    if getattr(domain, "stacked", False):
        inside = np.broadcast_to(domain(points), points.shape[:-1])
        if not inside.all():
            raise _leaves_domain(points, _first_bad(~inside)[0])
        domain = None
    if domain is None and getattr(evaluate, "stacked", False):
        values = np.empty(points.shape + (n,), dtype=complex)
        values[...] = evaluate(points)
        return values
    values = []
    for k, q in enumerate(points.reshape(-1, n)):
        if domain is not None and not domain(q):
            raise _leaves_domain(points, np.unravel_index(k, points.shape[:-1]))
        values.append(np.asarray(evaluate(q), dtype=complex))
    return np.array(values).reshape(points.shape + (n,))


def _jet_from_values(f, h):
    """The jet from the values f at the stencil offsets of step h: f is
    (..., S, n, n) and h a float or an array of f's leading shape.

    g is the centre value and dg the first differences along the axes.
    lap[d] = (sum_a f(p + _UNITS[a] h v_d) - 4 f(p)) / (4 h^2) is the Levi form
    d_v dbar_v g of direction v_d, a quarter of the Laplacian of g on its
    complex line, so ddg[i, i] = lap(e_i) and, by polarization, with
    s1 = lap(e_i + e_j) - lap(e_i) - lap(e_j) and si the same for e_i + i e_j,
    ddg[i, j] = (s1 + i si) / 2 and ddg[j, i] = (s1 - i si) / 2.  Every step
    is real-linear, so a Hermitian f gives conj(ddg[i,j,k,l]) == ddg[j,i,l,k]
    exactly."""
    n, lead = f.shape[-1], f.shape[:-3]
    _, i, j = _stencil(n)
    dg = np.einsum("a,...iakl->...ikl", _DZ, f[..., 1:4 * n + 1, :, :].reshape(
        lead + (n, 4, n, n))) / h[..., None, None, None]
    lap = ((f[..., 1:, :, :].reshape(lead + (n * n, 4, n, n)).sum(axis=-3)
            - 4.0 * f[..., :1, :, :]) / 4.0 / _pow(h, 2)[..., None, None, None])
    pairs = (lap[..., n:, :, :].reshape(lead + (2, i.size, n, n))
             - lap[..., i, :, :][..., None, :, :, :] - lap[..., j, :, :][..., None, :, :, :])
    s1, si = pairs[..., 0, :, :, :], pairs[..., 1, :, :, :]
    ddg = np.empty(lead + (n,) * 4, dtype=complex)
    ddg[..., range(n), range(n), :, :] = lap[..., :n, :, :]
    ddg[..., i, j, :, :], ddg[..., j, i, :, :] = (s1 + 1j * si) / 2.0, (s1 - 1j * si) / 2.0
    return MetricJet(g=f[..., 0, :, :], dg=dg, ddg=ddg)


def finite_difference_jet(evaluate, p, h, *, order=2, scale_with_point=True, domain=None):
    """Jet of an arbitrary pointwise metric by central Wirtinger differences.

    order=2 is the plain O(h^2) stencil; order=4 Richardson-extrapolates the
    steps h and 2 h, (4 jet(h) - jet(2 h)) / 3, which is needed when absolute
    accuracy near 1e-8 is required on O(1) second derivatives.  dg comes from
    central differences along the axes and ddg from Levi forms on complex
    lines (``_jet_from_values``), exactly Hermitian for a Hermitian evaluator.

    ``evaluate`` must be a pure function of the point.  Each stencil point is
    evaluated (and checked against ``domain``) once: 1 + 4 n^2 points in C^n
    at order 2 (17 at n = 2, 257 at n = 8), and 1 + 8 n^2 at order 4, whose
    two steps share the centre.  The farthest point lies sqrt(2) times the
    widest step from p.  A stacked evaluator (every catalog field's, see the
    module docstring) gets each step's points in one (..., S, n) call, and a
    stacked ``domain`` likewise; a plain callable is called once per point.
    Either way the jet is the same bit for bit.  ``h`` must be a positive
    finite real, and the widest step it gives a finite square.

    p may be a (k, n) stack of points, and h then also one step per point, a
    (k,) array: the result is one stacked jet from one stacked domain check
    and one stacked evaluation per step, each row equal bit for bit to the
    jet of its point alone.  A refusal names the first bad point's index.

    The jet's own error is O(h^2) (order 2) or O(h^4) (order 4).
    ``curvature_from_jet`` cancels ddg against dg g^-1 dg^H, which amplifies
    it by about kappa(g)^2, and its conditioning test bounds rounding, not
    this error: a jet whose metric passes that test comes back however large
    the error is.  For every catalog field at |p| <= 1 (hopf at |z| >= 0.5,
    tricerri at Im w >= 0.3), base step 1e-4 at order 2 and 1e-3 at order 4,
    the frame tensor of ``to_frame`` is within 1e-6 of the closed form's,
    relative to its max |R|.  On Fubini-Study at n = 2 (40 directions per
    radius), that error reaches, at order 2 / order 4:

        |w|    kappa(g)   error
        1      2          5e-8 / 7e-10
        3      10         2e-6 / 1e-8
        10     101        2e-4 / 3e-6
        30     901        2e-2 / 2e-4
    """
    p = _numeric(p, "point", complex)
    p = ensure_finite(p.reshape(-1) if p.ndim < 2 else p, "point", rank=1)
    lead = p.shape[:-1]
    if isinstance(h, numbers.Real):
        steps = [h] * math.prod(lead)
    elif lead and isinstance(h, (np.ndarray, list, tuple)) and np.shape(h) == lead:
        steps = _numeric(h, "finite-difference steps").ravel().tolist()
    else:
        raise UsageError(f"finite-difference step must be positive and finite, one real or "
                         f"one per point, got {h!r}")
    if not all(math.isfinite(x) and x > 0 for x in steps):
        raise UsageError(f"finite-difference step must be positive and finite, got {h!r}")
    if scale_with_point:   # Python floats: a product too large for one is inf
        steps = [x * max(1.0, float(np.linalg.norm(q)))
                 for x, q in zip(steps, p.reshape(-1, p.shape[-1]))]
    small = [x < DEFAULT.fd_min_step for x in steps]
    if any(small):
        raise UsageError(f"step {steps[small.index(True)]:.3e}"
                         f"{_first_bad(np.reshape(small, lead))[1]} is below "
                         f"{DEFAULT.fd_min_step:.0e}; cancellation would dominate")
    if order not in (2, 4):
        raise UsageError(f"unsupported finite-difference order {order}")
    widest = [2.0 * x for x in steps] if order == 4 else steps
    unsquared = [not math.isfinite(x * x) for x in widest]   # ddg divides by the square
    if any(unsquared):
        raise UsageError(f"step {widest[unsquared.index(True)]:.3e}"
                         f"{_first_bad(np.reshape(unsquared, lead))[1]} has no finite square")
    h, widest = (np.array(x).reshape(lead) for x in (steps, widest))
    offsets = _stencil(p.shape[-1])[0]
    f = _stencil_values(evaluate, p[..., None, :] + h[..., None, None] * offsets, domain)
    jet = _jet_from_values(f, h)
    if order == 2:
        return jet
    extra = _stencil_values(evaluate, p[..., None, :] + widest[..., None, None] * offsets[1:],
                            domain)
    wide = _jet_from_values(np.concatenate([f[..., :1, :, :], extra], axis=-3), widest)
    return MetricJet(g=jet.g, dg=(4.0 * jet.dg - wide.dg) / 3.0,
                     ddg=(4.0 * jet.ddg - wide.ddg) / 3.0)


def jet_at(metric, p):
    """Jet of a metric field: closed form when the catalog provides one,
    otherwise ``finite_difference_jet`` at its default order and point
    scaling with base step 1e-4."""
    p = as_point(p, _instance(metric, MetricField, "metric").n)
    if not metric.domain(p):
        raise DomainError(f"point {p.tolist()} is outside the domain of metric '{metric.name}'")
    if metric.jet is not None:
        return metric.jet(p)
    return finite_difference_jet(metric.evaluate, p, 1e-4, domain=metric.domain)


# ---------------------------------------------------------------------------
# catalog
#
# Evaluators, domain tests and jets are stacked (module docstring).  They keep
# the pointwise order of operations on each row: sums reduce along the last
# axis, as a sum over one point does, and powers go through the C library's
# pow, as Python and numpy scalars do (numpy's vectorized power can round the
# last bit differently).  A single point keeps numpy scalars where it can,
# whose arithmetic costs less than that of 0-d arrays.

def _pow(x, e):
    """x ** e for each entry of x, by the C library's pow."""
    if x.ndim == 0:
        return x[()] ** e
    return np.array([v ** e for v in x.ravel().tolist()]).reshape(x.shape)


def _coord(p, i):
    """Coordinate i of each point of a stack; a numpy scalar for one point."""
    return np.asarray(p)[..., i][()]


def _sq_norm(p):
    """sum_i |p_i|^2 for each point of a stack."""
    return (np.abs(p) ** 2).sum(axis=-1)


def _chart_sq_norm(p, weights=1.0):
    """sum_i weights_i |p_i|^2 for each point of a stack, or inf for a point
    with a NaN or a |p_i| above sqrt(MAX_ENTRY), which is not squared: a
    chart bound on this norm never overflows."""
    a = np.abs(p)
    keep = a.max(axis=-1) <= math.sqrt(MAX_ENTRY)
    return np.where(keep, (weights * np.where(keep[..., None], a, 0.0) ** 2).sum(axis=-1), np.inf)


def euclidean(n):
    n = _integer(n, "parameter 'n'", 1)
    eye = np.eye(n, dtype=complex)

    def jet(p):
        lead = np.shape(p)[:-1]
        g = np.empty(lead + (n, n), dtype=complex)
        g[...] = eye
        return MetricJet(g=g, dg=np.zeros(lead + (n,) * 3, dtype=complex),
                         ddg=np.zeros(lead + (n,) * 4, dtype=complex))

    return MetricField(name="euclidean", n=n, evaluate=_stacked(lambda p: eye.copy()),
                       domain=_stacked(lambda p: True), jet=jet)


def conformal(n, coeffs=None):
    """g = exp(f) I with f(z) = sum_m c_m |z_m|^2, where exp(f) <= MAX_ENTRY."""
    n = _integer(n, "parameter 'n'", 1)
    c = np.ones(n) if coeffs is None else _numeric(coeffs, "parameter 'coeffs'").reshape(-1)
    if c.size != n:
        raise UsageError(f"conformal metric needs {n} coefficients, got {c.size}")
    eye = np.eye(n, dtype=complex)

    @_stacked
    def evaluate(p):
        return np.exp((c * np.abs(p) ** 2).sum(axis=-1))[..., None, None] * eye

    domain = _stacked(lambda p: _chart_sq_norm(p, c) <= math.log(MAX_ENTRY))

    def jet(p):
        w = np.exp((c * np.abs(p) ** 2).sum(axis=-1))
        df = c * np.conj(p)                      # d f / d z_i
        dg = np.einsum("...i,kl->...ikl", w[..., None] * df, eye)
        # d^2 f / dz_i dzbar_j = c_i delta_ij; product rule on exp(f)
        hess = np.einsum("...i,...j->...ij", df, np.conj(df)) + np.diag(c).astype(complex)
        ddg = np.einsum("...ij,kl->...ijkl", w[..., None, None] * hess, eye)
        return MetricJet(g=w[..., None, None] * eye, dg=dg, ddg=ddg)

    return MetricField(name="conformal", n=n, evaluate=evaluate, domain=domain, jet=jet)


def hopf():
    """Scale-invariant Hopf-surface metric g = 4 delta_{ij} / |z|^2 on n = 2."""
    eye = np.eye(2, dtype=complex)
    four = 4.0 * eye

    @_stacked
    def evaluate(p):
        return four / _sq_norm(p)[..., None, None]

    @_stacked
    def domain(p):
        r = _chart_sq_norm(p)
        return (np.sqrt(r) > HOPF_MARGIN) & (r <= HOPF_SQ_RANGE[1])

    def jet(p):
        r = _sq_norm(p)
        g = 4.0 * eye / r[..., None, None]
        dg = np.einsum("...i,kl->...ikl", -4.0 * np.conj(p) / _pow(r, 2)[..., None], eye)
        dd = (4.0 * (2.0 * np.einsum("...i,...j->...ij", np.conj(p), p)
                     - r[..., None, None] * np.eye(2)) / _pow(r, 3)[..., None, None])
        ddg = np.einsum("...ij,kl->...ijkl", dd, eye)
        return MetricJet(g=g, dg=dg, ddg=ddg)

    return MetricField(name="hopf", n=2, evaluate=evaluate, domain=domain, jet=jet)


def fubini_study(n):
    """Affine-chart Fubini-Study metric g = d dbar log(1 + |w|^2), |w|^2 <= MAX_ENTRY."""
    n = _integer(n, "parameter 'n'", 1)
    identity = np.eye(n)

    @_stacked
    def evaluate(p):
        u = 1.0 / (1.0 + _sq_norm(p))
        return (u[..., None, None] * identity
                - _pow(u, 2)[..., None, None] * np.einsum("...k,...l->...kl", np.conj(p), p))

    def jet(p):
        u = 1.0 / (1.0 + _sq_norm(p))
        u2 = _pow(u, 2)
        pb = np.conj(p)
        eye = np.eye(n, dtype=complex)
        g = u[..., None, None] * eye - u2[..., None, None] * np.einsum("...k,...l->...kl", pb, p)
        # the coefficients -u^2, 2 u^3 and 6 u^4, shaped for a row's trailing axes
        c2, c3 = (-u2)[..., None, None, None], (2.0 * _pow(u, 3))[..., None, None, None]
        dg = (c2 * np.einsum("...i,kl->...ikl", pb, eye)
              - u2[..., None, None, None] * np.einsum("il,...k->...ikl", eye, pb)
              + c3 * np.einsum("...k,...l,...i->...ikl", pb, p, pb))
        # Hermitian pairs summed first keep ddg exactly Hermitian (asymmetry grows as kappa^2)
        a = np.einsum("...x,...y->...xy", p, pb)
        ddg = (c2[..., None] * (np.einsum("kl,ij->ijkl", eye, eye)
                                + np.einsum("il,jk->ijkl", eye, eye))
               + c3[..., None] * ((np.einsum("kl,...ji->...ijkl", eye, a)
                                   + np.einsum("ij,...lk->...ijkl", eye, a))
                                  + (np.einsum("il,...jk->...ijkl", eye, a)
                                     + np.einsum("jk,...li->...ijkl", eye, a)))
               - (6.0 * _pow(u, 4))[..., None, None, None, None]
               * np.einsum("...ji,...lk->...ijkl", a, a))
        return MetricJet(g=g, dg=dg, ddg=ddg)

    domain = _stacked(lambda p: _chart_sq_norm(p) <= MAX_ENTRY)
    return MetricField(name="fubini_study", n=n, evaluate=evaluate, domain=domain, jet=jet)


def tricerri():
    """Tricerri metric g = diag(Im w, 1/Im(w)^2) on a bounded chart of the
    Inoue-surface fundamental domain, coordinates (z, w) with Im w bounded
    away from zero."""

    def imw(p):
        return _coord(p, 1).imag

    @_stacked
    def evaluate(p):
        y = imw(p)
        g = np.zeros(y.shape + (2, 2), dtype=complex)
        g[..., 0, 0] = y
        g[..., 1, 1] = _pow(y, -2.0)
        return g

    @_stacked
    def domain(p):
        z, w = _coord(p, 0), _coord(p, 1)
        return (w.imag > TRICERRI_MARGIN) & (abs(z) <= CHART_BOUND) & (abs(w) <= CHART_BOUND)

    def jet(p):
        y = imw(p)
        g = np.zeros(np.shape(y) + (2, 2), dtype=complex)
        g[..., 0, 0] = y
        g[..., 1, 1] = _pow(y, -2.0)
        dg = np.zeros(np.shape(y) + (2, 2, 2), dtype=complex)
        # d/dw Im w = -i/2
        dg[..., 1, 0, 0] = -0.5j
        dg[..., 1, 1, 1] = 1j * _pow(y, -3.0)
        ddg = np.zeros(np.shape(y) + (2, 2, 2, 2), dtype=complex)
        ddg[..., 1, 1, 1, 1] = 1.5 * _pow(y, -4.0)
        return MetricJet(g=g, dg=dg, ddg=ddg)

    return MetricField(name="tricerri", n=2, evaluate=evaluate,
                       domain=domain, jet=jet)


_CATALOG = {"euclidean": euclidean, "conformal": conformal, "hopf": hopf,
            "fubini_study": fubini_study, "tricerri": tricerri}


def make_metric(name, dim=None):
    """Catalog lookup used by the CLI: euclidean | conformal | hopf |
    fubini_study | tricerri.  hopf and tricerri are defined on n = 2 only;
    the others need an explicit dimension, bounded by MAX_DIM."""
    try:
        builder = _CATALOG[_identifier(name, "metric name")]
    except KeyError:
        raise UsageError(f"unknown metric '{name}'; catalog: {sorted(_CATALOG)}") from None
    if name not in ("hopf", "tricerri"):
        if dim is None:
            raise UsageError("this metric needs an explicit dimension (--dim)")
        return builder(_integer(dim, "dimension", 1, MAX_DIM))
    if dim is not None and dim != 2:
        raise UsageError("this metric is defined for n = 2")
    return builder()
