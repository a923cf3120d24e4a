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
from .linalg import _identifier, _instance, _integer, _numeric, _shape, ensure_finite

CHART_BOUND = 10.0      # |coordinate| bound for the Tricerri fundamental-domain chart
HOPF_MARGIN = 0.05      # hopf domain: |z| > margin
# hopf domain and paper_hopf: |z|^2 in this range keeps |z|^6 a normal float
HOPF_SQ_RANGE = (sys.float_info.min ** (1 / 3), sys.float_info.max ** (1 / 3))
TRICERRI_MARGIN = 0.05  # tricerri domain: Im(w) > margin


@dataclass(frozen=True)
class MetricJet:
    """Metric value and first/mixed-second derivatives at a point.

    Shapes alone are checked when a jet is built, with no pass over the
    data: g, dg and ddg are numeric arrays of shapes (n, n), (n, n, n) and
    (n, n, n, n), n >= 1."""

    g: np.ndarray
    dg: np.ndarray
    ddg: np.ndarray

    def __post_init__(self):
        shapes = [_shape(self.g, "jet field 'g'"), _shape(self.dg, "jet field 'dg'"),
                  _shape(self.ddg, "jet field 'ddg'")]
        n = shapes[0][:1]
        for name, shape, rank in zip(("g", "dg", "ddg"), shapes, (2, 3, 4)):
            if n in ((), (0,)) or shape != n * rank:
                raise UsageError(f"jet field '{name}' must have shape (n,) * {rank}, n >= 1 the "
                                 f"length of g, got {shape} with g of shape {shapes[0]}")

    @property
    def n(self):
        return self.g.shape[0]

    def reality_residual(self):
        """Deviation from conj(ddg[i,j,k,l]) == ddg[j,i,l,k] and the matching
        Hermitian condition on g; zero for the jet of a genuine metric."""
        r_g = float(np.abs(self.g - self.g.conj().T).max())
        r_dd = float(np.abs(np.conj(self.ddg) - self.ddg.transpose(1, 0, 3, 2)).max())
        return max(r_g, r_dd)


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


def _leaves_domain(p):
    return DomainError(f"finite-difference stencil point {p.tolist()} leaves the domain")


def _eval_checked(evaluate, p, domain):
    if domain is not None and not domain(p):
        raise _leaves_domain(p)
    return np.asarray(evaluate(p), dtype=complex)


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
    """Metric values at the (k, n) points, each domain-checked, stacked.  A
    stacked domain test checks every point in one call before any is
    evaluated; a stacked evaluator then evaluates them in one call.  A plain
    domain test checks each point, and a plain evaluator evaluates it, in
    turn."""
    if getattr(domain, "stacked", False):
        inside = np.broadcast_to(domain(points), points.shape[:-1])
        if not inside.all():
            raise _leaves_domain(points[np.argmin(inside)])
        domain = None
    if domain is not None or not getattr(evaluate, "stacked", False):
        return np.array([_eval_checked(evaluate, q, domain) for q in points])
    values = np.empty(points.shape + points.shape[-1:], dtype=complex)
    values[...] = evaluate(points)
    return values


def _jet_from_values(f, h):
    """The jet from the values f at the stencil offsets of step h.

    g is the centre value and dg the first differences along the axes.
    lap[d] = (sum_a f(p + _UNITS[a] h v_d) - 4 f(p)) / (4 h^2) is the Levi form
    d_v dbar_v g of direction v_d, a quarter of the Laplacian of g on its
    complex line, so ddg[i, i] = lap(e_i) and, by polarization, with
    s1 = lap(e_i + e_j) - lap(e_i) - lap(e_j) and si the same for e_i + i e_j,
    ddg[i, j] = (s1 + i si) / 2 and ddg[j, i] = (s1 - i si) / 2.  Every step
    is real-linear, so a Hermitian f gives conj(ddg[i,j,k,l]) == ddg[j,i,l,k]
    exactly."""
    n = f.shape[-1]
    _, i, j = _stencil(n)
    dg = np.einsum("a,iakl->ikl", _DZ, f[1:4 * n + 1].reshape(n, 4, n, n)) / h
    lap = (f[1:].reshape(n * n, 4, n, n).sum(axis=1) - 4.0 * f[0]) / 4.0 / h ** 2
    s1, si = lap[n:].reshape(2, i.size, n, n) - lap[i] - lap[j]
    ddg = np.empty((n,) * 4, dtype=complex)
    ddg[range(n), range(n)] = lap[:n]
    ddg[i, j], ddg[j, i] = (s1 + 1j * si) / 2.0, (s1 - 1j * si) / 2.0
    return MetricJet(g=f[0], dg=dg, ddg=ddg)


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
    module docstring) gets each step's points in one (k, n) call, and a
    stacked ``domain`` likewise; a plain callable is called once per point.
    Either way the jet is the same bit for bit.  ``h`` must be a positive
    finite real, and the widest step it gives a finite square.

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
    p = as_point(p)
    if not (isinstance(h, numbers.Real) and math.isfinite(h) and h > 0):
        raise UsageError(f"finite-difference step must be positive and finite, got {h!r}")
    step = h * max(1.0, float(np.linalg.norm(p))) if scale_with_point else h
    if step < DEFAULT.fd_min_step:
        raise UsageError(f"step {step:.3e} is below {DEFAULT.fd_min_step:.0e}; "
                         "cancellation would dominate")
    if order not in (2, 4):
        raise UsageError(f"unsupported finite-difference order {order}")
    widest = 2.0 * step if order == 4 else step
    if not math.isfinite(float(widest) * float(widest)):   # ddg divides by its square
        raise UsageError(f"step {widest:.3e} has no finite square")
    offsets = _stencil(p.size)[0]
    f = _stencil_values(evaluate, p + step * offsets, domain)
    jet = _jet_from_values(f, step)
    if order == 2:
        return jet
    extra = _stencil_values(evaluate, p + widest * offsets[1:], domain)
    wide = _jet_from_values(np.concatenate([f[:1], extra]), widest)
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
# Evaluators and domain tests are stacked (module docstring).  They keep the
# pointwise order of operations on each row: sums reduce along the last
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
    zeros1 = np.zeros((n, n, n), dtype=complex)
    zeros2 = np.zeros((n, n, n, n), dtype=complex)

    def jet(p):
        return MetricJet(g=eye.copy(), dg=zeros1.copy(), ddg=zeros2.copy())

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
        w = np.exp(float(np.sum(c * np.abs(p) ** 2)))
        df = c * np.conj(p)                      # d f / d z_i
        dg = np.einsum("i,kl->ikl", w * df, eye)
        # d^2 f / dz_i dzbar_j = c_i delta_ij; product rule on exp(f)
        hess = np.einsum("i,j->ij", df, np.conj(df)) + np.diag(c).astype(complex)
        ddg = np.einsum("ij,kl->ijkl", w * hess, eye)
        return MetricJet(g=w * eye, dg=dg, ddg=ddg)

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
        r = float(_sq_norm(p))
        g = 4.0 * eye / r
        dg = np.einsum("i,kl->ikl", -4.0 * np.conj(p) / r ** 2, eye)
        dd = 4.0 * (2.0 * np.einsum("i,j->ij", np.conj(p), p) - r * np.eye(2)) / r ** 3
        ddg = np.einsum("ij,kl->ijkl", dd, eye)
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
        u = 1.0 / (1.0 + float(np.sum(np.abs(p) ** 2)))
        pb = np.conj(p)
        eye = np.eye(n, dtype=complex)
        g = u * eye - u ** 2 * np.einsum("k,l->kl", pb, p)
        dg = (-u ** 2 * np.einsum("i,kl->ikl", pb, eye)
              - u ** 2 * np.einsum("il,k->ikl", eye, pb)
              + 2.0 * u ** 3 * np.einsum("k,l,i->ikl", pb, p, pb))
        # Hermitian pairs summed first keep ddg exactly Hermitian (asymmetry grows as kappa^2)
        a = np.einsum("x,y->xy", p, pb)
        ddg = (-u ** 2 * (np.einsum("kl,ij->ijkl", eye, eye)
                          + np.einsum("il,jk->ijkl", eye, eye))
               + 2.0 * u ** 3 * ((np.einsum("kl,ji->ijkl", eye, a)
                                  + np.einsum("ij,lk->ijkl", eye, a))
                                 + (np.einsum("il,jk->ijkl", eye, a)
                                    + np.einsum("jk,li->ijkl", eye, a)))
               - 6.0 * u ** 4 * np.einsum("ji,lk->ijkl", a, a))
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
        y = float(imw(p))
        g = np.diag([y, y ** -2.0]).astype(complex)
        dg = np.zeros((2, 2, 2), dtype=complex)
        # d/dw Im w = -i/2
        dg[1, 0, 0] = -0.5j
        dg[1, 1, 1] = 1j * y ** -3.0
        ddg = np.zeros((2, 2, 2, 2), dtype=complex)
        ddg[1, 1, 1, 1] = 1.5 * y ** -4.0
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
