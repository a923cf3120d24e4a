"""Optimization of curvature functionals over the unitary frame bundle.

The outer problem ranges over unitary frame changes, parametrized as a
product of complex Givens rotations and diagonal phases so every iterate is
exactly unitary; the inner problem (best vector for a fixed frame) is solved
exactly, on the full cone via the Rayleigh bounds and on restricted cones by
face enumeration (``cones.cone_min``).  The search is stochastic restart +
coordinate descent with a shrinking step; no global-optimality certificate
is claimed, and acceptance tolerances are sized accordingly.

The two-parameter Tricerri frame family (|b|^2, |d|^2) in [0, 1]^2 is
handled separately and exactly: that family is the object whose pinching
constants the frame-dependence analysis quotes, and it is strictly larger
than any single U(2) orbit (a 2 x 2 unitary forces |b|^2 + |d|^2 = 1 for
entries sharing a column).
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .config import DEFAULT
from .linalg import haar_from_rng, rng_from
from .curvature import FrameConvention, paper_tricerri, transform_frame
from .functionals import (FunctionalKind, matrices_from, quadratic_form_matrix,
                          rayleigh_bounds)
from .cones import cone_min, full_cone


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 8
    refine_steps: int = 30
    initial_angle: float = 0.4
    shrink: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise UsageError("restarts must be >= 1")
        if not 0.0 < self.shrink < 1.0:
            raise UsageError("shrink factor must lie in (0, 1)")


@dataclass(frozen=True)
class FrameExtremum:
    value: float
    frame: np.ndarray
    vector: np.ndarray
    convention: str


def param_count(n):
    return n * (n - 1) + n  # theta and phi per pair, one phase per axis


def unitary_from_params(n, params):
    """U(n) element from Givens angles/phases: always exactly unitary."""
    u = np.diag(np.exp(1j * np.asarray(params[-n:], dtype=float)))
    idx = 0
    for p in range(n):
        for q in range(p + 1, n):
            theta, phi = params[idx], params[idx + 1]
            idx += 2
            g = np.eye(n, dtype=complex)
            c, s = np.cos(theta), np.sin(theta)
            g[p, p] = c
            g[q, q] = c
            g[p, q] = -np.exp(1j * phi) * s
            g[q, p] = np.exp(-1j * phi) * s
            u = g @ u
    return u


def _inner_bounds(kind, tensor, cone):
    """Exact (min, max, argmin, argmax) of a quadratic functional over the
    cone in a fixed frame."""
    m = matrices_from(tensor)
    q = quadratic_form_matrix(kind, m)
    if cone.kind == "full":
        from .linalg import self_adjoint_eigen
        dec = self_adjoint_eigen(0.5 * (q + q.T))
        return (float(dec.values[0]), float(dec.values[-1]),
                dec.vectors[:, 0].real / np.linalg.norm(dec.vectors[:, 0].real),
                dec.vectors[:, -1].real / np.linalg.norm(dec.vectors[:, -1].real))
    lo = cone_min(q, cone)
    hi = cone_min(-q, cone)
    return lo.value, -hi.value, lo.argmin, hi.argmin


def _search_one_restart(tensor, kind, cone, convention, cfg, restart, sign):
    n = tensor.n
    k = param_count(n)
    if restart == 0:
        params = np.zeros(k)
    else:
        params = rng_from(cfg.seed, restart).uniform(-np.pi, np.pi, size=k)

    def objective(p):
        u = unitary_from_params(n, p)
        t = transform_frame(tensor, u, convention)
        lo, hi, vlo, vhi = _inner_bounds(kind, t, cone)
        return (lo, vlo) if sign < 0 else (-hi, vhi)

    best_val, best_vec = objective(params)
    step = cfg.initial_angle
    for _ in range(cfg.refine_steps):
        improved = False
        for i in range(k):
            for delta in (step, -step):
                cand = params.copy()
                cand[i] += delta
                val, vec = objective(cand)
                if val < best_val - 1e-14:
                    params, best_val, best_vec = cand, val, vec
                    improved = True
        if not improved:
            step *= cfg.shrink
    u = unitary_from_params(n, params)
    return best_val, u, best_vec, restart


def extremize(tensor, kind, cone=None, convention=FrameConvention.FULL,
              cfg=SearchConfig()):
    """(inf, sup) of a quadratic functional over frames x cone vectors.

    Per restart, a frame is drawn (restart 0 starts at the identity), the
    inner vector problem is solved exactly, and the frame is refined by
    coordinate descent over Givens angles with shrinking steps; monotone
    improvement and determinism for a fixed config are guaranteed.
    """
    kind = FunctionalKind(kind)
    if kind is FunctionalKind.HSC:
        raise UsageError("extremize works on the quadratic-form family; "
                         "probe hsc through rbc at basis vectors")
    tensor.require_frame("extremize")
    cone = full_cone(tensor.n) if cone is None else cone
    if cone.n != tensor.n:
        raise UsageError("cone dimension does not match tensor dimension")
    convention = FrameConvention(convention)

    results = {}
    for sign in (-1, +1):
        outcomes = [_search_one_restart(tensor, kind, cone, convention, cfg, r, sign)
                    for r in range(cfg.restarts)]
        best = min(outcomes, key=lambda o: (o[0], o[3]))
        value = best[0] if sign < 0 else -best[0]
        ext = FrameExtremum(value=value, frame=best[1], vector=best[2],
                            convention=convention.value)
        _check_reeval(tensor, kind, ext)
        results[sign] = ext
    return results[-1], results[+1]


def _check_reeval(tensor, kind, ext):
    t = transform_frame(tensor, ext.frame, ext.convention)
    m = matrices_from(t)
    from .functionals import evaluate
    again = evaluate(kind, m, ext.vector)
    if abs(again - ext.value) > DEFAULT.reeval * max(1.0, abs(ext.value)):
        raise UsageError(f"frame extremum failed to re-evaluate: {again} vs {ext.value}")


def invariance_test(tensor, kind, convention, samples=100, seed=0, tol=1e-9):
    """Numerical frame-invariance certificate for a functional.

    Evaluates the exact inner (min, max) of the functional over `samples`
    Haar frames; invariant iff the spread of the per-frame extrema stays
    within tol.  Returns (invariant, max_deviation).
    """
    if samples < 10:
        raise UsageError("invariance_test needs at least 10 samples")
    kind = FunctionalKind(kind)
    if kind is FunctionalKind.HSC:
        raise UsageError("invariance_test covers the quadratic-form family")
    tensor.require_frame("invariance_test")
    convention = FrameConvention(convention)
    rng = rng_from(seed, 0)
    los, his = [], []
    for _ in range(samples):
        u = haar_from_rng(tensor.n, rng)
        t = transform_frame(tensor, u, convention)
        q = quadratic_form_matrix(kind, matrices_from(t))
        lo, hi = rayleigh_bounds(q)
        los.append(lo)
        his.append(hi)
    deviation = max(max(los) - min(los), max(his) - min(his))
    return deviation <= tol, float(deviation)


def tricerri_family_extrema(im_w, kind):
    """Exact extrema of a functional over the printed two-parameter Tricerri
    frame family, (|b|^2, |d|^2) ranging over the unit square.

    Every quadratic form of the family is linear in (|b|^2, |d|^2); its
    smallest eigenvalue is concave and its largest convex in the matrix
    (Lewis 1996), so both extrema sit at one of the four corners.  Corners
    are scanned with |b|^2 outer and |d|^2 inner, and a later corner replaces
    an earlier one only when strictly better.  Returns a dict with inf/sup
    values and the realizing (|b|^2, |d|^2) corners.
    """
    kind = FunctionalKind(kind)
    if kind is FunctionalKind.HSC:
        raise UsageError("the family extrema cover the quadratic-form kinds")
    inf_val, sup_val = np.inf, -np.inf
    inf_at = sup_at = (0.0, 0.0)
    for b in (0.0, 1.0):           # at a corner |b|^2 = |b| and |d|^2 = |d|
        for d in (0.0, 1.0):
            t = paper_tricerri(b, d, im_w)
            q = quadratic_form_matrix(kind, matrices_from(t))
            lo, hi = rayleigh_bounds(q)
            if lo < inf_val:
                inf_val, inf_at = lo, (b, d)
            if hi > sup_val:
                sup_val, sup_at = hi, (b, d)
    return {"inf": float(inf_val), "sup": float(sup_val),
            "inf_at": inf_at, "sup_at": sup_at, "im_w": float(im_w),
            "kind": kind.value}
