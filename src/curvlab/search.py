"""Optimization of curvature functionals over the unitary frame bundle.

On the full cone under the full convention the problem is solved exactly.
With frame rows u_a and a real vector x, the frame-changed form
sum x_a x_g R'[a,a,g,g] is R(A, A) = sum A[p,q] R[p,q,s,t] A[s,t] for the
Hermitian A = sum_a x_a u_a^T conj(u_a), and every Hermitian A arises this way
(spectral theorem) with |x| = |A|_F.  So the inf and sup over all frames and
vectors are the extreme eigenvalues of one real symmetric n^2 x n^2 form on
Herm(n) (``frame_form``), and the extreme eigenvectors, diagonalized as
A = W diag(x) W^H, give the realizing frame W^T and vector x: an eigenvector
certificate rather than a search.

Restricted cones and the adjoint convention are searched.  The outer problem
ranges over unitary frame changes, parametrized as a product of complex
Givens rotations and diagonal phases so every iterate is exactly unitary; the
inner problem (best vector for a fixed frame) is solved exactly, on the full
cone via the Rayleigh bounds and on restricted cones by face enumeration
(``cones.cone_min``).  That search is restart + coordinate descent with a
shrinking step; it claims no global optimum, and acceptance tolerances are
sized accordingly.

Candidate frames are evaluated in stacks through ``frame_matrices``: a
coordinate sweep evaluates all of its remaining candidates at once, accepts
the first improvement in sweep order and restacks the rest of the sweep from
the new parameters, so its iterates are those of one-at-a-time coordinate
descent.

The two-parameter Tricerri frame family (|b|^2, |d|^2) in [0, 1]^2 is
handled separately and exactly: that family is the object whose pinching
constants the frame-dependence analysis quotes, and it is strictly larger
than any single U(2) orbit (a 2 x 2 unitary forces |b|^2 + |d|^2 = 1 for
entries sharing a column).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError
from .config import DEFAULT
from .linalg import haar_from_rng, rng_from, self_adjoint_eigen
from .curvature import FrameConvention, paper_tricerri, transform_frame
from .functionals import (CurvatureMatrices, FunctionalKind, evaluate, frame_matrices,
                          matrices_from, quadratic_form_matrix, rayleigh_bounds)
from .cones import cone_min, full_cone


INITIAL_ANGLE = 0.4   # first Givens-angle step of each restart
SHRINK = 0.7          # step factor after a sweep that improves nothing


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 8
    refine_steps: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise UsageError("restarts must be >= 1")


@dataclass(frozen=True)
class FrameExtremum:
    value: float
    frame: np.ndarray
    vector: np.ndarray
    convention: str


def param_count(n):
    return n * (n - 1) + n  # theta and phi per pair, one phase per axis


def unitary_from_params(n, params):
    """U(n) elements from Givens angles/phases: always exactly unitary.

    params of shape (..., param_count(n)) give unitaries of shape (..., n, n):
    the diagonal phases exp(i params[-n:]), then, for the j-th pair p < q in
    order, the rotation by theta = params[2j] with phase phi = params[2j + 1],
    which mixes rows p and q only.
    """
    params = np.asarray(params, dtype=float)
    cols = params.reshape(-1, params.shape[-1]).T     # (param, frame)
    theta, phi = cols[0:-n:2, :, None], cols[1:-n:2, :, None]
    sin = np.sin(theta)
    cos, up, down = np.cos(theta), np.exp(1j * phi) * sin, np.exp(-1j * phi) * sin
    rows = np.zeros((n, cols.shape[1], n), dtype=complex)   # rows[p]: row p of each frame
    axes = np.arange(n)
    rows[axes, :, axes] = np.exp(1j * cols[-n:])
    pair = 0
    for p in range(n):
        for q in range(p + 1, n):
            rows[p], rows[q] = (cos[pair] * rows[p] - up[pair] * rows[q],
                                down[pair] * rows[p] + cos[pair] * rows[q])
            pair += 1
    return rows.transpose(1, 0, 2).reshape(params.shape[:-1] + (n, n))


def _forms(tensor, kind, u, convention):
    """Quadratic-form matrices of the functional in each frame of a stack."""
    m = CurvatureMatrices.from_slices(*frame_matrices(tensor, u, convention))
    return quadratic_form_matrix(kind, m)


def _first_improvement(forms, cone, sign, bound):
    """(index, value, vector) of the first form in the stack whose objective
    lies below bound, or None.  The objective is the exact inner minimum over
    the cone (sign < 0) or minus the exact inner maximum (sign > 0); every
    form of the stack is solved, in one stacked eigensolve on the full cone
    and one stacked ``cone_min`` call on a restricted cone."""
    if cone.kind == "full":
        dec = self_adjoint_eigen(forms)  # eigen of the symmetric part
        col = 0 if sign < 0 else -1
        values = -sign * dec.values[:, col]
        hits = np.flatnonzero(values < bound)
        if hits.size == 0:
            return None
        j = int(hits[0])
        vec = dec.vectors[j, :, col].real
        return j, float(values[j]), vec / np.linalg.norm(vec)
    res = cone_min(-sign * forms, cone)
    hits = np.flatnonzero(res.value < bound)
    if hits.size == 0:
        return None
    j = int(hits[0])
    return j, float(res.value[j]), res.argmin[j]


def _search_one_restart(tensor, kind, cone, convention, cfg, restart, sign):
    n = tensor.n
    k = param_count(n)
    if restart == 0:
        params = np.zeros(k)
    else:
        params = rng_from(cfg.seed, restart).uniform(-np.pi, np.pi, size=k)

    def scan(stack, bound):
        forms = _forms(tensor, kind, unitary_from_params(n, stack), convention)
        return _first_improvement(forms, cone, sign, bound)

    _, best_val, best_vec = scan(params[None], np.inf)
    moves = np.arange(2 * k)      # sweep order: +step, then -step, per coordinate
    coords, signs = moves // 2, 1.0 - 2.0 * (moves % 2)
    step = INITIAL_ANGLE
    for _ in range(cfg.refine_steps):
        improved = False
        start = 0
        while start < 2 * k:
            cands = np.repeat(params[None], 2 * k - start, axis=0)
            cands[np.arange(2 * k - start), coords[start:]] += step * signs[start:]
            hit = scan(cands, best_val - 1e-14)
            if hit is None:
                break
            j, best_val, best_vec = hit
            params = cands[j]
            improved = True
            start += j + 1
        if not improved:
            step *= SHRINK
    u = unitary_from_params(n, params)
    return best_val, u, best_vec, restart


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


def frame_form(tensor, kind):
    """Real symmetric n^2 x n^2 form Q on Herm(n), in the basis of
    ``_hermitian_basis``, whose quadratic form at the coordinates c of
    A = sum_a x_a u_a^T conj(u_a) is |x|^2 times the functional at frame rows
    u_a and vector x under the full convention.

    With S = R for the rbc slice and S = R_(pt)(qs) for the altered slice,
    S(A, A) = sum A[p,q] S[p,q,s,t] A[s,t] is the repeated-pair form; the
    difference forms add the row and column sums S(A^2, I) + S(I, A^2), which
    are the linear functional ell[p,q] = S[p,q,s,s] + S[s,s,p,q] at A^2.
    """
    kind = FunctionalKind(kind)
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


def _exact_extrema(tensor, kind):
    """Inf and sup over all frames and the full cone under the full
    convention: the extreme eigenpairs of ``frame_form``, each eigenvector
    turned into its Hermitian matrix A = W diag(x) W^H, realized by frame W^T
    and vector x."""
    n = tensor.n
    dec = self_adjoint_eigen(frame_form(tensor, kind))
    coords = dec.vectors[:, [0, -1]].T
    spec = self_adjoint_eigen((coords @ _hermitian_basis(n)).reshape(2, n, n))
    return [FrameExtremum(value=float(dec.values[col]), frame=spec.vectors[j].T,
                          vector=spec.values[j], convention=FrameConvention.FULL.value)
            for j, col in enumerate((0, -1))]


def extremize(tensor, kind, cone=None, convention=FrameConvention.FULL,
              cfg=SearchConfig()):
    """(inf, sup) of a quadratic functional over frames x cone vectors.

    On the full cone under the full convention both are exact: the extreme
    eigenvalues of ``frame_form``, realized by the frames and vectors built
    from its eigenvectors, and ``cfg`` is not used.  Otherwise they are
    searched: per restart, a frame is drawn (restart 0 starts at the
    identity), the inner vector problem is solved exactly, and the frame is
    refined by coordinate descent over Givens angles with shrinking steps;
    monotone improvement and determinism for a fixed config are guaranteed.
    Each reported extremum is re-evaluated through ``transform_frame`` and
    ``evaluate``; drift beyond ``Tolerances.reeval`` raises NumericalError.
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

    if cone.kind == "full" and convention is FrameConvention.FULL:
        found = _exact_extrema(tensor, kind)
    else:
        found = []
        for sign in (-1, +1):
            outcomes = [_search_one_restart(tensor, kind, cone, convention, cfg, r, sign)
                        for r in range(cfg.restarts)]
            best = min(outcomes, key=lambda o: (o[0], o[3]))
            found.append(FrameExtremum(value=best[0] if sign < 0 else -best[0],
                                       frame=best[1], vector=best[2],
                                       convention=convention.value))
    for ext in found:
        _check_reeval(tensor, kind, ext)
    return found[0], found[1]


def _check_reeval(tensor, kind, ext):
    t = transform_frame(tensor, ext.frame, ext.convention)
    again = evaluate(kind, matrices_from(t), ext.vector)
    if abs(again - ext.value) > DEFAULT.reeval * max(1.0, abs(ext.value)):
        raise NumericalError(f"frame extremum failed to re-evaluate: {again} vs {ext.value}")


def invariance_test(tensor, kind, convention, samples=100, seed=0, tol=1e-9):
    """Numerical frame-invariance certificate for a functional.

    Evaluates the exact inner (min, max) of the functional over `samples`
    Haar frames, drawn as one stack from the stream ``rng_from(seed, 0)``;
    invariant iff the spread of the per-frame extrema stays within tol.
    Returns (invariant, max_deviation).
    """
    return _invariance_tests(tensor, (kind,), convention, samples, seed, tol)[0]


def _invariance_tests(tensor, kinds, convention, samples, seed, tol):
    """``invariance_test`` for each of several kinds on one frame stack: one
    Haar draw, one ``frame_matrices`` call and one stacked eigensolve over all
    kinds, each kind's result equal to its own call bit for bit."""
    if samples < 10:
        raise UsageError("invariance_test needs at least 10 samples")
    kinds = [FunctionalKind(kind) for kind in kinds]
    if FunctionalKind.HSC in kinds:
        raise UsageError("invariance_test covers the quadratic-form family")
    tensor.require_frame("invariance_test")
    convention = FrameConvention(convention)
    u = haar_from_rng(tensor.n, rng_from(seed, 0), samples)
    m = CurvatureMatrices.from_slices(*frame_matrices(tensor, u, convention))
    values = self_adjoint_eigen(np.stack([quadratic_form_matrix(kind, m)
                                          for kind in kinds])).values
    results = []
    for los, his in zip(values[..., 0], values[..., -1]):
        deviation = max(los.max() - los.min(), his.max() - his.min())
        results.append((bool(deviation <= tol), float(deviation)))
    return results


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
