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
inner problem (best vector for a fixed frame) is solved exactly by
``cones.cone_min``: the Rayleigh bound on the full cone, face enumeration on
restricted cones.  That search is restart + coordinate descent with a
shrinking step; it claims no global optimum, and acceptance tolerances are
sized accordingly.

Each (kind, sign, restart) of a search is a lane: a generator that runs one
restart's coordinate descent, yields the stack of candidates it wants scored
next with a strict bound, and is sent back the first candidate below the
bound (or None).  A sweep stacks all of its remaining candidates, accepts the
first improvement in sweep order and restacks the rest of the sweep from the
new parameters, so its iterates are those of one-at-a-time coordinate
descent.  All live lanes of a call advance in lockstep: per step, their
candidates go through one ``unitary_from_params`` and one ``frame_matrices``
call, one ``quadratic_form_matrix`` call per kind, and one stacked
``cone_min`` call on every cone kind; each lane then takes the first hit in
its own rows.  Every step is computed per row, so a lane's iterates do not
depend on the lanes beside it.  One evaluation holds at most ``_ROWS``
candidates; lanes are grouped in order and never split, so memory stays
bounded however many restarts run.  The reported extrema of a call, exact or
searched, are re-evaluated in one pass: one stacked ``transform_frame`` of
the tensor and one ``evaluate`` call per kind.

The two-parameter Tricerri frame family (|b|^2, |d|^2) in [0, 1]^2 is
handled separately and exactly: that family is the object whose pinching
constants the frame-dependence analysis quotes, and it is strictly larger
than any single U(2) orbit (a 2 x 2 unitary forces |b|^2 + |d|^2 = 1 for
entries sharing a column).
"""

import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalError, UsageError
from .config import DEFAULT
from .linalg import _hermitian_basis, haar_from_rng, rng_from, self_adjoint_eigen
from .curvature import FrameConvention, paper_tricerri, transform_frame
from .functionals import (CurvatureMatrices, FunctionalKind, evaluate, frame_form,
                          frame_matrices, matrices_from, quadratic_form_matrix,
                          rayleigh_bounds)
from .cones import cone_min, full_cone


INITIAL_ANGLE = 0.4   # first Givens-angle step of each restart
SHRINK = 0.7          # step factor after a sweep that improves nothing
# candidate frames per stacked evaluation of a lockstep search.  The time per
# candidate stops falling by about 256 at n = 2..4; one evaluation then holds
# about 1.7 MB at n = 8 on the full cone and 17 MB on a restricted cone (a
# lane is never split, so a lane alone may exceed the cap)
_ROWS = 256


def _require_count(name, value, least):
    """An int (not a bool) >= least, else UsageError."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise UsageError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 8
    refine_steps: int = 30
    seed: int = 0

    def __post_init__(self):
        _require_count("restarts", self.restarts, 1)
        _require_count("refine_steps", self.refine_steps, 0)
        _require_count("seed", self.seed, 0)


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


class _Ask(NamedTuple):
    """A lane's request for one scan: the candidates are params alone when
    step is None (the lane's first frame), else the sweep's moves from start
    on; bound is strict."""
    params: np.ndarray
    step: Optional[float]
    start: int
    bound: float

    @property
    def size(self):
        return 1 if self.step is None else 2 * self.params.size - self.start


def _candidates(asks, sizes):
    """The candidates of a group of asks, stacked in order.  Move m of a
    sweep adds the step to coordinate m // 2 for even m and subtracts it for
    odd m."""
    lane = np.repeat(np.arange(len(asks)), sizes)
    rows = np.stack([ask.params for ask in asks])[lane]
    offsets = np.cumsum(sizes) - sizes
    moves = np.arange(len(lane)) + (np.array([ask.start for ask in asks]) - offsets)[lane]
    swept = np.array([ask.step is not None for ask in asks])[lane]
    steps = np.array([0.0 if ask.step is None else ask.step for ask in asks])[lane]
    rows[swept, moves[swept] // 2] += steps[swept] * (1.0 - 2.0 * (moves[swept] % 2))
    return rows


def _lane(params, refine_steps):
    """One restart's coordinate descent from params, as a generator.

    Each yield is an ``_Ask``; the lane is sent back the first of its
    candidates below the bound, as (index, params, value, vector), or None.
    A sweep takes its moves in order, +step then -step per coordinate,
    accepts the first improvement and goes on from the move after it; a
    sweep that improves nothing shrinks the step.  Returns
    (value, params, vector) of the last iterate.
    """
    _, _, value, vector = yield _Ask(params, None, 0, np.inf)
    step = INITIAL_ANGLE
    for _ in range(refine_steps):
        improved = False
        start = 0
        while start < 2 * params.size:
            hit = yield _Ask(params, step, start, value - 1e-14)
            if hit is None:
                break
            j, params, value, vector = hit
            improved = True
            start += j + 1
        if not improved:
            step *= SHRINK
    return value, params, vector


def _first_improvements(values, vectors, bounds, sizes):
    """Per lane, a run of sizes[i] consecutive rows with strict bound
    bounds[i]: the first row of the run whose objective lies below the
    bound, as (index within the run, value, vector), or None."""
    ends = np.cumsum(sizes)
    starts = ends - sizes
    below = np.flatnonzero(values < np.repeat(bounds, sizes))
    hits = []
    for start, end, at in zip(starts, ends, np.searchsorted(below, starts)):
        if at == below.size or below[at] >= end:
            hits.append(None)
            continue
        j = int(below[at])
        # copied: a lane keeps the vector, and must not keep the stack
        hits.append((j - int(start), float(values[j]), vectors[j].copy()))
    return hits


def _scan(tensor, cone, convention, lanes):
    """One stacked evaluation of a group of lanes, each (kind, sign, ask):
    one ``unitary_from_params`` and one ``frame_matrices`` call for all their
    candidates, one ``quadratic_form_matrix`` call per kind and one
    ``cone_min`` call, whose value at row j is minus signs[j] times the
    exact inner optimum of form j (the minimum for sign -1, the maximum for
    +1); then each lane's first improvement within its own rows, with the
    candidate's params."""
    asks = [ask for _, _, ask in lanes]
    sizes = np.array([ask.size for ask in asks])
    params = _candidates(asks, sizes)
    m = CurvatureMatrices.from_slices(
        *frame_matrices(tensor, unitary_from_params(tensor.n, params), convention))
    kinds = list(dict.fromkeys(kind for kind, _, _ in lanes))
    row_kind = np.repeat([kinds.index(kind) for kind, _, _ in lanes], sizes)
    forms = np.empty(m.rbc.shape)
    for i, kind in enumerate(kinds):
        forms[row_kind == i] = quadratic_form_matrix(kind, m.take(row_kind == i))
    signs = np.repeat([sign for _, sign, _ in lanes], sizes)
    res = cone_min(-signs[:, None, None] * forms, cone)
    hits = _first_improvements(res.value, res.argmin, [ask.bound for ask in asks], sizes)
    return [None if hit is None else (hit[0], params[offset + hit[0]].copy(), *hit[1:])
            for hit, offset in zip(hits, np.cumsum(sizes) - sizes)]


def _groups(asks):
    """The keys of asks in order, in groups of at most _ROWS candidates; a
    lane with more candidates than that is a group of its own."""
    groups, rows = [], 0
    for i, ask in asks.items():
        if not groups or rows + ask.size > _ROWS:
            groups.append([])
            rows = 0
        groups[-1].append(i)
        rows += ask.size
    return groups


def _search(tensor, kinds, cone, convention, cfg):
    """Searched (inf, sup) of each kind, as one flat list: every
    (kind, sign, restart) is a lane, and all live lanes advance together, one
    scan each per step, in the groups of ``_groups``.  Per kind and sign the
    least value wins, ties to the earlier restart."""
    k = param_count(tensor.n)
    starts = [np.zeros(k)] + [rng_from(cfg.seed, r).uniform(-np.pi, np.pi, size=k)
                              for r in range(1, cfg.restarts)]
    keys = [(kind, sign) for kind in kinds for sign in (-1, +1)]
    lanes = [(kind, sign, _lane(params, cfg.refine_steps))
             for kind, sign in keys for params in starts]
    asks = {i: next(lane) for i, (_, _, lane) in enumerate(lanes)}
    outcomes = [None] * len(lanes)
    while asks:
        for group in _groups(asks):
            hits = _scan(tensor, cone, convention, [lanes[i][:2] + (asks[i],) for i in group])
            for i, hit in zip(group, hits):
                try:
                    asks[i] = lanes[i][2].send(hit)
                except StopIteration as done:
                    outcomes[i] = done.value
                    del asks[i]
    best = []
    for at in range(len(keys)):
        runs = outcomes[at * cfg.restarts:(at + 1) * cfg.restarts]
        best.append(runs[min(range(cfg.restarts), key=lambda r: (runs[r][0], r))])
    frames = unitary_from_params(tensor.n, np.stack([params for _, params, _ in best]))
    return [FrameExtremum(value=value if sign < 0 else 0.0 - value, frame=frame, vector=vector,
                          convention=convention.value)
            for (_, sign), (value, _, vector), frame in zip(keys, best, frames)]


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
    identity), the inner vector problem is solved exactly, every stack of
    candidate frames in one ``cone_min`` call, and the frame is refined by
    coordinate descent over Givens angles with shrinking steps;
    monotone improvement and determinism for a fixed config are guaranteed.
    Each reported extremum is re-evaluated through ``transform_frame`` and
    ``evaluate``; drift beyond ``Tolerances.reeval`` raises NumericalError.
    """
    return _extremize_kinds(tensor, (kind,), cone, convention, cfg)[0]


def _extremize_kinds(tensor, kinds, cone=None, convention=FrameConvention.FULL,
                     cfg=SearchConfig()):
    """``extremize`` for several kinds of one tensor: a list of (inf, sup),
    one per kind, each equal to that kind's own call bit for bit.  The
    searched kinds run as one lockstep of lanes, and every extremum is
    re-evaluated in one pass."""
    kinds = [FunctionalKind(kind) for kind in kinds]
    if FunctionalKind.HSC in kinds:
        raise UsageError("extremize works on the quadratic-form family; "
                         "probe hsc through rbc at basis vectors")
    tensor.require_frame("extremize")
    cone = full_cone(tensor.n) if cone is None else cone
    if cone.n != tensor.n:
        raise UsageError("cone dimension does not match tensor dimension")
    convention = FrameConvention(convention)

    if cone.kind == "full" and convention is FrameConvention.FULL:
        found = [ext for kind in kinds for ext in _exact_extrema(tensor, kind)]
    else:
        found = _search(tensor, kinds, cone, convention, cfg)
    _check_reeval(tensor, [kind for kind in kinds for _ in (0, 1)], found, convention)
    return list(zip(found[0::2], found[1::2]))


def _check_reeval(tensor, kinds, found, convention):
    """Re-evaluate the extrema found[j] of kinds[j] in one pass: one stacked
    ``transform_frame`` of the tensor to all their frames, the stacked
    slices, and one ``evaluate`` call per kind.  The first extremum that
    drifts beyond ``Tolerances.reeval`` raises NumericalError."""
    moved = transform_frame(tensor, np.stack([ext.frame for ext in found]), convention)
    r = np.stack([t.values for t in moved])
    vectors = np.stack([ext.vector for ext in found])
    m = CurvatureMatrices.from_slices(np.einsum("kaagg->kag", r), np.einsum("kagga->kag", r))
    again = np.empty(len(found))
    for kind in dict.fromkeys(kinds):
        rows = np.array([k is kind for k in kinds])
        again[rows] = evaluate(kind, m.take(rows), vectors[rows])
    for ext, value in zip(found, again):
        if abs(value - ext.value) > DEFAULT.reeval * max(1.0, abs(ext.value)):
            raise NumericalError("frame extremum failed to re-evaluate: "
                                 f"{float(value)} vs {ext.value}")


def invariance_test(tensor, kind, convention, samples=100, seed=0, tol=1e-9):
    """Numerical frame-invariance certificate for a functional.

    Evaluates the exact inner (min, max) of the functional over `samples`
    Haar frames, drawn as one stack from the stream ``rng_from(seed, 0)``;
    invariant iff the spread of the per-frame extrema stays within tol.
    Returns (invariant, max_deviation).
    """
    _require_count("invariance_test samples", samples, 10)
    _require_count("invariance_test seed", seed, 0)
    kind = FunctionalKind(kind)
    if kind is FunctionalKind.HSC:
        raise UsageError("invariance_test covers the quadratic-form family")
    tensor.require_frame("invariance_test")
    u = haar_from_rng(tensor.n, rng_from(seed, 0), samples)
    m = CurvatureMatrices.from_slices(*frame_matrices(tensor, u, FrameConvention(convention)))
    los, his = rayleigh_bounds(quadratic_form_matrix(kind, m))
    deviation = max(los.max() - los.min(), his.max() - his.min())
    return bool(deviation <= tol), float(deviation)


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
