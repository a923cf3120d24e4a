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

Every scan goes through one dispatch table in ``_extremize_kinds``, checked
in order: (1) full cone and full convention, the exact eigenproblem above,
decided before anything else; (2) ``invariance_test`` says the kind's value
is the same at every frame, so its extrema are the identity frame's exact
inner optima, and no frame is searched; (3) everything else is searched.

The search's outer problem ranges over unitary frames, and each iterate is a
frame moved by elementary unitary rotations of its vectors, so every iterate
stays unitary; the inner problem (best vector for a fixed frame) is solved
exactly by ``cones.cone_min``: the Rayleigh bound on the full cone, face
enumeration on restricted cones.  That search is restart + coordinate descent with a
shrinking step; it claims no global optimum, and acceptance tolerances are
sized accordingly.

Each (kind, sign, restart) of a search is a lane: a generator that holds one
restart's current frame, yields the stack of candidates it wants scored
next with a strict bound, and is sent back the first candidate below the
bound (or None).  A sweep has n^2 coordinates: for each pair p < q of frame
vectors a real and then a complex Givens rotation of the two, then a phase
of each vector.  A sweep stacks all of its remaining candidates, each its
lane's frame with one or two rows rewritten, accepts the first improvement
in sweep order and restacks the rest of the sweep from the new frame, so its
iterates are those of one-at-a-time coordinate descent.  All live lanes of
a call advance in lockstep: per step, their candidate frames go through one
``frame_matrices`` call, one ``quadratic_form_matrix`` call per kind, and
one stacked ``cone_min`` call on every cone kind; each lane then takes the
first hit in its own rows.  Every step is computed per row, so a lane's
iterates do not depend on the lanes beside it.  One evaluation holds at most
``_ROWS`` candidates; lanes are grouped in order and never split, so memory
stays bounded however many restarts run.  The reported extrema of a call,
whichever row produced them, are re-evaluated in one pass: one stacked
``transform_frame`` of the tensor and one ``evaluate`` call per kind.

The two-parameter Tricerri frame family (|b|^2, |d|^2) in [0, 1]^2 is
handled separately and exactly: that family is the object whose pinching
constants the frame-dependence analysis quotes, and it is strictly larger
than any single U(2) orbit (a 2 x 2 unitary forces |b|^2 + |d|^2 = 1 for
entries sharing a column).
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalError, UsageError
from .config import DEFAULT
from .linalg import (_hermitian_basis, _identifier, _instance, _integer, haar_from_rng,
                     rng_from)
from .curvature import FrameConvention, paper_tricerri, require_frame, transform_frame
from .functionals import (CurvatureMatrices, FunctionalKind, evaluate, frame_form,
                          frame_matrices, matrices_from, quadratic_form_matrix,
                          rayleigh_bounds)
from .cones import Cone, cone_min, full_cone


INITIAL_ANGLE = 0.4   # first rotation angle of each restart's sweeps
SHRINK = 0.7          # step factor after a sweep that improves nothing
# candidate frames per stacked evaluation of a lockstep search.  The time per
# candidate stops falling by about 256 at n = 2..4; one evaluation then holds
# about 1.7 MB at n = 8 on the full cone and 17 MB on a restricted cone (a
# lane is never split, so a lane alone may exceed the cap)
_ROWS = 256


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 8
    refine_steps: int = 30
    seed: int = 0

    def __post_init__(self):
        _integer(self.restarts, "parameter 'restarts'", 1)
        _integer(self.refine_steps, "parameter 'refine_steps'")
        _integer(self.seed, "parameter 'seed'")


@dataclass(frozen=True)
class FrameExtremum:
    """An extremum over frames x cone vectors, attained at frame and vector;
    source names the dispatch row that produced it: "exact" (full cone, full
    convention), "invariant" (a frame-invariant kind at the identity frame)
    or "searched"."""
    value: float
    frame: np.ndarray
    vector: np.ndarray
    convention: str
    source: str


class _Ask(NamedTuple):
    """A lane's request for one scan: the candidate is the frame alone when
    step is None (the lane's first frame), else the sweep's moves of the
    frame from start on; bound is strict."""
    frame: np.ndarray
    step: Optional[float]
    start: int
    bound: float

    @property
    def size(self):
        return 1 if self.step is None else 2 * self.frame.size - self.start


def _candidates(asks, sizes):
    """The candidate frames of a group of asks, stacked in order.  Move m of
    a sweep turns coordinate m // 2 of the ask's frame U by the angle +step
    for even m and -step for odd m.  For the k-th pair p < q, coordinates
    2k and 2k + 1 replace rows p and q of U by G [U_p; U_q] with
    G = [[c, -e s], [conj(e) s, c]], e = 1 and e = i; coordinate
    n(n - 1) + a multiplies row a by exp(i angle)."""
    lane = np.repeat(np.arange(len(asks)), sizes)
    frames = np.stack([ask.frame for ask in asks])[lane]
    n = frames.shape[-1]
    offsets = np.cumsum(sizes) - sizes
    moves = np.arange(len(lane)) + (np.array([ask.start for ask in asks]) - offsets)[lane]
    swept = np.array([ask.step is not None for ask in asks])[lane]
    steps = np.array([0.0 if ask.step is None else ask.step for ask in asks])[lane]
    coords, angles = moves // 2, steps * (1.0 - 2.0 * (moves % 2))
    givens = n * (n - 1)        # coordinates that rotate a pair; the rest are phases
    rows = np.flatnonzero(swept & (coords < givens))
    p, q = (axis[coords[rows] // 2] for axis in np.triu_indices(n, 1))
    e = np.where(coords[rows] % 2 == 0, 1.0, 1j)[:, None]
    c, s = np.cos(angles[rows])[:, None], np.sin(angles[rows])[:, None]
    up, uq = frames[rows, p], frames[rows, q]
    frames[rows, p] = c * up - e * s * uq
    frames[rows, q] = np.conj(e) * s * up + c * uq
    rows = np.flatnonzero(swept & (coords >= givens))
    frames[rows, coords[rows] - givens] *= np.exp(1j * angles[rows])[:, None]
    return frames


def _lane(frame, refine_steps):
    """One restart's coordinate descent from frame, as a generator.

    Each yield is an ``_Ask``; the lane is sent back the first of its
    candidates below the bound, as (index, frame, value, vector), or None.
    A sweep takes its moves in order, +step then -step per coordinate,
    accepts the first improvement and goes on from the move after it; a
    sweep that improves nothing shrinks the step.  Returns
    (value, frame, vector) of the last iterate.
    """
    _, _, value, vector = yield _Ask(frame, None, 0, np.inf)
    step = INITIAL_ANGLE
    for _ in range(refine_steps):
        improved = False
        start = 0
        while start < 2 * frame.size:
            hit = yield _Ask(frame, step, start, value - 1e-14)
            if hit is None:
                break
            j, frame, value, vector = hit
            improved = True
            start += j + 1
        if not improved:
            step *= SHRINK
    return value, frame, vector


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
    one ``frame_matrices`` call for all their candidate frames, one ``quadratic_form_matrix`` call per kind and one
    ``cone_min`` call, whose value at row j is minus signs[j] times the
    exact inner optimum of form j (the minimum for sign -1, the maximum for
    +1); then each lane's first improvement within its own rows, with the
    candidate frame."""
    asks = [ask for _, _, ask in lanes]
    sizes = np.array([ask.size for ask in asks])
    frames = _candidates(asks, sizes)
    m = CurvatureMatrices.from_slices(*frame_matrices(tensor, frames, convention))
    kinds = list(dict.fromkeys(kind for kind, _, _ in lanes))
    row_kind = np.repeat([kinds.index(kind) for kind, _, _ in lanes], sizes)
    forms = np.empty(m.rbc.shape)
    for i, kind in enumerate(kinds):
        forms[row_kind == i] = quadratic_form_matrix(kind, m.take(row_kind == i))
    signs = np.repeat([sign for _, sign, _ in lanes], sizes)
    res = cone_min(-signs[:, None, None] * forms, cone)
    hits = _first_improvements(res.value, res.argmin, [ask.bound for ask in asks], sizes)
    return [None if hit is None else (hit[0], frames[offset + hit[0]].copy(), *hit[1:])
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
    scan each per step, in the groups of ``_groups``.  Restart 0 starts at
    the identity frame, restart r > 0 at a Haar frame drawn from
    ``rng_from(seed, r)``.  Per kind and sign the least value wins, ties to
    the earlier restart."""
    n = tensor.n
    starts = [np.eye(n, dtype=complex)] + [haar_from_rng(n, rng_from(cfg.seed, r))
                                           for r in range(1, cfg.restarts)]
    keys = [(kind, sign) for kind in kinds for sign in (-1, +1)]
    # each lane owns its frame, so no two reported frames share memory
    lanes = [(kind, sign, _lane(frame.copy(), cfg.refine_steps))
             for kind, sign in keys for frame in starts]
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
    return [FrameExtremum(value=value if sign < 0 else 0.0 - value, frame=frame, vector=vector,
                          convention=convention.value, source="searched")
            for (_, sign), (value, frame, vector) in zip(keys, best)]


def _identity_extrema(tensor, kinds, cone, convention):
    """(inf, sup) of frame-invariant kinds, as one flat list like
    ``_search``'s: the identity frame's exact inner optima, from one
    ``matrices_from``, one ``quadratic_form_matrix`` per kind and one
    ``cone_min`` over the stacked forms q and -q (the Rayleigh bound on the
    full cone, face enumeration on restricted ones)."""
    m = matrices_from(tensor)
    forms = np.stack([quadratic_form_matrix(kind, m) for kind in kinds])
    res = cone_min(np.stack([forms, -forms], axis=1).reshape(-1, tensor.n, tensor.n), cone)
    return [FrameExtremum(value=float(value) if j % 2 == 0 else 0.0 - float(value),
                          frame=np.eye(tensor.n, dtype=complex), vector=res.argmin[j].copy(),
                          convention=convention.value, source="invariant")
            for j, value in enumerate(res.value)]


def _exact_extrema(tensor, kind):
    """Inf and sup over all frames and the full cone under the full
    convention: the extreme eigenpairs of ``frame_form``, each eigenvector
    turned into its Hermitian matrix A = W diag(x) W^H, realized by frame W^T
    and vector x."""
    n = tensor.n
    # frame_form is exactly symmetric, and each A exactly Hermitian
    values, vectors = np.linalg.eigh(frame_form(tensor, kind))
    spec, frames = np.linalg.eigh((vectors[:, [0, -1]].T @ _hermitian_basis(n)).reshape(2, n, n))
    return [FrameExtremum(value=float(values[col]), frame=frames[j].T, vector=spec[j],
                          convention=FrameConvention.FULL.value, source="exact")
            for j, col in enumerate((0, -1))]


def extremize(tensor, kind, cone=None, convention=FrameConvention.FULL,
              cfg=SearchConfig()):
    """(inf, sup) of a quadratic functional over frames x cone vectors.

    The first row of this table that applies decides; ``source`` on each
    result names it.
    - "exact": on the full cone under the full convention both are the
      extreme eigenvalues of ``frame_form``, realized by the frames and
      vectors built from its eigenvectors.
    - "invariant": where ``invariance_test`` finds the kind's value the same
      at every frame, both are the identity frame's exact inner optima
      (``cone_min`` of the form and of its negative).
    - "searched": otherwise, per restart, a frame is drawn (restart 0 starts
      at the identity, the others at Haar frames), the inner vector problem
      is solved exactly, every stack of candidate frames in one ``cone_min``
      call, and the frame is refined by coordinate descent, each move a
      Givens rotation of two frame vectors or a phase of one, with
      shrinking steps; monotone improvement and determinism for a fixed
      config are guaranteed.
    ``cfg`` is used by the searched row alone.  Each reported extremum is
    re-evaluated through ``transform_frame`` and ``evaluate``; drift beyond
    ``Tolerances.reeval`` x max(|value|, max |R|) raises NumericalError.
    """
    return _extremize_kinds(tensor, (kind,), cone, convention, cfg)[0]


def _extremize_kinds(tensor, kinds, cone=None, convention=FrameConvention.FULL,
                     cfg=SearchConfig()):
    """``extremize`` for several kinds of one tensor: a list of (inf, sup),
    one per kind, each equal to that kind's own call bit for bit.  The
    invariant kinds share one ``_identity_extrema`` call, the searched kinds
    run as one lockstep of lanes, and every extremum is re-evaluated in one
    pass."""
    kinds = [FunctionalKind(_identifier(kind, "functional kind")) for kind in kinds]
    require_frame(tensor, "extremize")
    cone = full_cone(tensor.n) if cone is None else _instance(cone, Cone, "cone")
    _instance(cfg, SearchConfig, "parameter 'cfg'")
    if cone.n != tensor.n:
        raise UsageError("cone dimension does not match tensor dimension")
    convention = FrameConvention(_identifier(convention, "frame convention"))

    if cone.kind == "full" and convention is FrameConvention.FULL:
        rows = {kind: _exact_extrema(tensor, kind) for kind in kinds}
    else:
        distinct = list(dict.fromkeys(kinds))
        invariant = [kind for kind in distinct if invariance_test(tensor, kind, convention)[0]]
        searched = [kind for kind in distinct if kind not in invariant]
        found = ((_identity_extrema(tensor, invariant, cone, convention) if invariant else [])
                 + (_search(tensor, searched, cone, convention, cfg) if searched else []))
        rows = dict(zip(invariant + searched, zip(found[0::2], found[1::2])))
    found = [ext for kind in kinds for ext in rows[kind]]
    _check_reeval(tensor, [kind for kind in kinds for _ in (0, 1)], found, convention)
    return list(zip(found[0::2], found[1::2]))


def _check_reeval(tensor, kinds, found, convention):
    """Re-evaluate the extrema found[j] of kinds[j] in one pass: one stacked
    ``transform_frame`` of the tensor to all their frames, the stacked
    slices, and one ``evaluate`` call per kind.  The first extremum that
    drifts beyond ``Tolerances.reeval`` x max(|value|, max |R|) raises
    NumericalError; the functionals are linear in R, so the bound scales
    with the tensor and its rounding."""
    m = matrices_from(transform_frame(tensor, np.stack([ext.frame for ext in found]), convention))
    vectors = np.stack([ext.vector for ext in found])
    again = np.empty(len(found))
    for kind in dict.fromkeys(kinds):
        rows = np.array([k is kind for k in kinds])
        again[rows] = evaluate(kind, m.take(rows), vectors[rows])
    scale = np.abs(tensor.values).max()
    for ext, value in zip(found, again):
        if abs(value - ext.value) > DEFAULT.reeval * max(abs(ext.value), scale):
            raise NumericalError("frame extremum failed to re-evaluate: "
                                 f"{float(value)} vs {ext.value}")


def invariance_test(tensor, kind, convention):
    """Exact frame-invariance decision for a quadratic functional: is its
    value at frame U and vector x the same at every U, for every x?  Returns
    (invariant, residual), invariant iff the residual is at most
    ``Tolerances.identity_check`` x max |R|: the residual is linear in R, so
    the verdict does not change when R is scaled (a zero tensor is
    invariant).  No frame is drawn.

    Full convention: the value is q_F(A) for F = ``frame_form`` and A of
    spectrum x, so by Schur's lemma on Herm(n) = R I + traceless it is
    invariant iff F = a c c^T + b (1 - c c^T), c the coordinates of I / sqrt(n).
    Adjoint convention: R'[a,a,g,g] = u_g^T S[a,a] conj(u_g) and
    R'[a,g,g,a] = u_g^T S[a,g] conj(u_a), S[a,g] = R[a,g,:,:], are constant
    iff the slices they read are multiples of I; the residual is their largest
    traceless part.  qobc, blind to the diagonal of rbc', reads S[0,0] - S[1,1]
    at n = 2, where u_g u_g^H = I - u_a u_a^H.
    """
    kind = FunctionalKind(_identifier(kind, "functional kind"))
    convention = FrameConvention(_identifier(convention, "frame convention"))
    n = require_frame(tensor, "invariance_test").n
    r = tensor.values
    if n == 1:
        return True, 0.0
    if convention is FrameConvention.FULL:
        f = frame_form(tensor, kind)
        c = np.zeros(n * n)
        c[:n] = 1.0 / np.sqrt(n)        # I / sqrt(n) in ``_hermitian_basis``
        a = c @ f @ c
        b = (np.trace(f) - a) / (n * n - 1)
        residual = np.abs(f - b * np.eye(n * n) - (a - b) * np.outer(c, c)).max()
    else:
        diag = np.arange(n)
        if kind is FunctionalKind.QOBC and n == 2:
            slices = r[[0], [0]] - r[[1], [1]]
        elif kind in (FunctionalKind.RBC, FunctionalKind.QOBC):
            slices = r[diag, diag]
        elif kind is FunctionalKind.ALTERED_QOBC:
            slices = r[np.nonzero(diag[:, None] != diag)]
        else:
            slices = r.reshape(n * n, n, n)
        trace = np.trace(slices, axis1=-2, axis2=-1)
        residual = np.abs(slices - (trace / n)[:, None, None] * np.eye(n)).max()
    return bool(residual <= DEFAULT.identity_check * np.abs(r).max()), float(residual)


def tricerri_family_extrema(im_w, kind):
    """Exact extrema of a functional over the printed two-parameter Tricerri
    frame family, (|b|^2, |d|^2) ranging over the unit square.

    Every quadratic form of the family is linear in (|b|^2, |d|^2); its
    smallest eigenvalue is concave and its largest convex in the matrix
    (Lewis 1996), so both extrema sit at one of the four corners.  The
    corners, |b|^2 outer and |d|^2 inner, are stacked into one
    ``quadratic_form_matrix`` and one ``rayleigh_bounds`` call, and each
    side takes the first corner that attains it.  Returns a dict with
    inf/sup values and the realizing (|b|^2, |d|^2) corners.
    """
    kind = FunctionalKind(_identifier(kind, "functional kind"))
    # at a corner |b|^2 = |b| and |d|^2 = |d|
    corners = [(b, d) for b in (0.0, 1.0) for d in (0.0, 1.0)]
    m = matrices_from([paper_tricerri(b, d, im_w) for b, d in corners])
    lo, hi = rayleigh_bounds(quadratic_form_matrix(kind, m))
    inf_at, sup_at = int(np.argmin(lo)), int(np.argmax(hi))
    return {"inf": float(lo[inf_at]), "sup": float(hi[sup_at]),
            "inf_at": corners[inf_at], "sup_at": corners[sup_at], "im_w": float(im_w),
            "kind": kind.value}
