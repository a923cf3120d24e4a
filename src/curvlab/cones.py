"""Cones in R^n \\ {0}: copositivity, distance-matrix duality, Perron weights.

Quadratic functionals restricted to a cone lose their Rayleigh-quotient
structure.  Exact minimization is NP-hard in general, but at desk-scale
dimensions (n and generator counts up to 12) enumerating the faces of the
cone is exact and cheap: the minimum is the least generalized eigenvalue of a
face whose eigenvector lies in the cone.  ``cone_min`` also takes a (k, n, n)
stack of matrices sharing one cone, solved with one eigensolve per support
size and equal bit for bit to k single calls.  The n = 2 orthant case also
has an exact classical criterion, kept as an independent oracle.

Nonnegativity of the difference-form functionals is dual-cone membership
against embedding-dimension-one Euclidean distance matrices
Sigma_v[a, g] = (v_a - v_g)^2; three equivalent oracles are provided
(Weitzenboeck PSD, direct trace sampling, and the Perron-weight eigenvalue
criterion) so they can cross-validate each other.  The sampled oracles never
form Sigma_v: the direct pairing tr(S Sigma_v) is O(n^2) per sample
(``difference_form_pairings``), and since Sigma_v has rank <= 3 at any n
(an EDM of embedding dimension d has rank <= d + 2; Gower, Linear Algebra
Appl. 67, 1985), the Perron criterion reads the eigenpairs of its 3 x 3
compression onto its range, solved in closed form for all samples at once
(``_edm_rank3``).  ``perron_criterion_check`` reads its seeded stream in
blocks of ``_BLOCK`` rows, so its temporaries stay block-sized; each block
is centred once for both readings.  ``_perron_pass`` hands the trace
pairings of that stream to the direct oracle of
``verify.cone_oracle_disagreements``, which then draws only the rows past
the Perron prefix.
"""

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT, MAX_DIM
from .errors import DomainError, UsageError
from .functionals import weitzenbock
from .linalg import ensure_finite, max_modulus, rng_from, self_adjoint_eigen
from .reports import IdentityReport

# generator rows per block of the Perron check: its (rows, n) temporaries
# stay under 200 KB at n <= MAX_DIM, where full-length ones page-fault
_BLOCK = 2048


@dataclass(frozen=True)
class Cone:
    """A cone in R^n \\ {0}.

    kind 'full' is all of R^n \\ {0}; 'orthant' the punctured nonnegative
    orthant; 'monotone' its subset x_1 >= ... >= x_n >= 0; 'generators' the
    convex positive hull of given nonzero vectors.  Boundaries minus the
    origin are included.
    """

    kind: str
    n: int
    generators: Optional[np.ndarray] = None


def full_cone(n):
    return Cone(kind="full", n=n)


def nonneg_orthant(n):
    return Cone(kind="orthant", n=n)


def monotone_nonneg(n):
    return Cone(kind="monotone", n=n)


def generator_cone(generators):
    gens = np.asarray(generators, dtype=float)
    if gens.ndim != 2:
        raise UsageError("generators must be a list of n-vectors")
    ensure_finite(gens, "cone generators")
    if np.any(np.linalg.norm(gens, axis=1) == 0.0):
        raise UsageError("cone generators must be nonzero")
    return Cone(kind="generators", n=gens.shape[1], generators=gens)


def make_cone(name, n, generators=None):
    if name == "full":
        return full_cone(n)
    if name == "orthant":
        return nonneg_orthant(n)
    if name == "monotone":
        return monotone_nonneg(n)
    if name == "generators":
        return generator_cone(generators)
    raise UsageError(f"unknown cone '{name}'; kinds: full, orthant, monotone, generators")


@dataclass(frozen=True)
class ConeMinimum:
    value: float        # Rayleigh quotient at argmin: the minimum is attained
    argmin: np.ndarray  # unit vector in the cone
    # (for a stack of k matrices: a (k,) array of values, (k, n) of argmins)


def _generator_rows(cone):
    """Generator matrix G of a restricted cone: the cone is {x G : x >= 0}."""
    if cone.kind == "orthant":
        return np.eye(cone.n)
    if cone.kind == "monotone":
        return np.tril(np.ones((cone.n, cone.n)))  # row k: first k + 1 coordinates
    return cone.generators


@functools.lru_cache(maxsize=None)
def _supports(k):
    """Nonempty subsets of range(k) as index tables, one (count, size) array
    per size, ascending."""
    tables = []
    for size in range(1, k + 1):
        rows = np.array(list(itertools.combinations(range(k), size)), dtype=np.intp)
        rows.flags.writeable = False
        tables.append(rows)
    return tuple(tables)


def _faces(g):
    """(rows, inv) per support size of the generator rows g, ascending: the
    supports S whose Gram matrix G_S G_S^T is well conditioned, and the
    inverses of their Cholesky factors (inv G_S G_S^T inv^T = I).  Sizes
    with no such support are left out."""
    b = g @ g.T
    faces = []
    for rows in _supports(g.shape[0]):
        b_s = b[rows[:, :, None], rows[:, None, :]]
        single = rows.shape[1] == 1
        # a 1 x 1 Gram matrix is its own spectrum and its Cholesky factor is
        # its square root, as LAPACK computes them
        gram = b_s[:, 0] if single else np.linalg.eigvalsh(b_s)
        kept = gram[:, 0] > DEFAULT.cone_gram_rcond * gram[:, -1]
        if not kept.any():
            continue
        b_s = b_s[kept]
        inv = 1.0 / np.sqrt(b_s) if single else np.linalg.inv(np.linalg.cholesky(b_s))
        faces.append((rows[kept], inv))
    return tuple(faces)


def _face_minimum(s, g, faces):
    """Least Rayleigh quotient point of each s[j] over {x g : x >= 0}: the
    (k, n) stack of points x g, one per matrix of the (k, n, n) stack s.

    Per support S of ``_faces(g)``, the pencil (G_S s G_S^T, G_S G_S^T) is
    whitened by the Cholesky factor and its smallest eigenpair kept when the
    eigenvector can be signed nonnegative.  Singletons always qualify.  One
    whitened eigh per support size covers all matrices, and every step is
    computed per matrix, so a matrix gets the same bits in any stack.
    """
    a = g @ s @ g.T
    least, signs = [], []
    for rows, inv in faces:
        a_s = a[:, rows[:, :, None], rows[:, None, :]]
        w = inv @ a_s @ inv.transpose(0, 2, 1)
        # a 1 x 1 pencil is its own eigenvalue, with eigenvector 1
        vals, vecs = (w[..., 0], np.ones_like(w)) if rows.shape[1] == 1 else np.linalg.eigh(w)
        x = np.einsum("cji,kcj->kci", inv, vecs[..., 0])  # weights inv^T y
        # x is signed nonnegative, up to cone_sign, as it stands or negated:
        # by the sign of its entry of largest modulus (a tie of opposite signs
        # is signed neither way)
        hi, lo = x.max(axis=-1), x.min(axis=-1)
        signed = (lo >= -DEFAULT.cone_sign * hi) | (hi <= -DEFAULT.cone_sign * lo)
        least.append(np.where(signed, vals[..., 0], np.inf))
        signs.append((x, hi < -lo))
    # per matrix, the first support of least value among the signed ones,
    # sizes ascending
    pick = np.concatenate(least, axis=1).argmin(axis=1)
    starts = np.cumsum([0] + [rows.shape[0] for rows, _ in faces])
    size = np.searchsorted(starts, pick, side="right") - 1
    points = np.empty((s.shape[0], g.shape[1]))
    for f in set(size.tolist()):
        sel = (size == f).nonzero()[0]
        c = pick[sel] - starts[f]
        x, flip = signs[f]
        x = x[sel, c]
        weights = np.maximum(np.where(flip[sel, c, None], -x, x), 0.0)
        points[sel] = (weights[:, None, :] @ g[faces[f][0][c]])[:, 0, :]
    return points


def _dot(x, y):
    """Row-wise dot products of two (k, n) stacks, each as one BLAS dot."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def cone_min(m, cone):
    """Exact minimum of v^T m v / |v|^2 over a cone, with a unit argmin.

    The full cone is the Rayleigh bound.  A restricted cone is the generator
    cone of its rows G (I for the orthant, prefix-ones rows for the monotone
    cone): at a minimizer with minimal support S the weights are a positive
    eigenvector of the smallest eigenvalue of the pencil
    (G_S m G_S^T, G_S G_S^T), so enumerating supports finds the minimum
    (Cottle-Habetler-Lemke / Kaplan criterion).  Supports with a singular
    Gram matrix are skipped; Caratheodory's theorem rewrites their points
    over independent generators.  The value is the Rayleigh quotient at the
    returned argmin, which lies in the cone.

    m may also be a (k, n, n) stack of matrices that share the cone; the
    minimum then has a (k,) array of values and a (k, n) array of argmins,
    row j equal bit for bit to ``cone_min(m[j], cone)``, on every cone kind.
    """
    m = np.asarray(m, dtype=float)
    max_modulus(m, "matrix")
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise UsageError("cone_min needs a square matrix or a nonempty stack of them, "
                         f"got shape {m.shape}")
    n = m.shape[-1]
    stack = m.reshape(-1, n, n)
    if cone.n != n:
        raise UsageError(f"cone dimension {cone.n} does not match matrix dimension {n}")
    if cone.kind == "full":
        dec = self_adjoint_eigen(stack)  # eigen of the symmetric part
        values = dec.values[:, 0]
        v = np.ascontiguousarray(dec.vectors[:, :, 0].real)
    else:
        if cone.kind not in ("orthant", "monotone", "generators"):
            raise UsageError(f"unknown cone kind '{cone.kind}'")
        g = _generator_rows(cone)
        if max(n, g.shape[0]) > MAX_DIM:
            raise UsageError(f"restricted cones support n <= {MAX_DIM} "
                             f"and at most {MAX_DIM} generators")
        m_sym = 0.5 * (stack + stack.transpose(0, 2, 1))
        v = _face_minimum(m_sym, g, _faces(g))
    vv = _dot(v, v)
    if cone.kind != "full":
        values = _dot((v[:, None, :] @ m_sym)[:, 0, :], v) / vv
    argmin = v / np.sqrt(vv)[:, None]
    if m.ndim == 2:
        return ConeMinimum(value=float(values[0]), argmin=argmin[0])
    return ConeMinimum(value=values, argmin=argmin)


def copositive_2x2(m):
    """Exact orthant copositivity for 2 x 2 matrices: with S the symmetric
    part, S11 >= 0, S22 >= 0 and S12 + sqrt(S11 S22) >= 0.  A (k, 2, 2)
    stack gives a (k,) boolean array."""
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-2:] != (2, 2):
        raise UsageError("copositive_2x2 is defined for 2 x 2 matrices only")
    max_modulus(m, "matrix")   # keeps s11 s22 finite
    s = 0.5 * (m + np.swapaxes(m, -1, -2))
    s11, s22 = s[..., 0, 0], s[..., 1, 1]
    diag_ok = (s11 >= 0.0) & (s22 >= 0.0)
    ok = diag_ok & (s[..., 0, 1] + np.sqrt(np.where(diag_ok, s11 * s22, 0.0)) >= 0.0)
    return bool(ok) if m.ndim == 2 else ok


# ---------------------------------------------------------------------------
# Euclidean distance matrices of embedding dimension one

@dataclass(frozen=True)
class EDMatrix:
    sigma: np.ndarray
    source: np.ndarray  # generator vector v with sigma[a,g] = (v_a - v_g)^2


def edm_from_vector(v):
    v = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise DomainError("generator vector contains NaN or Inf")
    sigma = (v[:, None] - v[None, :]) ** 2
    sigma.flags.writeable = False
    return EDMatrix(sigma=sigma, source=v)


def perron_weights(edm):
    """Ratios r_k = -delta_k / delta_1 of the descending spectrum of an EDM;
    always sorted ascending in [0, 1]."""
    values = np.linalg.eigvalsh(edm.sigma)[::-1]
    if values[0] <= 0.0:
        raise DomainError("Perron weights need a nonzero distance matrix")
    r = -values[1:] / values[0]
    if np.any(r < -1e-10) or np.any(r > 1.0 + 1e-10) or np.any(np.diff(r) < -1e-10):
        raise DomainError("Perron weights fell outside [0, 1] or lost monotonicity")
    return np.clip(r, 0.0, 1.0)


def dual_edm_test(m, tol=None):
    """Membership of m in the dual EDM cone: trace pairing against every
    Sigma_v is nonnegative iff the Weitzenboeck matrix W of m is PSD on the
    complement of the all-ones vector 1.

    W 1 = 0 always, and that zero eigenvalue carries rounding of size
    eps |W|, which an absolute tol cannot absorb at large scale; so the test
    reads W + (max|W| / n) 1 1^T, which has W's spectrum on the complement
    of 1 and the eigenvalue max|W| on 1."""
    tol = DEFAULT.cone_agreement if tol is None else tol
    m = np.asarray(m, dtype=float)
    max_modulus(m, "matrix")
    w = weitzenbock(m)
    return bool(np.linalg.eigvalsh(w + np.abs(w).max() / w.shape[-1])[0] >= -tol)


def _centred(vs):
    """The rows of vs moved to mean zero.  Subtracting the first coordinate
    first takes out a large common offset exactly and leaves a constant row
    exactly zero; Sigma_v does not see the shift."""
    w = vs - vs[:, :1]
    return w - (w @ np.full(vs.shape[1], 1.0 / vs.shape[1]))[:, None]


def difference_form_pairings(vs, s):
    """tr(s Sigma_v) = sum_{a,g} s[a,g] (v_a - v_g)^2 for each row v of vs.

    With x = v o v, Sigma_v = x 1^T + 1 x^T - 2 v v^T, so the pairing is
    x . (s 1 + s^T 1) - 2 v^T s v: O(n^2) per row, with no Sigma_v.  It is
    read on the centred rows, so its cancellation is relative to the spread
    of v rather than its size.
    """
    return _pairings_of_centred(_centred(vs), s)


def _pairings_of_centred(w, s):
    """``difference_form_pairings`` of rows already centred by ``_centred``."""
    return (w * w) @ (s.sum(axis=0) + s.sum(axis=1)) - 2.0 * np.einsum("ai,ai->a", w @ s, w)


def _edm_rank3(vs, s):
    """Nonzero spectrum of each Sigma_v and the forms of s on its eigenvectors.

    Returns (delta, q), each (samples, 3): delta[:, 0] >= delta[:, 1] >=
    delta[:, 2] and q[:, k] = u_k^T s u_k for a unit eigenvector u_k of
    delta[:, k].  Sigma_v has no other nonzero eigenvalue.  s is symmetric.

    With w the centred v, u = w / |w|, x = u o u and p = x - (x . u) u - 1/n,
    the vectors e0 = 1 / sqrt(n), e1 = u, e2 = p / |p| are an orthonormal
    basis of the range of Sigma_v, and the compression is |w|^2 T with

        T = [[2, A, B], [A, -2, 0], [B, 0, 0]],  A = sqrt(n) sum u^3,
                                                 B = sqrt(n) |p|.

    Its Perron root is t0 = 2 sqrt(K/3) cos(arccos(3 sqrt(3) B^2 / K^1.5) / 3)
    with K = 4 + A^2 + B^2; it is isolated, since t0 >= sqrt(K) >= |t| for
    the other two roots t, and its eigenvector is (1, A / (2 + t0), B / t0).
    The other two eigenpairs are those of T on the orthogonal complement of
    that vector, a 2 x 2 problem solved by one rotation, which stays exact
    when they coincide.  Degenerate generators take the same path: p = 0
    (n = 2, or two distinct values) gives B = 0 and the eigenvalue 0 on
    e2 = 0; a constant v (or n = 1) gives w = 0, delta = 0 and
    q[:, 0] = 1^T s 1 / n.
    """
    return _edm_rank3_of_centred(_centred(vs), s)


def _edm_rank3_of_centred(w, s):
    """``_edm_rank3`` of rows already centred by ``_centred``."""
    samples, n = w.shape
    ss1 = np.einsum("ai,ai->a", w, w)
    u = w * np.divide(1.0, np.sqrt(ss1), out=np.zeros(samples), where=ss1 > 0.0)[:, None]
    x = u * u
    cube = np.einsum("ai,ai->a", x, u)
    if n >= 3:
        p = x.copy()
        for _ in range(2):  # Gram-Schmidt against 1 and u; twice is enough
            p -= (p @ np.full(n, 1.0 / n))[:, None] + np.einsum("ai,ai->a", p, u)[:, None] * u
    else:
        p = np.zeros_like(u)  # the range of Sigma_v is all of R^n
    s2 = np.sqrt(np.einsum("ai,ai->a", p, p))
    e2 = p * np.divide(1.0, s2, out=np.zeros(samples), where=s2 > 0.0)[:, None]

    root_n = np.sqrt(n)
    big_a, big_b = root_n * cube, root_n * s2
    k = 4.0 + big_a ** 2 + big_b ** 2
    arg = np.minimum(3.0 * np.sqrt(3.0) * big_b ** 2 / k ** 1.5, 1.0)
    t0 = 2.0 * np.sqrt(k / 3.0) * np.cos(np.arccos(arg) / 3.0)
    # y0 = (1, c1, c2) / n0; z1 = (-c1, 1, 0) / n1 and z2 = y0 x z1 span its
    # complement
    c1, c2 = big_a / (2.0 + t0), big_b / t0
    n1 = np.sqrt(1.0 + c1 ** 2)
    n0 = np.sqrt(n1 ** 2 + c2 ** 2)
    y0 = np.array([np.ones(samples), c1, c2]) / n0
    z1 = np.array([-c1, np.ones(samples), np.zeros(samples)]) / n1
    z2 = np.array([-c2, -c1 * c2, n1 ** 2]) / (n0 * n1)

    def t_form(y, z):  # y^T T z
        return (2.0 * (y[0] * z[0] - y[1] * z[1]) + big_a * (y[0] * z[1] + y[1] * z[0])
                + big_b * (y[0] * z[2] + y[2] * z[0]))

    m11, m12, m22 = t_form(z1, z1), t_form(z1, z2), t_form(z2, z2)
    mean, half = 0.5 * (m11 + m22), 0.5 * (m11 - m22)
    radius = np.hypot(half, m12)
    angle = 0.5 * np.arctan2(m12, half)
    cos, sin = np.cos(angle), np.sin(angle)
    y1, y2 = cos * z1 + sin * z2, cos * z2 - sin * z1

    # s compressed to (e0, e1, e2): g[i][j] = e_i^T s e_j
    s_one = s.sum(axis=1)
    us = u @ s
    g00 = s_one.sum() / n
    g01, g02 = u @ s_one / root_n, e2 @ s_one / root_n
    g11, g12 = np.einsum("ai,ai->a", us, u), np.einsum("ai,ai->a", us, e2)
    g22 = np.einsum("ai,ai->a", e2 @ s, e2)

    def g_form(y):  # y^T g y
        return (g00 * y[0] ** 2 + g11 * y[1] ** 2 + g22 * y[2] ** 2
                + 2.0 * (g01 * y[0] * y[1] + g02 * y[0] * y[2] + g12 * y[1] * y[2]))

    delta = ss1[:, None] * np.array([t0, mean + radius, mean - radius]).T
    q = np.array([g_form(y0), g_form(y1), g_form(y2)]).T
    return delta, q


def perron_criterion_check(m, samples=1000, seed=0, tol=None):
    """Cross-validation of the Perron-weight nonnegativity criterion.

    For each sampled generator v, with Sigma_v = U diag(delta) U^T (descending)
    and q_k = u_k^T S u_k the quadratic form of the symmetric part S of m on
    the EDM eigenbasis, the trace pairing factors exactly as

        tr(S Sigma_v) = delta_1 (q_1 - sum_k r_k q_k),  r_k = -delta_k / delta_1,

    so the pairing is nonnegative iff q_1 >= sum r_k q_k.  Sigma_v has rank
    <= 3 whatever n is (an EDM of embedding dimension d has rank <= d + 2),
    so the criterion reads the three nonzero eigenpairs of its compression to
    a basis of its range (``_edm_rank3``); the other r_k are 0.  The trace
    reading is the direct O(n^2) pairing (``difference_form_pairings``), so
    the per-sample agreement of the two readings compares two independent
    computations.  The report records that agreement, the aggregate verdict,
    the verdict of the PSD oracle, and (as a diagnostic only) the weaker
    bound with eigenvalues of S in place of the q_k, which every matrix
    satisfies.

    The generators are the rows of one (samples, n) standard normal draw
    from the seeded stream, read in blocks of ``_BLOCK`` rows: the blocks
    hold the same numbers, and every reading is row-wise, so the report is
    the same bit for bit as from one full-length block, while only the
    per-sample pairings and verdicts are full length.
    """
    if samples < 100:
        raise UsageError("perron_criterion_check needs at least 100 samples")
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise UsageError(f"perron_criterion_check needs a square matrix, got shape {m.shape}")
    if m.shape[0] > MAX_DIM:
        raise UsageError(f"perron_criterion_check supports n <= {MAX_DIM}, got {m.shape[0]}")
    max_modulus(m, "matrix")
    tol = DEFAULT.cone_agreement if tol is None else tol
    return _perron_pass(m, rng_from(seed), samples, tol)[0]


def _perron_pass(m, rng, samples, tol, tail=None):
    """The report of ``perron_criterion_check`` on the next samples rows of
    rng, followed by the rows of tail (a last block) if given, and the trace
    pairings of all those rows with the symmetric part of m.  m is a
    validated square matrix, its entries within MAX_ENTRY."""
    n = m.shape[0]
    s = 0.5 * (m + m.T)
    lam = np.linalg.eigvalsh(s)[::-1]
    # r ascends; its n - 1 - k leading weights (zero eigenvalues) are 0
    k = min(n - 1, 2)
    starts = list(range(0, samples, _BLOCK)) + ([] if tail is None else [samples])
    total = samples + (0 if tail is None else len(tail))
    trace, crit = np.empty(total), np.empty(total)
    crit_ok = np.empty(total, dtype=bool)
    eig_bound_ok = True
    block_argmins = []  # per block, its row of least trace pairing
    for lo in starts:
        vs = tail if lo == samples else rng.standard_normal((min(_BLOCK, samples - lo), n))
        hi = lo + len(vs)
        w = _centred(vs)
        delta, q = _edm_rank3_of_centred(w, s)
        # a constant generator (Gaussian samples never draw one) has delta = 0
        delta1 = np.maximum(delta[:, :1], 1e-300)
        r = -delta[:, 1:] / delta1
        trace[lo:hi] = _pairings_of_centred(w, s)
        crit[lo:hi] = q[:, 0] - np.sum(r * q[:, 1:], axis=1)
        crit_ok[lo:hi] = crit[lo:hi] >= -tol / delta1[:, 0]
        eig_bound_ok &= bool(np.all(lam[0] >= np.sum(r[:, 2 - k:] * lam[n - k:], axis=1) - tol))
        block_argmins.append(vs[np.argmin(trace[lo:hi])].copy())
    trace_ok = trace >= -tol
    both = trace_ok == crit_ok

    verdict_criterion = bool(np.all(crit_ok))
    verdict_trace = bool(np.all(trace_ok))
    verdict_dual = dual_edm_test(m, tol)
    witnesses = []
    max_resid = 0.0
    for a in np.nonzero(~both)[0][:5]:
        witnesses.append([["disagreement", int(a)], [float(trace[a]), 0.0],
                          [float(crit[a]), 0.0]])
        max_resid = max(max_resid, abs(float(trace[a])))
    counterexample = None
    if not verdict_trace:
        # the first argmin of the stream is the first argmin of its block
        block = int(np.searchsorted(starts, np.argmin(trace), side="right")) - 1
        counterexample = [float(x) for x in block_argmins[block]]
    details = {
        "verdict_criterion": verdict_criterion,
        "verdict_trace": verdict_trace,
        "verdict_dual_edm": verdict_dual,
        "eigenvalue_bound_holds": eig_bound_ok,
        "agrees_with_dual": verdict_criterion == verdict_dual,
        "min_trace_pairing": float(trace.min()),
        "counterexample": counterexample,
        "samples": total,
    }
    passed = bool(np.all(both)) and verdict_criterion == verdict_trace
    report = IdentityReport(name="perron_weight_criterion", passed=passed,
                            max_residual=max_resid, witnesses=witnesses, details=details)
    return report, trace
