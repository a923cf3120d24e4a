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
Sigma_v[a, g] = (v_a - v_g)^2: the pairing tr(S Sigma_v) is v^T W v for the
Weitzenboeck matrix W, and W 1 = 0, so membership holds iff W is PSD on the
complement of 1.  Every verdict reads W's least eigenpair there, from one
eigh (``_exact_verdicts``); the Perron-weight criterion reads its
factorization of the pairing at the least eigenvector.  The seeded samples of
``perron_criterion_check`` cross-check that factorization against the direct
O(n^2) pairing (``difference_form_pairings``) and never form Sigma_v: it has
rank <= 3 at any n (an EDM of embedding dimension d has rank <= d + 2;
Gower, Linear Algebra Appl. 67, 1985), so the Perron reading solves its
3 x 3 compression onto its range in closed form for all samples at once
(``_edm_rank3_of_centred``).  The samples are read in blocks of ``_BLOCK``
rows, each centred once for both readings; ``_perron_pass`` hands their
trace pairings to the direct oracle of ``verify.cone_oracle_disagreements``,
which then draws only the rows past the Perron prefix.
"""

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT, MAX_DIM, MAX_ENTRY
from .errors import DomainError, UsageError
from .functionals import weitzenbock
from .linalg import (_instance, _integer, _numeric, _square, ensure_finite, max_modulus,
                     rng_from)
from .reports import IdentityReport

# generator rows per block of the Perron check: its (rows, n) temporaries
# stay under 200 KB at n <= MAX_DIM, where full-length ones page-fault
_BLOCK = 2048
MIN_SAMPLES = 100   # least number of generators a Perron check samples
# a generator row keeps its bits while its largest entry lies in
# [2^-(E + 1), 2^E), E = _GENERATOR_EXP = 257: then every entry of cone_min's
# g s g^T, an n^2-fold sum of two row entries times a matrix entry within
# MAX_ENTRY, stays finite at n <= MAX_DIM, and the Gram matrix g g^T normal
_GENERATOR_EXP = (1023 - int(np.log2(MAX_ENTRY)) - 2 * int(np.ceil(np.log2(MAX_DIM)))) // 2
_KINDS = ("full", "orthant", "monotone", "generators")


@dataclass(frozen=True, eq=False)   # compared by identity: G has no truth value
class Cone:
    """A cone in R^n \\ {0}.

    kind 'full' is all of R^n \\ {0}; 'orthant' the punctured nonnegative
    orthant; 'monotone' its subset x_1 >= ... >= x_n >= 0; 'generators' the
    convex positive hull of given nonzero vectors.  Boundaries minus the
    origin are included.

    A cone checks itself once, when it is built.  A restricted one, of
    n <= MAX_DIM, is {x G : x >= 0} for its read-only rows G: I, the
    prefix-ones rows, or at most MAX_DIM given nonzero rows, a row whose
    largest entry is outside the range of ``_GENERATOR_EXP`` scaled by a
    power of two to one in [1/2, 1) (the same ray; other rows keep their bits).
    """

    kind: str
    n: int
    generators: Optional[np.ndarray] = None

    def __post_init__(self):
        kind = self.kind
        if not (isinstance(kind, str) and kind in _KINDS):
            raise UsageError(f"unknown cone '{kind}'; kinds: {', '.join(_KINDS)}")
        n = _integer(self.n, "cone dimension", 1, None if kind == "full" else MAX_DIM)
        if (self.generators is None) == (kind == "generators"):
            raise UsageError("a cone has generator rows if and only if its kind is 'generators'")
        object.__setattr__(self, "n", n)
        if kind == "orthant":
            gens = np.eye(n)
        elif kind == "monotone":
            gens = np.tril(np.ones((n, n)))  # row k: first k + 1 coordinates
        elif kind == "generators":
            gens = _numeric(self.generators, "cone generators")
            if gens.ndim != 2 or gens.shape[1] != n:
                raise UsageError(f"cone generators must be rows of width {n}, "
                                 f"got shape {gens.shape}")
            _integer(len(gens), "cone generator count", 1, MAX_DIM)
            ensure_finite(gens, "cone generators")
            top = np.abs(gens).max(axis=1)
            if np.any(top == 0.0):
                raise UsageError("cone generators must be nonzero")
            exp = np.frexp(top)[1][:, None]
            gens = np.where(np.abs(exp) > _GENERATOR_EXP, np.ldexp(gens, -exp), gens)
        else:
            return
        gens.flags.writeable = False
        object.__setattr__(self, "generators", gens)


def full_cone(n):
    return Cone(kind="full", n=n)


def nonneg_orthant(n):
    return Cone(kind="orthant", n=n)


def monotone_nonneg(n):
    return Cone(kind="monotone", n=n)


def generator_cone(generators):
    """The cone of the given rows, in R^n for rows of width n."""
    gens = _numeric(generators, "cone generators")
    return Cone("generators", gens.shape[-1] if gens.ndim else 1, gens)


def make_cone(name, n, generators=None):
    return Cone(name, n, generators)


@dataclass(frozen=True)
class ConeMinimum:
    value: float        # Rayleigh quotient at argmin: the minimum is attained
    argmin: np.ndarray  # unit vector in the cone
    # (for a stack of k matrices: a (k,) array of values, (k, n) of argmins)


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
    """(rows, inv) per support size of the generator rows g, ascending: every
    single row, and the larger supports S whose unit rows have a well
    conditioned Gram matrix, with the inverses of the Cholesky factors of
    G_S G_S^T (inv G_S G_S^T inv^T = I).  Sizes with no such support are
    left out."""
    b = g @ g.T
    norms = np.sqrt(np.diagonal(b))
    unit = b / norms[:, None] / norms
    faces = []
    for rows in _supports(g.shape[0]):
        b_s = b[rows[:, :, None], rows[:, None, :]]
        if rows.shape[1] == 1:
            # a 1 x 1 Cholesky factor is the square root, as LAPACK computes it
            faces.append((rows, 1.0 / np.sqrt(b_s)))
            continue
        gram = np.linalg.eigvalsh(unit[rows[:, :, None], rows[:, None, :]])
        kept = gram[:, 0] > DEFAULT.cone_gram_rcond * gram[:, -1]
        if kept.any():
            faces.append((rows[kept], np.linalg.inv(np.linalg.cholesky(b_s[kept]))))
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
    lengths = np.sqrt(np.einsum("ij,ij->i", g, g))
    least, signs = [], []
    for rows, inv in faces:
        a_s = a[:, rows[:, :, None], rows[:, None, :]]
        w = inv @ a_s @ inv.transpose(0, 2, 1)
        # a 1 x 1 pencil is its own eigenvalue, with eigenvector 1
        vals, vecs = (w[..., 0], np.ones_like(w)) if rows.shape[1] == 1 else np.linalg.eigh(w)
        x = np.einsum("cji,kcj->kci", inv, vecs[..., 0])  # weights inv^T y
        # x is signed nonnegative, up to cone_sign, as it stands or negated:
        # by the sign of its entry of largest modulus on unit rows (a tie of
        # opposite signs is signed neither way)
        unit_x = x * lengths[rows]
        hi, lo = unit_x.max(axis=-1), unit_x.min(axis=-1)
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
    m = _square(m, "cone_min input", stack=1)
    max_modulus(m, "matrix")
    n = m.shape[-1]
    stack = m.reshape(-1, n, n)
    if _instance(cone, Cone, "cone").n != n:
        raise UsageError(f"cone dimension {cone.n} does not match matrix dimension {n}")
    m_sym = 0.5 * (stack + stack.transpose(0, 2, 1))
    if cone.kind == "full":
        values, vectors = np.linalg.eigh(m_sym)
        values = values[:, 0]
        v = np.ascontiguousarray(vectors[:, :, 0])
    else:
        g = cone.generators
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
    m = _square(m, "copositive_2x2 input", stack=1)
    if m.shape[-1] != 2:
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
    v = _numeric(v, "generator vector").reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = (v[:, None] - v[None, :]) ** 2
    if not np.isfinite(sigma).all():   # NaN or Inf in v gives NaN here
        raise DomainError("generator vector contains NaN or Inf, or a difference whose square "
                          "overflows")
    sigma.flags.writeable = False
    return EDMatrix(sigma=sigma, source=v)


def perron_weights(edm):
    """Ratios r_k = -delta_k / delta_1 of the descending spectrum of an EDM;
    sorted ascending in [0, 1] up to ``Tolerances.perron_ratio``, and
    clipped to it."""
    values = np.linalg.eigvalsh(_instance(edm, EDMatrix, "Perron weights input").sigma)[::-1]
    if values[0] <= 0.0:
        raise DomainError("Perron weights need a nonzero distance matrix")
    r = -values[1:] / values[0]
    slack = DEFAULT.perron_ratio
    if np.any(r < -slack) or np.any(r > 1.0 + slack) or np.any(np.diff(r) < -slack):
        raise DomainError("Perron weights fell outside [0, 1] or lost monotonicity")
    return np.clip(r, 0.0, 1.0)


def _exact_verdicts(s):
    """(verdict_dual_edm, verdict_criterion, lambda*, v*) of the symmetric s.

    lambda* is W's least eigenvalue on the complement of 1, the least pairing
    tr(s Sigma_v) of a unit v there, and v* its unit eigenvector, from one
    eigh of W in the last n - 1 columns of the Householder reflection that
    maps 1 / sqrt(n) to -e_1 (at n = 1: lambda* = 0, no v*).  Sigma_v has a
    zero diagonal, so W and the Perron reading at v* use the off-diagonal
    part of s alone.  The verdicts are lambda* and that reading >= -tau,
    tau = ``Tolerances.cone_agreement`` x max|W|."""
    n = s.shape[0]
    if n == 1:
        return True, True, 0.0, None
    off = s - np.diag(np.diag(s))
    w = weitzenbock(off)
    tau = DEFAULT.cone_agreement * float(np.abs(w).max())
    u = np.full(n, 1.0 / np.sqrt(n))
    u[0] += 1.0   # |u|^2 = 2 u_0
    basis = np.eye(n)[:, 1:] - np.outer(u, u[1:] / u[0])
    lam, vecs = np.linalg.eigh(basis.T @ w @ basis)
    v = basis @ vecs[:, 0]
    at_v, delta1 = _perron_reading(_centred(v[None]), off)
    return bool(lam[0] >= -tau), bool(at_v[0] >= -tau / delta1[0]), float(lam[0]), v


def dual_edm_test(m):
    """Membership of m in the dual EDM cone: W is PSD on the complement of 1
    (``_exact_verdicts``).  W is linear in m and blind to its diagonal, so
    neither the matrix's scale nor a diagonal shift changes the verdict."""
    m = _square(m, "dual_edm_test input")
    max_modulus(m, "matrix")
    return _exact_verdicts(0.5 * (m + m.T))[0]


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
    s = _square(s, "difference_form_pairings matrix")
    vs = _numeric(vs, "generator rows")
    if vs.ndim != 2 or vs.shape[1] != s.shape[0]:
        raise UsageError(f"generator rows must have width {s.shape[0]}, got shape {vs.shape}")
    return _pairings_of_centred(_centred(vs), s)


def _pairings_of_centred(w, s):
    """``difference_form_pairings`` of rows already centred by ``_centred``."""
    return (w * w) @ (s.sum(axis=0) + s.sum(axis=1)) - 2.0 * np.einsum("ai,ai->a", w @ s, w)


def _edm_rank3_of_centred(w, s):
    """Nonzero spectrum of each Sigma_v and the forms of s on its eigenvectors,
    for the generators v whose rows, centred by ``_centred``, make up w.

    Returns (delta, q), each (3, samples): delta[0] >= delta[1] >= delta[2]
    and q[k] = u_k^T s u_k for a unit eigenvector u_k of delta[k].  Sigma_v
    has no other nonzero eigenvalue.  s is symmetric.

    With u = w / |w|, x = u o u and p = x - (x . u) u - 1/n, the vectors
    e0 = 1 / sqrt(n), e1 = u, e2 = p / |p| are an orthonormal basis of the
    range of Sigma_v, and the compression is |w|^2 T with

        T = [[2, A, B], [A, -2, 0], [B, 0, 0]],  A = sqrt(n) sum u^3,
                                                 B = sqrt(n) |p|.

    T has trace 0 and determinant 2 B^2.  Its Perron root is
    t0 = 2 sqrt(K/3) cos(arccos(3 sqrt(3) B^2 / K^1.5) / 3) with
    K = 4 + A^2 + B^2; it is isolated, since t0 >= sqrt(K) >= |t| for the
    other two roots t, and its eigenvector is Y0 = (1, c1, c2) with
    c1 = A / (2 + t0) and c2 = B / t0.  Z1 = (-c1, 1, 0) and
    Z2 = Y0 x Z1 = (-c2, -c1 c2, 1 + c1^2) span its complement, where T is
    [[m11, m12], [m12, -t0 - m11]] in the unit vectors along Z1 and Z2, with
    closed-form m11 and m12.  So the other two eigenvalues are -t0/2 +- rho,
    rho = |(h, m12)| with h = m11 + t0/2, and the forms on their
    eigenvectors are the forms g_a, g_d of s on Z1, Z2 and their cross form
    g_b, rotated by the angle 2 theta with cos 2 theta = h / rho and
    sin 2 theta = m12 / rho: (g_a + g_d) / 2 +- ((g_a - g_d) h / 2 + g_b m12)
    / rho.  At rho = 0 the two eigenvalues coincide and the split is 0; the
    criterion reads only the sum of their forms, which needs no angle.
    Degenerate generators take the same path: p = 0 (n = 2, or two distinct
    values) gives B = 0 and the eigenvalue 0 on e2 = 0; a constant v (or
    n = 1) gives w = 0, delta = 0 and q[0] = 1^T s 1 / n.

    The work runs on the transposed (n, samples) copy of w, so every step is
    one vector operation per coordinate, and a reduction over the coordinates
    adds their rows in order."""
    samples, n = w.shape
    w = w.T.copy()
    ss1 = (w * w).sum(axis=0)
    live = ss1 > 0.0
    u = w * np.divide(1.0, np.sqrt(ss1), out=np.zeros(samples), where=live)
    x = u * u
    cube = (x * u).sum(axis=0)
    if n >= 3:
        # Gram-Schmidt against 1 and u, twice: the first pass with its known
        # coefficients x . 1 / n = 1 / n and x . u = cube, the second as read
        p = x - np.where(live, 1.0 / n, 0.0) - cube * u
        p -= p.sum(axis=0) / n + (p * u).sum(axis=0) * u
    else:
        p = np.zeros_like(u)  # the range of Sigma_v is all of R^n
    s2 = np.sqrt((p * p).sum(axis=0))
    e2 = p * np.divide(1.0, s2, out=np.zeros(samples), where=s2 > 0.0)

    root_n = np.sqrt(n)
    big_a, big_b = root_n * cube, root_n * s2
    bb = big_b * big_b
    k = 4.0 + big_a * big_a + bb
    t0 = 2.0 * np.sqrt(k / 3.0) * np.cos(
        np.arccos(np.minimum(3.0 * np.sqrt(3.0) * bb / (k * np.sqrt(k)), 1.0)) / 3.0)
    c1, c2 = big_a / (2.0 + t0), big_b / t0
    c11, c12 = c1 * c1, c1 * c2
    n11 = 1.0 + c11        # |Z1|^2; |Y0|^2 = n00 and |Z2|^2 = n00 n11
    n00 = n11 + c2 * c2
    n0 = np.sqrt(n00)
    m11 = 2.0 * (c11 - big_a * c1 - 1.0) / n11
    m12 = (c2 * (big_a * (c11 - 1.0) + 4.0 * c1) - big_b * c1 * n11) / (n0 * n11)
    h = m11 + 0.5 * t0
    # |h|, |m12| <= rho <= 3 t0 / 2, so the squares stay finite
    rho = np.sqrt(h * h + m12 * m12)

    # s compressed to (e0, e1, e2): g[i][j] = e_i^T s e_j; s is symmetric, so
    # 1^T s y is the sum of s y
    su, se = s @ u, s @ e2
    g00 = s.sum() / n
    g01, g02 = su.sum(axis=0) / root_n, se.sum(axis=0) / root_n
    g11, g12, g22 = (su * u).sum(axis=0), (su * e2).sum(axis=0), (se * e2).sum(axis=0)

    q0 = (g00 + c11 * g11 + c2 * c2 * g22 + 2.0 * (c1 * g01 + c2 * g02 + c12 * g12)) / n00
    g_a = (g00 * c11 - 2.0 * c1 * g01 + g11) / n11
    # the entries of -g Z2 (the first two) and g Z2 (the last)
    r0 = g00 * c2 + c12 * g01 - n11 * g02
    r1 = c2 * g01 + c12 * g11 - n11 * g12
    r2 = n11 * g22 - c2 * g02 - c12 * g12
    g_d = (c2 * r0 + c12 * r1 + n11 * r2) / (n00 * n11)
    g_b = (c1 * r0 - r1) / (n0 * n11)
    mid = 0.5 * (g_a + g_d)
    split = np.divide(0.5 * (g_a - g_d) * h + g_b * m12, rho, out=np.zeros(samples),
                      where=rho > 0.0)
    delta = ss1 * np.array([t0, rho - 0.5 * t0, -0.5 * t0 - rho])
    return delta, np.array([q0, mid + split, mid - split])


def perron_criterion_check(m, samples=1000, seed=0):
    """The Perron-weight nonnegativity criterion, decided at W's least
    eigenpair and cross-checked on sampled generators.

    For a generator v, with Sigma_v = U diag(delta) U^T (descending) and
    q_k = u_k^T S u_k the quadratic form of the symmetric part S of m on the
    EDM eigenbasis, the trace pairing factors exactly as

        tr(S Sigma_v) = delta_1 (q_1 - sum_k r_k q_k),  r_k = -delta_k / delta_1,

    so the pairing is nonnegative iff q_1 >= sum r_k q_k, read from the three
    nonzero eigenpairs of Sigma_v (``_edm_rank3_of_centred``).

    With (lambda*, v*) W's least eigenpair on the complement of 1
    and tau = ``Tolerances.cone_agreement`` x max|W| (``_exact_verdicts``):
    ``verdict_dual_edm`` is lambda* >= -tau, ``verdict_criterion`` the
    factorization read at v* >= -tau, ``min_trace_pairing`` is lambda* and
    ``counterexample`` is v* when the dual verdict fails.  ``passed`` and
    ``witnesses`` check that the factorization and the direct pairing
    (``difference_form_pairings``) agree on the sign of each sampled pairing,
    to the absolute ``Tolerances.cone_agreement``.  The samples are the rows
    of one (samples, n) standard normal draw from the seeded stream, read in
    blocks of ``_BLOCK`` rows with the same numbers; every reading is
    row-wise, so the report is the same bit for bit as from one block.
    """
    samples = _integer(samples, "parameter 'samples'", MIN_SAMPLES)
    m = _square(m, "perron_criterion_check input")
    _integer(m.shape[0], "perron_criterion_check dimension", 1, MAX_DIM)
    max_modulus(m, "matrix")
    return _perron_pass(m, rng_from(seed), samples)[0]


def _perron_reading(w, s):
    """(q_1 - sum_k r_k q_k, delta_1) of each row of w, centred by
    ``_centred``: their product is the pairing with s (0 on a constant row)."""
    delta, q = _edm_rank3_of_centred(w, s)
    delta1 = np.maximum(delta[0], 1e-300)
    r = -delta[1:] / delta1
    return q[0] - np.sum(r * q[1:], axis=0), delta1


def _perron_pass(m, rng, samples, witness=False):
    """The report of ``perron_criterion_check`` on the next samples rows of
    rng, and the trace pairings of those rows with the symmetric part of m.
    With witness, when the dual verdict fails, v* follows the samples as one
    more row (a last block) of the cross-check.  m is a validated square
    matrix, its entries within MAX_ENTRY."""
    n = m.shape[0]
    s = 0.5 * (m + m.T)
    tol = DEFAULT.cone_agreement
    verdict_dual, verdict_criterion, lam, v = _exact_verdicts(s)
    tail = v[None] if witness and not verdict_dual else None
    starts = list(range(0, samples, _BLOCK)) + ([] if tail is None else [samples])
    total = samples + (0 if tail is None else 1)
    trace, crit = np.empty(total), np.empty(total)
    crit_ok = np.empty(total, dtype=bool)
    for lo in starts:
        vs = tail if lo == samples else rng.standard_normal((min(_BLOCK, samples - lo), n))
        hi = lo + len(vs)
        w = _centred(vs)
        crit[lo:hi], delta1 = _perron_reading(w, s)
        trace[lo:hi] = _pairings_of_centred(w, s)
        crit_ok[lo:hi] = crit[lo:hi] >= -tol / delta1
    both = (trace >= -tol) == crit_ok
    witnesses, max_resid = [], 0.0
    for a in np.nonzero(~both)[0][:5]:
        witnesses.append([["disagreement", int(a)], [float(trace[a]), 0.0],
                          [float(crit[a]), 0.0]])
        max_resid = max(max_resid, abs(float(trace[a])))
    details = {
        "verdict_criterion": verdict_criterion,
        "verdict_dual_edm": verdict_dual,
        "agrees_with_dual": verdict_criterion == verdict_dual,
        "min_trace_pairing": lam,
        "counterexample": None if verdict_dual else [float(x) for x in v],
        "samples": total,
    }
    report = IdentityReport(name="perron_weight_criterion", passed=bool(np.all(both)),
                            max_residual=max_resid, witnesses=witnesses, details=details)
    return report, trace
