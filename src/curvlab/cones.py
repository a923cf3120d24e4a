"""Cones in R^n \\ {0}: copositivity, distance-matrix duality, Perron weights.

Quadratic functionals restricted to a cone lose their Rayleigh-quotient
structure.  Exact minimization is NP-hard in general, but at desk-scale
dimensions (n and generator counts up to 12) enumerating the faces of the
cone is exact and cheap: the minimum is the least generalized eigenvalue of a
face whose eigenvector lies in the cone.  The n = 2 orthant case also has an
exact classical criterion, kept as an independent oracle.

Nonnegativity of the difference-form functionals is dual-cone membership
against embedding-dimension-one Euclidean distance matrices
Sigma_v[a, g] = (v_a - v_g)^2; three equivalent oracles are provided
(Weitzenboeck PSD, direct trace sampling, and the Perron-weight eigenvalue
criterion) so they can cross-validate each other.
"""

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT, MAX_DIM
from .errors import DomainError, UsageError
from .functionals import weitzenbock
from .linalg import ensure_finite, rng_from, self_adjoint_eigen
from .reports import IdentityReport


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


def _face_minimum(s, g):
    """(weights, support) of the least Rayleigh quotient of s over {x g : x >= 0}.

    Per support S with a well-conditioned Gram matrix G_S G_S^T, the pencil
    (G_S s G_S^T, G_S G_S^T) is whitened by the Cholesky factor and its
    smallest eigenpair kept when the eigenvector can be signed nonnegative.
    Singletons always qualify.
    """
    a, b = g @ s @ g.T, g @ g.T
    best, best_x, best_rows = np.inf, None, None
    for rows in _supports(g.shape[0]):
        gram = np.linalg.eigvalsh(b[rows[:, :, None], rows[:, None, :]])
        rows = rows[gram[:, 0] > DEFAULT.cone_gram_rcond * gram[:, -1]]
        if rows.shape[0] == 0:
            continue
        cut = (rows[:, :, None], rows[:, None, :])
        a_s, b_s = a[cut], b[cut]
        inv = np.linalg.inv(np.linalg.cholesky(b_s))  # inv b_s inv^T = I
        vals, vecs = np.linalg.eigh(inv @ a_s @ inv.transpose(0, 2, 1))
        x = np.einsum("cji,cj->ci", inv, vecs[:, :, 0])  # weights inv^T y
        peak = np.take_along_axis(x, np.abs(x).argmax(axis=1)[:, None], axis=1)
        x = x * np.sign(peak)
        signed = x.min(axis=1) >= -DEFAULT.cone_sign * x.max(axis=1)
        if not signed.any():
            continue
        c = np.flatnonzero(signed)[np.argmin(vals[signed, 0])]
        if vals[c, 0] < best:
            best, best_x, best_rows = vals[c, 0], x[c], rows[c]
    return np.clip(best_x, 0.0, None), best_rows


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
    """
    m = ensure_finite(np.asarray(m, dtype=float), "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise UsageError(f"cone_min needs a square matrix, got shape {m.shape}")
    n = m.shape[0]
    m_sym = 0.5 * (m + m.T)
    if cone.n != n:
        raise UsageError(f"cone dimension {cone.n} does not match matrix dimension {n}")
    if cone.kind == "full":
        dec = self_adjoint_eigen(m_sym)
        arg = dec.vectors[:, 0].real
        return ConeMinimum(value=float(dec.values[0]), argmin=arg / np.linalg.norm(arg))
    if cone.kind not in ("orthant", "monotone", "generators"):
        raise UsageError(f"unknown cone kind '{cone.kind}'")
    g = _generator_rows(cone)
    if max(n, g.shape[0]) > MAX_DIM:
        raise UsageError(f"restricted cones support n <= {MAX_DIM} "
                         f"and at most {MAX_DIM} generators")
    weights, rows = _face_minimum(m_sym, g)
    v = weights @ g[rows]
    value = float(v @ m_sym @ v) / float(v @ v)
    return ConeMinimum(value=value, argmin=v / np.linalg.norm(v))


def copositive_2x2(m):
    """Exact orthant copositivity for 2 x 2 matrices: with S the symmetric
    part, S11 >= 0, S22 >= 0 and S12 + sqrt(S11 S22) >= 0."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise UsageError("copositive_2x2 is defined for 2 x 2 matrices only")
    s = 0.5 * (m + m.T)
    if s[0, 0] < 0.0 or s[1, 1] < 0.0:
        return False
    return bool(s[0, 1] + np.sqrt(s[0, 0] * s[1, 1]) >= 0.0)


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
    Sigma_v is nonnegative iff the Weitzenboeck matrix of m is PSD."""
    tol = DEFAULT.cone_agreement if tol is None else tol
    w = weitzenbock(np.asarray(m, dtype=float))
    return bool(np.linalg.eigvalsh(w)[0] >= -tol)


def perron_criterion_check(m, samples=1000, seed=0, tol=None):
    """Cross-validation of the Perron-weight nonnegativity criterion.

    For each sampled generator v, with Sigma_v = U diag(delta) U^T (descending)
    and q_k = u_k^T S u_k the quadratic form of the symmetric part S of m on
    the EDM eigenbasis, the trace pairing factors exactly as

        tr(S Sigma_v) = delta_1 (q_1 - sum_k r_k q_k),

    so the pairing is nonnegative iff q_1 >= sum r_k q_k.  The report records
    per-sample agreement of the two readings, the aggregate verdict, the
    verdict of the PSD oracle, and (as a diagnostic only) the weaker bound
    with eigenvalues of S in place of the q_k, which every matrix satisfies.
    """
    if samples < 100:
        raise UsageError("perron_criterion_check needs at least 100 samples")
    tol = DEFAULT.cone_agreement if tol is None else tol
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    s = 0.5 * (m + m.T)
    lam = np.linalg.eigvalsh(s)[::-1]
    rng = rng_from(seed)
    vs = rng.standard_normal((samples, n))
    sig = (vs[:, :, None] - vs[:, None, :]) ** 2
    delta, u = np.linalg.eigh(sig)
    delta = delta[:, ::-1]
    u = u[:, :, ::-1]
    q = np.einsum("aki,kl,ali->ai", u, s, u)
    # Gaussian samples never produce a (degenerate) constant generator, but
    # guard the Perron division anyway
    delta1 = np.maximum(delta[:, :1], 1e-300)
    r = -delta[:, 1:] / delta1
    trace = np.einsum("ai,ai->a", delta, q)
    crit = q[:, 0] - np.sum(r * q[:, 1:], axis=1)
    trace_ok = trace >= -tol
    crit_ok = crit >= -tol / delta1[:, 0]
    both = trace_ok == crit_ok
    eig_bound_ok = bool(np.all(lam[0] >= np.sum(r * lam[1:], axis=1) - tol))

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
        worst = int(np.argmin(trace))
        counterexample = [float(x) for x in vs[worst]]
    details = {
        "verdict_criterion": verdict_criterion,
        "verdict_trace": verdict_trace,
        "verdict_dual_edm": verdict_dual,
        "eigenvalue_bound_holds": eig_bound_ok,
        "agrees_with_dual": verdict_criterion == verdict_dual,
        "min_trace_pairing": float(trace.min()),
        "counterexample": counterexample,
        "samples": samples,
    }
    passed = bool(np.all(both)) and verdict_criterion == verdict_trace
    return IdentityReport(name="perron_weight_criterion", passed=passed,
                          max_residual=max_resid, witnesses=witnesses, details=details)
