"""Reference values the workloads check curvlab's outputs against.

Everything here is plain numpy, written independently of curvlab, so that a
defect in the library cannot also move its reference.  Closed forms come from
the paper; restricted-cone minima are exact by face enumeration.
"""

import itertools
import json
from pathlib import Path

import numpy as np

KINDS = ("rbc", "altered_rbc", "altered_hsc", "qobc", "altered_qobc")
STORED = Path(__file__).resolve().parent / "references.json"


def pcg(seed, *key):
    """The generator curvlab builds for an integer seed and derivation key."""
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(seq))


# ---------------------------------------------------------------------------
# synthetic frame tensors, rebuilt from their definitions

def random_tensor(seed, n):
    rng = pcg(seed)
    raw = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
    return 0.5 * (raw + np.conj(raw).transpose(1, 0, 3, 2))


def kahler_constant(c, n):
    eye = np.eye(n)
    return 0.5 * c * (np.einsum("ij,kl->ijkl", eye, eye) + np.einsum("il,kj->ijkl", eye, eye))


def skew_pair(c, n, seed):
    a = pcg(seed).standard_normal((n, n))
    s = 0.5 * (a - a.T)
    vals = np.zeros((n,) * 4)
    for i in range(n):
        for j in range(n):
            vals[i, i, j, j] = 0.5 * c + s[i, j]
    return vals


def weitzenbock(m):
    return np.diag(m.sum(axis=1)) + np.diag(m.sum(axis=0)) - (m + m.T)


def form_matrix(kind, r):
    """Symmetric matrix of a quadratic functional kind in the tensor's frame."""
    rbc = np.einsum("aagg->ag", r).real
    alt = np.einsum("agga->ag", r).real
    q = {"rbc": rbc, "altered_rbc": alt, "altered_hsc": rbc + alt,
         "qobc": weitzenbock(rbc), "altered_qobc": weitzenbock(alt)}[kind]
    return 0.5 * (q + q.T)


def fixed_frame_bounds(kind, r):
    """(min, max) of the functional over the full cone in the given frame."""
    w = np.linalg.eigvalsh(form_matrix(kind, r))
    return float(w[0]), float(w[-1])


# ---------------------------------------------------------------------------
# closed forms

def hopf_qobc_extrema(z):
    """Adjoint-convention qobc extrema on the Hopf surface: 0 and 8 / |z|^4."""
    rho = float(np.sum(np.abs(np.asarray(z)) ** 2))
    return 0.0, 8.0 / rho ** 2


def tricerri_family_extrema(kind, im_w):
    """inf/sup over the two-parameter Tricerri family."""
    scale = float(im_w) ** 4
    if kind == "rbc":
        return -0.75 * (1.0 + np.sqrt(2.0)) / scale, 0.75 / scale
    if kind == "altered_rbc":
        return -1.5 / scale, 0.0
    raise ValueError(f"no closed form for the family extrema of {kind}")


def hopf_tensor(z):
    """Closed-form Hopf-surface tensor 4 delta_kl (delta_ij |z|^2 - z_j conj z_i) / |z|^6."""
    z = np.asarray(z, dtype=complex)
    rho = float(np.sum(np.abs(z) ** 2))
    block = (np.eye(2) * rho - np.outer(np.conj(z), z)) * 4.0 / rho ** 3
    return np.einsum("ij,kl->ijkl", block, np.eye(2))


def copositive_2x2(m):
    s = 0.5 * (m + m.T)
    return bool(s[0, 0] >= 0 and s[1, 1] >= 0 and s[0, 1] + np.sqrt(s[0, 0] * s[1, 1]) >= 0)


# ---------------------------------------------------------------------------
# exact cone minimum

def cone_generators(kind, n, generators=None):
    if kind == "orthant":
        return np.eye(n)
    if kind == "monotone":
        return np.tril(np.ones((n, n)))   # row k: the first k + 1 coordinates are 1
    if kind == "generators":
        return np.asarray(generators, dtype=float)
    raise ValueError(kind)


def cone_min_exact(m, kind, generators=None):
    """min of v^T m v / |v|^2 over the cone spanned by nonnegative
    combinations of generator rows G.

    A minimizer with minimal support S in the weights is a positive
    eigenvector of the smallest eigenvalue of the pencil (G_S M G_S^T,
    G_S G_S^T), so the minimum is the least such eigenvalue over all supports
    whose eigenvector has one sign.  Supports with a singular Gram matrix are
    skipped: a conic combination can always be rewritten over independent
    generators.
    """
    m = np.asarray(m, dtype=float)
    s = 0.5 * (m + m.T)
    g = cone_generators(kind, s.shape[0], generators)
    a, b = g @ s @ g.T, g @ g.T
    best = np.inf
    k = g.shape[0]
    for size in range(1, k + 1):
        for sup in itertools.combinations(range(k), size):
            idx = np.ix_(sup, sup)
            try:
                low = np.linalg.cholesky(b[idx])
            except np.linalg.LinAlgError:
                continue
            if np.linalg.cond(low) > 1e8:
                continue
            inv = np.linalg.inv(low)
            w, y = np.linalg.eigh(inv @ a[idx] @ inv.T)
            x = inv.T @ y[:, 0]
            x = x if x.sum() >= 0 else -x
            if x.min() >= -1e-12 * np.abs(x).max():
                best = min(best, float(w[0]))
    return best


def oracle_disagreements(n, count, seed, samples, tol=1e-8):
    """Count of the matrices on which the exact dual-EDM oracle (Weitzenboeck
    matrix PSD) and direct sampling of trace pairings disagree, drawn the way
    ``verify.cone_oracle_disagreements`` draws them.  Sampling misses thin
    negative cones, so the count is not always zero; when the Perron
    criterion reads the same samples as direct sampling it agrees with it."""
    bad = 0
    for k in range(count):
        m = pcg(seed, n, k).standard_normal((n, n))
        vs = pcg((seed + 1) * 1_000_003 + 101 * n + k).standard_normal((samples, n))
        sig = (vs[:, :, None] - vs[:, None, :]) ** 2
        direct = np.einsum("aij,ij->a", sig, 0.5 * (m + m.T)).min() >= -tol
        dual = np.linalg.eigvalsh(weitzenbock(m))[0] >= -tol
        bad += int(direct != dual)
    return bad


def in_cone(v, kind, tol=1e-9):
    v = np.asarray(v, dtype=float)
    if kind == "orthant":
        return bool(v.min() >= -tol)
    if kind == "monotone":
        return bool(v.min() >= -tol and np.all(np.diff(v) <= tol))
    return True


def rayleigh(m, v):
    v = np.asarray(v, dtype=float)
    return float(v @ (0.5 * (m + m.T)) @ v) / float(v @ v)


# ---------------------------------------------------------------------------
# stored large-budget search extrema

def load_stored():
    return json.loads(STORED.read_text())


def shortfall(found, ref, side):
    """Relative amount by which an extremum falls short of its reference:
    an inf above the reference, or a sup below it; never negative."""
    gap = found - ref if side == "inf" else ref - found
    return max(0.0, gap) / max(1.0, abs(ref))
