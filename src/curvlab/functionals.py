"""Curvature functionals on unitary-frame tensors.

The holomorphic sectional curvature contracts the full tensor against a
complex vector.  Everything else in the zoo is a real quadratic form built
from two real n x n matrices extracted from the tensor in a fixed frame:

    rbc[a, g]     = Re R[a, a, g, g]      (repeated outer pair)
    altered[a, g] = Re R[a, g, g, a]      (cross-contracted middle pair)

and the functional family is

    rbc          v^T rbc v / |v|^2
    altered_rbc  v^T altered v / |v|^2
    altered_hsc  v^T (rbc + altered) v / |v|^2
    qobc         sum rbc[a,g] (v_a - v_g)^2 / |v|^2
    altered_qobc sum altered[a,g] (v_a - v_g)^2 / |v|^2

The difference-form functionals are quadratic forms in disguise: the
Weitzenboeck matrix W = Diag(row sums) + Diag(col sums) - (M + M^T) satisfies
v^T W v = sum M[a,g] (v_a - v_g)^2, so their nonnegativity is exactly the
positive semidefiniteness of W.

Frame searches need the two matrices in many frames at once:
``frame_matrices`` computes them for a stack of frame changes without forming
any frame-changed n^4 tensor, and the matrix builders broadcast over leading
axes.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .errors import UsageError
from .linalg import (ensure_finite, haar_from_rng, random_hermitian, rng_from,
                     self_adjoint_eigen, unitary_residual)
from .curvature import FrameConvention, RicciKind, ricci, scalars
from .reports import IdentityReport


class FunctionalKind(str, enum.Enum):
    HSC = "hsc"
    RBC = "rbc"
    ALTERED_RBC = "altered_rbc"
    ALTERED_HSC = "altered_hsc"
    QOBC = "qobc"
    ALTERED_QOBC = "altered_qobc"


QUADRATIC_KINDS = (FunctionalKind.RBC, FunctionalKind.ALTERED_RBC,
                   FunctionalKind.ALTERED_HSC, FunctionalKind.QOBC,
                   FunctionalKind.ALTERED_QOBC)


@dataclass(frozen=True)
class CurvatureMatrices:
    """Real quadratic-form matrices of a frame tensor (or stacks of them along
    leading axes), plus the largest imaginary part dropped when taking real
    parts."""

    rbc: np.ndarray
    altered: np.ndarray
    imag_residual: float

    @classmethod
    def from_slices(cls, rbc, altered):
        """Real parts of the complex slices R[a,a,g,g] and R[a,g,g,a]."""
        resid = max(float(np.abs(rbc.imag).max()), float(np.abs(altered.imag).max()))
        rbc = rbc.real.copy()
        altered = altered.real.copy()
        rbc.flags.writeable = False
        altered.flags.writeable = False
        return cls(rbc=rbc, altered=altered, imag_residual=resid)

    @property
    def n(self):
        return self.rbc.shape[-1]


def matrices_from(tensor):
    tensor.require_frame("matrices_from")
    r = tensor.values
    return CurvatureMatrices.from_slices(np.einsum("aagg->ag", r), np.einsum("agga->ag", r))


def frame_matrices(tensor, u, convention):
    """Complex slices rbc'[a,g] = R'[a,a,g,g] and altered'[a,g] = R'[a,g,g,a]
    of the tensor R' = transform_frame(tensor, u, convention), for a frame
    change u of shape (n, n) or a stack of them of shape (..., n, n).

    Only the two slices are computed.  Under the full convention, with
    P[a, (p, q)] = u[a, p] conj(u[a, q]),

        rbc' = P R_(pq)(st) P^T,    altered' = P R_(pt)(qs) conj(P)^T;

    under the adjoint convention both are contracted straight from R.  The
    unitarity of the whole stack (``Tolerances.frame_change_unitary``) and
    the finiteness of the result are checked once per call.
    """
    tensor.require_frame("frame_matrices")
    n = tensor.n
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (n, n):
        raise UsageError(f"unitary has shape {u.shape}, tensor has dimension {n}")
    if unitary_residual(u) > DEFAULT.frame_change_unitary:
        raise UsageError("frame-change matrix is not unitary")
    r = tensor.values
    uc = np.conj(u)
    if FrameConvention(convention) is FrameConvention.FULL:
        p = (u[..., :, None] * uc[..., None, :]).reshape(u.shape[:-1] + (n * n,))
        pt = np.swapaxes(p, -1, -2)
        rbc = p @ r.reshape(n * n, n * n) @ pt
        alt = p @ r.transpose(0, 3, 1, 2).reshape(n * n, n * n) @ np.conj(pt)
    else:
        rbc = np.einsum("...gs,...gt,aast->...ag", u, uc, r)
        alt = np.einsum("...gs,...at,agst->...ag", u, uc, r)
    return (ensure_finite(rbc, "frame-changed rbc matrix"),
            ensure_finite(alt, "frame-changed altered matrix"))


def _nonzero_vector(v, name="vector"):
    v = np.asarray(v)
    if v.ndim != 1 or not np.any(np.abs(v) > 0):
        raise UsageError(f"{name} must be a nonzero vector")
    return v


def hsc(tensor, w):
    """Holomorphic sectional curvature of a complex direction."""
    tensor.require_frame("hsc")
    w = _nonzero_vector(np.asarray(w, dtype=complex))
    if w.size != tensor.n:
        raise UsageError(f"vector has dimension {w.size}, tensor has {tensor.n}")
    num = np.einsum("ijkl,i,j,k,l->", tensor.values, w, np.conj(w), w, np.conj(w))
    norm4 = float(np.sum(np.abs(w) ** 2)) ** 2
    return float(num.real) / norm4


def bisectional(tensor, x, y, altered=True):
    """Bisectional curvature of a pair of complex directions.

    altered=True gives the symmetric two-term form
    (R(X, Xbar, Y, Ybar) + R(Y, Ybar, X, Xbar)) / (|X|^2 |Y|^2); the
    single-term variant keeps only the first summand.  Passing orthogonal
    (resp. unitary) pairs restricts to the orthogonal flavors.
    """
    tensor.require_frame("bisectional")
    x = _nonzero_vector(np.asarray(x, dtype=complex), "X")
    y = _nonzero_vector(np.asarray(y, dtype=complex), "Y")
    r = tensor.values
    first = np.einsum("ijkl,i,j,k,l->", r, x, np.conj(x), y, np.conj(y))
    value = first + np.einsum("ijkl,i,j,k,l->", r, y, np.conj(y), x, np.conj(x)) if altered else first
    denom = float(np.sum(np.abs(x) ** 2) * np.sum(np.abs(y) ** 2))
    return float(np.real(value)) / denom


def quadratic_form_matrix(kind, matrices):
    """Symmetric-form carrier of a quadratic functional kind; stacked
    matrices give a stack of carriers."""
    kind = FunctionalKind(kind)
    if kind is FunctionalKind.RBC:
        return matrices.rbc
    if kind is FunctionalKind.ALTERED_RBC:
        return matrices.altered
    if kind is FunctionalKind.ALTERED_HSC:
        return matrices.rbc + matrices.altered
    if kind is FunctionalKind.QOBC:
        return weitzenbock(matrices.rbc)
    if kind is FunctionalKind.ALTERED_QOBC:
        return weitzenbock(matrices.altered)
    raise UsageError("hsc takes complex vectors; use hsc(tensor, w)")


def evaluate(kind, matrices, v):
    """Evaluate a quadratic functional at a real nonzero vector."""
    kind = FunctionalKind(kind)
    if kind is FunctionalKind.HSC:
        raise UsageError("hsc takes complex vectors; use hsc(tensor, w)")
    v = _nonzero_vector(np.asarray(v, dtype=float))
    if v.size != matrices.n:
        raise UsageError(f"vector has dimension {v.size}, matrices have {matrices.n}")
    norm2 = float(v @ v)
    if kind in (FunctionalKind.QOBC, FunctionalKind.ALTERED_QOBC):
        m = matrices.rbc if kind is FunctionalKind.QOBC else matrices.altered
        diff2 = (v[:, None] - v[None, :]) ** 2
        return float(np.sum(m * diff2)) / norm2
    m = quadratic_form_matrix(kind, matrices)
    return float(v @ m @ v) / norm2


def rayleigh_bounds(m):
    """Sharp bounds of v^T m v / |v|^2: extreme eigenvalues of the symmetric part."""
    values = self_adjoint_eigen(np.asarray(m, dtype=float)).values
    return float(values[0]), float(values[-1])


def weitzenbock(m):
    """Symmetric W with v^T W v = sum_{a,g} m[a,g] (v_a - v_g)^2, for a
    matrix or a stack of them."""
    m = np.asarray(m, dtype=float)
    sums = np.zeros(m.shape)
    diag = np.arange(m.shape[-1])
    sums[..., diag, diag] = m.sum(axis=-1) + m.sum(axis=-2)
    return sums - (m + np.swapaxes(m, -1, -2))


# ---------------------------------------------------------------------------
# constant-curvature hypothesis checks

@dataclass(frozen=True)
class ConstHSC:
    c: float


@dataclass(frozen=True)
class ConstAlteredRBC:
    c: float


@dataclass(frozen=True)
class ConstAlteredHBC:
    c: float


def _report(name, residuals, tol, details=None):
    witnesses = sorted(residuals, key=lambda w: -w[3])[:5]
    max_resid = max((w[3] for w in residuals), default=0.0)
    return IdentityReport(
        name=name, passed=max_resid <= tol, max_residual=max_resid,
        witnesses=[[w[0], w[1], w[2]] for w in witnesses],
        details=details or {})


def _pair_sum_residuals(r, target):
    """Residuals of R[i,j,k,l] + R[k,l,i,j] == target[i,j,k,l], all tuples."""
    n = r.shape[0]
    s = r + r.transpose(2, 3, 0, 1)
    out = []
    for idx in np.ndindex(n, n, n, n):
        lhs = complex(s[idx])
        rhs = complex(target[idx])
        out.append((list(idx), [lhs.real, lhs.imag], [rhs.real, rhs.imag], abs(lhs - rhs)))
    return out


def constant_identity_check(tensor, hypothesis, tol=None, seed=0, samples=100):
    """Check the algebraic identities forced by a constant-curvature hypothesis.

    ConstHSC(c): diagonal entries R_iiii = c; the four-term sums
        R_iikk + R_kiik + R_ikki + R_kkii = 2c for i != k; the altered
        sectional form equals c(1 + (sum v)^2) on random unit vectors; and the
        frame-quantified trace identity
        sum R[k,l,s,t] (x[k,l] x[s,t] + x[k,t] x[s,l]) = c (tr(x)^2 + tr(x^2))
        over random Hermitian x.
    ConstAlteredRBC(c): pair sums R[i,j,k,l] + R[k,l,i,j] = 2c d_ij d_kl and
        the trace identity sum R[k,l,s,t] x[k,t] x[s,l] = c tr(x^2).
    ConstAlteredHBC(c): pair sums = c d_ij d_kl; the rbc closed form
        (c/2)(sum v)^2/|v|^2; hsc == c/2; altered rbc == c/2; |rbc| <= c n / 2.
    """
    tensor.require_frame("constant_identity_check")
    tol = DEFAULT.identity_check if tol is None else tol
    rng = rng_from(seed)
    r = tensor.values
    n = tensor.n
    residuals = []
    details = {"hypothesis": type(hypothesis).__name__, "c": hypothesis.c,
               "samples": samples}
    c = hypothesis.c

    if isinstance(hypothesis, ConstHSC):
        for i in range(n):
            lhs = complex(r[i, i, i, i])
            residuals.append(([i, i, i, i], [lhs.real, lhs.imag], [c, 0.0], abs(lhs - c)))
        for i in range(n):
            for k in range(n):
                if i == k:
                    continue
                lhs = complex(r[i, i, k, k] + r[k, i, i, k] + r[i, k, k, i] + r[k, k, i, i])
                residuals.append(([i, k], [lhs.real, lhs.imag], [2 * c, 0.0],
                                  abs(lhs - 2 * c)))
        m = matrices_from(tensor)
        form = m.rbc + m.altered
        for s in range(samples):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            lhs = float(v @ form @ v)
            rhs = c * (1.0 + float(np.sum(v)) ** 2)
            residuals.append((["altered_hsc", s], [lhs, 0.0], [rhs, 0.0], abs(lhs - rhs)))
        for s in range(samples):
            xi = random_hermitian(n, rng)
            lhs = complex(np.einsum("klst,kl,st->", r, xi, xi)
                          + np.einsum("klst,kt,sl->", r, xi, xi))
            rhs = c * (np.trace(xi) ** 2 + np.trace(xi @ xi))
            residuals.append((["trace_identity", s], [lhs.real, lhs.imag],
                              [rhs.real, rhs.imag], abs(lhs - rhs)))

    elif isinstance(hypothesis, ConstAlteredRBC):
        eye = np.eye(n)
        target = 2 * c * np.einsum("ij,kl->ijkl", eye, eye)
        residuals.extend(_pair_sum_residuals(r, target))
        for s in range(samples):
            xi = random_hermitian(n, rng)
            lhs = complex(np.einsum("klst,kt,sl->", r, xi, xi))
            rhs = c * np.trace(xi @ xi)
            residuals.append((["trace_identity", s], [lhs.real, lhs.imag],
                              [rhs.real, rhs.imag], abs(lhs - rhs)))
        m = matrices_from(tensor)
        for s in range(samples):
            v = rng.standard_normal(n)
            lhs = evaluate(FunctionalKind.RBC, m, v)
            rhs = c * float(np.sum(v)) ** 2 / float(v @ v)
            residuals.append((["rbc_closed_form", s], [lhs, 0.0], [rhs, 0.0], abs(lhs - rhs)))

    elif isinstance(hypothesis, ConstAlteredHBC):
        eye = np.eye(n)
        target = c * np.einsum("ij,kl->ijkl", eye, eye)
        residuals.extend(_pair_sum_residuals(r, target))
        m = matrices_from(tensor)
        half = 0.5 * c
        for s in range(samples):
            v = rng.standard_normal(n)
            lhs = evaluate(FunctionalKind.RBC, m, v)
            rhs = half * float(np.sum(v)) ** 2 / float(v @ v)
            residuals.append((["rbc_closed_form", s], [lhs, 0.0], [rhs, 0.0], abs(lhs - rhs)))
            if abs(lhs) > abs(half) * n + tol:
                residuals.append((["rbc_bound", s], [abs(lhs), 0.0],
                                  [abs(half) * n, 0.0], abs(lhs) - abs(half) * n))
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            h_val = hsc(tensor, w)
            residuals.append((["hsc_constant", s], [h_val, 0.0], [half, 0.0],
                              abs(h_val - half)))
            alt = evaluate(FunctionalKind.ALTERED_RBC, m, v)
            residuals.append((["altered_rbc_constant", s], [alt, 0.0], [half, 0.0],
                              abs(alt - half)))
    else:
        raise UsageError(f"unknown hypothesis {hypothesis!r}")

    return _report(f"constant_identity[{type(hypothesis).__name__}]",
                   residuals, tol, details)


# ---------------------------------------------------------------------------
# Ricci vs difference-form curvature inequalities

def ricci_qobc_bounds(tensor, tol=None, frame_samples=20, seed=0):
    """Margins of the Ricci and scalar inequalities implied by nonnegative
    difference-form curvatures.

    For every pair k != l the report lists

        Ric1_kk + Ric1_ll + Ric2_kk + Ric2_ll - 2 (R[k,l,l,k] + R[l,k,k,l])
        Ric3_kk + Ric3_ll + Ric4_kk + Ric4_ll - 2 (R[k,k,l,l] + R[l,l,k,k])

    together with the two scalar-trace margins; passed means all margins are
    >= -tol.  The nonnegativity hypotheses themselves (W-matrix PSD in
    sampled frames under the full convention) are evaluated and recorded in
    the details, not enforced, with the least Weitzenboeck eigenvalue seen.
    """
    tensor.require_frame("ricci_qobc_bounds")
    tol = DEFAULT.identity_check if tol is None else tol
    n = tensor.n
    r = tensor.values
    ric = {k: ricci(tensor, k) for k in RicciKind}
    scal, scal_alt = scalars(tensor)
    residuals = []
    margins = []
    for k in range(n):
        for l in range(n):
            if k >= l:
                continue
            pair12 = float(np.real(ric[RicciKind.FIRST][k, k] + ric[RicciKind.FIRST][l, l]
                                   + ric[RicciKind.SECOND][k, k] + ric[RicciKind.SECOND][l, l]
                                   - 2.0 * (r[k, l, l, k] + r[l, k, k, l])))
            pair34 = float(np.real(ric[RicciKind.THIRD][k, k] + ric[RicciKind.THIRD][l, l]
                                   + ric[RicciKind.FOURTH][k, k] + ric[RicciKind.FOURTH][l, l]
                                   - 2.0 * (r[k, k, l, l] + r[l, l, k, k])))
            margins.append((f"ric12_pair[{k},{l}]", pair12))
            margins.append((f"ric34_pair[{k},{l}]", pair34))
    cross = float(np.real(sum(r[k, l, l, k] + r[l, k, k, l]
                              for k in range(n) for l in range(k + 1, n))))
    cross_alt = float(np.real(sum(r[k, k, l, l] + r[l, l, k, k]
                                  for k in range(n) for l in range(k + 1, n))))
    if n > 1:
        margins.append(("scal_bound", scal - cross / (n - 1)))
        margins.append(("scal_alt_bound", scal_alt - cross_alt / (n - 1)))
    for name, margin in margins:
        residuals.append(([name], [margin, 0.0], [0.0, 0.0], max(0.0, -margin)))

    # least eigenvalue of the qobc and altered-qobc Weitzenboeck matrices over
    # the sampled frames, one stacked draw and one batched eigensolve
    lowest = np.full(2, np.inf)
    if frame_samples > 0:
        us = haar_from_rng(n, rng_from(seed), frame_samples)
        m = CurvatureMatrices.from_slices(*frame_matrices(tensor, us, FrameConvention.FULL))
        lowest = np.linalg.eigvalsh(weitzenbock(np.stack([m.rbc, m.altered])))[..., 0].min(axis=1)
    qobc_psd, alt_psd = (bool(x) for x in lowest >= -DEFAULT.cone_agreement)

    details = {"margins": [[name, val] for name, val in margins],
               "scal": scal, "altered_scal": scal_alt,
               "qobc_nonneg_sampled": qobc_psd, "altered_qobc_nonneg_sampled": alt_psd,
               "qobc_min_eigenvalue_sampled": float(lowest[0]),
               "altered_qobc_min_eigenvalue_sampled": float(lowest[1]),
               "frame_samples": frame_samples}
    return _report("ricci_qobc_bounds", residuals, tol, details)


# ---------------------------------------------------------------------------
# moment identity on the complex unit sphere

def moment_target(n):
    """Exact fourth moments of the uniform unit sphere in C^n:
    E[w_i conj(w_j) w_k conj(w_l)] = (d_ij d_kl + d_il d_kj) / (n (n+1))."""
    eye = np.eye(n)
    return (np.einsum("ij,kl->ijkl", eye, eye)
            + np.einsum("il,kj->ijkl", eye, eye)) / (n * (n + 1.0))


_MOMENT_BLOCK = 4096   # rows per Gram product: the (block, n^2) factors stay small


def _moment_chunk(n, rng, count):
    """Sums over count unit vectors z of z_i conj(z_j) z_k conj(z_l) and of
    its squared modulus s_i s_j s_k s_l (s = |z|^2), as Gram products
    A^T A with A[a, (i, j)] = z_i conj(z_j) and S^T S with
    S[a, (i, j)] = s_i s_j, accumulated over row blocks."""
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    s = np.abs(z) ** 2
    total = np.zeros((n * n, n * n), dtype=complex)
    total_sq = np.zeros((n * n, n * n))
    for start in range(0, count, _MOMENT_BLOCK):
        zb, sb = z[start:start + _MOMENT_BLOCK], s[start:start + _MOMENT_BLOCK]
        a = (zb[:, :, None] * np.conj(zb)[:, None, :]).reshape(-1, n * n)
        q = (sb[:, :, None] * sb[:, None, :]).reshape(-1, n * n)
        total += a.T @ a
        total_sq += q.T @ q
    return total.reshape((n,) * 4), total_sq.reshape((n,) * 4)


def fs_moment_check(n, samples, seed=0, tol_sigmas=3.0):
    """Monte Carlo check of the fourth-moment identity on the unit sphere of
    C^n (the Fubini-Study pushforward measure), all n^4 index tuples at once.

    Sampling uses normalized complex Gaussians; the deviation of each tuple is
    compared against tol_sigmas standard errors (variance estimated from the
    same stream).
    """
    if n < 2:
        raise UsageError("moment identity needs n >= 2")
    if samples < 10_000:
        raise UsageError("need at least 1e4 samples for a meaningful check")
    chunk = 100_000
    total = total_sq = 0.0
    for k, start in enumerate(range(0, samples, chunk)):
        part, part_sq = _moment_chunk(n, rng_from(seed, k), min(chunk, samples - start))
        total = total + part
        total_sq = total_sq + part_sq
    mean = total / samples
    # |w_i wbar_j w_k wbar_l|^2 = prod of squared moduli, so total_sq / N is
    # the second moment of each summand
    var = np.maximum(total_sq / samples - np.abs(mean) ** 2, 0.0)
    se = np.sqrt(var / samples)
    target = moment_target(n)
    dev = np.abs(mean - target)
    floor = 1.0 / samples  # guards exact-zero tuples against se == 0
    ratio = dev / np.maximum(tol_sigmas * se, floor)
    worst = np.unravel_index(int(np.argmax(ratio)), dev.shape)
    residuals = []
    for idx in np.ndindex(*dev.shape):
        ok_scale = max(float(tol_sigmas * se[idx]), floor)
        residuals.append((list(idx), [float(mean[idx].real), float(mean[idx].imag)],
                          [float(target[idx]), 0.0],
                          float(dev[idx]) / ok_scale))
    report = _report("fs_moment_identity", residuals, 1.0,
                     {"n": n, "samples": samples, "max_abs_deviation": float(dev.max()),
                      "max_standard_error": float(se.max()),
                      "worst_tuple": [int(i) for i in worst]})
    return report
