"""Property tests: the exact restricted cone minimum, the frame changes and
the exact Tricerri family extrema.

Examples are drawn by hypothesis with a fixed derivation (``derandomize``),
so a run of the suite is reproducible; no example database is written.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from curvlab import (FrameConvention, cholesky_frame, cone_min, copositive_2x2,
                     generator_cone, matrices_from, monotone_nonneg, nonneg_orthant,
                     paper_tricerri, random_tensor, rayleigh_bounds, to_frame,
                     transform_frame, tricerri_family_extrema)
from curvlab.functionals import quadratic_form_matrix
from curvlab.curvature import COORDINATE, ChernTensor, hermitian_tensor_residual
from curvlab.linalg import haar_from_rng, rng_from

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
RESTRICTED = ("orthant", "monotone", "generators")
QUAD_KINDS = ("rbc", "altered_rbc", "altered_hsc", "qobc", "altered_qobc")


@st.composite
def square_matrices(draw, lo=2, hi=6):
    n = draw(st.integers(lo, hi))
    return draw(hnp.arrays(np.float64, (n, n),
                           elements=st.floats(-4.0, 4.0, allow_subnormal=False)))


def restricted_cone(kind, n, rng):
    """The cone and its generator rows."""
    if kind == "orthant":
        return nonneg_orthant(n), np.eye(n)
    if kind == "monotone":
        return monotone_nonneg(n), np.tril(np.ones((n, n)))
    gens = rng.standard_normal((n, n))
    return generator_cone(gens), gens


def cone_points(gens, count, rng):
    """Nonnegative combinations of the generator rows, many on proper faces."""
    k = gens.shape[0]
    weights = rng.exponential(size=(count, k)) * (rng.random((count, k)) < 0.6)
    empty = ~weights.any(axis=1)
    weights[empty, rng.integers(k, size=int(empty.sum()))] = 1.0
    return weights @ gens


def rayleigh(s, v):
    return np.einsum("...i,ij,...j->...", v, s, v) / np.einsum("...i,...i->...", v, v)


def in_cone(v, gens, tol):
    weights = np.linalg.solve(gens.T, v)
    return bool(weights.min() >= -tol * np.abs(weights).max())


@PROPERTY
@given(m=square_matrices(), kind=st.sampled_from(RESTRICTED), seed=st.integers(0, 2 ** 16))
def test_exact_cone_minimum_bounds(m, kind, seed):
    rng = rng_from(seed)
    n = m.shape[0]
    s = 0.5 * (m + m.T)
    tol = 1e-9 * max(1.0, float(np.abs(m).max()))
    cone, gens = restricted_cone(kind, n, rng)
    res = cone_min(m, cone)

    # attained at a unit argmin inside the cone
    assert np.linalg.norm(res.argmin) == pytest.approx(1.0, abs=1e-12)
    assert abs(rayleigh(s, res.argmin) - res.value) <= tol
    assert in_cone(res.argmin, gens, 1e-9)

    # never above the generators or sampled cone points
    assert res.value <= rayleigh(s, gens).min() + tol
    assert res.value <= rayleigh(s, cone_points(gens, 200, rng)).min() + tol

    # never below the full-cone minimum, and equal to it when its eigenvector
    # (up to sign) lies in the cone
    values, vectors = np.linalg.eigh(s)
    assert res.value >= values[0] - tol
    lowest = vectors[:, 0]
    if in_cone(lowest, gens, 0.0) or in_cone(-lowest, gens, 0.0):
        assert res.value == pytest.approx(values[0], abs=tol)


@PROPERTY
@given(n=st.integers(2, 6), kind=st.sampled_from(RESTRICTED), seed=st.integers(0, 2 ** 16))
def test_exact_cone_minimum_finds_a_planted_minimizer(n, kind, seed):
    # a matrix whose simple lowest eigenvector is a chosen cone point: the
    # cone minimum is that eigenvalue
    rng = rng_from(seed)
    cone, gens = restricted_cone(kind, n, rng)
    v = cone_points(gens, 1, rng)[0]
    basis, _ = np.linalg.qr(np.column_stack([v, rng.standard_normal((n, n - 1))]))
    spectrum = np.concatenate([[-1.0], rng.uniform(0.0, 3.0, n - 1)])
    m = basis @ np.diag(spectrum) @ basis.T
    res = cone_min(m, cone)
    assert res.value == pytest.approx(-1.0, abs=1e-9)
    assert abs(res.argmin @ v) / np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)


@PROPERTY
@given(m=square_matrices(2, 2))
def test_orthant_sign_agrees_with_copositive_2x2(m):
    value = cone_min(m, nonneg_orthant(2)).value
    if abs(value) > 1e-9 * max(1.0, float(np.abs(m).max())):
        assert (value >= 0.0) == copositive_2x2(m)


def full_change_reference(r, a):
    """The five-operand contraction the frame changes are defined by."""
    return np.einsum("ip,jq,ks,lt,pqst->ijkl", a, np.conj(a), a, np.conj(a), r)


@PROPERTY
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
def test_frame_change_matches_five_operand_einsum(n, seed):
    rng = rng_from(seed)
    t = random_tensor(seed, n)
    u = haar_from_rng(n, rng)
    scale = max(1.0, float(np.abs(t.values).max()))

    moved = transform_frame(t, u, FrameConvention.FULL)
    assert np.abs(moved.values - full_change_reference(t.values, u)).max() <= 1e-12 * scale

    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = a @ a.conj().T + n * np.eye(n)
    coord = ChernTensor(values=t.values, basis=COORDINATE, metric=g)
    framed = to_frame(coord)
    ref = full_change_reference(t.values, cholesky_frame(g).T)
    assert np.abs(framed.values - ref).max() <= 1e-12 * scale


@PROPERTY
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
       convention=st.sampled_from(list(FrameConvention)))
def test_frame_change_keeps_hermitian_symmetry(n, seed, convention):
    t = random_tensor(seed, n)
    u = haar_from_rng(n, rng_from(seed, 1))
    moved = transform_frame(t, u, convention)
    scale = max(1.0, float(np.abs(t.values).max()))
    assert hermitian_tensor_residual(moved.values) <= 1e-12 * scale


def family_bounds(bb, dd, im_w, kind):
    """Rayleigh bounds of the Tricerri family member at (|b|^2, |d|^2)."""
    t = paper_tricerri(np.sqrt(bb), np.sqrt(dd), im_w)
    return rayleigh_bounds(quadratic_form_matrix(kind, matrices_from(t)))


@PROPERTY
@given(im_w=st.floats(0.1, 5.0), kind=st.sampled_from(QUAD_KINDS))
def test_tricerri_family_extrema_bound_a_dense_grid(im_w, kind):
    scan = tricerri_family_extrema(im_w, kind)
    tol = 1e-12 * 1.5 / im_w ** 4
    grid = np.linspace(0.0, 1.0, 21)
    bounds = np.array([family_bounds(bb, dd, im_w, kind) for bb in grid for dd in grid])
    assert scan["inf"] <= bounds[:, 0].min() + tol
    assert scan["sup"] >= bounds[:, 1].max() - tol

    # both are attained at the reported corners
    for key in ("inf_at", "sup_at"):
        assert set(scan[key]) <= {0.0, 1.0}
    assert family_bounds(*scan["inf_at"], im_w, kind)[0] == pytest.approx(scan["inf"], abs=tol)
    assert family_bounds(*scan["sup_at"], im_w, kind)[1] == pytest.approx(scan["sup"], abs=tol)
