"""Property tests: the exact restricted cone minimum, the frame changes, the
stacked frame kernel and the loops built on it, the rank-3 compression of the
distance matrices, the exact dual-EDM verdicts, the exact qobc hypotheses, the
exact Tricerri family extrema, the exact full-convention frame extrema and the
command line.

Examples are drawn by hypothesis with a fixed derivation (``derandomize``),
so a run of the suite is reproducible; no example database is written.
"""

import contextlib
import io
import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from curvlab import (CurvatureMatrices, FrameConvention, NumericalError, SearchConfig,
                     cholesky_frame, cone_min, copositive_2x2, extremize, frame_matrices,
                     generator_cone, invariance_test, kahler_constant, make_cone,
                     matrices_from, monotone_nonneg, nonneg_orthant, paper_hopf, paper_tricerri,
                     perron_criterion_check, random_tensor, rayleigh_bounds, ricci_qobc_bounds,
                     scalars, skew_pair, to_frame, transform_frame, tricerri_family_extrema,
                     weitzenbock)
from curvlab.cli import main
import curvlab.search as search_mod
from curvlab.cones import _edm_rank3, difference_form_pairings
from curvlab.config import DEFAULT, MAX_ENTRY
from curvlab.functionals import quadratic_form_matrix
from curvlab.verify import suite_identities
from curvlab.curvature import COORDINATE, FRAME, ChernTensor, hermitian_tensor_residual
from curvlab.linalg import haar_from_rng, rng_from
from curvlab import MetricJet, curvature_from_jet
from test_cones import assert_compression_matches_reference, planted_member

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


# ---------------------------------------------------------------------------
# the stacked frame kernel against its one-frame definitions

@PROPERTY
@given(n=st.integers(1, 5), count=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
       convention=st.sampled_from(list(FrameConvention)))
def test_frame_matrices_match_the_frame_changed_tensor(n, count, seed, convention):
    t = random_tensor(seed, n)
    us = haar_from_rng(n, rng_from(seed, 1), count)
    rbc, alt = frame_matrices(t, us, convention)
    assert rbc.shape == alt.shape == (count, n, n)
    stacked = CurvatureMatrices.from_slices(rbc, alt)
    tol = 1e-12 * max(1.0, float(np.abs(t.values).max()))
    for j, u in enumerate(us):
        moved = transform_frame(t, u, convention).values
        assert np.abs(rbc[j] - np.einsum("aagg->ag", moved)).max() <= tol
        assert np.abs(alt[j] - np.einsum("agga->ag", moved)).max() <= tol
        single = matrices_from(transform_frame(t, u, convention))
        for kind in QUAD_KINDS:
            diff = quadratic_form_matrix(kind, stacked)[j] - quadratic_form_matrix(kind, single)
            assert np.abs(diff).max() <= tol


def haar_reference(n, rng):
    """One Haar draw as defined: real then imaginary Gaussian block, QR,
    phase fix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@PROPERTY
@given(n=st.integers(1, 6), count=st.integers(1, 30), seed=st.integers(0, 2 ** 16))
def test_stacked_haar_draw_matches_sequential_draws(n, count, seed):
    rng = rng_from(seed)
    sequential = np.array([haar_reference(n, rng) for _ in range(count)])
    assert np.array_equal(haar_from_rng(n, rng_from(seed), count), sequential)
    assert np.array_equal(haar_from_rng(n, rng_from(seed)), sequential[0])


@PROPERTY
@given(n=st.integers(1, 6), shape=st.sampled_from([(), (4,), (2, 3)]),
       seed=st.integers(0, 2 ** 16))
def test_weitzenbock_identity_on_stacks(n, shape, seed):
    rng = rng_from(seed)
    m = rng.standard_normal(shape + (n, n))
    v = rng.standard_normal(shape + (n,))
    w = weitzenbock(m)
    assert np.array_equal(w, np.swapaxes(w, -1, -2))
    lhs = np.einsum("...a,...ag,...g->...", v, w, v)
    rhs = np.einsum("...ag,...ag->...", m, (v[..., :, None] - v[..., None, :]) ** 2)
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(rhs).max())))
    for idx in np.ndindex(*shape):
        assert np.array_equal(w[idx], weitzenbock(m[idx]))


def generators(kind, rng, count, n):
    """Rows v of the kinds that stress the rank-3 compression of Sigma_v,
    with the first row constant."""
    if kind == "gaussian":
        vs = rng.standard_normal((count, n))
    elif kind == "shifted":
        vs = 1e6 + rng.standard_normal((count, n))
    elif kind == "clustered":
        vs = rng.integers(0, 3, (count, n)) + 1e-6 * rng.standard_normal((count, n))
    elif kind == "integer":
        vs = rng.integers(-3, 4, (count, n)).astype(float)
    else:   # two distinct values per row
        vs = np.where(rng.random((count, n)) < 0.5, *rng.standard_normal((2, count, 1)))
    vs[0] = vs[0, 0]
    return vs


@PROPERTY
@given(n=st.integers(1, 12),
       kind=st.sampled_from(["gaussian", "shifted", "clustered", "integer", "two_valued"]),
       seed=st.integers(0, 2 ** 16))
def test_rank3_compression_matches_a_dense_eigendecomposition(n, kind, seed):
    rng = rng_from(seed)
    vs = generators(kind, rng, 200, n)
    m = rng.standard_normal((n, n))
    assert_compression_matches_reference(vs, 0.5 * (m + m.T), 1e-12)


@PROPERTY
@given(n=st.integers(1, 12),
       kind=st.sampled_from(["gaussian", "shifted", "clustered", "integer", "two_valued"]),
       seed=st.integers(0, 2 ** 16))
def test_rank3_eigenpairs_reproduce_the_trace_pairing(n, kind, seed):
    # sum_k delta_k q_k = tr(s Sigma_v): the Perron reading pinned to the
    # direct O(n^2) reading, per sample, to 1e-13 max|s| |w|^2
    rng = rng_from(seed)
    vs = generators(kind, rng, 200, n)
    m = rng.standard_normal((n, n))
    s = 0.5 * (m + m.T)
    delta, q = _edm_rank3(vs, s)
    w = vs - vs.mean(axis=1, keepdims=True)
    bound = 1e-13 * np.abs(s).max() * np.einsum("ai,ai->a", w, w)
    assert np.all(np.abs(np.sum(delta * q, axis=1) - difference_form_pairings(vs, s)) <= bound)


@PROPERTY
@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 16),
       least=st.sampled_from([None, 1.0, 1e-3, 1e-9, 0.0, -1e-9, -1e-6, -1e-3, -1.0]))
def test_perron_verdicts_read_one_least_eigenpair(n, seed, least):
    # random matrices, and at n >= 2 planted ones whose least pairing with a
    # unit generator is `least`: the criterion read at v* gives the dual
    # verdict, and a counterexample is present exactly when it fails, as a
    # unit generator orthogonal to 1 that pairs to min_trace_pairing.
    # A RuntimeWarning (v* at n = 2 has p = 0) fails the test
    rng = rng_from(seed, n)
    if least is None or n == 1:
        m = rng.standard_normal((n, n))
    else:
        m = planted_member(n, rng, least)
    s = 0.5 * (m + m.T)
    details = perron_criterion_check(m, samples=100, seed=seed).details
    assert details["verdict_criterion"] == details["verdict_dual_edm"]
    assert (details["counterexample"] is None) == details["verdict_dual_edm"]
    tau = DEFAULT.cone_agreement * np.abs(weitzenbock(s)).max()
    if least is not None and n > 1 and least < 0.5:   # the other eigenvalues are >= 0.5
        assert details["min_trace_pairing"] == pytest.approx(least, abs=1e-12)
    if details["counterexample"] is not None:
        v = np.array(details["counterexample"])
        assert abs(v @ v - 1.0) <= 1e-14 and abs(v.sum()) <= 1e-14
        pairing = difference_form_pairings(v[None], s)[0]
        assert abs(pairing - details["min_trace_pairing"]) <= tau


@PROPERTY
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
def test_stacked_ricci_qobc_bounds_match_the_frame_loop(n, seed):
    # the recorded hypotheses are the exact inf over every frame and vector:
    # the value extremize attains, and at or below the least Weitzenboeck
    # eigenvalue of each frame of a Haar frame loop
    t = random_tensor(seed, n)
    details = ricci_qobc_bounds(t).details
    rng = rng_from(seed)
    lowest = np.full(2, np.inf)
    for _ in range(200):
        m = matrices_from(transform_frame(t, haar_from_rng(n, rng), FrameConvention.FULL))
        lowest = np.minimum(lowest, [np.linalg.eigvalsh(weitzenbock(m.rbc))[0],
                                     np.linalg.eigvalsh(weitzenbock(m.altered))[0]])
    scale = max(1.0, float(np.abs(t.values).max()))
    for key, sampled in zip(("qobc", "altered_qobc"), lowest):
        got = details[f"{key}_min_over_frames"]
        attained = extremize(t, key)[0].value
        assert abs(got - attained) <= 1e-12 * max(1.0, abs(attained))
        assert got <= sampled + 1e-12 * scale
        assert details[f"{key}_nonneg"] == bool(got >= -DEFAULT.cone_agreement)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_stacked_scalar_trace_invariance_matches_the_frame_loop(seed):
    check = next(c for c in suite_identities(seed).checks
                 if c.name == "scalar_trace_invariance")
    t = random_tensor(seed + 3, 3)
    s0 = scalars(t)
    rng = rng_from(seed + 2)
    worst = 0.0
    for _ in range(100):
        s1 = scalars(transform_frame(t, haar_from_rng(3, rng), FrameConvention.FULL))
        worst = max(worst, abs(s1[0] - s0[0]), abs(s1[1] - s0[1]))
    assert abs(check.actual - worst) <= 1e-12 * max(1.0, float(np.abs(t.values).max()))


@PROPERTY
@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
def test_scalar_traces_are_full_convention_invariant(n, seed):
    t = random_tensor(seed, n)
    moved = transform_frame(t, haar_from_rng(n, rng_from(seed, 1)), FrameConvention.FULL)
    tol = DEFAULT.scalar_imag * max(1.0, float(np.abs(t.values).max()))
    assert np.abs(np.subtract(scalars(moved), scalars(t))).max() <= tol


def structured_tensors(n, rng):
    """Frame tensors at dimension n whose frame (in)dependence differs by
    kind and convention, by name: the catalog tensors, and tensors built so
    that every slice R[a,g,:,:] is a multiple of I, only the diagonal or only
    the off-diagonal slices are nonzero, or the diagonal slices share one
    traceless part (under the adjoint convention, qobc is invariant on that
    one at n = 2 alone)."""
    def hermitian():
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return a + np.conj(a).T

    eye, diag = np.eye(n), np.arange(n)
    raw = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
    off = 0.5 * (raw + np.conj(raw).transpose(1, 0, 3, 2))
    off[diag, diag] = 0.0
    only_diag = np.zeros((n,) * 4, dtype=complex)
    only_diag[diag, diag] = [hermitian() for _ in range(n)]
    traceless = hermitian()
    traceless -= np.trace(traceless) / n * eye
    shared = np.zeros((n,) * 4, dtype=complex)
    shared[diag, diag] = rng.standard_normal(n)[:, None, None] * eye + traceless
    built = {"zero": np.zeros((n,) * 4, dtype=complex),
             "scalar_slices": np.einsum("ag,st->agst", hermitian(), eye),
             "diagonal_slices": only_diag, "off_diagonal_slices": off,
             "shared_traceless": shared}
    tensors = {name: ChernTensor(values=vals, basis=FRAME) for name, vals in built.items()}
    tensors.update(kahler=kahler_constant(2.0, n), kahler_negative=kahler_constant(-1.0, n),
                   skew_pair=skew_pair(3.0, n, seed=n), random=random_tensor(n, n))
    if n == 2:
        tensors.update(hopf=paper_hopf([1.0, 0.0]), hopf_generic=paper_hopf([1.0, 0.5 - 0.5j]),
                       tricerri=paper_tricerri(0.0, 1.0, 1.0),
                       tricerri_mixed=paper_tricerri(0.5, 0.5, 1.0),
                       tricerri_corner=paper_tricerri(1.0, 1.0, 2.0))
    return tensors


@pytest.mark.parametrize("convention", list(FrameConvention))
def test_exact_invariance_agrees_with_300_haar_frames(convention):
    # invariant: the symmetric carrier of every drawn frame equals the
    # identity frame's; dependent: some drawn frame moves it
    rng = rng_from(27)
    verdicts = {}
    for n in (2, 3, 4):
        frames = haar_from_rng(n, rng, 300)
        for name, t in structured_tensors(n, rng).items():
            moved = CurvatureMatrices.from_slices(*frame_matrices(t, frames, convention))
            tol = 1e-9 * max(1.0, float(np.abs(t.values).max()))
            for kind in QUAD_KINDS:
                q = quadratic_form_matrix(kind, moved)
                q0 = quadratic_form_matrix(kind, matrices_from(t))
                spread = float(np.abs((q + np.swapaxes(q, -1, -2)) - (q0 + q0.T)).max()) / 2
                invariant, residual = invariance_test(t, kind, convention)
                assert invariant == (spread <= tol), (n, name, kind, residual, spread)
                verdicts[n, name, kind] = invariant
    assert set(verdicts.values()) == {True, False}
    if convention is FrameConvention.ADJOINT:
        assert verdicts[2, "shared_traceless", "qobc"]
        assert not verdicts[3, "shared_traceless", "qobc"]


def scaled(tensor, k):
    """The frame tensor 2^k R: every entry scaled exactly."""
    return ChernTensor(values=tensor.values * 2.0 ** k, basis=FRAME)


@PROPERTY
@given(n=st.integers(2, 3), k=st.integers(-80, 80), seed=st.integers(0, 2 ** 16),
       convention=st.sampled_from(list(FrameConvention)))
def test_invariance_verdicts_do_not_change_when_the_tensor_is_scaled(n, k, seed, convention):
    # the residual is linear in R and the bound is identity_check x max |R|,
    # so scaling R by 2^k scales both exactly and keeps every verdict
    for name, t in structured_tensors(n, rng_from(seed)).items():
        for kind in QUAD_KINDS:
            invariant, residual = invariance_test(t, kind, convention)
            assert invariance_test(scaled(t, k), kind, convention) == (
                invariant, residual * 2.0 ** k), (name, kind)


@PROPERTY
@given(k=st.integers(-80, 80), seed=st.integers(0, 2 ** 16), kind=st.sampled_from(QUAD_KINDS),
       tensor=st.sampled_from(["random", "hopf"]), cone=st.sampled_from(["full", "orthant"]),
       convention=st.sampled_from(list(FrameConvention)))
def test_reevaluation_certificate_does_not_change_when_the_tensor_is_scaled(
        k, seed, kind, tensor, cone, convention):
    # every row of the dispatch re-evaluates at any scale, and a drift of
    # half the bound reeval x max(|value|, max |R|) passes where twice it fails
    base = random_tensor(seed, 2) if tensor == "random" else paper_hopf([1.0, 0.5 - 0.5j])
    t = scaled(base, k)
    cfg = SearchConfig(restarts=2, refine_steps=2, seed=seed)
    pair = extremize(t, kind, cone=make_cone(cone, 2), convention=convention, cfg=cfg)
    scale = float(np.abs(t.values).max())
    for ext in pair:
        bound = DEFAULT.reeval * max(abs(ext.value), scale)
        search_mod._check_reeval(t, [kind], [replace(ext, value=ext.value + 0.5 * bound)],
                                 convention)
        with pytest.raises(NumericalError, match="failed to re-evaluate"):
            search_mod._check_reeval(t, [kind], [replace(ext, value=ext.value + 2.0 * bound)],
                                     convention)


@PROPERTY
@given(n=st.integers(2, 3), seed=st.integers(0, 2 ** 16), kind=st.sampled_from(QUAD_KINDS),
       cone=st.sampled_from(["orthant", "monotone"]))
def test_restricted_full_convention_scans_stay_within_the_exact_range(n, seed, kind, cone):
    # the orthant and monotone cones lie in the full cone, so their searched
    # extrema can never pass the exact full-cone ones
    t = random_tensor(seed, n)
    exact_lo, exact_hi = extremize(t, kind)
    restricted = nonneg_orthant(n) if cone == "orthant" else monotone_nonneg(n)
    lo, hi = extremize(t, kind, cone=restricted,
                       cfg=SearchConfig(restarts=2, refine_steps=2, seed=seed))
    tol = 1e-12 * max(1.0, abs(exact_lo.value), abs(exact_hi.value))
    assert lo.value >= exact_lo.value - tol
    assert hi.value <= exact_hi.value + tol


# ---------------------------------------------------------------------------
# command-line fuzz: no argv from a bounded grammar ends in a traceback

def flag(name, values):
    """The flag absent (half the time), given one of the values, or given
    without a value."""
    return st.one_of(st.just([]), st.sampled_from([[name, v] for v in values] + [[name]]))


FLAGS = {
    "--seed": flag("--seed", ["0", "3", "-1", "-7", "x", "2.5", "99999999999999999999"]),
    "--restarts": flag("--restarts", ["1", "2", "0", "-1", "x"]),
    "--refine-steps": flag("--refine-steps", ["1", "0", "2", "-1", "x"]),
    "--tensor": flag("--tensor", ["random", "kahler_constant"]),
    "--tensor-params": flag("--tensor-params", ['{"n": 3, "seed": 4}', '{"n": 0}',
                                                '{"n": -1}', '{"n": "x"}',
                                                '{"n": 2, "seed": -2}', "{}", "[]", "x",
                                                '{"c": 2.5, "n": 2}', '{"c": 1e200, "n": 2}',
                                                '{"c": 1e308, "n": 3}',
                                                '{"c": -1e308, "n": 2}']),
    # entries beyond MAX_ENTRY, up to the largest finite floats
    "--matrix": flag("--matrix", ["1,-2;-2,1", "1e200,-2e200;-2e200,1e200",
                                  "1e308,1e308;1e308,1e308", "-1e308,1;1,1e200"]),
    "--format": flag("--format", ["text", "json", "csv", "bogus"]),
    "--cone": flag("--cone", ["full", "orthant", "monotone", "generators", "bogus"]),
    "--fd-order": flag("--fd-order", ["2", "4", "3", "0", "x"]),
    "--fd-step": flag("--fd-step", ["1e-4", "1e-3", "0", "-1", "1e-12", "nan", "x"]),
    "--convention": flag("--convention", ["full", "adjoint", "bogus"]),
    # {tmp} is the test's temporary directory: a file in it, the directory
    # itself, and a file under a subdirectory that does not exist
    "--out": flag("--out", ["{tmp}/out.txt", "{tmp}", "{tmp}/missing/out.txt"]),
}
# config-file values for keys read from the file: right-typed, out of range
# and wrong-typed
CONFIG_VALUES = {
    "restarts": [1, 2, 0, 1001, 10 ** 9, "2", 1.5, True, None, [1]],
    "refine_steps": [1, -1, -3, 1001, 10 ** 9, "x", 2.5, False, None],
    "samples": [100, 5, 99, -5, 10 ** 12, "x", 1e3, True, None],
    "grid": ["re1=1:1.2:2", "re1=0:1:1000000000000", "x", 2, None],
    "imw": [1.0, 2, 0, -1.0, "abc", True, None],
    "dim": [2, 3, 0, 13, 10 ** 9, "2", 2.0, True, None],
    "fd_step": [1e-4, 1e-3, 0, -1.0, "1e-4", True, None],
    "fd_order": [2, 4, 3, "2", 2.0, True, None],
}
# verify's base argv draws its suite from these
VERIFY_SUITES = ["hopf", "tricerri", "fubini_study", "cones", "identities", "all", "bogus"]
# each command with a small-budget base argv and the flags it takes
FUZZ_COMMANDS = {
    "eval": (["eval", "--metric", "hopf", "--point", "1,0.5", "--functional", "qobc",
              "--vector", "1,-1"], ["--seed", "--format", "--out"]),
    "verify": (["verify", "tricerri"], ["--seed", "--format", "--out"]),
    "sweep": (["sweep", "--metric", "hopf", "--point", "1,0.5", "--grid", "re1=1:1.2:2",
               "--use-paper-tensor", "--restarts", "1", "--refine-steps", "1"],
              ["--seed", "--restarts", "--refine-steps", "--format", "--out"]),
    "frame-scan": (["frame-scan", "--tensor", "random", "--tensor-params", '{"n": 2}',
                    "--functional", "rbc", "--restarts", "1", "--refine-steps", "1"],
                   ["--seed", "--restarts", "--refine-steps", "--tensor", "--tensor-params",
                    "--format", "--cone", "--convention", "--out"]),
    "frame-scan --family": (["frame-scan", "--family", "tricerri", "--functional", "rbc"],
                            ["--seed", "--format", "--out"]),
    "cone-check": (["cone-check", "--matrix", "1,-2;-2,1", "--samples", "100"],
                   ["--seed", "--format", "--cone", "--matrix", "--out"]),
}


def without_flags(argv, keys):
    """argv without the flags (and their values) that config keys name."""
    drop = {"--" + key.replace("_", "-") for key in keys}
    out, dropping = [], False
    for token in argv:
        if dropping and not token.startswith("--"):     # the dropped flag's value
            dropping = False
            continue
        dropping = token in drop
        if not dropping:
            out.append(token)
    return out


@st.composite
def fuzz_argv(draw):
    """A command's base argv (verify's with any suite), then its own flags in
    any order, then possibly one flag of another command; and a config object
    for --config, or None.  The base argv leaves the config's keys to the
    file."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    base, names = FUZZ_COMMANDS[command]
    if command == "verify":
        base = ["verify", draw(st.sampled_from(VERIFY_SUITES))]
    config = None
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), min_size=1, max_size=3,
                             unique=True))
        config = {key: draw(st.sampled_from(CONFIG_VALUES[key])) for key in keys}
        base = without_flags(base, keys)
    parts = draw(st.permutations([draw(FLAGS[name]) for name in names]))
    parts.append(draw(st.one_of(FLAGS.values())))
    return base + [token for part in parts for token in part], config


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=fuzz_argv())
def test_cli_fuzz_never_raises(case):
    argv, config = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [token.replace("{tmp}", tmp) for token in argv]
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv = argv + ["--config", path]
        code, out, _ = run_main(argv)
        outputs = [out]
        if os.path.isfile(os.path.join(tmp, "out.txt")):
            with open(os.path.join(tmp, "out.txt")) as fh:
                outputs.append(fh.read())
    assert code in (0, 1, 2, 3), json.dumps([argv, config])
    if code == 0:
        for text in outputs:
            if text.startswith("{"):    # JSON output: no NaN and no Infinity
                json.loads(text, parse_constant=reject_constant)


def reject_constant(name):
    raise AssertionError(f"JSON output holds {name}")


@PROPERTY
@given(entry=st.sampled_from(["2.5", "-3", "1e200", "-1e200", "1e308", "-1e308"]),
       command=st.sampled_from(["frame-scan", "cone-check"]), n=st.integers(1, 3),
       cone=st.sampled_from(["full", "orthant", "monotone"]),
       convention=st.sampled_from(["full", "adjoint"]), fmt=st.sampled_from(["json", "text"]))
def test_cli_fuzz_entries_over_the_bound_exit_2_without_output(entry, command, n, cone,
                                                               convention, fmt):
    # kahler_constant tensors and cone-check matrices with entries up to the
    # largest finite floats: within MAX_ENTRY the command writes strict JSON,
    # beyond it it is a domain error with nothing on stdout
    if command == "frame-scan":
        argv = ["frame-scan", "--tensor", "kahler_constant", "--tensor-params",
                json.dumps({"c": float(entry), "n": n}), "--functional", "qobc",
                "--convention", convention, "--restarts", "1", "--refine-steps", "1"]
    else:
        rows = ";".join(",".join([entry] * n) for _ in range(n))
        argv = ["cone-check", "--matrix", rows, "--samples", "100"]
    code, out, err = run_main(argv + ["--cone", cone, "--format", fmt])
    if abs(float(entry)) > MAX_ENTRY:
        assert (code, out) == (2, ""), err
        assert err.startswith("domain error:") and "MAX_ENTRY" in err
    else:
        assert code == 0, err
        if fmt == "json":
            json.loads(out, parse_constant=reject_constant)


# right-typed config values, per FUZZ_COMMANDS entry, that make the command
# succeed
GOOD_CONFIG_VALUES = {
    "eval": {"point": ["1,0.5", [1, -0.5]], "vector": ["1,-1", "-0.5,2"],
             "use_paper_tensor": [True, False], "seed": [0, 3], "format": ["text", "json"]},
    "verify": {"seed": [0, 3], "format": ["text", "json"]},
    "sweep": {"grid": ["re1=1:1.2:2", "im2=-0.5:0.5:2"], "restarts": [1, 2],
              "refine_steps": [0, 1], "convention": ["full", "adjoint"],
              "use_paper_tensor": [True, False], "seed": [0, 3]},
    "frame-scan": {"tensor_params": ['{"n": 2, "seed": 4}', '{"n": 3}'], "restarts": [1, 2],
                   "refine_steps": [0, 1], "cone": ["full", "orthant", "monotone"],
                   "convention": ["full", "adjoint"], "seed": [0, 5],
                   "format": ["text", "json"]},
    "frame-scan --family": {"imw": [1.0, 2, 0.5], "functional": ["rbc", "qobc"],
                            "seed": [0, 3], "format": ["text", "json"]},
    "cone-check": {"matrix": ["1,-2;-2,1", "-1,0.5;0.5,2"], "samples": [100, 150],
                   "cone": ["full", "orthant", "monotone"], "seed": [0, 3],
                   "format": ["text", "json"]},
}
# the fuzz's family base argv lacks --imw, which a scan needs
MISSING_FLAGS = {"frame-scan --family": ["--imw", "1"]}


def as_flags(config):
    """The command-line flags that say what a config object says."""
    tokens = []
    for key, value in config.items():
        name = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            tokens += [name] if value else []
        else:
            tokens += [name, ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    return tokens


@st.composite
def config_case(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    values = GOOD_CONFIG_VALUES[command]
    keys = draw(st.lists(st.sampled_from(sorted(values)), min_size=1, unique=True))
    config = {key: draw(st.sampled_from(values[key])) for key in keys}
    base = FUZZ_COMMANDS[command][0] + MISSING_FLAGS.get(command, [])
    return without_flags(base, keys), config


@PROPERTY
@given(case=config_case())
def test_cli_config_values_act_as_their_flags(case):
    base, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        from_config = run_main(base + ["--config", path])
    from_flags = run_main(base + as_flags(config))
    assert from_config[0] == 0, json.dumps([base, config, from_config[2]])
    assert from_config == from_flags


@PROPERTY
@given(n=st.integers(1, 3), seed=st.integers(0, 50), kind=st.sampled_from(QUAD_KINDS),
       cone=st.sampled_from(["full", "orthant", "monotone"]),
       convention=st.sampled_from(["full", "adjoint"]),
       out=st.sampled_from(["out.json", ".", "missing/out.json"]))
def test_cli_fuzz_well_formed_frame_scans_reach_both_paths(n, seed, kind, cone, convention,
                                                          out):
    # well-formed scans reach the exact full/full eigenproblem and the
    # search; only an unwritable --out makes them fail, with a usage error
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, out)
        argv = ["frame-scan", "--tensor", "random", "--tensor-params",
                json.dumps({"n": n, "seed": seed}), "--functional", kind, "--cone", cone,
                "--convention", convention, "--restarts", "1", "--refine-steps", "1",
                "--format", "json", "--out", path]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if out != "out.json":
            assert code == 1
            return
        assert code == 0
        with open(path) as fh:
            payload = json.load(fh)
    assert (payload["cone"], payload["convention"]) == (cone, convention)
    assert payload["inf"]["value"] <= payload["sup"]["value"] + 1e-12


@PROPERTY
@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 3.0),
       st.floats(-6.0, 6.0))
def test_chern_correction_equals_the_inverse_metric_contraction(n, seed, log_kappa, log_scale):
    # with ddg = 0 the coordinate tensor is the correction D g^-1 D^H alone,
    # read as Y Y^H with Y = D conj(E); the reference is the three-operand
    # contraction with the inverse metric, g^-1 from LAPACK's inverse
    rng = rng_from(seed)
    u = haar_from_rng(n, rng)
    exponents = np.concatenate([[0.0, 1.0], rng.uniform(size=max(n - 2, 0))])[:n]
    g = (u * 10.0 ** (log_scale + log_kappa * exponents)) @ u.conj().T   # kappa <= 10^3
    dg = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    ref = np.einsum("pq,ikq,jlp->ijkl", np.linalg.inv(g).T, dg, np.conj(dg))
    got = curvature_from_jet(MetricJet(g=g, dg=dg, ddg=np.zeros((n,) * 4))).values
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
