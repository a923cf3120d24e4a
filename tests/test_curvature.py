import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvlab import (DomainError, FrameConvention, RicciKind, UsageError,
                     curvature_from_jet, jet_at, kahler_constant, make_metric,
                     make_synthetic, paper_hopf, paper_tricerri, random_tensor,
                     ricci, scalars, skew_pair, to_frame, transform_frame)
from curvlab.curvature import COORDINATE, ChernTensor, hermitian_tensor_residual
from curvlab.functionals import FunctionalKind, evaluate, hsc, matrices_from
from curvlab.linalg import haar_from_rng, rng_from
from curvlab.metrics import euclidean, fubini_study, hopf
from curvlab.search import tricerri_family_extrema
from curvlab.metrics import tricerri


def frame_tensor_of(metric, p):
    return to_frame(curvature_from_jet(jet_at(metric, np.asarray(p, dtype=complex))))


def test_euclidean_curvature_vanishes():
    t = curvature_from_jet(jet_at(euclidean(3), np.array([1.0, 2.0, 3.0])))
    assert np.abs(t.values).max() == 0.0


def test_fubini_study_curvature_at_origin():
    t = curvature_from_jet(jet_at(fubini_study(2), np.zeros(2)))
    eye = np.eye(2)
    target = np.einsum("ij,kl->ijkl", eye, eye) + np.einsum("il,kj->ijkl", eye, eye)
    assert_allclose(t.values, target, atol=1e-12)


def test_hopf_curvature_closed_form_at_random_points():
    metric = hopf()
    rng = rng_from(11)
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z *= rng.uniform(0.3, 2.0) / np.linalg.norm(z)
        t = curvature_from_jet(jet_at(metric, z))
        ref = paper_hopf(z).values
        assert np.abs(t.values - ref).max() / np.abs(ref).max() < 1e-6


def test_to_frame_identity_metric_is_noop():
    t = kahler_constant(2.0, 2)
    coord = ChernTensor(values=t.values, basis=COORDINATE, metric=np.eye(2, dtype=complex))
    assert_allclose(to_frame(coord).values, t.values, atol=1e-14)


def test_to_frame_scaling():
    # g = 4 I divides every entry by 16: four frame factors of 1/2
    t = paper_hopf([1.0, 0.0])
    coord = ChernTensor(values=t.values, basis=COORDINATE, metric=4.0 * np.eye(2, dtype=complex))
    assert_allclose(to_frame(coord).values, t.values / 16.0, atol=1e-14)


def test_fubini_study_frame_hsc_is_two():
    t = frame_tensor_of(fubini_study(2), np.zeros(2))
    assert hsc(t, np.array([1.0, 0.0], dtype=complex)) == pytest.approx(2.0)
    rng = rng_from(5)
    p = 0.4 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    t3 = frame_tensor_of(fubini_study(3), p)
    for _ in range(10):
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert hsc(t3, w) == pytest.approx(2.0, abs=1e-9)


def test_transform_identity_both_conventions():
    t = random_tensor(3, 3)
    for conv in FrameConvention:
        assert_allclose(transform_frame(t, np.eye(3), conv).values, t.values, atol=1e-14)


def test_hopf_adjoint_invariance_of_listed_components():
    t = paper_hopf([1.0, 0.0])
    rng = rng_from(17)
    listed = [(0, 0, 0, 0), (1, 1, 1, 1), (0, 0, 1, 1), (1, 1, 0, 0),
              (0, 1, 1, 0), (1, 0, 0, 1)]
    for _ in range(100):
        u = haar_from_rng(2, rng)
        moved = transform_frame(t, u, FrameConvention.ADJOINT)
        for idx in listed:
            assert abs(moved.values[idx] - t.values[idx]) < 1e-10


def test_full_convention_swap_permutation():
    t = paper_hopf([1.0, 0.0])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    moved = transform_frame(t, swap, FrameConvention.FULL)
    assert moved.values[0, 0, 0, 0] == pytest.approx(t.values[1, 1, 1, 1].real)
    assert moved.values[0, 0, 0, 0] == pytest.approx(4.0)


def test_full_transforms_compose():
    rng = rng_from(23)
    t = random_tensor(29, 3)
    for _ in range(100):
        u = haar_from_rng(3, rng)
        v = haar_from_rng(3, rng)
        once = transform_frame(transform_frame(t, u, "full"), v, "full")
        combined = transform_frame(t, v @ u, "full")
        assert np.abs(once.values - combined.values).max() < 1e-9


def test_hermitian_symmetry_preserved_by_transforms():
    rng = rng_from(31)
    t = random_tensor(37, 4)
    for conv in FrameConvention:
        u = haar_from_rng(4, rng)
        moved = transform_frame(t, u, conv)
        assert hermitian_tensor_residual(moved.values) < 1e-8 * np.abs(moved.values).max()


def test_transform_rejects_bad_input():
    t = random_tensor(1, 2)
    with pytest.raises(UsageError):
        transform_frame(t, np.eye(3), "full")
    with pytest.raises(UsageError):
        transform_frame(t, 2.0 * np.eye(2), "full")


BAD_TENSORS = {
    "shape (2, 2, 2)": lambda: ChernTensor(np.zeros((2, 2, 2)), "frame"),
    "[[1]]": lambda: ChernTensor([[1]], "frame"),
    "NaN entries": lambda: ChernTensor(np.full((2,) * 4, np.nan), "frame"),
    "entries of 1e300": lambda: ChernTensor(np.full((2,) * 4, 1e300), "frame"),
    "not Hermitian": lambda: ChernTensor(np.arange(16.0).reshape((2,) * 4) * 1j, "frame"),
    "basis 'x'": lambda: ChernTensor(np.zeros((2,) * 4), "x"),
    "coordinate without a metric": lambda: ChernTensor(np.zeros((2,) * 4), COORDINATE),
    "frame with a metric": lambda: ChernTensor(np.zeros((2,) * 4), "frame", np.eye(2)),
    "3 x 3 metric at n = 2": lambda: ChernTensor(np.zeros((2,) * 4), COORDINATE, np.eye(3)),
}


@pytest.mark.parametrize("build", BAD_TENSORS.values(), ids=BAD_TENSORS.keys())
def test_a_tensor_checks_itself_when_built(build):
    with pytest.raises((UsageError, DomainError)):
        build()


def test_a_hand_built_tensor_reports_its_own_residual():
    # within the Hermitian tolerance, but not exactly Hermitian
    vals = random_tensor(4, 3).values.copy()
    vals[0, 1, 2, 0] += 1e-12
    t = ChernTensor(vals, "frame")
    assert t.sym_residual == hermitian_tensor_residual(vals) > 0.0
    # the tensor keeps a read-only complex copy: the caller's array stays its own
    assert not t.values.flags.writeable and vals.flags.writeable
    vals[0, 0, 0, 0] += 1.0
    assert t.values[0, 0, 0, 0] != vals[0, 0, 0, 0]
    real = ChernTensor(np.zeros((2,) * 4), COORDINATE, np.eye(2))
    assert real.values.dtype == complex and real.sym_residual == 0.0
    with pytest.raises(TypeError):
        ChernTensor(vals, "frame", sym_residual=0.0)


def test_ricci_zero_tensor():
    t = ChernTensor(values=np.zeros((2, 2, 2, 2), dtype=complex), basis="frame")
    for kind in RicciKind:
        assert np.all(ricci(t, kind) == 0)


def test_ricci_hopf_values():
    t = paper_hopf([1.0, 0.0])
    assert_allclose(ricci(t, RicciKind.FIRST).real, np.diag([0.0, 8.0]), atol=1e-13)
    assert_allclose(ricci(t, RicciKind.SECOND).real, np.diag([4.0, 4.0]), atol=1e-13)


def test_ricci_fourth_is_conjugate_of_third():
    t = random_tensor(41, 3)
    r3 = ricci(t, RicciKind.THIRD)
    r4 = ricci(t, RicciKind.FOURTH)
    assert np.abs(r4 - r3.conj().T).max() < 1e-12


def test_ricci_all_equal_for_kahler_constant():
    c, n = 1.5, 3
    t = kahler_constant(c, n)
    target = 0.5 * c * (n + 1) * np.eye(n)
    for kind in RicciKind:
        assert_allclose(ricci(t, kind).real, target, atol=1e-13)


def test_ricci_requires_frame_basis():
    t = curvature_from_jet(jet_at(fubini_study(2), np.zeros(2)))
    with pytest.raises(UsageError, match="to_frame"):
        ricci(t, RicciKind.FIRST)
    with pytest.raises(UsageError):
        scalars(t)


def test_unknown_ricci_kind_is_a_usage_error_listing_the_kinds():
    t = random_tensor(0, 2)
    for bad in (7, 0, "first"):
        with pytest.raises(UsageError, match=r"unknown Ricci kind .*\[1, 2, 3, 4\]"):
            ricci(t, bad)
    assert np.array_equal(ricci(t, 3), ricci(t, RicciKind.THIRD))


def test_scalars_hopf_and_fubini_study():
    s, s_alt = scalars(paper_hopf([1.0, 0.0]))
    assert (s, s_alt) == (pytest.approx(8.0), pytest.approx(4.0))
    t = frame_tensor_of(fubini_study(2), np.zeros(2))
    s, s_alt = scalars(t)
    assert (s, s_alt) == (pytest.approx(6.0), pytest.approx(6.0))


def test_kahler_constant_by_construction():
    t = kahler_constant(2.0, 2)
    rng = rng_from(43)
    for _ in range(100):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert hsc(t, w) == pytest.approx(2.0)


def test_skew_pair_rbc_closed_form():
    t = skew_pair(3.0, 3, seed=7)
    m = matrices_from(t)
    v = np.ones(3)
    assert evaluate(FunctionalKind.RBC, m, v) == pytest.approx(4.5)
    assert evaluate(FunctionalKind.RBC, m, np.array([1.0, -1.0, 0.0])) == pytest.approx(0.0)


def test_paper_hopf_matrices():
    m = matrices_from(paper_hopf([1.0, 0.0]))
    assert_allclose(m.rbc, [[0.0, 0.0], [4.0, 4.0]], atol=1e-14)
    assert_allclose(m.altered, np.diag([0.0, 4.0]), atol=1e-14)


def test_paper_tricerri_bounds_and_validation():
    t = paper_tricerri(1.0, 0.0, 1.0)
    assert t.values[1, 1, 0, 0] == pytest.approx(-1.5)
    with pytest.raises(UsageError, match="row bound"):
        paper_tricerri(1.2, 0.0, 1.0)
    with pytest.raises(DomainError):
        paper_tricerri(0.5, 0.5, -1.0)


@pytest.mark.parametrize("im_w", [0.0, 1e-100, 1e-80, 1e-70, 1e100, np.inf, np.nan])
def test_paper_tricerri_rejects_an_out_of_range_im_w(im_w):
    # Im(w)^4 under- or overflows, or |R0| = 3/(2 Im(w)^4) exceeds MAX_ENTRY,
    # as it does below Im(w) = (1.5 / MAX_ENTRY)^(1/4), about 8.2e-38
    with pytest.raises(DomainError, match="Im"):
        paper_tricerri(0.0, 1.0, im_w)
    with pytest.raises(DomainError, match="Im"):
        tricerri_family_extrema(im_w, "rbc")
    assert np.isfinite(paper_tricerri(0.0, 1.0, 1e-37).values).all()


@pytest.mark.parametrize("z", [[1e60, 0.0], [2.4e51, 0.0], [1e-120, 0.0], [5e-52, 0.0],
                               [np.inf, 1.0], [np.nan, 1.0], [1e308 + 1e308j, 0.0]])
def test_paper_hopf_rejects_a_z_whose_sixth_power_leaves_the_float_range(z):
    # |z|^6 overflows above |z| = 2.37e51 and is subnormal below 5.3e-52
    with pytest.raises(DomainError, match="normal float"):
        paper_hopf(z)
    assert 0.0 < np.abs(paper_hopf([2e51, 0.0]).values).max() < 1e-200
    with pytest.raises(DomainError, match="MAX_ENTRY"):
        paper_hopf([6e-52, 0.0])   # |z|^6 is normal, 4 / |z|^4 is not an entry


def test_tensor_entries_over_the_bound_are_domain_errors():
    for c in (2.0 ** 501, -1e308, np.nan):
        with pytest.raises(DomainError, match="MAX_ENTRY"):
            kahler_constant(c, 2)
    for c in (2.0 ** 501, -1e308, np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError, match="MAX_ENTRY"):
            skew_pair(2.0 * c, 2, seed=0)   # entries c + s, s antisymmetric
    assert np.abs(kahler_constant(2.0 ** 500, 2).values).max() == 2.0 ** 500


def test_make_synthetic_dispatch():
    t = make_synthetic("kahler_constant", c=2.0, n=2)
    assert t.values[0, 0, 0, 0] == pytest.approx(2.0)
    with pytest.raises(UsageError):
        make_synthetic("nope")
    with pytest.raises(UsageError):
        make_synthetic("kahler_constant", c=2.0)  # missing n


def test_random_tensor_hermitian_and_deterministic():
    a = random_tensor(5, 3)
    b = random_tensor(5, 3)
    assert np.array_equal(a.values, b.values)
    assert hermitian_tensor_residual(a.values) < 1e-12


FS_EXPONENTS = np.linspace(0.0, 4.0, 401)


@pytest.mark.parametrize("n", [2, 3])
def test_fubini_study_frame_tensor_is_exact_or_refused_over_four_decades(n):
    # constant holomorphic sectional curvature 2: in a unitary frame
    # R = d_ij d_kl + d_il d_kj at every point.  The frame tensor loses about
    # eps kappa(g)^2 to cancellation, kappa(g) = 1 + |w|^2, so every point
    # with kappa(g) >= 1e4 must be refused by the conditioning test and by no
    # other check, and every other point must be accurate
    eye = np.eye(n)
    exact = np.einsum("ij,kl->ijkl", eye, eye) + np.einsum("il,kj->ijkl", eye, eye)
    rng = rng_from(5, n)
    directions = [(1 + 1j) * np.ones(n), eye[0],
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)]
    metric = fubini_study(n)
    for d in directions:
        admitted = []
        for e in FS_EXPONENTS:
            try:
                t = frame_tensor_of(metric, 10.0 ** e * d / np.linalg.norm(d)).values
            except DomainError as exc:
                assert "ill-conditioned" in str(exc), (d, e, str(exc))
                admitted.append(False)
                continue
            admitted.append(True)
            assert np.abs(t - exact).max() <= 1e-6 * max(1.0, np.abs(t).max()), (d, e)
        assert admitted == list(1.0 + 10.0 ** (2.0 * FS_EXPONENTS) < 1e4), d


def test_hopf_frame_tensor_is_scale_invariant_up_to_the_charts_end():
    # g = 4 I / |z|^2 has kappa(g) = 1 at every scale and is invariant under
    # z -> lambda z, so no point of the chart is refused and the frame tensor
    # at lambda z is the one at z
    metric = hopf()
    z = np.array([0.6, 0.8j])
    ref = frame_tensor_of(metric, z).values
    scales = [s for s in 10.0 ** np.linspace(-1.0, 60.0, 245) if metric.domain(s * z)]
    assert scales[-1] > 1e51   # the chart ends at |z| = 2.4e51
    for s in scales:
        assert np.abs(frame_tensor_of(metric, s * z).values - ref).max() <= 1e-12, s


@pytest.mark.parametrize("p", [[0.3, 2.0 + 0.0501j], [0.3, 10j]])
def test_tricerri_frame_tensor_is_admitted_across_its_chart(p):
    # kappa(g) = Im(w)^-3 near the chart's lower edge (7 952 at 0.0501) and
    # 1 000 at Im w = 10; in the frame E = diag(Im(w)^-1/2, Im w) the
    # Chern tensor is constant: R[1,1,0,0] = 1/4 and R[1,1,1,1] = -1/2
    ref = np.zeros((2, 2, 2, 2))
    ref[1, 1, 0, 0], ref[1, 1, 1, 1] = 0.25, -0.5
    assert np.abs(frame_tensor_of(tricerri(), p).values - ref).max() <= 1e-12
