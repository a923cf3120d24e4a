import warnings

import numpy as np
import pytest

from curvlab import (FunctionalKind, NumericalError, SearchConfig, UsageError,
                     cone_min, extremize, full_cone, generator_cone, invariance_test,
                     kahler_constant, make_cone, matrices_from, monotone_nonneg,
                     nonneg_orthant,
                     paper_hopf, paper_tricerri,
                     random_tensor, rayleigh_bounds, skew_pair, transform_frame,
                     tricerri_family_extrema)
from curvlab.config import MAX_DIM
from curvlab.curvature import FrameConvention, curvature_from_jet
from curvlab.functionals import (CurvatureMatrices, evaluate, frame_matrices,
                                  quadratic_form_matrix)
from curvlab.search import INITIAL_ANGLE, SHRINK
from curvlab.linalg import haar_from_rng, rng_from, unitary_residual
from curvlab.metrics import fubini_study, jet_at
import curvlab.search as search_mod


def move_matrix(n, coord, angle):
    """The n x n unitary G of sweep coordinate coord turned by angle, built
    in full: for the k-th pair p < q, coordinates 2k and 2k + 1 are the
    Givens rotations [[c, -e s], [conj(e) s, c]] of rows p and q with e = 1
    and e = i; coordinate n(n - 1) + a is the phase exp(i angle) of row a."""
    g = np.eye(n, dtype=complex)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    if coord < 2 * len(pairs):
        p, q = pairs[coord // 2]
        e = 1.0 if coord % 2 == 0 else 1j
        g[p, p] = g[q, q] = np.cos(angle)
        g[p, q] = -e * np.sin(angle)
        g[q, p] = np.conj(e) * np.sin(angle)
    else:
        a = coord - 2 * len(pairs)
        g[a, a] = np.exp(1j * angle)
    return g


def sweep_start(n, seed, restart):
    """Restart 0 starts at the identity, restart r > 0 at a Haar frame."""
    return np.eye(n, dtype=complex) if restart == 0 else haar_from_rng(n, rng_from(seed, restart))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sweep_candidates_rotate_the_lane_frame(n):
    u = haar_from_rng(n, rng_from(30 + n))
    for step in (INITIAL_ANGLE, 1.3):
        for start in (0, n * n):
            ask = search_mod._Ask(u, step, start, 0.0)
            cands = search_mod._candidates([ask], np.array([ask.size]))
            assert cands.shape == (2 * n * n - start, n, n)
            for j, cand in enumerate(cands):
                m = start + j
                g = move_matrix(n, m // 2, step if m % 2 == 0 else -step)
                assert np.abs(cand - g @ u).max() <= 1e-15, (step, m)
    # from the identity every move of a sweep is a distinct new frame
    ask = search_mod._Ask(np.eye(n, dtype=complex), INITIAL_ANGLE, 0, 0.0)
    cands = search_mod._candidates([ask], np.array([ask.size]))
    assert len(cands) == 2 * n * n
    assert all(not np.array_equal(cand, np.eye(n)) for cand in cands)
    assert all(not np.array_equal(cands[i], cands[j])
               for i in range(len(cands)) for j in range(i))


def test_long_search_keeps_frames_unitary():
    t = random_tensor(9, 4)
    cfg = SearchConfig(restarts=2, refine_steps=120, seed=3)
    for cone, convention in ((full_cone(4), "adjoint"), (nonneg_orthant(4), "full")):
        for ext in extremize(t, "qobc", cone=cone, convention=convention, cfg=cfg):
            assert unitary_residual(ext.frame) <= 1e-13


def test_extremize_identity_frame_matches_rayleigh():
    # a search that never leaves its identity start reports the fixed-frame
    # bounds; the exact full/full range contains them
    t = random_tensor(1, 3)
    cfg = SearchConfig(restarts=1, refine_steps=0, seed=0)
    lo_ext, hi_ext = extremize(t, FunctionalKind.RBC, convention=FrameConvention.ADJOINT,
                               cfg=cfg)
    lo, hi = rayleigh_bounds(matrices_from(t).rbc)
    assert lo_ext.value == pytest.approx(lo)
    assert hi_ext.value == pytest.approx(hi)
    # both start at the identity, each in an array of its own
    assert not np.shares_memory(lo_ext.frame, hi_ext.frame)
    exact_lo, exact_hi = extremize(t, FunctionalKind.RBC, cfg=cfg)
    assert exact_lo.value <= lo + 1e-12
    assert exact_hi.value >= hi - 1e-12


def test_extremize_deterministic():
    t = random_tensor(2, 2)
    cfg = SearchConfig(restarts=4, refine_steps=10, seed=5)
    a = extremize(t, FunctionalKind.RBC, cfg=cfg)
    b = extremize(t, FunctionalKind.RBC, cfg=cfg)
    assert a[0].value == b[0].value and a[1].value == b[1].value
    assert np.array_equal(a[0].frame, b[0].frame)


def test_extremize_search_widens_range():
    # under the full convention the search over frames can only extend the
    # fixed-frame range
    t = random_tensor(3, 2)
    fixed_lo, fixed_hi = rayleigh_bounds(matrices_from(t).rbc)
    cfg = SearchConfig(restarts=6, refine_steps=20, seed=1)
    lo_ext, hi_ext = extremize(t, FunctionalKind.RBC,
                               convention=FrameConvention.FULL, cfg=cfg)
    assert lo_ext.value <= fixed_lo + 1e-12
    assert hi_ext.value >= fixed_hi - 1e-12


def test_extremize_constant_tensor_diagonal_probe():
    t = kahler_constant(2.0, 2)
    m = matrices_from(t)
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = 1.0
        assert evaluate(FunctionalKind.RBC, m, e) == pytest.approx(2.0)


def test_extremize_rejects_hsc():
    with pytest.raises(UsageError):
        extremize(random_tensor(4, 2), "hsc")


def test_extremum_reevaluates():
    t = random_tensor(5, 3)
    cfg = SearchConfig(restarts=2, refine_steps=8, seed=2)
    lo_ext, hi_ext = extremize(t, FunctionalKind.QOBC, cfg=cfg)
    from curvlab.curvature import transform_frame
    for ext in (lo_ext, hi_ext):
        moved = transform_frame(t, ext.frame, ext.convention)
        val = evaluate(FunctionalKind.QOBC, matrices_from(moved), ext.vector)
        assert val == pytest.approx(ext.value, abs=1e-9)


def test_reeval_drift_is_a_numerical_error(monkeypatch):
    t = random_tensor(5, 2)
    cfg = SearchConfig(restarts=1, refine_steps=1, seed=0)
    monkeypatch.setattr(search_mod, "evaluate",
                        lambda kind, m, v: evaluate(kind, m, v) + 1e-6)
    with pytest.raises(NumericalError, match="failed to re-evaluate"):
        extremize(t, FunctionalKind.RBC, cfg=cfg)


def sequential_extremize(tensor, kind, cone, convention, cfg):
    """Coordinate descent one frame at a time through the public per-frame
    functions, each move the full matrix product G U: the iterates the
    stacked sweeps of extremize must reproduce.  Returns [(value, frame)]
    for the inf and the sup."""
    n = tensor.n
    found = []
    for sign in (-1, 1):
        def objective(u):
            moved = transform_frame(tensor, u, convention)
            return cone_min(-sign * quadratic_form_matrix(kind, matrices_from(moved)),
                            cone).value
        outcomes = []
        for r in range(cfg.restarts):
            u = sweep_start(n, cfg.seed, r)
            val, step = objective(u), INITIAL_ANGLE
            for _ in range(cfg.refine_steps):
                improved = False
                for i in range(n * n):
                    for delta in (step, -step):
                        cand = move_matrix(n, i, delta) @ u
                        cand_val = objective(cand)
                        if cand_val < val - 1e-14:
                            u, val, improved = cand, cand_val, True
                if not improved:
                    step *= SHRINK
            outcomes.append((val, r, u))
        val, _, u = min(outcomes, key=lambda o: o[:2])
        found.append((-sign * val, u))
    return found


# full cone under the full convention is not searched (see the exact tests
# below); the adjoint cases cover the full-cone branch of the sweeps
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("cone_kind, convention",
                         [("full", "adjoint"), ("orthant", "full"), ("orthant", "adjoint")])
def test_stacked_sweeps_pin_sequential_iterates(n, cone_kind, convention):
    cone = full_cone(n) if cone_kind == "full" else nonneg_orthant(n)
    cfg = SearchConfig(restarts=2, refine_steps=4, seed=n)
    for kind in ("altered_hsc", "qobc"):
        t = random_tensor(40 + n, n)
        exts = extremize(t, kind, cone=cone, convention=convention, cfg=cfg)
        for ext, (value, frame) in zip(exts, sequential_extremize(t, kind, cone,
                                                                  convention, cfg)):
            assert ext.value == pytest.approx(value, rel=1e-12, abs=1e-12)
            assert np.allclose(ext.frame, frame, rtol=0.0, atol=1e-12)


def per_form_first_improvement(forms, cone, sign, bound):
    """_first_improvement on one cone, one cone_min call per form, stopping
    at the first improvement: the reference for the stacked call."""
    for j, q in enumerate(forms):
        res = cone_min(-sign * q, cone)
        if res.value < bound:
            return j, res.value, res.argmin
    return None


@pytest.mark.parametrize("convention", ["full", "adjoint"])
def test_stacked_first_improvement_equals_the_per_form_loop(convention):
    cones = [full_cone(3), nonneg_orthant(3), monotone_nonneg(3),
             generator_cone(rng_from(18).standard_normal((4, 3)))]
    t = random_tensor(17, 3)
    m = CurvatureMatrices.from_slices(*frame_matrices(t, haar_from_rng(3, rng_from(19), 12),
                                                      convention))
    forms = quadratic_form_matrix("qobc", m)
    for cone in cones:
        for sign in (-1, 1):
            values = [cone_min(-sign * q, cone).value for q in forms]
            res = cone_min(-sign * forms, cone)
            # the first form, a later one, and none (the bound is strict)
            for bound in (np.inf, sorted(values)[3], min(values)):
                got = search_mod._first_improvements(res.value, res.argmin, [bound],
                                                     [len(forms)])[0]
                ref = per_form_first_improvement(forms, cone, sign, bound)
                if ref is None:
                    assert got is None
                    continue
                assert got[:2] == ref[:2] and type(got[1]) is float
                assert np.array_equal(got[2], ref[2])


# ---------------------------------------------------------------------------
# exact extrema on the full cone under the full convention

QUAD_KINDS = ("rbc", "altered_rbc", "altered_hsc", "qobc", "altered_qobc")


def einsum_frame_form(tensor, kind, basis):
    """The form of ``frame_form`` from its definition, in the basis matrices
    B_k: the symmetrized bilinear form of R(A, A) for the repeated-pair
    slice, of sum A[p,t] R[p,q,s,t] A[s,q] for the altered one, and for the
    difference forms R(A^2, I) + R(I, A^2) - 2 R(A, A)."""
    r = tensor.values
    if kind == "altered_hsc":
        return (einsum_frame_form(tensor, "rbc", basis)
                + einsum_frame_form(tensor, "altered_rbc", basis))
    if kind in ("rbc", "qobc"):
        pair = np.einsum("kpq,pqst,lst->kl", basis, r, basis)
        row = np.einsum("kpr,lrq,pqss->kl", basis, basis, r)
        col = np.einsum("ppst,ksr,lrt->kl", r, basis, basis)
    else:
        pair = np.einsum("kpt,pqst,lsq->kl", basis, r, basis)
        row = np.einsum("kpr,lrt,pqqt->kl", basis, basis, r)
        col = np.einsum("pqsp,ksr,lrq->kl", r, basis, basis)
    form = pair.real
    if kind in ("qobc", "altered_qobc"):
        form = (row + col).real - 2.0 * form
    return 0.5 * (form + form.T)


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(b))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_exact_extrema_match_an_independent_eigenproblem(n):
    t = random_tensor(60 + n, n)
    basis = search_mod._hermitian_basis(n).reshape(n * n, n, n)
    # a real orthonormal basis of Herm(n) under <A, B> = tr(A B)
    assert np.abs(basis - np.conj(np.swapaxes(basis, -1, -2))).max() == 0.0
    assert np.allclose(np.einsum("kpq,lqp->kl", basis, basis), np.eye(n * n),
                       rtol=0.0, atol=1e-15)
    scale = max(1.0, float(np.abs(t.values).max()))
    for kind in QUAD_KINDS:
        reference = einsum_frame_form(t, kind, basis)
        assert np.abs(search_mod.frame_form(t, kind) - reference).max() <= 1e-12 * scale
        lo, hi = np.linalg.eigvalsh(reference)[[0, -1]]
        for ext, bound in zip(extremize(t, kind), (lo, hi)):
            assert rel_close(ext.value, bound)
            # attained by the returned frame and vector
            assert unitary_residual(ext.frame) <= 1e-12
            assert np.linalg.norm(ext.vector) == pytest.approx(1.0, abs=1e-12)
            moved = transform_frame(t, ext.frame, ext.convention)
            assert rel_close(evaluate(kind, matrices_from(moved), ext.vector), ext.value)


def test_frame_form_rejects_hsc_and_coordinate_tensors():
    # hsc is not a quadratic form on Herm(n): it used to come back as the rbc
    # form bit for bit, with the usage error extremize and invariance_test raise
    t = random_tensor(3, 2)
    with pytest.raises(UsageError, match="quadratic-form family"):
        search_mod.frame_form(t, "hsc")
    coordinate = curvature_from_jet(jet_at(fubini_study(2), [0.3, 0.1j]))
    for kind in QUAD_KINDS:
        with pytest.raises(UsageError, match="frame_form needs a unitary-frame tensor"):
            search_mod.frame_form(coordinate, kind)


def test_exact_form_evaluates_the_functional_in_any_frame():
    # c^T Q c = |x|^2 f(frame u, vector x) for the coordinates c of
    # A = u^T diag(x) conj(u), at Haar frames and arbitrary real vectors
    rng = rng_from(11)
    for n in (2, 3, 5):
        t = random_tensor(70 + n, n)
        basis = search_mod._hermitian_basis(n).reshape(n * n, n, n)
        for _ in range(5):
            u, x = haar_from_rng(n, rng), rng.standard_normal(n)
            coords = np.einsum("kpq,qp->k", basis, u.T @ np.diag(x) @ np.conj(u)).real
            moved = matrices_from(transform_frame(t, u, FrameConvention.FULL))
            for kind in QUAD_KINDS:
                value = coords @ search_mod.frame_form(t, kind) @ coords
                assert rel_close(value, evaluate(kind, moved, x) * (x @ x))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_extrema_of_constant_tensors_equal_fixed_frame_bounds(n):
    # R(A, A) depends on A only through tr A and |A|_F for kahler_constant,
    # and through tr A for skew_pair, so no frame beats the identity
    for c in (-1.5, 2.0):
        for t in (kahler_constant(c, n), skew_pair(c, n, seed=n)):
            for kind in QUAD_KINDS:
                lo, hi = rayleigh_bounds(quadratic_form_matrix(kind, matrices_from(t)))
                lo_ext, hi_ext = extremize(t, kind)
                assert rel_close(lo_ext.value, lo) and rel_close(hi_ext.value, hi)


def test_exact_extrema_are_deterministic():
    t = random_tensor(8, 4)
    for kind in QUAD_KINDS:
        a, b = extremize(t, kind), extremize(t, kind, cfg=SearchConfig(restarts=3, seed=4))
        for x, y in zip(a, b):
            assert x.value == y.value
            assert np.array_equal(x.frame, y.frame) and np.array_equal(x.vector, y.vector)


def test_hopf_qobc_extrema_over_frames():
    for z in ([1.0, 0.0], [1.0, 1.0]):
        t = paper_hopf(z)
        rho = float(np.sum(np.abs(np.asarray(z, complex)) ** 2))
        cfg = SearchConfig(restarts=4, refine_steps=10, seed=3)
        lo_ext, hi_ext = extremize(t, FunctionalKind.QOBC,
                                   convention=FrameConvention.ADJOINT, cfg=cfg)
        assert lo_ext.value == pytest.approx(0.0, abs=1e-9)
        assert hi_ext.value == pytest.approx(8.0 / rho ** 2, rel=1e-9)


def test_invariance_hopf_adjoint():
    t = paper_hopf([1.0, 1.0])
    for kind in (FunctionalKind.RBC, FunctionalKind.ALTERED_RBC,
                 FunctionalKind.ALTERED_HSC, FunctionalKind.QOBC):
        ok, dev = invariance_test(t, kind, FrameConvention.ADJOINT)
        assert ok and dev < 1e-9


def test_tricerri_not_invariant_under_adjoint():
    t = paper_tricerri(0.0, 1.0, 1.0)
    ok, dev = invariance_test(t, FunctionalKind.ALTERED_RBC, FrameConvention.ADJOINT)
    assert not ok
    assert dev > 0.1


def test_zero_tensor_invariant():
    from curvlab.curvature import ChernTensor, FRAME
    t = ChernTensor(values=np.zeros((2, 2, 2, 2), dtype=complex), basis=FRAME)
    ok, dev = invariance_test(t, FunctionalKind.RBC, FrameConvention.FULL)
    assert ok and dev == 0.0


@pytest.mark.parametrize("n", [1, MAX_DIM])
def test_invariance_test_is_exact_at_the_dimension_bounds(n):
    # n = 1 is invariant without dividing by n^2 - 1, and n = MAX_DIM
    # decides from the tensor alone; neither warns
    t = random_tensor(3, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for convention in FrameConvention:
            for kind in ("rbc", "altered_rbc", "altered_hsc", "qobc", "altered_qobc"):
                ok, dev = invariance_test(t, kind, convention)
                if n == 1:
                    assert (ok, dev) == (True, 0.0)
                else:
                    assert not ok and dev > 0.1
    with pytest.raises(UsageError, match="quadratic-form family"):
        invariance_test(t, "hsc", "full")
    with pytest.raises(TypeError):
        invariance_test(t, "rbc", "full", samples=100)


def test_tricerri_family_pinching():
    for im_w in (1.0, 2.0):
        scan = tricerri_family_extrema(im_w, FunctionalKind.RBC)
        assert scan["inf"] == pytest.approx(-0.75 * (1 + np.sqrt(2.0)) / im_w ** 4)
        assert scan["sup"] == pytest.approx(0.75 / im_w ** 4)
        assert scan["inf_at"] == (1.0, 1.0)
        alt = tricerri_family_extrema(im_w, FunctionalKind.ALTERED_RBC)
        assert alt["inf"] == pytest.approx(-1.5 / im_w ** 4)
        assert alt["sup"] == pytest.approx(0.0, abs=1e-12)
        # the other kinds, with R0 = -1.5 / Im^4: altered_hsc has the form
        # R0 [[0, |b|^2/2], [|b|^2/2, 2 |d|^2]], qobc |b|^2 R0 [[1, -1], [-1, 1]],
        # altered_qobc the zero form
        r0 = -1.5 / im_w ** 4
        for kind, inf, sup in (("altered_hsc", r0 * (1.0 + np.sqrt(1.25)), -0.5 * r0),
                               ("qobc", 2.0 * r0, 0.0), ("altered_qobc", 0.0, 0.0)):
            scan = tricerri_family_extrema(im_w, kind)
            assert scan["inf"] == pytest.approx(inf, rel=1e-12, abs=1e-15)
            assert scan["sup"] == pytest.approx(sup, rel=1e-12, abs=1e-15)


def test_tricerri_per_frame_minimum_tracks_d():
    # per-frame minimum of the altered form is -(3 |d|^2)/(2 Im^4) with
    # d the lower-right entry of the frame change
    from curvlab.curvature import transform_frame
    from curvlab.linalg import haar_from_rng
    t = paper_tricerri(0.0, 1.0, 1.0)
    rng = rng_from(7)
    for _ in range(25):
        u = haar_from_rng(2, rng)
        moved = transform_frame(t, u, FrameConvention.ADJOINT)
        lo, _hi = rayleigh_bounds(matrices_from(moved).altered)
        assert lo == pytest.approx(-1.5 * abs(u[1, 1]) ** 2, abs=1e-12)


def test_search_config_validation():
    with pytest.raises(UsageError):
        SearchConfig(restarts=0)


# ---------------------------------------------------------------------------
# lockstep lanes

def move_rows(u, coord, angle):
    """G u for the move of sweep coordinate coord by angle (see
    ``move_matrix``), computed on the one or two rows it changes."""
    n = len(u)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    out = u.copy()
    if coord < 2 * len(pairs):
        p, q = pairs[coord // 2]
        e = 1.0 + 0j if coord % 2 == 0 else 1j
        c, s = np.cos(angle), np.sin(angle)
        out[p] = c * u[p] - e * s * u[q]
        out[q] = np.conj(e) * s * u[p] + c * u[q]
    else:
        out[coord - 2 * len(pairs)] *= np.exp(1j * angle)
    return out


def per_restart_extremize(tensor, kind, cone, convention, cfg):
    """The search with each restart's coordinate descent run on its own, one
    stacked scan per sweep position: the reference the lockstep lanes must
    equal bit for bit.  Returns [(value, frame, vector)] for the inf and the
    sup."""
    n = tensor.n
    moves = np.arange(2 * n * n)
    coords, signs = moves // 2, 1.0 - 2.0 * (moves % 2)

    def scan(stack, sign, bound):
        m = CurvatureMatrices.from_slices(*frame_matrices(tensor, stack, convention))
        res = cone_min(-sign * quadratic_form_matrix(kind, m), cone)
        hits = np.flatnonzero(res.value < bound)
        if hits.size == 0:
            return None
        j = int(hits[0])
        return j, float(res.value[j]), res.argmin[j]

    found = []
    for sign in (-1, 1):
        outcomes = []
        for restart in range(cfg.restarts):
            u = sweep_start(n, cfg.seed, restart)
            _, best_val, best_vec = scan(u[None], sign, np.inf)
            step = INITIAL_ANGLE
            for _ in range(cfg.refine_steps):
                improved, start = False, 0
                while start < 2 * n * n:
                    cands = np.stack([move_rows(u, i, step * sign_m)
                                      for i, sign_m in zip(coords[start:], signs[start:])])
                    hit = scan(cands, sign, best_val - 1e-14)
                    if hit is None:
                        break
                    j, best_val, best_vec = hit
                    u, improved = cands[j], True
                    start += j + 1
                if not improved:
                    step *= SHRINK
            outcomes.append((best_val, restart, u, best_vec))
        best = min(outcomes, key=lambda o: o[:2])
        found.append((best[0] if sign < 0 else -best[0], best[2], best[3]))
    return found


LANE_CASES = [("full", "adjoint"), ("orthant", "full"), ("orthant", "adjoint"),
              ("monotone", "full"), ("monotone", "adjoint"),
              ("generators", "full"), ("generators", "adjoint")]


def lane_cone(name, n):
    if name == "generators":
        return generator_cone(rng_from(90 + n).standard_normal((n + 1, n)))
    return make_cone(name, n)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("cone_name, convention", LANE_CASES)
def test_lockstep_lanes_equal_the_per_restart_loop_bit_for_bit(n, cone_name, convention):
    cone = lane_cone(cone_name, n)
    t = random_tensor(80 + n, n)
    # refine_steps 0 reports each lane's first frame, scored in one stack
    # with the other lanes' first frames
    for (restarts, refine), kind in zip(((1, 5), (2, 5), (3, 5), (3, 0), (2, 12)),
                                        ("altered_rbc", "altered_hsc", "qobc", "rbc", "qobc")):
        cfg = SearchConfig(restarts=restarts, refine_steps=refine, seed=restarts + n)
        exts = extremize(t, kind, cone=cone, convention=convention, cfg=cfg)
        for ext, (value, frame, vector) in zip(exts, per_restart_extremize(
                t, FunctionalKind(kind), cone, convention, cfg)):
            assert ext.value == value and type(ext.value) is float
            assert np.array_equal(ext.frame, frame)
            assert np.array_equal(ext.vector, vector)


@pytest.mark.parametrize("cone_name, convention", [("full", "adjoint"), ("orthant", "full"),
                                                   ("full", "full")])
def test_kinds_in_one_lockstep_equal_separate_calls(cone_name, convention):
    t = random_tensor(7, 3)
    cone = make_cone(cone_name, 3)
    cfg = SearchConfig(restarts=3, refine_steps=4, seed=2)
    together = search_mod._extremize_kinds(t, QUAD_KINDS, cone, convention, cfg)
    for kind, pair in zip(QUAD_KINDS, together):
        for got, ref in zip(pair, extremize(t, kind, cone, convention, cfg)):
            assert got.value == ref.value
            assert np.array_equal(got.frame, ref.frame)
            assert np.array_equal(got.vector, ref.vector)


def test_sweep_rows_equal_per_kind_extremize_calls(capsys):
    from curvlab.cli import main
    from curvlab.metrics import jet_at, make_metric
    from curvlab.curvature import curvature_from_jet, to_frame
    argv = ["sweep", "--metric", "fubini_study", "--dim", "2", "--point", "0.1,0.2",
            "--grid", "re1=0:0.3:2", "--restarts", "2", "--refine-steps", "3", "--seed", "4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    cfg = SearchConfig(restarts=2, refine_steps=3, seed=4)
    for line, re1 in zip(lines[1:], (0.0, 0.3)):
        row = dict(zip(header, line.split(",")))
        p = np.array([re1 + 0j, 0.2 + 0j])
        t = to_frame(curvature_from_jet(jet_at(make_metric("fubini_study", dim=2), p)))
        for kind in QUAD_KINDS:
            lo, hi = extremize(t, kind, convention="adjoint", cfg=cfg)
            assert row[f"{kind}_inf"] == f"{lo.value:.12g}"
            assert row[f"{kind}_sup"] == f"{hi.value:.12g}"


def test_lanes_advance_in_lockstep(monkeypatch):
    # restarts x signs lanes share each frame evaluation: far fewer
    # frame_matrices calls than the lanes' scans, and no group of lanes
    # exceeds the row cap (a lane of n = 3 has at most 18 candidates)
    calls = []
    real = search_mod.frame_matrices

    def counted(tensor, u, convention):
        calls.append(len(u))
        return real(tensor, u, convention)
    monkeypatch.setattr(search_mod, "frame_matrices", counted)
    t = random_tensor(3, 2)
    cfg = SearchConfig(restarts=4, refine_steps=6, seed=1)
    for convention in ("full", "adjoint"):
        calls.clear()
        extremize(t, "qobc", cone=nonneg_orthant(2), convention=convention, cfg=cfg)
        lockstep = len(calls)
        calls.clear()
        real_scan = search_mod._scan
        monkeypatch.setattr(search_mod, "_scan", lambda tensor, cone, conv, lanes: [
            hit for lane in lanes for hit in real_scan(tensor, cone, conv, [lane])])
        extremize(t, "qobc", cone=nonneg_orthant(2), convention=convention, cfg=cfg)
        monkeypatch.setattr(search_mod, "_scan", real_scan)
        assert calls and lockstep < len(calls) / 3
    monkeypatch.setattr(search_mod, "_ROWS", 20)
    calls.clear()
    extremize(random_tensor(3, 3), "rbc", convention="adjoint", cfg=cfg)
    assert max(calls) <= 20


@pytest.mark.parametrize("cone_name, convention", LANE_CASES)
def test_each_scan_scores_its_group_in_one_cone_min_call(cone_name, convention, monkeypatch):
    # cone_min is the search's only inner solver: one call per group of
    # lanes, and no eigensolve outside it, on every cone kind
    log = []

    def spy(name, real):
        def call(*args, **kwargs):
            log.append(name)
            if name != "cone_min":
                return real(*args, **kwargs)
            inside = len(log)
            try:
                return real(*args, **kwargs)
            finally:
                del log[inside:]   # what cone_min runs itself is its own
        return call
    monkeypatch.setattr(search_mod, "_scan", spy("scan", search_mod._scan))
    monkeypatch.setattr(search_mod, "cone_min", spy("cone_min", search_mod.cone_min))
    monkeypatch.setattr(search_mod, "rayleigh_bounds",
                        spy("rayleigh_bounds", search_mod.rayleigh_bounds))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    monkeypatch.setattr(search_mod, "_ROWS", 8)   # several groups per step
    cfg = SearchConfig(restarts=3, refine_steps=3, seed=5)
    extremize(random_tensor(6, 3), "qobc", cone=lane_cone(cone_name, 3),
              convention=convention, cfg=cfg)
    scans = log.count("scan")
    assert scans > 1 and log == ["scan", "cone_min"] * scans


@pytest.mark.parametrize("n", [2, 3, 8])
def test_frame_change_rows_equal_single_calls_in_any_stack_layout(n):
    # every row of a stack, strided or contiguous, of 1, 2 or 300 frames,
    # equals the single call on its own frame bit for bit, under both
    # conventions (numpy's adjoint einsum alone rounds a strided n = 2 stack
    # differently)
    t = random_tensor(40 + n, n)
    frames = haar_from_rng(n, rng_from(41 + n), 300).transpose(0, 2, 1)
    assert not frames.flags.c_contiguous
    rows = np.arange(300)
    stacks = [(frames, rows), (np.ascontiguousarray(frames), rows), (frames[::2], rows[::2]),
              (frames[:1], rows[:1]), (frames[:2], rows[:2]),
              (np.ascontiguousarray(frames[:2]), rows[:2])]
    for convention in ("full", "adjoint"):
        single = [frame_matrices(t, u, convention) for u in frames]
        single_moved = [transform_frame(t, u, convention).values for u in frames]
        for stack, at in stacks:
            rbc, alt = frame_matrices(t, stack, convention)
            moved = transform_frame(t, stack, convention)
            for j, row in enumerate(at):
                assert np.array_equal(rbc[j], single[row][0]), (convention, len(at), row)
                assert np.array_equal(alt[j], single[row][1]), (convention, len(at), row)
                assert np.array_equal(moved[j].values, single_moved[row]), (convention, row)


def test_groups_never_split_a_lane(monkeypatch):
    monkeypatch.setattr(search_mod, "_ROWS", 10)
    frame = np.eye(2, dtype=complex)        # sweeps of 8 candidates
    asks = {i: search_mod._Ask(frame, None if i % 3 == 0 else 0.1, i % 5, 0.0)
            for i in range(12)}
    groups = search_mod._groups(asks)
    assert [i for group in groups for i in group] == list(range(12))
    for group in groups:
        sizes = [asks[i].size for i in group]
        assert sum(sizes) <= 10 or len(group) == 1
    # one lane larger than the cap is a group of its own
    monkeypatch.setattr(search_mod, "_ROWS", 4)
    assert search_mod._groups({0: search_mod._Ask(frame, 0.1, 0, 0.0)}) == [[0]]


# traced peak of the search below: the per-restart search peaked at 0.67 MB;
# 256 lanes of one adjoint n = 8 candidate each hold about 6.8 KB apiece
# (1.7 MB), and without the row cap the 400 lanes would peak at 2.9 MB
PEAK_BOUND = 2.5e6


def test_adjoint_search_memory_stays_bounded_at_n8():
    import tracemalloc
    t = random_tensor(1, 8)
    cfg = SearchConfig(restarts=200, refine_steps=0, seed=0)
    tracemalloc.start()
    try:
        extremize(t, "qobc", convention="adjoint", cfg=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND


# ---------------------------------------------------------------------------
# stacked frame changes

def tensordot_change(r, a):
    """The four-index frame change as four tensordot contractions."""
    for factor in (a, np.conj(a), a, np.conj(a)):
        r = np.tensordot(r, factor, axes=(0, 1))
    return r


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_stacked_frame_change_rows_equal_single_calls(n):
    from curvlab.curvature import _change_indices
    t = random_tensor(20 + n, n)
    rng = rng_from(21 + n)
    u = haar_from_rng(n, rng, 5)
    a = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    stacked = _change_indices(t.values, (a, np.conj(a), a, np.conj(a)))
    for j in range(5):
        single = _change_indices(t.values, (a[j], np.conj(a[j]), a[j], np.conj(a[j])))
        assert np.array_equal(single, tensordot_change(t.values, a[j]))
        assert np.array_equal(stacked[j], single)
    for convention in ("full", "adjoint"):
        moved = transform_frame(t, u, convention)
        assert isinstance(moved, tuple) and len(moved) == 5
        for j in range(5):
            single = transform_frame(t, u[j], convention)
            assert np.array_equal(moved[j].values, single.values)
            assert moved[j].sym_residual == single.sym_residual
    # the adjoint change agrees with its one-einsum form to rounding
    adjoint = transform_frame(t, u[0], "adjoint").values
    einsum = np.einsum("ka,lb,ijab->ijkl", u[0], np.conj(u[0]), t.values)
    assert np.abs(adjoint - einsum).max() <= 1e-14 * max(1.0, np.abs(t.values).max())


def test_stacked_frame_change_checks_unitarity_once_per_stack():
    t = random_tensor(2, 3)
    u = haar_from_rng(3, rng_from(4), 4)
    u[2] *= 1.01
    with pytest.raises(UsageError, match="not unitary"):
        transform_frame(t, u, "full")
    for bad in (np.zeros((0, 3, 3)), np.eye(2)[None], np.zeros((2, 2, 3, 3))):
        with pytest.raises(UsageError, match="unitary has shape"):
            transform_frame(t, bad, "full")


@pytest.mark.parametrize("change", [transform_frame, frame_matrices])
@pytest.mark.parametrize("convention", ["full", "adjoint"])
def test_frame_changes_share_one_boundary_check(change, convention):
    # both frame changes reject an empty stack, a non-finite and a
    # non-numeric frame change as usage errors that name it
    t = random_tensor(2, 2)
    with pytest.raises(UsageError, match="unitary has shape"):
        change(t, np.zeros((0, 2, 2)), convention)
    for bad in (np.nan, np.inf):
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # rejected before any arithmetic on it
            with pytest.raises(UsageError, match="frame-change matrix contains NaN or Inf"):
                change(t, u, convention)
    with pytest.raises(UsageError, match="frame-change matrix must be numeric"):
        change(t, [["a", "b"], ["c", "d"]], convention)
    # the accepted ranks stay each function's own
    stack = np.broadcast_to(np.eye(2), (2, 3, 2, 2))
    if change is transform_frame:
        with pytest.raises(UsageError, match="unitary has shape"):
            change(t, stack, convention)
    else:
        assert change(t, stack, convention)[0].shape == (2, 3, 2, 2)


# ---------------------------------------------------------------------------
# validation at the library boundary

@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 1.5), ("seed", True), ("refine_steps", -3),
    ("refine_steps", 2.0), ("restarts", 2.5), ("restarts", 0), ("restarts", False),
    ("restarts", "3")])
def test_search_config_rejects_bad_fields(field, value):
    with pytest.raises(UsageError, match=field):
        SearchConfig(**{field: value})


def test_search_config_accepts_numpy_integers():
    cfg = SearchConfig(restarts=np.int64(2), refine_steps=np.int32(0), seed=np.uint8(3))
    assert cfg.restarts == 2


def test_unknown_identifiers_are_usage_errors_listing_the_choices():
    t = random_tensor(1, 2)
    with pytest.raises(UsageError, match=r"unknown functional 'foo'.*altered_qobc"):
        extremize(t, "foo")
    with pytest.raises(UsageError, match=r"unknown frame convention 'sideways'.*adjoint"):
        extremize(t, "rbc", convention="sideways")
    with pytest.raises(UsageError, match="unknown frame convention"):
        transform_frame(t, np.eye(2), "sideways")
    with pytest.raises(UsageError, match="unknown functional"):
        invariance_test(t, "bogus", "full")
    assert FunctionalKind("qobc") is FunctionalKind.QOBC


def test_tied_restarts_go_to_the_earliest():
    # on the zero tensor every frame ties at 0, so restart 0, which never
    # leaves the identity, wins both sides
    from curvlab.curvature import ChernTensor, FRAME
    t = ChernTensor(values=np.zeros((2, 2, 2, 2), dtype=complex), basis=FRAME)
    for cone in (full_cone(2), nonneg_orthant(2)):
        for ext in extremize(t, "altered_hsc", cone=cone, convention="adjoint",
                             cfg=SearchConfig(restarts=3, refine_steps=2, seed=1)):
            assert ext.value == 0.0
            assert np.array_equal(ext.frame, np.eye(2))


def test_one_pass_reevaluation_checks_every_extremum(monkeypatch):
    # drift on the last kind alone is caught, and named by its own values
    t = random_tensor(6, 2)
    cfg = SearchConfig(restarts=1, refine_steps=1, seed=0)
    monkeypatch.setattr(search_mod, "evaluate", lambda kind, m, v: evaluate(kind, m, v)
                        + (1e-6 if kind is FunctionalKind.ALTERED_QOBC else 0.0))
    for convention in ("full", "adjoint"):
        with pytest.raises(NumericalError, match="failed to re-evaluate"):
            search_mod._extremize_kinds(t, QUAD_KINDS, None, convention, cfg)
        search_mod._extremize_kinds(t, QUAD_KINDS[:-1], None, convention, cfg)


# ---------------------------------------------------------------------------
# exact-first dispatch: frame-invariant kinds take the identity frame

def conformal_tensor(n):
    from curvlab.metrics import jet_at, make_metric
    from curvlab.curvature import curvature_from_jet, to_frame
    p = 0.3 * np.exp(1j * np.arange(n))
    return to_frame(curvature_from_jet(jet_at(make_metric("conformal", dim=n), p)))


INVARIANT_CASES = [
    ("paper_hopf", lambda: paper_hopf([0.3, -0.7j]), "adjoint",
     ("full", "orthant", "monotone", "generators")),
    ("kahler_constant", lambda: kahler_constant(-1.5, 3), "full",
     ("orthant", "monotone", "generators")),
    ("skew_pair", lambda: skew_pair(2.0, 3, seed=3), "full", ("orthant", "monotone", "generators")),
    ("conformal_2", lambda: conformal_tensor(2), "adjoint", ("full", "orthant")),
    ("conformal_3", lambda: conformal_tensor(3), "adjoint", ("full", "monotone")),
]


@pytest.mark.parametrize("name, build, convention, cone_names", INVARIANT_CASES,
                         ids=[case[0] for case in INVARIANT_CASES])
def test_invariant_kinds_report_the_identity_frames_exact_inner_optimum(
        name, build, convention, cone_names):
    # every kind is frame-invariant here, so both extrema are the identity
    # frame's cone_min of q and of -q, bit for bit, whatever the budget; no
    # Haar frame does better
    t = build()
    n = t.n
    scale = float(np.abs(t.values).max())
    m = matrices_from(t)
    frames = haar_from_rng(n, rng_from(5), 20)
    moved = CurvatureMatrices.from_slices(*frame_matrices(t, frames, convention))
    for cone_name in cone_names:
        cone = lane_cone(cone_name, n)
        for kind in QUAD_KINDS:
            assert invariance_test(t, kind, convention)[0], (kind, cone_name)
            q = quadratic_form_matrix(kind, m)
            lo_ref, hi_ref = cone_min(q, cone), cone_min(-q, cone)
            lo, hi = extremize(t, kind, cone, convention)
            for a, b in zip((lo, hi), extremize(t, kind, cone, convention,
                                                SearchConfig(restarts=1, refine_steps=0, seed=7))):
                assert a.value == b.value and np.array_equal(a.vector, b.vector)
            assert (lo.value, hi.value) == (lo_ref.value, 0.0 - hi_ref.value)
            assert np.array_equal(lo.vector, lo_ref.argmin)
            assert np.array_equal(hi.vector, hi_ref.argmin)
            for ext in (lo, hi):
                assert ext.source == "invariant" and ext.convention == convention
                assert np.array_equal(ext.frame, np.eye(n))
            assert not np.shares_memory(lo.frame, hi.frame)
            per_frame = cone_min(quadratic_form_matrix(kind, moved), cone).value
            assert np.abs(per_frame - lo.value).max() <= 1e-9 * scale
            per_frame = -cone_min(-quadratic_form_matrix(kind, moved), cone).value
            assert np.abs(per_frame - hi.value).max() <= 1e-9 * scale


def test_invariant_restricted_extrema_match_closed_forms():
    # the rbc form of kahler_constant(c, n) is (c / 2)(I + J), whose
    # Rayleigh quotient 1 + (sum x)^2 / |x|^2 ranges over [2, n + 1] on the
    # orthant and on the monotone cone
    for c in (-1.5, 2.0):
        for n in (2, 3, 4):
            for cone in (nonneg_orthant(n), monotone_nonneg(n)):
                lo, hi = extremize(kahler_constant(c, n), "rbc", cone=cone)
                ends = sorted((c, 0.5 * c * (n + 1)))
                assert lo.value == pytest.approx(ends[0], rel=1e-14)
                assert hi.value == pytest.approx(ends[1], rel=1e-14)
                assert lo.source == hi.source == "invariant"


MIXED_CASES = [
    ("paper_hopf", lambda: paper_hopf([1.0, 0.5 - 0.5j]), "orthant", "full"),
    ("skew_pair", lambda: skew_pair(2.0, 3, seed=3), "full", "adjoint"),
    ("paper_tricerri", lambda: paper_tricerri(0.0, 1.0, 1.0), "monotone", "adjoint"),
]


@pytest.mark.parametrize("name, build, cone_name, convention", MIXED_CASES,
                         ids=[case[0] for case in MIXED_CASES])
def test_kinds_split_between_rows_equal_their_own_calls(name, build, cone_name, convention):
    # a call that mixes invariant and searched kinds gives, per kind, that
    # kind's own call bit for bit; the searched kinds are the lanes' own
    # iterates, the invariant ones the identity frame
    t = build()
    cone = make_cone(cone_name, t.n)
    cfg = SearchConfig(restarts=2, refine_steps=3, seed=6)
    together = search_mod._extremize_kinds(t, QUAD_KINDS, cone, convention, cfg)
    sources = set()
    for kind, pair in zip(QUAD_KINDS, together):
        invariant = invariance_test(t, kind, convention)[0]
        refs = extremize(t, kind, cone, convention, cfg)
        for got, ref in zip(pair, refs):
            assert got.source == ref.source == ("invariant" if invariant else "searched")
            assert got.value == ref.value
            assert np.array_equal(got.frame, ref.frame)
            assert np.array_equal(got.vector, ref.vector)
            sources.add(got.source)
        if not invariant:
            for got, (value, frame, vector) in zip(pair, per_restart_extremize(
                    t, FunctionalKind(kind), cone, convention, cfg)):
                assert got.value == value
                assert np.array_equal(got.frame, frame)
                assert np.array_equal(got.vector, vector)
    assert sources == {"invariant", "searched"}


def test_all_invariant_call_is_one_cone_min_and_no_search(monkeypatch):
    # no lane, no Haar frame: one quadratic_form_matrix per kind and one
    # stacked cone_min for every kind and sign
    def refuse(*args, **kwargs):
        raise AssertionError("an invariant call built a search")
    calls = {"cone_min": 0, "quadratic_form_matrix": 0}

    def counted(name):
        real = getattr(search_mod, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call
    for name in ("_search", "_lane", "haar_from_rng"):
        monkeypatch.setattr(search_mod, name, refuse)
    for name in calls:
        monkeypatch.setattr(search_mod, name, counted(name))
    t = paper_hopf([0.3, -0.7j])
    for cone in (full_cone(2), nonneg_orthant(2)):
        for name in calls:
            calls[name] = 0
        pairs = search_mod._extremize_kinds(t, QUAD_KINDS, cone, "adjoint",
                                            SearchConfig(restarts=5, refine_steps=9))
        assert calls == {"cone_min": 1, "quadratic_form_matrix": len(QUAD_KINDS)}
        assert all(ext.source == "invariant" for pair in pairs for ext in pair)


def test_full_full_scans_stay_exact_before_any_invariance_test(monkeypatch):
    # the exact row is decided first: an invariant tensor on the full cone
    # under the full convention is still an eigenvector certificate
    monkeypatch.setattr(search_mod, "invariance_test", lambda *args: pytest.fail("tested"))
    for t in (kahler_constant(2.0, 3), random_tensor(4, 3)):
        for ext in extremize(t, "qobc"):
            assert ext.source == "exact"


def test_invariance_bound_is_relative_to_the_tensor():
    # an absolute floor would call small frame-dependent tensors invariant
    from curvlab.curvature import ChernTensor, FRAME
    small = ChernTensor(values=random_tensor(3, 3).values * 1e-12, basis=FRAME)
    for convention in FrameConvention:
        for kind in ("rbc", "qobc"):
            ok, dev = invariance_test(small, kind, convention)
            assert not ok and dev > 0.0
    ok, _ = invariance_test(paper_hopf([1e3, 5e2 - 5e2j]), "rbc", "full")
    assert not ok
    assert not invariance_test(paper_hopf([1.0, 0.5 - 0.5j]), "rbc", "full")[0]


def test_every_quadratic_form_entry_point_refuses_hsc_with_one_pointer():
    # hsc is no FunctionalKind: the enum refuses it once, for every caller
    t = random_tensor(2, 2)
    calls = [lambda: quadratic_form_matrix("hsc", matrices_from(t)),
             lambda: evaluate("hsc", matrices_from(t), [1.0, 0.0]),
             lambda: search_mod.frame_form(t, "hsc"),
             lambda: extremize(t, "hsc"),
             lambda: invariance_test(t, "hsc", "full"),
             lambda: tricerri_family_extrema(1.0, "hsc")]
    for call in calls:
        with pytest.raises(UsageError, match=r"use hsc\(tensor, w\)"):
            call()
    assert [k.value for k in FunctionalKind] == ["rbc", "altered_rbc", "altered_hsc", "qobc",
                                                 "altered_qobc"]
