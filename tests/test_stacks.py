"""The pointwise pipeline on stacks: every stacked call equals its single
calls bit for bit, a stacked refusal raises the single call's error class and
names the first bad index, and the verify suites make one call per stack."""

import numpy as np
import pytest

import curvlab.curvature as curvature_mod
import curvlab.verify as verify
from curvlab import finite_difference_jet
from curvlab.curvature import (FRAME, ChernTensor, curvature_from_jet, hermitian_tensor_residual,
                               paper_hopf, random_tensor, to_frame, transform_frame)
from curvlab.functionals import hsc, matrices_from
from curvlab.linalg import cholesky_frame, haar_from_rng, rng_from
from curvlab.metrics import MetricJet, conformal, euclidean, fubini_study, hopf, tricerri

DIMS = [1, 2, 3, 5, 8]
STACKS = [1, 2, 7]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_jets(a, b):
    return all(same_bits(x, y) for x, y in ((a.g, b.g), (a.dg, b.dg), (a.ddg, b.ddg)))


def same_tensors(a, b):
    return (same_bits(a.values, b.values) and a.basis == b.basis
            and same_bits(a.sym_residual, b.sym_residual)
            and (a.metric is None) == (b.metric is None)
            and (a.metric is None or same_bits(a.metric, b.metric)))


def catalog(n):
    fields = [euclidean(n), conformal(n, np.linspace(0.5, 1.5, n)), fubini_study(n)]
    return fields + ([hopf(), tricerri()] if n == 2 else [])


def domain_points(field, rng, k):
    """k points inside the field's chart, away from its singular sets."""
    n = field.n
    p = 0.5 * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    if field.name == "hopf":
        p *= (rng.uniform(0.3, 2.0, k) / np.linalg.norm(p, axis=1))[:, None]
    if field.name == "tricerri":
        p[:, 1] = p[:, 1].real + 1j * rng.uniform(0.4, 2.0, k)
    return p


def frame_stack(n, k, seed):
    return ChernTensor(np.stack([random_tensor(seed + j, n).values for j in range(k)]), FRAME)


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("k", STACKS)
def test_stacked_jets_equal_single_jets_bit_for_bit(n, k):
    rng = rng_from(900 + 10 * n + k)
    for field in catalog(n):
        p = domain_points(field, rng, k)
        jets = field.jet(p)
        assert jets.g.shape == (k, n, n)
        for j in range(k):
            assert same_jets(MetricJet(jets.g[j], jets.dg[j], jets.ddg[j]), field.jet(p[j]))
        for order, base in ((2, 1e-4), (4, 1e-3)):
            steps = base * (1.0 + 0.25 * np.arange(k))     # one step per point
            for h, scaled in ((steps, False), (steps, True), (base, True)):
                fd = finite_difference_jet(field.evaluate, p, h, order=order,
                                           scale_with_point=scaled, domain=field.domain)
                for j in range(k):
                    single = finite_difference_jet(field.evaluate, p[j], float(np.broadcast_to(
                        h, (k,))[j]), order=order, scale_with_point=scaled, domain=field.domain)
                    assert same_jets(MetricJet(fd.g[j], fd.dg[j], fd.ddg[j]), single), (
                        field.name, order, scaled, j)


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("k", STACKS)
def test_stacked_frames_and_tensors_equal_single_calls_bit_for_bit(n, k):
    rng = rng_from(950 + 10 * n + k)
    for field in catalog(n):
        jets = field.jet(domain_points(field, rng, k))
        frames = cholesky_frame(jets.g)
        coords = curvature_from_jet(jets)
        moved = to_frame(coords)
        assert coords.values.shape == moved.values.shape == (k,) + (n,) * 4
        for j in range(k):
            jet = MetricJet(jets.g[j], jets.dg[j], jets.ddg[j])
            assert same_bits(frames[j], cholesky_frame(jet.g))
            single = curvature_from_jet(jet)
            assert same_tensors(coords[j], single), field.name
            assert same_tensors(moved[j], to_frame(single)), field.name
    if n == 2:
        z = domain_points(hopf(), rng, k)
        stacked = paper_hopf(z)
        assert all(same_tensors(stacked[j], paper_hopf(z[j])) for j in range(k))


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("k", STACKS)
def test_functionals_and_frame_changes_of_a_stack_equal_single_calls(n, k):
    rng = rng_from(980 + 10 * n + k)
    t = frame_stack(n, k, 10 * n)
    m = matrices_from(t)
    w = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    w4 = rng.standard_normal((4, k, n)) + 1j * rng.standard_normal((4, k, n))
    one, four = hsc(t, w), hsc(t, w4)
    assert one.shape == (k,) and four.shape == (4, k)
    for j, single in enumerate(t):
        assert same_tensors(single, random_tensor(10 * n + j, n))
        mj = matrices_from(single)
        assert same_bits(m.rbc[j], mj.rbc) and same_bits(m.altered[j], mj.altered)
        assert same_bits(one[j], hsc(single, w[j]))
        assert same_bits(four[:, j], hsc(single, w4[:, j]))
    u = haar_from_rng(n, rng, k)
    base = random_tensor(5, n)
    for convention in ("full", "adjoint"):
        moved = transform_frame(base, u, convention)
        assert moved.values.shape == (k,) + (n,) * 4
        for j in range(k):
            assert same_tensors(moved[j], transform_frame(base, u[j], convention))


@pytest.mark.parametrize("n", DIMS)
def test_residuals_read_one_tensor_or_jet_per_stack_row(n):
    t = frame_stack(n, 7, 3 * n)
    values = np.array(t.values)
    values[4, 0, 0, 0, 0] += 1e-12j
    residual = hermitian_tensor_residual(values)
    assert residual.shape == (7,)
    assert np.array_equal(residual, [hermitian_tensor_residual(v) for v in values])
    assert residual[4] > 0.0 and isinstance(hermitian_tensor_residual(values[0]), float)
    assert np.array_equal(ChernTensor(values, FRAME).sym_residual, residual)
    jets = fubini_study(n).jet(domain_points(fubini_study(n), rng_from(n), 7))
    ddg = np.array(jets.ddg)
    ddg[2, 0, 0, 0, 0] += 1e-9j
    stack = MetricJet(jets.g, jets.dg, ddg)
    singles = [MetricJet(jets.g[j], jets.dg[j], ddg[j]).reality_residual() for j in range(7)]
    assert np.array_equal(stack.reality_residual(), singles)
    assert singles[2] > 0.0 and isinstance(singles[0], float)


# ---------------------------------------------------------------------------
# refusals name the first bad index

def refuse(call, single, index):
    """call raises the error class that single raises, naming stack index."""
    with pytest.raises(Exception) as expected:
        single()
    with pytest.raises(type(expected.value), match=rf"at stack index {index}\b"):
        call()


def test_a_stencil_leaving_the_domain_names_its_point():
    field = hopf()
    p = domain_points(field, rng_from(1), 7)
    p[[3, 5]] = [0.0501, 0.0], [0.0, 0.0502]       # stencils cross into the origin ball
    for plain in (False, True):
        domain = (lambda q: field.domain(q)) if plain else field.domain
        refuse(lambda: finite_difference_jet(field.evaluate, p, 1e-3, scale_with_point=False,
                                             domain=domain),
               lambda: finite_difference_jet(field.evaluate, p[3], 1e-3,
                                             scale_with_point=False, domain=domain), 3)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_ill_conditioned_metrics_and_bad_entries_name_the_first_bad_index(n):
    jets = fubini_study(n).jet(domain_points(fubini_study(n), rng_from(n), 7))
    g = np.array(jets.g)
    g[[2, 4]] = np.diag(np.linspace(1e-6, 1.0, n)) if n > 1 else -1.0
    refuse(lambda: cholesky_frame(g), lambda: cholesky_frame(g[2]), 2)
    refuse(lambda: curvature_from_jet(MetricJet(g, jets.dg, jets.ddg)),
           lambda: curvature_from_jet(MetricJet(g[2], jets.dg[2], jets.ddg[2])), 2)
    g[1, 0, 0] = np.nan
    refuse(lambda: cholesky_frame(g), lambda: cholesky_frame(g[1]), 1)
    values = np.array(frame_stack(n, 7, 0).values)
    values[[3, 6], 0, 0, 0, 0] += 1e-3j
    refuse(lambda: ChernTensor(values, FRAME), lambda: ChernTensor(values[3], FRAME), 3)
    values[1, -1, 0, 0, -1] = np.nan
    refuse(lambda: ChernTensor(values, FRAME), lambda: ChernTensor(values[1], FRAME), 1)
    points = domain_points(fubini_study(n), rng_from(0), 7)
    points[5, 0] = np.nan
    refuse(lambda: finite_difference_jet(fubini_study(n).evaluate, points, 1e-4),
           lambda: finite_difference_jet(fubini_study(n).evaluate, points[5], 1e-4), 5)
    z = domain_points(hopf(), rng_from(2), 7)
    z[4] = 0.0
    refuse(lambda: paper_hopf(z), lambda: paper_hopf(z[4]), 4)


# ---------------------------------------------------------------------------
# the verify suites make one call per stack, not one per point

# suite -> (curvature_from_jet, cholesky_frame, ChernTensor) calls at seed 0;
# one call per point made (20, 20, 56), (0, 0, 56) and (26, 52, 52)
SUITE_CALLS = {
    # one stacked FD jet of 20 points and one stacked Hopf tensor each for
    # them and for the 10 altered-HSC points
    "hopf": (1, 1, 9),
    # no jet; the 50 random tensors are checked as one stack
    "identities": (0, 0, 7),
    # one stack per dimension drawn (2 and 3), then the chart origin at n = 2
    "fubini_study": (3, 6, 6),
}


@pytest.mark.parametrize("suite", list(SUITE_CALLS))
def test_verify_suites_make_one_call_per_stack(monkeypatch, suite):
    calls = {"curvature_from_jet": 0, "cholesky_frame": 0, "ChernTensor": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call
    monkeypatch.setattr(verify, "curvature_from_jet",
                        counted("curvature_from_jet", verify.curvature_from_jet))
    monkeypatch.setattr(curvature_mod, "cholesky_frame",
                        counted("cholesky_frame", curvature_mod.cholesky_frame))
    monkeypatch.setattr(ChernTensor, "__post_init__",
                        counted("ChernTensor", ChernTensor.__post_init__))
    assert verify.run_suite(suite, seed=0).passed
    assert tuple(calls.values()) == SUITE_CALLS[suite]
