import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curvlab.metrics as metrics
import curvlab.verify as verify
from curvlab import DomainError, UsageError, finite_difference_jet, jet_at, make_metric
from curvlab.linalg import rng_from
from curvlab.metrics import _stacked, conformal, euclidean, fubini_study, hopf, tricerri
from curvlab.reports import dumps

CATALOG = {
    "euclidean": euclidean(3),
    "conformal": conformal(2, [1.0, 0.5]),
    "hopf": hopf(),
    "fubini_study": fubini_study(2),
    "tricerri": tricerri(),
}


def sample_domain_point(name, rng):
    n = CATALOG[name].n
    p = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if name == "hopf":
        p = p / np.linalg.norm(p) * rng.uniform(0.3, 2.0)
    if name == "tricerri":
        p[1] = p[1].real + 1j * rng.uniform(0.4, 2.0)
    return p


def test_make_metric_examples():
    assert_allclose(make_metric("hopf").evaluate(np.array([1.0, 0.0])),
                    np.diag([4.0, 4.0]), atol=1e-14)
    assert_allclose(make_metric("euclidean", dim=3).evaluate(np.ones(3)), np.eye(3))
    assert_allclose(make_metric("tricerri").evaluate(np.array([0.0, 1.0j])),
                    np.eye(2), atol=1e-14)


def test_make_metric_errors():
    with pytest.raises(UsageError):
        make_metric("does_not_exist")
    with pytest.raises(UsageError):
        make_metric("euclidean")  # missing dim
    with pytest.raises(UsageError):
        make_metric("hopf", dim=3)


def test_euclidean_jet_is_exactly_flat():
    field = euclidean(2)
    jet = jet_at(field, np.array([0.3 + 1j, -2.0]))
    assert np.all(jet.dg == 0) and np.all(jet.ddg == 0)


def test_hopf_first_derivative_closed_form():
    # d/dz_1 of 4 delta_kl / |z|^2 at z = (1, 0) is -4 delta_kl
    jet = jet_at(hopf(), np.array([1.0, 0.0]))
    assert_allclose(jet.dg[0], -4.0 * np.eye(2), atol=1e-13)


def test_fubini_study_fd_agrees_with_closed_form_at_origin():
    field = fubini_study(2)
    p = np.zeros(2, dtype=complex)
    fd = finite_difference_jet(field.evaluate, p, 1e-4, scale_with_point=True)
    cf = field.jet(p)
    assert np.abs(fd.ddg - cf.ddg).max() < 1e-6
    assert np.abs(fd.dg - cf.dg).max() < 1e-6


def test_constant_field_has_zero_derivatives():
    jet = finite_difference_jet(lambda p: np.eye(2, dtype=complex),
                                np.array([0.2, -0.1j]), 1e-4)
    assert np.abs(jet.dg).max() < 1e-12
    assert np.abs(jet.ddg).max() < 1e-12


def test_conformal_gaussian_second_derivative():
    # exp(|z|^2) I at the origin: ddg[i,j,k,l] = delta_ij delta_kl
    field = conformal(2)
    fd = finite_difference_jet(field.evaluate, np.zeros(2), 1e-4)
    target = np.einsum("ij,kl->ijkl", np.eye(2), np.eye(2))
    assert np.abs(fd.ddg - target).max() < 1e-6
    cf = field.jet(np.zeros(2))
    assert_allclose(cf.ddg, target, atol=1e-14)


def test_hopf_fd_vs_closed_form_off_axis():
    field = hopf()
    p = np.array([1.0, 1.0], dtype=complex)
    fd = finite_difference_jet(field.evaluate, p, 1e-4)
    cf = field.jet(p)
    assert np.abs(fd.ddg - cf.ddg).max() / np.abs(cf.ddg).max() < 1e-6
    assert np.abs(fd.dg - cf.dg).max() / np.abs(cf.dg).max() < 1e-6


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_fd_matches_closed_form_at_random_points(name):
    field = CATALOG[name]
    rng = rng_from(sum(map(ord, name)))
    for _ in range(100):
        p = sample_domain_point(name, rng)
        cf = field.jet(p)
        fd = finite_difference_jet(field.evaluate, p, 1e-4, domain=field.domain)
        scale = max(1.0, float(np.abs(cf.ddg).max()), float(np.abs(cf.dg).max()))
        assert np.abs(fd.dg - cf.dg).max() / scale < 1e-5
        assert np.abs(fd.ddg - cf.ddg).max() / scale < 1e-5


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_positive_definite_on_domain(name):
    field = CATALOG[name]
    rng = rng_from(1000 + sum(map(ord, name)))
    for _ in range(1000):
        p = sample_domain_point(name, rng)
        g = field.evaluate(p)
        assert np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0] > 0


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_jet_reality(name):
    field = CATALOG[name]
    rng = rng_from(2000 + sum(map(ord, name)))
    for _ in range(20):
        p = sample_domain_point(name, rng)
        assert field.jet(p).reality_residual() < 1e-8
        fd = finite_difference_jet(field.evaluate, p, 1e-4, domain=field.domain)
        assert fd.reality_residual() < 1e-8


def test_point_outside_domain_raises():
    with pytest.raises(DomainError):
        jet_at(hopf(), np.array([0.01, 0.0]))


def test_stencil_leaving_domain_names_point():
    field = hopf()
    p = np.array([0.0501, 0.0])
    with pytest.raises(DomainError, match="stencil"):
        finite_difference_jet(field.evaluate, p, 1e-3, scale_with_point=False,
                              domain=field.domain)


def test_too_small_step_rejected():
    with pytest.raises(UsageError, match="cancellation"):
        finite_difference_jet(lambda p: np.eye(2, dtype=complex),
                              np.zeros(2), 1e-12)


def test_fd_order4_beats_order2_on_tricerri():
    field = tricerri()
    p = np.array([0.0, 1.0j])
    err2 = abs(finite_difference_jet(field.evaluate, p, 1e-3, order=2,
                                     scale_with_point=False).ddg[1, 1, 1, 1] - 1.5)
    err4 = abs(finite_difference_jet(field.evaluate, p, 1e-3, order=4,
                                     scale_with_point=False).ddg[1, 1, 1, 1] - 1.5)
    assert err4 < err2 / 100
    assert err4 < 1e-8


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_jet_at_without_a_closed_form_is_the_default_fd_jet(name):
    # a field without a closed-form jet falls back to finite differences at
    # base step 1e-4, order 2, scaled with the point
    field = dataclasses.replace(CATALOG[name], jet=None)
    p = sample_domain_point(name, rng_from(31))
    got = jet_at(field, p)
    ref = finite_difference_jet(field.evaluate, p, 1e-4, domain=field.domain)
    for part in ("g", "dg", "ddg"):
        assert same_bits(getattr(got, part), getattr(ref, part))
    exact = CATALOG[name].jet(p)
    assert_allclose(got.ddg, exact.ddg, rtol=0.0, atol=1e-6 * max(1.0, np.abs(exact.ddg).max()))


# ---------------------------------------------------------------------------
# the stencil-table jet against nested first differences

def nested_first(fn, p, axis, h, conjugated):
    """d/dz_axis (d/dzbar_axis if conjugated) of fn by central differences
    along the real and imaginary directions."""
    e = np.zeros(p.size, dtype=complex)
    e[axis] = 1.0
    dx = (fn(p + h * e) - fn(p - h * e)) / (2.0 * h)
    dy = (fn(p + 1j * h * e) - fn(p - 1j * h * e)) / (2.0 * h)
    return 0.5 * (dx + 1j * dy) if conjugated else 0.5 * (dx - 1j * dy)


def nested_jet(evaluate, p, h, order):
    """The Wirtinger jet by definition: dg from first differences, ddg[i, j]
    the d/dz_i difference of the d/dzbar_j difference, Richardson over h and
    h/2 for order 4."""
    def fixed(step):
        n = p.size
        fn = lambda q: np.asarray(evaluate(q), dtype=complex)
        dg = np.array([nested_first(fn, p, i, step, False) for i in range(n)])
        ddg = np.array([[nested_first(lambda q, j=j: nested_first(fn, q, j, step, True),
                                      p, i, step, False) for j in range(n)] for i in range(n)])
        return dg, ddg

    dg, ddg = fixed(h)
    if order == 4:
        dg_half, ddg_half = fixed(h / 2.0)
        dg, ddg = (4.0 * dg_half - dg) / 3.0, (4.0 * ddg_half - ddg) / 3.0
    return dg, ddg


def catalog_of_dimension(n):
    fields = [euclidean(n), conformal(n, np.linspace(0.5, 1.5, n)), fubini_study(n)]
    return fields + ([hopf(), tricerri()] if n == 2 else [])


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("order", [2, 4])
def test_stencil_table_jet_matches_nested_differences(n, order):
    rng = rng_from(100 * n + order)
    h = {2: 1e-4, 4: 1e-3}[order]
    for field in catalog_of_dimension(n):
        p = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if field.name in ("hopf", "tricerri"):
            p = sample_domain_point(field.name, rng)
        fd = finite_difference_jet(field.evaluate, p, h, order=order, scale_with_point=False,
                                   domain=field.domain)
        dg, ddg = nested_jet(field.evaluate, p, h, order)
        assert np.array_equal(fd.g, field.evaluate(p))
        assert np.abs(fd.dg - dg).max() <= 1e-8 * max(1.0, float(np.abs(dg).max()))
        assert np.abs(fd.ddg - ddg).max() <= 1e-8 * max(1.0, float(np.abs(ddg).max()))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("order", [2, 4])
def test_each_distinct_stencil_point_is_evaluated_once(n, order):
    seen = []

    def counting(q):
        seen.append(tuple(q))
        return np.eye(n, dtype=complex)

    # dyadic point and step: every stencil point is exact, so distinct
    # offsets give distinct points
    p = np.arange(1, n + 1) * (0.5 + 0.25j)
    finite_difference_jet(counting, p, 2.0 ** -8, order=order, scale_with_point=False)
    per_step = 1 + 12 * n + 8 * n * (n - 1)
    # order 4 runs the stencil at h and h/2, which share the centre and the
    # 4 n points +-h e_i, +-ih e_i
    calls = per_step if order == 2 else 2 * per_step - (1 + 4 * n)
    assert len(seen) == calls
    assert len(set(seen)) == calls


@pytest.mark.parametrize("n", [1, 2, 4])
def test_order_4_jet_is_richardson_of_two_order_2_jets_bit_for_bit(n):
    # reading the shared points from the step-h values changes no bit
    field = fubini_study(n)
    p = 0.3 * np.arange(1, n + 1) * (1.0 - 0.4j)
    h = 1e-3 * max(1.0, float(np.linalg.norm(p)))
    full = finite_difference_jet(field.evaluate, p, h, scale_with_point=False)
    half = finite_difference_jet(field.evaluate, p, h / 2.0, scale_with_point=False)
    both = finite_difference_jet(field.evaluate, p, 1e-3, order=4, domain=field.domain)
    assert np.array_equal(both.g, full.g)
    assert np.array_equal(both.dg, (4.0 * half.dg - full.dg) / 3.0)
    assert np.array_equal(both.ddg, (4.0 * half.ddg - full.ddg) / 3.0)


@pytest.mark.parametrize("h", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-4, "1e-4"])
def test_fd_step_must_be_a_positive_finite_real(h):
    with pytest.raises(UsageError, match="positive and finite"):
        finite_difference_jet(lambda p: np.eye(2, dtype=complex), np.ones(2), h)


# ---------------------------------------------------------------------------
# stacked catalog fields against the per-point path

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def per_point(field):
    """The field with plain callables around its own: finite differences
    evaluate and domain-check it one point at a time."""
    return dataclasses.replace(field, evaluate=lambda q: field.evaluate(q),
                               domain=lambda q: field.domain(q))


def mixed_points(field, rng, k):
    """k points of the field's dimension, about a third of them outside the
    hopf and tricerri domains (inside the origin ball, below the Im w margin,
    beyond the chart bound)."""
    n = field.n
    p = 0.7 * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    if field.name == "hopf":
        p *= (rng.uniform(0.01, 3.0, k) / np.linalg.norm(p, axis=1))[:, None]
    if field.name == "tricerri":
        p[:, 1] = p[:, 1].real + 1j * rng.uniform(-0.2, 2.0, k)
        p[::7, 0] *= 20.0
        p[3::7, 1] += 20.0
    return p


def pointwise_formulas(field):
    """(evaluate, domain) of a catalog field of catalog_of_dimension as
    formulas on one point: the bits each stacked row must reproduce."""
    n = field.n
    eye = np.eye(n, dtype=complex)
    c = np.linspace(0.5, 1.5, n)

    def fubini_study(p):
        u = 1.0 / (1.0 + float(np.sum(np.abs(p) ** 2)))
        return u * np.eye(n) - u ** 2 * np.einsum("k,l->kl", np.conj(p), p)

    def tricerri(p):
        y = float(p[1].imag)
        return np.diag([y, y ** -2.0]).astype(complex)

    everywhere = lambda p: True
    return {
        "euclidean": (lambda p: eye, everywhere),
        "conformal": (lambda p: np.exp(float(np.sum(c * np.abs(p) ** 2))) * eye, everywhere),
        "fubini_study": (fubini_study, everywhere),
        "hopf": (lambda p: 4.0 * eye / float(np.sum(np.abs(p) ** 2)),
                 lambda p: np.linalg.norm(p) > 0.05),
        "tricerri": (tricerri, lambda p: (p[1].imag > 0.05 and abs(p[0]) <= 10.0
                                          and abs(p[1]) <= 10.0)),
    }[field.name]


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_stacked_fields_equal_per_point_calls_bit_for_bit(n):
    rng = rng_from(300 + n)
    for field in catalog_of_dimension(n):
        k = 60
        pts = mixed_points(field, rng, k)
        values = np.broadcast_to(field.evaluate(pts), (k, n, n))
        inside = np.broadcast_to(field.domain(pts), (k,))
        formula, in_domain = pointwise_formulas(field)
        for q, g, ok in zip(pts, values, inside):
            assert same_bits(g, field.evaluate(q)) and same_bits(g, formula(q)), field.name
            assert ok == bool(field.domain(q)) == bool(in_domain(q)), field.name
        if field.name in ("hopf", "tricerri"):
            assert 0 < inside.sum() < k
        # leading axes of any shape broadcast alike
        grid = pts.reshape(3, 20, n)
        assert same_bits(np.broadcast_to(field.evaluate(grid), (3, 20, n, n)),
                         values.reshape(3, 20, n, n))
        assert np.array_equal(np.broadcast_to(field.domain(grid), (3, 20)),
                              inside.reshape(3, 20))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("order", [2, 4])
def test_stacked_fd_jets_equal_per_point_jets_bit_for_bit(n, order):
    rng = rng_from(400 + 10 * n + order)
    h = {2: 1e-4, 4: 1e-3}[order]
    for field in catalog_of_dimension(n):
        p = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if field.name in ("hopf", "tricerri"):
            p = sample_domain_point(field.name, rng)
        plain = per_point(field)
        stacked = finite_difference_jet(field.evaluate, p, h, order=order, domain=field.domain)
        pointwise = finite_difference_jet(plain.evaluate, p, h, order=order,
                                          domain=plain.domain)
        for a, b in ((stacked.g, pointwise.g), (stacked.dg, pointwise.dg),
                     (stacked.ddg, pointwise.ddg)):
            assert same_bits(a, b), field.name


def sixteen_gather_jet(f, h):
    """The jet from stencil values with one gather per mixed-difference
    weight: the reference that the one-gather _jet_from_values reproduces."""
    _, first, mixed = metrics._stencil(f.shape[-1])
    dg = np.einsum("a,iakl->ikl", metrics._DZ, f[first]) / h
    ddg = np.zeros(mixed.shape[:2] + f.shape[1:], dtype=complex)
    for (a, b), weight in np.ndenumerate(metrics._DZ_DZBAR):
        ddg += weight * f[mixed[:, :, a, b]]
    return metrics.MetricJet(g=f[0], dg=dg, ddg=ddg / h ** 2)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("order", [2, 4])
def test_one_gather_jet_equals_sixteen_gathers_bit_for_bit(monkeypatch, n, order):
    rng = rng_from(500 + 10 * n + order)
    h = {2: 1e-4, 4: 1e-3}[order]
    points = []
    for field in catalog_of_dimension(n):
        p = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if field.name in ("hopf", "tricerri"):
            p = sample_domain_point(field.name, rng)
        points.append((field, p))
    jets = [finite_difference_jet(field.evaluate, p, h, order=order, domain=field.domain)
            for field, p in points]
    monkeypatch.setattr(metrics, "_jet_from_values", sixteen_gather_jet)
    for (field, p), jet in zip(points, jets):
        ref = finite_difference_jet(field.evaluate, p, h, order=order, domain=field.domain)
        for a, b in ((jet.g, ref.g), (jet.dg, ref.dg), (jet.ddg, ref.ddg)):
            assert same_bits(a, b), field.name


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("order", [2, 4])
def test_stacked_path_makes_one_call_per_stencil(n, order):
    field = fubini_study(n)
    evals, checks = [], []
    evaluate = _stacked(lambda q: evals.append(q.shape) or field.evaluate(q))
    domain = _stacked(lambda q: checks.append(q.shape) or field.domain(q))
    finite_difference_jet(evaluate, 0.1 * np.ones(n), 1e-3, order=order, domain=domain)
    per_step = 1 + 12 * n + 8 * n * (n - 1)
    expected = [(per_step, n)] if order == 2 else [(per_step, n), (per_step - 1 - 4 * n, n)]
    assert evals == checks == expected
    # a plain domain test sends the stacked evaluator down the per-point path
    evals.clear()
    finite_difference_jet(evaluate, 0.1 * np.ones(n), 1e-3, domain=lambda q: True)
    assert evals == [(n,)] * per_step


@pytest.mark.parametrize("field, inside, outside", [
    (conformal(2), [18.6, 5.0 + 17.9j], [18.7, 30.0, 1e200j, np.inf, np.nan]),
    (fubini_study(2), [2.0 ** 249 * (1 + 1j)],
     [2.0 ** 251, 1e200j, 1e308 + 1e308j, 1.7e308 - 1.7e308j]),
    (hopf(), [2e51, 1e51 * (1 + 1j)], [2.4e51, 1e60, 1e308 + 1e308j, np.inf]),
    (euclidean(2), [1e200, 1e308 + 1e308j], []),
])
def test_charts_end_before_their_closed_forms_overflow(field, inside, outside):
    # points on the first axis; the domain test squares no part beyond
    # sqrt(MAX_ENTRY), so no RuntimeWarning reaches Tier-1's filter
    pts = np.zeros((len(inside) + len(outside), 2), dtype=complex)
    pts[:, 0] = inside + outside
    expected = np.arange(len(pts)) < len(inside)
    assert np.array_equal(np.broadcast_to(field.domain(pts), expected.shape), expected)
    assert [bool(field.domain(p)) for p in pts] == expected.tolist()
    for p in pts[:len(inside)]:
        jet = jet_at(field, p)
        assert all(np.isfinite(x).all() for x in (jet.g, jet.dg, jet.ddg)), p


def test_a_stacked_domain_checks_a_plain_evaluators_stencil_in_one_call():
    # every point is checked before any is evaluated, so a stencil that
    # leaves the domain evaluates nothing
    evals, checks = [], []
    for field, p in ((fubini_study(2), 0.1 * np.ones(2)), (hopf(), np.array([0.0501, 0.0]))):
        domain = _stacked(lambda q: checks.append(q.shape) or field.domain(q))

        def plain(q):
            evals.append(q.shape)
            return field.evaluate(q)

        try:
            jet = finite_difference_jet(plain, p, 1e-3, scale_with_point=False, domain=domain)
        except DomainError as exc:
            assert field.name == "hopf" and "stencil point" in str(exc)
            continue
        ref = finite_difference_jet(field.evaluate, p, 1e-3, scale_with_point=False,
                                    domain=field.domain)
        assert all(same_bits(a, b) for a, b in zip((jet.g, jet.dg, jet.ddg),
                                                   (ref.g, ref.dg, ref.ddg)))
    assert checks == [(41, 2), (41, 2)] and evals == [(2,)] * 41


@pytest.mark.parametrize("field, p, h", [
    (hopf(), np.array([0.0501, 0.0]), 1e-3),           # into the origin ball
    (hopf(), np.array([0.03 + 0.04j, 1e-4j]), 1e-3),
    (tricerri(), np.array([0.1, 0.3 + 0.0505j]), 1e-3),  # below the Im w margin
    (tricerri(), np.array([9.9995 + 0j, 1j]), 1e-3),    # past the chart bound
])
def test_stencil_leaving_the_domain_gives_one_message_on_both_paths(field, p, h):
    messages = []
    for f in (field, per_point(field)):
        with pytest.raises(DomainError, match="stencil point") as info:
            finite_difference_jet(f.evaluate, p, h, order=4, scale_with_point=False,
                                  domain=f.domain)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("seed", range(5))
def test_verify_reports_match_the_per_point_path(monkeypatch, seed):
    stacked = {name: dumps(verify.run_suite(name, seed=seed)) for name in ("hopf", "tricerri")}
    evaluated = []

    def plain(builder):
        def build():
            field = builder()
            return dataclasses.replace(
                per_point(field), evaluate=lambda q: evaluated.append(1) or field.evaluate(q))
        return build

    monkeypatch.setattr(verify, "hopf", plain(hopf))
    monkeypatch.setattr(verify, "tricerri", plain(tricerri))
    for name, text in stacked.items():
        assert dumps(verify.run_suite(name, seed=seed)) == text
    assert len(evaluated) == 20 * 41 + 3 * 73   # 20 hopf jets, 3 tricerri order-4 jets
