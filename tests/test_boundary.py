"""Bad input at the public boundary ends in a curvlab error.

Every public entry point reads its arguments through the shared checks of
``curvlab.linalg`` (an integer in a range, a number, a numeric array, a
square matrix or stack of them), so a wrong type, shape or range is a
UsageError (or a DomainError for non-finite data), never a bare
ValueError, TypeError or AxisError from numpy.
"""

import warnings

import numpy as np
import pytest

from curvlab import (ConstHSC, DomainError, UsageError, cholesky_frame, cone_min,
                     copositive_2x2, dual_edm_test, edm_from_vector, extremize,
                     finite_difference_jet,
                     full_cone, generator_cone, hsc, jet_at, kahler_constant, make_cone,
                     make_metric, paper_hopf, paper_tricerri, perron_criterion_check,
                     random_tensor, rayleigh_bounds, self_adjoint_eigen, skew_pair, to_frame,
                     tricerri_family_extrema, weitzenbock)
from curvlab.linalg import rng_from
from curvlab.metrics import conformal, euclidean, fubini_study, hopf
from curvlab.verify import cone_oracle_disagreements, run_suite

BAD_CALLS = {
    # tensor and metric builders
    "random_tensor(-1, 3)": lambda: random_tensor(-1, 3),
    "random_tensor(0, 2.5)": lambda: random_tensor(0, 2.5),
    "random_tensor(0, 0)": lambda: random_tensor(0, 0),
    "skew_pair(1.0, 2, -3)": lambda: skew_pair(1.0, 2, -3),
    "kahler_constant(1.0, 2.5)": lambda: kahler_constant(1.0, 2.5),
    "kahler_constant('a', 2)": lambda: kahler_constant("a", 2),
    "paper_hopf(['a', 'b'])": lambda: paper_hopf(["a", "b"]),
    "paper_tricerri('x', 0, 1)": lambda: paper_tricerri("x", 0, 1),
    "euclidean(-1)": lambda: euclidean(-1),
    "fubini_study(2.5)": lambda: fubini_study(2.5),
    "conformal(2, 'ab')": lambda: conformal(2, "ab"),
    "make_metric('conformal', 'x')": lambda: make_metric("conformal", "x"),
    "make_metric('conformal', 2.5)": lambda: make_metric("conformal", 2.5),
    # seeds and sampling
    "rng_from(-1)": lambda: rng_from(-1),
    "perron_criterion_check(eye(3), seed=-1)":
        lambda: perron_criterion_check(np.eye(3), seed=-1),
    "perron_criterion_check(eye(3), samples=1500.5)":
        lambda: perron_criterion_check(np.eye(3), samples=1500.5),
    "cone_oracle_disagreements(3, 1, -5, 100, 100)":
        lambda: cone_oracle_disagreements(3, 1, -5, 100, 100),
    # cone inputs
    "dual_edm_test(zeros((2, 3)))": lambda: dual_edm_test(np.zeros((2, 3))),
    "dual_edm_test(zeros(3))": lambda: dual_edm_test(np.zeros(3)),
    "cone_min('abc', full_cone(3))": lambda: cone_min("abc", full_cone(3)),
    "copositive_2x2('x')": lambda: copositive_2x2("x"),
    "generator_cone('x')": lambda: generator_cone("x"),
    "edm_from_vector('a')": lambda: edm_from_vector("a"),
    # other numeric inputs
    "cholesky_frame(zeros((2, 3)))": lambda: cholesky_frame(np.zeros((2, 3))),
    "weitzenbock('a')": lambda: weitzenbock("a"),
    "self_adjoint_eigen([[1, 2], [3, 'a']])": lambda: self_adjoint_eigen([[1, 2], [3, "a"]]),
    "finite_difference_jet(hopf, ['a', 0], 1e-4)":
        lambda: finite_difference_jet(hopf().evaluate, ["a", 0], 1e-4),
    "hsc(random_tensor(0, 2), 'ab')": lambda: hsc(random_tensor(0, 2), "ab"),
    "tricerri_family_extrema('x', 'rbc')": lambda: tricerri_family_extrema("x", "rbc"),
    # a constant, a stack shape, a sample count and text for a matrix
    "ConstHSC('a')": lambda: ConstHSC("a"),
    "weitzenbock(zeros(3))": lambda: weitzenbock(np.zeros(3)),
    "rayleigh_bounds(zeros((0, 0)))": lambda: rayleigh_bounds(np.zeros((0, 0))),
    "cone_oracle_disagreements(3, 1, 0, 100, 0)":
        lambda: cone_oracle_disagreements(3, 1, 0, 100, 0),
    "cone_min(text)": lambda: cone_min([["1", "0"], ["0", "1"]], full_cone(2)),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_input_at_a_public_entry_point_is_a_curvlab_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((UsageError, DomainError)):
            call()


def test_the_shared_checks_name_the_argument():
    with pytest.raises(UsageError, match=r"parameter 'seed' must be an integer >= 0, got -1"):
        random_tensor(-1, 3)
    with pytest.raises(UsageError, match=r"parameter 'n' must be an integer >= 1, got 2.5"):
        random_tensor(0, 2.5)
    with pytest.raises(UsageError, match=r"dimension must be an integer in 1\.\.12, got 2.5"):
        make_metric("conformal", 2.5)
    with pytest.raises(UsageError, match=r"parameter 'c' must be a real number"):
        kahler_constant("a", 2)
    with pytest.raises(UsageError, match=r"parameter 'b' must be a number"):
        paper_tricerri("x", 0, 1)
    with pytest.raises(UsageError, match=r"parameter 'z' must be numeric"):
        paper_hopf(["a", "b"])
    with pytest.raises(UsageError, match=r"dual_edm_test input must be a nonempty square "
                                         r"matrix, got shape \(2, 3\)"):
        dual_edm_test(np.zeros((2, 3)))
    with pytest.raises(UsageError, match=r"parameter 'samples' must be an integer >= 100"):
        perron_criterion_check(np.eye(3), samples=1500.5)


def test_valid_numbers_of_numpy_types_pass_the_checks():
    assert np.array_equal(random_tensor(np.int64(3), np.uint8(2)).values,
                          random_tensor(3, 2).values)
    assert np.array_equal(kahler_constant(np.float64(2.0), np.int32(2)).values,
                          kahler_constant(2.0, 2).values)
    # b and d may be complex: only their moduli enter the family
    assert np.array_equal(paper_tricerri(np.complex128(0.6j), 0.8, 1.0).values,
                          paper_tricerri(0.6, 0.8, 1.0).values)
    assert make_metric("euclidean", np.int64(3)).n == 3


# ---------------------------------------------------------------------------
# boundary errors that no other test reaches

def test_extremize_rejects_a_cone_of_another_dimension():
    with pytest.raises(UsageError, match="cone dimension does not match tensor dimension"):
        extremize(random_tensor(0, 2), "rbc", cone=full_cone(3))


def test_family_extrema_reject_hsc():
    with pytest.raises(UsageError, match="quadratic-form kinds"):
        tricerri_family_extrema(1.0, "hsc")


def test_to_frame_returns_a_frame_tensor_as_it_is():
    t = random_tensor(0, 2)
    assert to_frame(t) is t


def test_run_suite_rejects_an_unknown_suite_and_a_bad_seed():
    with pytest.raises(UsageError, match="unknown verify suite 'bogus'"):
        run_suite("bogus")
    # the seed is checked on entry, for every suite alike
    for name in ("tricerri", "all", "bogus"):
        with pytest.raises(UsageError, match="parameter 'seed'"):
            run_suite(name, seed=-1)


def test_jet_at_rejects_a_point_of_the_wrong_dimension():
    with pytest.raises(UsageError, match="point has dimension 3, expected 2"):
        jet_at(hopf(), [1.0, 0.5, 0.0])


def test_finite_difference_jet_rejects_an_unknown_order():
    with pytest.raises(UsageError, match="unsupported finite-difference order 3"):
        finite_difference_jet(hopf().evaluate, [1.0, 0.5], 1e-4, order=3)


def test_conformal_needs_one_coefficient_per_coordinate():
    with pytest.raises(UsageError, match="needs 2 coefficients, got 3"):
        conformal(2, [1, 2, 3])


def test_make_cone_rejects_an_unknown_kind():
    with pytest.raises(UsageError, match="unknown cone 'bogus'"):
        make_cone("bogus", 2)


def test_generator_cone_rejects_a_zero_row():
    with pytest.raises(UsageError, match="cone generators must be nonzero"):
        generator_cone([[0, 0], [1, 0]])


def test_edm_from_vector_rejects_non_finite_entries():
    with pytest.raises(DomainError, match="NaN or Inf"):
        edm_from_vector([0, np.nan])
