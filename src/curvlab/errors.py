"""Exception types shared across the package.

The CLI maps these onto exit codes: usage problems exit 1; domain problems
(points outside a metric's chart, metrics that ``linalg.cholesky_frame``
refuses) and numerical problems (a computed result that fails its own
re-check, such as a frame extremum that does not re-evaluate to the reported
value) exit 2.
"""


class CurvlabError(Exception):
    """Base class for all toolkit errors."""


class UsageError(CurvlabError):
    """Bad arguments: wrong dimensions, unknown identifiers, invalid config."""


class DomainError(CurvlabError):
    """Mathematically invalid input: point outside a chart, a metric that is
    not positive definite or too ill-conditioned, non-finite data."""


class NumericalError(CurvlabError):
    """A computed result drifted beyond its tolerance when checked
    independently, so it cannot be reported."""
