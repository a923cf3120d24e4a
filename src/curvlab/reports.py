"""Structured reports with lossless JSON round-tripping.

Identity checks never raise on mathematical failure; they return an
IdentityReport whose witnesses pinpoint the worst offenders.  Verify suites
aggregate named checks into a VerifyReport that the CLI renders as a table.
"""

import json
from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass
class IdentityReport:
    """Outcome of one algebraic identity / inequality check."""

    name: str
    passed: bool
    max_residual: float
    witnesses: list = field(default_factory=list)   # [label, lhs, rhs] triples
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(name=data["name"], passed=bool(data["passed"]),
                   max_residual=float(data["max_residual"]),
                   witnesses=[list(w) for w in data["witnesses"]],
                   details=dict(data["details"]))


@dataclass
class Check:
    name: str
    expected: object
    actual: object
    tolerance: Optional[float]
    passed: bool

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(name=data["name"], expected=data["expected"], actual=data["actual"],
                   tolerance=data["tolerance"], passed=bool(data["passed"]))


@dataclass
class VerifyReport:
    suite: str
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add(self, name, expected, actual, tolerance=None):
        """Record a numeric check; tolerance None means informational (always
        passes, and the values may be of any type)."""
        ok = tolerance is None or abs(float(actual) - float(expected)) <= tolerance
        self.checks.append(Check(name=name, expected=expected, actual=actual,
                                 tolerance=tolerance, passed=bool(ok)))
        return ok

    def add_bool(self, name, actual):
        ok = bool(actual)
        self.checks.append(Check(name=name, expected=True, actual=ok,
                                 tolerance=0.0, passed=ok))
        return ok

    def to_dict(self):
        return {"suite": self.suite, "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}

    @classmethod
    def from_dict(cls, data):
        return cls(suite=data["suite"], checks=[Check.from_dict(c) for c in data["checks"]])


def dumps(obj):
    data = obj.to_dict() if hasattr(obj, "to_dict") else obj
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def render_table(report):
    """Fixed-width text table for a VerifyReport."""
    lines = [f"suite: {report.suite}"]
    width = max([len(c.name) for c in report.checks] + [4])
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        tol = "info" if c.tolerance is None else f"{c.tolerance:g}"
        lines.append(f"  [{status}] {c.name.ljust(width)}  expected={_fmt(c.expected)}"
                     f"  actual={_fmt(c.actual)}  tol={tol}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)
