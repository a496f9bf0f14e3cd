"""Negative log-likelihood evaluation and monotonicity auditing.

The cost (additive constant omitted) is

    -2 J sum_i log|det W_i|
    + sum_{i,j,n} [ |y_ijn|^beta / S_ijn^(beta/p) + (2/p) log S_ijn ]

with ``y = W x`` and ``S = sum_k t v``.  Every update rule in the package
is expected to leave this non-increasing; :func:`audit_descent` verifies
that on a recorded cost sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import SingularDemixing
from .source_model import model_cost_terms, scale_field

#: Relative slack used when flagging cost increases.
DESCENT_SLACK = 1e-9


def ggd_cost_arrays(xd, W, T, V, beta, domain) -> float:
    """Cost on raw arrays; ``W`` is ``(I, N, N)``, factors per-source stacks."""
    J = xd.shape[1]
    sign, logdet = np.linalg.slogdet(W)
    if not np.all(np.isfinite(logdet)) or np.any(np.abs(sign) == 0.0):
        raise SingularDemixing("demixing matrix is singular")
    yd = np.einsum("inm,ijm->ijn", W, xd)
    S = scale_field(T, V)
    terms = model_cost_terms(np.abs(yd), S, beta, domain)
    return float(-2.0 * J * np.sum(logdet) + np.sum(terms))


@dataclass(frozen=True)
class DescentViolation:
    """One audited cost increase (``iteration`` is 1-based)."""

    iteration: int
    previous: float
    current: float

    @property
    def increase(self) -> float:
        return self.current - self.previous


@dataclass(frozen=True)
class DescentReport:
    """Outcome of auditing a cost sequence."""

    violations: List[DescentViolation]
    n_steps: int

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_descent(costs, slack: float = DESCENT_SLACK) -> DescentReport:
    """Flag every iteration whose cost rose beyond tolerance.

    ``costs[k]`` is the cost after iteration ``k + 1``.  An increase counts
    when ``cost_k > cost_{k-1} + slack * (1 + |cost_{k-1}|)``.
    """
    costs = np.asarray(costs, dtype=np.float64)
    violations = []
    for k in range(1, len(costs)):
        prev, cur = costs[k - 1], costs[k]
        if cur > prev + slack * (1.0 + abs(prev)):
            violations.append(DescentViolation(iteration=k + 1, previous=prev, current=cur))
    return DescentReport(violations=violations, n_steps=max(len(costs) - 1, 0))
