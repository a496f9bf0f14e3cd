"""Negative log-likelihood evaluation and monotonicity auditing.

The cost (additive constant omitted) is

    -2 J sum_i log|det W_i|
    + sum_{i,j,n} [ |y_ijn|^beta / S_ijn^(beta/p) + (2/p) log S_ijn ]

with ``y = W x`` and ``S = sum_k t v``.  It reads the iteration's ``|y|``,
which the NMF updates read too, and never forms ``y``.  For two sources the
log-determinant term is ``log|w_00 w_11 - w_01 w_10|`` in closed form, a few
vector operations where batched LAPACK pays its per-matrix overhead on
every bin; for more sources, and where the closed form is zero or outside
the double range, it is one ``slogdet`` over every bin.  Either way a
singular ``W_i`` raises :class:`~ggdilrma.errors.SingularDemixing` exactly
where ``slogdet`` finds one.  The model terms are summed over blocks of
bins (:func:`~ggdilrma.types.bin_blocks`), so ``S`` is never formed at full
size.  Every update rule in the package is expected to leave this
non-increasing; :func:`audit_descent` lists the iterations of a recorded
cost sequence where it rose.
"""

from __future__ import annotations

import numpy as np

from .errors import singular_demixing
from .source_model import model_cost_terms
from .types import _det2, bin_blocks

#: Relative slack used when flagging cost increases.
DESCENT_SLACK = 1e-9


def _log_abs_det(W: np.ndarray) -> np.ndarray:
    """``log|det W_i|`` per bin; raises ``SingularDemixing`` naming the bin if any
    ``W_i`` is singular.

    Two sources take the closed-form determinant.  Where it is zero or
    outside the double range, ``slogdet`` decides, as it does for more sources.
    """
    if W.shape[1] == 2:
        with np.errstate(over="ignore"):
            absdet = np.abs(_det2(W))
        if np.all(np.isfinite(absdet) & (absdet > 0.0)):
            return np.log(absdet)
    sign, logdet = np.linalg.slogdet(W)
    singular = ~np.isfinite(logdet) | (sign == 0.0)
    if np.any(singular):
        raise singular_demixing(~singular)  # names the first singular bin
    return logdet


def ggd_cost_arrays(abs_y, W, T, V, beta, domain) -> float:
    """Cost of ``W`` given its output magnitudes ``abs_y = |W x|`` shaped
    ``(N, I, J)``; ``W`` is ``(I, N, N)``, factors per-source stacks."""
    logdet = _log_abs_det(W)
    model = 0.0
    for blk in bin_blocks(*abs_y.shape[1:]):
        S = T[:, blk] @ V  # (N, b, J)
        model += np.sum(model_cost_terms(abs_y[:, blk], S, beta, domain))
    return float(-2.0 * abs_y.shape[2] * np.sum(logdet) + model)


def audit_descent(costs) -> list[int]:
    """Iterations (1-based) whose cost rose beyond tolerance.

    ``costs[k]`` is the cost after iteration ``k + 1``.  An increase counts
    when ``cost_k > cost_{k-1} + DESCENT_SLACK * (1 + |cost_{k-1}|)``.
    """
    costs = np.asarray(costs, dtype=np.float64)
    return [
        k + 1
        for k in range(1, len(costs))
        if costs[k] > costs[k - 1] + DESCENT_SLACK * (1.0 + abs(costs[k - 1]))
    ]
