"""Per-filter quartic (shape 4) demixing update, coded from the paper's steps.

Test oracle for ``ggdilrma.demix_homogeneous``.  It works on one bin and
one filter at a time through the generic direction/scale step, and builds
the majorizer in its direct O(J^2) form, with the J x J inner matrix
materialized.  It shares no code with the batched, streamed
``quartic_majorizer``/``quartic_sweep`` that the pipeline runs.

Conventions: ``x_slab`` is one bin's observation ``(J, M)``, ``r_col`` its
positive scales ``(J,)``, and a filter ``w`` is the conjugate of a row of
``W_i`` (``y_j = w^H x_j``).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class HomogeneousObjective:
    """A per-filter cost: degree-``d`` homogeneous with convex sublevels."""

    degree: float
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


def quadratic_objective(F):
    """``f(w) = w^H F w`` for Hermitian PSD ``F`` (degree 2)."""
    return HomogeneousObjective(
        degree=2.0,
        evaluate=lambda w: float((w.conj() @ F @ w).real),
        gradient=lambda w: F @ w,
    )


def quartic_objective(x_slab, r_col):
    """``f(w) = (1/J) sum_j |w^H x_j|^4 / r_j^4`` (degree 4)."""
    Xr = x_slab / r_col[:, None]
    J = x_slab.shape[0]

    def evaluate(w):
        q = Xr.conj() @ w
        return float(np.sum(np.abs(q) ** 4)) / J

    def gradient(w):
        q = Xr.conj() @ w
        return (2.0 / J) * (Xr.T @ (np.abs(q) ** 2 * q))

    return HomogeneousObjective(degree=4.0, evaluate=evaluate, gradient=gradient)


def optimal_scale(degree):
    """Minimizer of ``-2 log(eta) + eta**degree`` over positive ``eta``."""
    return (2.0 / degree) ** (1.0 / degree)


def direction_scale_step(obj, W_i, n, direction_solver):
    """One filter update: solver-provided direction, closed-form scale.

    The solver must return ``w'`` whose objective gradient is parallel to
    ``W_i^{-1} e_n``; the returned filter satisfies ``f(w) = 2/degree``.
    """
    w_dir = direction_solver(obj, W_i, n)
    f_val = obj.evaluate(w_dir)
    if not np.isfinite(f_val) or f_val <= 0.0:
        raise ValueError(f"direction has non-positive objective value {f_val}")
    return w_dir * (2.0 / (obj.degree * f_val)) ** (1.0 / obj.degree)


def quartic_majorizer_direct(x_slab, r_col, w_ref):
    """``G = H Q~ H^H / sqrt(J sum_j |q~_j|^4)`` with ``Q~`` materialized."""
    J = x_slab.shape[0]
    H = (x_slab / r_col[:, None]).T  # (M, J), columns x_j / r_j
    q = H.conj().T @ w_ref
    Q = (
        np.linalg.norm(q) ** 2 * np.eye(J)
        - np.outer(q, q.conj())
        + np.diag(np.abs(q) ** 2)
    )
    return H @ Q @ H.conj().T / np.sqrt(J * np.sum(np.abs(q) ** 4))


def quartic_update_filter(x_slab, r_col, W_i, n):
    """Majorize-then-update of filter ``n`` at one bin.

    Builds ``G`` at the current filter (row ``n`` of ``W_i``), solves the
    direction ``G^{-1} W_i^{-1} e_n``, then rescales with the true quartic
    cost so that ``f(w) = 1/2``.
    """
    G = quartic_majorizer_direct(x_slab, r_col, W_i[n].conj())

    def solver(obj, W, row):
        e_n = np.zeros(W.shape[0], dtype=np.complex128)
        e_n[row] = 1.0
        return np.linalg.solve(W @ G, e_n)

    return direction_scale_step(quartic_objective(x_slab, r_col), W_i, n, solver)
