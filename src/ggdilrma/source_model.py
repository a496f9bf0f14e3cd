"""Generalized-Gaussian source model and its low-rank (NMF) updates.

Each source spectrogram entry is modeled by an isotropic complex
generalized Gaussian with shape ``beta`` and a time-frequency-varying
scale ``r`` tied to nonnegative factors through the domain parameter
``p``::

    r[i, j, n] ** p = sum_k t[i, k, n] * v[k, j, n]

The factors are refined by majorization-minimization multiplicative
updates::

    t_ikn <- t_ikn * [ (beta * sum_j |y|^beta / S^(beta/p + 1) * v_kjn)
                       / (2 * sum_j v_kjn / S) ] ** (p / (beta + p))

with ``S = sum_k t v``; activations mirror the rule with roles of ``t``
and ``v`` (and the frame/bin sums) exchanged.  One sweep of both updates
never increases the negative log-likelihood for a fixed demixing system.

The per-entry Jensen + tangent-line majorizer behind these updates, and
its equality auxiliaries, live in ``tests/reference_nmf.py`` as a test
oracle, together with a per-source loop form of both updates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonPositiveScale
from .types import EPS_NMF, EPS_Y


def ggd_log_density(z: complex, beta: float, r: float) -> float:
    """Log of the isotropic complex generalized-Gaussian density.

    ``log(beta / (2 pi r^2 Gamma(2/beta))) - |z|^beta / r^beta``.
    """
    if beta <= 0.0:
        raise NonPositiveScale(f"shape parameter must be > 0, got {beta}")
    if r <= 0.0:
        raise NonPositiveScale(f"scale parameter must be > 0, got {r}")
    log_norm = (
        math.log(beta)
        - math.log(2.0 * math.pi)
        - 2.0 * math.log(r)
        - math.lgamma(2.0 / beta)
    )
    return log_norm - (abs(z) / r) ** beta


def scale_field(T: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Scale field ``r**p = sum_k t v`` shaped ``(I, J, N)``."""
    return np.moveaxis(T @ V, 0, 2)


def _whitened_ratio(abs_y: np.ndarray, S: np.ndarray, beta: float, domain: float) -> np.ndarray:
    """``|y|^beta / S^(beta/p)`` computed as ``(|y|^p / S)^(beta/p)``.

    The ratio-first form keeps intermediates near unity; direct powers of
    ``S`` under/overflow when ``beta/p`` is large (e.g. 8 at beta=4, p=0.5).
    """
    return (abs_y**domain / S) ** (beta / domain)


def update_bases_arrays(T, V, abs_y, beta, domain):
    """Multiplicative update of every basis matrix; ``abs_y`` is ``(N, I, J)``."""
    S = T @ V  # (N, I, J)
    ratio = _whitened_ratio(np.maximum(abs_y, EPS_Y), S, beta, domain)
    num = beta * np.einsum("nij,nkj->nik", ratio / S, V)
    den = 2.0 * np.einsum("nij,nkj->nik", 1.0 / S, V)
    T = T * (num / den) ** (domain / (beta + domain))
    return np.maximum(T, EPS_NMF), V


def update_activations_arrays(T, V, abs_y, beta, domain):
    """Multiplicative update of every activation matrix; sums run over bins."""
    S = T @ V  # (N, I, J)
    ratio = _whitened_ratio(np.maximum(abs_y, EPS_Y), S, beta, domain)
    num = beta * np.einsum("nij,nik->nkj", ratio / S, T)
    den = 2.0 * np.einsum("nij,nik->nkj", 1.0 / S, T)
    V = V * (num / den) ** (domain / (beta + domain))
    return T, np.maximum(V, EPS_NMF)


def model_cost_terms(abs_y, S, beta, domain):
    """Per-entry data-fit plus log-scale terms, ``(N, I, J)``.

    ``|y|^beta / S^(beta/p) + (2/p) log S`` -- the non-determinant part of
    the negative log-likelihood, additive constant omitted.
    """
    return _whitened_ratio(abs_y, S, beta, domain) + (2.0 / domain) * np.log(S)
