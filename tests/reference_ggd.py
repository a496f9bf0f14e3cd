"""Isotropic complex generalized-Gaussian log density.

Test oracle for ``ggdilrma.source_model.model_cost_terms``: for
``r**p = S`` the package's per-entry model term is
``-log density(y; beta, r)`` plus a constant that depends on ``beta``
alone.
"""

import math


def ggd_log_density(z: complex, beta: float, r: float) -> float:
    """Log of the isotropic complex generalized-Gaussian density.

    ``log(beta / (2 pi r^2 Gamma(2/beta))) - |z|^beta / r^beta``.
    """
    if beta <= 0.0:
        raise ValueError(f"shape parameter must be > 0, got {beta}")
    if r <= 0.0:
        raise ValueError(f"scale parameter must be > 0, got {r}")
    return log_normalizer(beta) - 2.0 * math.log(r) - (abs(z) / r) ** beta


def log_normalizer(beta: float) -> float:
    """``log(beta / (2 pi Gamma(2/beta)))``, the density's ``r``-free constant."""
    return math.log(beta) - math.log(2.0 * math.pi) - math.lgamma(2.0 / beta)
