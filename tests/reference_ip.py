"""Per-filter iterative projection, coded from the AM-GM majorization.

Test oracle for ``ggdilrma.demix_ip``.  It forms each weighted covariance
``F_in`` explicitly, with the weights written as direct powers, and updates
one filter of one bin at a time with a direct solve against ``W_i F_in``.
The batched ``ip_sweep`` that the pipeline runs instead solves through a
QR factor of the weighted observation.

Conventions: mixtures and outputs are ``(I, J, M)``/``(I, J, N)``, the scale
field ``S = r**p`` is ``(I, J, N)``, and a filter ``w`` is the conjugate of
a row of ``W_i``.
"""

import numpy as np

from ggdilrma.errors import SingularCovariance

EPS_Y = 1e-12
EPS_DET = 1e-12


def weighted_covariance(xd, yd, S, beta, domain):
    """``F_in = (beta/2J) sum_j x x^H / (|y|^(2-beta) S^(beta/p))``, ``(I, N, M, M)``."""
    I, J, M = xd.shape
    N = yd.shape[2]
    F = np.empty((I, N, M, M), dtype=np.complex128)
    for n in range(N):
        ay = np.maximum(np.abs(yd[:, :, n]), EPS_Y)
        w = 1.0 / (ay ** (2.0 - beta) * S[:, :, n] ** (beta / domain))
        F[:, n] = (beta / (2.0 * J)) * np.einsum("ija,ij,ijb->iab", xd, w, xd.conj())
    return F


def ip_update_filter(W_i, F_in, n):
    """Closed-form update of filter ``n`` at one bin, normalized to ``w^H F w = 1``."""
    if abs(np.linalg.det(F_in)) <= EPS_DET:
        raise SingularCovariance("weighted covariance below determinant floor")
    e_n = np.zeros(W_i.shape[0], dtype=np.complex128)
    e_n[n] = 1.0
    w = np.linalg.solve(W_i @ F_in, e_n)
    return w / np.sqrt((w.conj() @ F_in @ w).real)


def am_gm_gap(y_abs, alpha, beta):
    """Surrogate-minus-target for the AM-GM bound on ``|y|^beta``.

    ``(beta/2) y^2 / alpha^(2-beta) + (1 - beta/2) alpha^beta - y^beta``;
    nonnegative for 0 < beta <= 2 and zero iff ``alpha = y``.
    """
    y_abs = np.asarray(y_abs, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    return (
        0.5 * beta * y_abs**2 / alpha ** (2.0 - beta)
        + (1.0 - 0.5 * beta) * alpha**beta
        - y_abs**beta
    )
