"""The per-iteration contractions written as ``np.einsum`` expressions.

Test oracle for the batched matrix products that ``ggdilrma`` runs in
``pipeline.separate``, ``source_model.ggd_cost_arrays``, the inverse and
log-determinants that ``pipeline.run`` carries beside ``W``,
``demix_homogeneous.quartic_majorizer``, ``demix_homogeneous.mixture_gram``
and the NMF updates in ``source_model``.  Each function spells its sums
out as an index expression on the raw operands, with the scale ``r``
divided into the observation (``Xr = x / r``) rather than folded into the
weights, so it shares no layout or operand order with the package.

Conventions: mixtures and outputs are ``(I, J, M)``/``(I, J, N)``,
demixing matrices ``(I, N, N)``, bases ``T`` ``(N, I, K)``, activations
``V`` ``(N, K, J)`` and magnitudes ``abs_y`` ``(N, I, J)``.
"""

import numpy as np

EPS_NMF = 1e-12
EPS_Y = 1e-12


def separate_einsum(xd, W):
    """``y[i, j, n] = sum_m W[i, n, m] x[i, j, m]``."""
    return np.einsum("inm,ijm->ijn", W, xd)


def magnitudes_einsum(xd, W):
    """``|y[i, j, n]|`` laid out ``(N, I, J)``, as the cost and NMF updates read it."""
    return np.abs(np.einsum("inm,ijm->nij", W, xd))


def inverse_and_log_det(W):
    """``W^{-1}`` ``(I, N, N)`` and ``log|det W_i|`` ``(I,)`` by LAPACK: the state that
    the demixing sweeps update beside ``W``, and the cost's log-determinants."""
    return np.linalg.inv(W), np.linalg.slogdet(W)[1]


def mixture_gram_einsum(xd):
    """Features ``(I, M^2, J)`` of ``P_j = x_j x_j^H``: the diagonal of ``P``,
    then the real and the imaginary parts of its strict upper triangle."""
    M = xd.shape[2]
    P = np.einsum("ijm,ijn->imnj", xd, xd.conj())
    upper = [P[:, m, n] for m in range(M) for n in range(m + 1, M)]
    diag = [P[:, m, m].real for m in range(M)]
    return np.stack(diag + [u.real for u in upper] + [u.imag for u in upper], axis=1)


def output_power_einsum(xd, W):
    """``|y[i, j, n]|^2`` as the Hermitian form ``sum_mm' W_nm conj(W_nm') P_mm'``."""
    P = np.einsum("ijm,ijn->ijmn", xd, xd.conj())
    return np.einsum("ikm,ikn,ijmn->ijk", W, W.conj(), P).real


def quartic_majorizer_einsum(xd, y, radius):
    """``G = [||q~||^2 C + D - u u^H] / sqrt(J sum_j |q~_j|^4)`` and its mask."""
    J = xd.shape[1]
    Xr = xd / radius[:, :, None]
    q = y.conj() / radius
    aq2 = np.abs(q) ** 2
    s4 = np.sum(aq2**2, axis=1)
    norm_q2 = np.sum(aq2, axis=1)
    good = np.isfinite(s4) & (s4 > 0.0)
    weights = norm_q2[:, None] + aq2
    CD = np.einsum("ij,ija,ijb->iab", weights, Xr, Xr.conj())
    u = np.einsum("ij,ijm->im", q, Xr)
    denom = np.sqrt(J * np.where(good, s4, 1.0))
    G = (CD - u[:, :, None] * u.conj()[:, None, :]) / denom[:, None, None]
    return G, good


def _ratio(abs_y, S, beta, p):
    return (np.maximum(abs_y, EPS_Y) ** p / S) ** (beta / p)


def update_bases_einsum(T, V, abs_y, beta, p):
    """Basis update with the frame sums as ``nij,nkj->nik``."""
    S = np.einsum("nik,nkj->nij", T, V)
    ratio = _ratio(abs_y, S, beta, p)
    num = beta * np.einsum("nij,nkj->nik", ratio / S, V)
    den = 2.0 * np.einsum("nij,nkj->nik", 1.0 / S, V)
    return np.maximum(T * (num / den) ** (p / (beta + p)), EPS_NMF)


def update_activations_einsum(T, V, abs_y, beta, p):
    """Activation update with the bin sums as ``nij,nik->nkj``."""
    S = np.einsum("nik,nkj->nij", T, V)
    ratio = _ratio(abs_y, S, beta, p)
    num = beta * np.einsum("nij,nik->nkj", ratio / S, T)
    den = 2.0 * np.einsum("nij,nik->nkj", 1.0 / S, T)
    return np.maximum(V * (num / den) ** (p / (beta + p)), EPS_NMF)


def ggd_cost_einsum(xd, W, T, V, beta, p):
    """``-2 J sum_i log|det W_i| + sum [|y|^beta / S^(beta/p) + (2/p) log S]``."""
    J = xd.shape[1]
    abs_y = magnitudes_einsum(xd, W)
    S = np.einsum("nik,nkj->nij", T, V)
    terms = (abs_y**p / S) ** (beta / p) + (2.0 / p) * np.log(S)
    return float(-2.0 * J * np.sum(np.linalg.slogdet(W)[1]) + np.sum(terms))
