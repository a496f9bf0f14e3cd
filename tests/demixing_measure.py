"""How far a separation is from the true demixing, on scenes with a known
instantaneous mixing matrix ``A``.

:func:`alignment` measures the demixing matrices themselves: each bin's global
system ``W_i A`` against the pairing of outputs and sources that holds across
the bins.  :func:`oracle_gap` measures the cost: how far the blind run's final
cost sits above the cost at ``W_i = A^-1``, where only the source model is
fitted.  A positive gap means the model prefers ``A^-1`` and the optimizer did
not reach it.
"""

from itertools import permutations

import numpy as np

from ggdilrma import pipeline


def alignment(W, A, source_stfts):
    """``(sir_db, permuted_bins, permuted_share)`` of the demixing matrices ``W``
    ``(I, N, N)`` for the mixing matrix ``A`` ``(N, N)`` and the sources' STFTs
    ``(I, J, N)``.

    In bin ``i`` output ``m`` holds source ``n`` with the power
    ``|(W_i A)[m, n]|^2 E_in``, ``E_in`` the source's energy in the bin; each
    output's powers are divided by their sum, so the scale of a row of ``W_i``
    does not enter.  Each bin's best pairing maximises the normalised powers it
    keeps, and the dominant pairing does that over all bins, each weighted by its
    energy ``sum_n E_in``.  ``sir_db`` is the energy-weighted power the dominant
    pairing keeps over the power it leaves, ``permuted_bins`` the bins whose best
    pairing is another, and ``permuted_share`` their share of the sources' energy.
    """
    energy = np.sum(np.abs(source_stfts) ** 2, axis=1)  # (I, N)
    power = np.abs(W @ A) ** 2 * energy[:, None, :]  # (I, outputs, sources)
    row = power.sum(axis=2, keepdims=True)
    share = np.divide(power, row, out=np.zeros_like(power), where=row > 0)
    pairings = list(permutations(range(A.shape[0])))
    outputs = np.arange(A.shape[0])
    kept = np.stack([share[:, outputs, list(p)].sum(axis=1) for p in pairings], axis=1)
    weight = energy.sum(axis=1)
    dominant = int(np.argmax(weight @ kept))
    permuted = np.flatnonzero((np.argmax(kept, axis=1) != dominant) & (weight > 0))
    left = share.copy()
    left[:, outputs, list(pairings[dominant])] = 0.0
    with np.errstate(divide="ignore"):
        sir_db = 10.0 * np.log10((weight @ kept[:, dominant]) / (weight @ left.sum(axis=(1, 2))))
    return float(sir_db), permuted, float(weight[permuted].sum() / weight.sum())


def oracle_gap(xd, A, cfg, blind_cost, updates=300):
    """``(gap, costs)``: the blind run's final cost ``blind_cost`` minus the cost
    with every ``W_i = A^-1`` and only ``T`` and ``V`` fitted, and that fit's
    costs.

    The fit starts from :func:`~ggdilrma.pipeline.initialize`'s factors for ``cfg``
    on the mixture ``xd`` ``(I, J, N)`` and makes ``updates`` source-model stages
    (:func:`~ggdilrma.pipeline.model_step`), with ``|y|^p`` of the fixed ``A^-1``.
    """
    I, _, N = xd.shape
    _, T, V, _, _, inv_S, _ = pipeline.initialize(cfg, xd)
    W = np.broadcast_to(np.linalg.inv(A).astype(np.complex128), (I, N, N))
    yp = pipeline.separate(xd, W, cfg.domain)
    log_det = np.linalg.slogdet(W)[1]
    costs = []
    for _ in range(updates):
        T, V, cost = pipeline.model_step(T, V, cfg, log_det, inv_S, yp)
        costs.append(cost)
    return blind_cost - costs[-1], costs
