"""The general pipeline against the stand-alone IS-ILRMA oracle."""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_contractions import ggd_cost_einsum, inverse_and_log_det
from reference_is_ilrma import is_ilrma_reference
from reference_nmf import scale_field

from ggdilrma import pipeline
from ggdilrma.benchmark import SAMPLE_RATE, make_test_scene, random_mixture
from ggdilrma.cost import audit_descent
from ggdilrma.demix_homogeneous import mixture_gram
from ggdilrma.errors import DegenerateShape, InvalidInput, SilentMixture
from ggdilrma.types import GgdConfig, ProblemShape
from ggdilrma.workflows import separate_audio


def test_gaussian_case_matches_is_ilrma_reference():
    # beta = p = 2 is exactly Itakura-Saito ILRMA: same costs, W and T
    x = random_mixture(9, 40, 2, seed=7)
    cfg = GgdConfig(beta=2.0, domain=2.0, n_bases=3, iterations=15, seed=7)
    result = pipeline.run(x, cfg)
    W, T, _, costs = is_ilrma_reference(x.data, K=3, iterations=15, seed=7)
    np.testing.assert_allclose(result.trace.costs(), costs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(result.W, W, rtol=1e-12, atol=0)
    np.testing.assert_allclose(result.T, T, rtol=1e-12, atol=0)


@pytest.mark.parametrize("beta", [4.0, 2.0])
def test_run_returns_c_contiguous_sources(beta):
    # The projected sources are (I, J, N) in row-major order, as separate's
    # outputs are, whatever the number of sources or the update.
    x = random_mixture(9, 40, 3, seed=5)
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=2, iterations=2, seed=5)
    data = pipeline.run(x, cfg).sources.data
    assert data.shape == (9, 40, 3)
    assert data.flags.c_contiguous


@pytest.mark.parametrize("beta", [4.0, 2.0])
@pytest.mark.parametrize("N", [2, 3])
def test_step_reports_the_cost_of_the_state_it_returns(N, beta):
    # The cost reads the magnitudes the NMF updates read: those of the swept W.
    I, J, K = 9, 40, 3
    xd = random_mixture(I, J, N, seed=11).data
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=K, iterations=3, seed=11)
    W, T, V, W_inv, log_det, inv_S, yp = pipeline.initialize(cfg, ProblemShape(I, J, N, K), xd)
    gram = mixture_gram(xd) if cfg.update_scheme == "quartic" else None
    for _ in range(cfg.iterations):
        W, T, V, cost, _ = pipeline.iteration_step(
            xd, W, T, V, cfg, gram, W_inv, log_det, inv_S, yp
        )
        assert cost == pytest.approx(ggd_cost_einsum(xd, W, T, V, beta, 0.5), rel=1e-12)


#: Bounds on the drift of the carried state from LAPACK's, after up to 20
#: iterations: ``W^-1`` per bin relative to its largest entry, and
#: ``log|det W_i|`` absolute.  Over 3000 draws of this test's strategy the
#: largest were 1.8e-15 and 2.1e-14.
INVERSE_DRIFT = 1e-14
LOG_DET_DRIFT = 1e-13


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(1, 4),
    beta=st.sampled_from([1.0, 2.0, 4.0]),
    iterations=st.integers(1, 20),
    seed=st.integers(0, 2**16),
)
def test_carried_inverse_and_log_det_match_lapack(N, beta, iterations, seed):
    # No re-sync: each update's Sherman-Morrison step and log|d| stay at roundoff.
    I, J, K = 5, 24, 2
    xd = random_mixture(I, J, N, seed=seed).data
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=K, iterations=iterations, seed=seed)
    W, T, V, W_inv, log_det, inv_S, yp = pipeline.initialize(cfg, ProblemShape(I, J, N, K), xd)
    gram = mixture_gram(xd) if cfg.update_scheme == "quartic" else None
    for _ in range(iterations):
        W, T, V, _, _ = pipeline.iteration_step(xd, W, T, V, cfg, gram, W_inv, log_det, inv_S, yp)
    inv_ref, log_det_ref = inverse_and_log_det(W)
    largest = np.max(np.abs(inv_ref), axis=(1, 2), keepdims=True)
    assert np.max(np.abs(W_inv - inv_ref) / largest) <= INVERSE_DRIFT
    assert np.max(np.abs(log_det - log_det_ref)) <= LOG_DET_DRIFT


#: Bound on the carried ``1 / S`` field's gap to the reciprocal of the einsum
#: oracle of ``S = T V``, relative per entry: both are reciprocals of sums of
#: K = 2 positive products.  Over 600 draws of this strategy the largest gap was
#: 3.1e-16.
SCALE_RTOL = 1e-15


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(1, 4),
    beta=st.sampled_from([1.0, 2.0, 4.0]),
    iterations=st.integers(1, 20),
    seed=st.integers(0, 2**16),
)
def test_carried_scale_field_is_the_product_of_the_factors(N, beta, iterations, seed):
    # The step's cost pass writes 1 / S in the buffer it was given, after the
    # activation update, so the next sweep and basis update read 1 / (T V) of the
    # factors it returns.
    # It refreshes |y|^p in its buffer after the sweep, with the bits a fresh
    # separation gives: at entry, where W = I, that is |x|^p exactly.
    I, J, K = 5, 24, 2
    xd = random_mixture(I, J, N, seed=seed).data
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=K, iterations=iterations, seed=seed)
    W, T, V, W_inv, log_det, inv_S, yp = pipeline.initialize(cfg, ProblemShape(I, J, N, K), xd)
    gram = mixture_gram(xd) if cfg.update_scheme == "quartic" else None

    def assert_carried():
        S = np.moveaxis(scale_field(T, V), 2, 0)
        np.testing.assert_allclose(inv_S, 1.0 / S, rtol=SCALE_RTOL)
        fresh = np.abs(np.moveaxis(pipeline.separate(xd, W), 2, 0)) ** cfg.domain
        np.testing.assert_array_equal(yp, fresh)

    assert_carried()
    for _ in range(iterations):
        W, T, V, _, _ = pipeline.iteration_step(xd, W, T, V, cfg, gram, W_inv, log_det, inv_S, yp)
        assert_carried()


#: Bound on the gap between ``run(c x).sources / c`` and ``run(x).sources``,
#: relative to the largest source entry.  Over c in [1e-3, 1e4] and the four
#: settings below the largest was 1.9e-14.
LOUDNESS_RTOL = 1e-12

LOUDNESS_MIXTURE = random_mixture(16, 24, 2, seed=7)


@cache
def loudness_reference(beta, p):
    cfg = GgdConfig(beta=beta, domain=p, n_bases=2, iterations=20, seed=7)
    return cfg, pipeline.run(LOUDNESS_MIXTURE, cfg).sources.data


#: log10 of the loudness range per (beta, p).  The quartic Cholesky guard is
#: relative, so beta = 4 holds down to 1e-8; IP's det F guard is absolute, and
#: IP at beta = 2 raises SingularCovariance below about 1e-5 (ROADMAP, Known defects).
LOUDNESS_RANGES = {
    (4.0, 1.0): (-8.0, 4.0),
    (4.0, 0.5): (-8.0, 4.0),
    (2.0, 2.0): (-3.0, 4.0),
    (2.0, 0.5): (-3.0, 4.0),
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(LOUDNESS_RANGES)).flatmap(
        lambda beta_p: st.tuples(st.just(beta_p), st.floats(*LOUDNESS_RANGES[beta_p]))
    )
)
def test_sources_scale_with_the_input(case):
    # At these shapes the first sweep's normalisation (IP at beta = 2) or scale step
    # (quartic) absorbs c into W, so the factors follow the same path at every c and
    # the sources scale by c.  IP at beta = 1.5, p = 2 does not (ROADMAP, Known
    # defects).
    beta_p, log_c = case
    cfg, ref = loudness_reference(*beta_p)
    c = 10.0**log_c
    loud = pipeline.run(replace(LOUDNESS_MIXTURE, data=c * LOUDNESS_MIXTURE.data), cfg)
    gap = np.max(np.abs(loud.sources.data / c - ref))
    assert gap <= LOUDNESS_RTOL * np.max(np.abs(ref))


class LinalgCalled(Exception):
    pass


@pytest.mark.parametrize("beta", [4.0, 2.0])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_separation_calls_no_linalg(N, beta, monkeypatch):
    # W^-1 e_n, the cost's log|det W| and back-projection's row of W^-1 are read from
    # the carried inverse, and both sweeps factor and solve by substitution.
    def no_linalg(*args, **kwargs):
        raise LinalgCalled

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, no_linalg)
    x = random_mixture(9, 40, N, seed=12)
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=3, iterations=3, seed=12)
    projected = pipeline.run(x, cfg, reference_channel=N - 1).sources.data
    # The back-projected sources add up to the reference channel.
    reference = x.data[:, :, N - 1]
    atol = 1e-12 * np.abs(reference).max()
    np.testing.assert_allclose(projected.sum(axis=2), reference, rtol=0, atol=atol)


def test_three_source_ip_iteration_runs_without_qr(monkeypatch):
    # Every N takes the triangular factor by modified Gram-Schmidt.
    def no_qr(*args, **kwargs):
        raise LinalgCalled

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    I, J, K, N = 9, 40, 3, 3
    xd = random_mixture(I, J, N, seed=12).data
    cfg = GgdConfig(beta=2.0, domain=0.5, n_bases=K, iterations=1, seed=12)
    W, T, V, W_inv, log_det, inv_S, yp = pipeline.initialize(cfg, ProblemShape(I, J, N, K), xd)
    pipeline.iteration_step(xd, W, T, V, cfg, None, W_inv, log_det, inv_S, yp)


@pytest.mark.parametrize("beta, per_iteration", [(2.0, 1), (1.0, 1), (4.0, 2)])
def test_run_counts_its_separations(beta, per_iteration, monkeypatch):
    # The IP sweep reads the carried |y|^p, so an IP iteration separates once (the
    # refresh of |y|^p); the quartic sweep is handed |y~|^2 of the entry W as well.
    # The last separation is back-projection's.
    calls = []
    original = pipeline.separate

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(pipeline, "separate", counted)
    iters = 3
    x = random_mixture(9, 40, 2, seed=13)
    pipeline.run(x, GgdConfig(beta=beta, domain=0.5, n_bases=3, iterations=iters, seed=13))
    assert len(calls) == per_iteration * iters + 1


@pytest.mark.parametrize("channel", [-1, 2])
def test_reference_channel_outside_the_mixture_is_rejected_first(channel, monkeypatch):
    def no_initialize(*args):
        raise AssertionError("initialize ran before the reference channel was checked")

    monkeypatch.setattr(pipeline, "initialize", no_initialize)
    x = random_mixture(5, 8, 2, seed=0)
    cfg = GgdConfig(beta=2.0, domain=2.0, n_bases=2, iterations=2)
    with pytest.raises(DegenerateShape, match="reference channel"):
        pipeline.run(x, cfg, reference_channel=channel)


@pytest.mark.parametrize("beta", [4.0, 2.0, 1.5])
def test_silent_mixture_is_refused_before_any_iteration(beta, monkeypatch):
    # Left to the updates, beta = 4 would skip every update and return zeros with a
    # falling cost, and beta <= 2 would raise SingularCovariance from the first sweep.
    def no_initialize(*args):
        raise AssertionError("initialize ran on a silent mixture")

    monkeypatch.setattr(pipeline, "initialize", no_initialize)
    x = random_mixture(33, 20, 2, seed=0)
    x.data[:] = 0.0
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=2, iterations=3)
    records = []
    with pytest.raises(SilentMixture, match="zero everywhere") as info:
        pipeline.run(x, cfg, on_record=records.append)
    assert not isinstance(info.value, InvalidInput)  # a numerical failure: CLI exit 3
    assert records == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ip_runs_clean_on_collapsing_scenes(seed):
    # 2 s property-suite scenes that collapse under IP; an F formed from the
    # mixture_gram features raises SingularCovariance on each of them, and so
    # does an r11 taken as the Schur complement F_11 - |F_01|^2 / F_00, while
    # the modified Gram-Schmidt factor of ip_sweep keeps det F above the floor
    # and descends.
    _, mixture = make_test_scene(seed, 2.0)
    cfg = GgdConfig(beta=2.0, domain=0.5, n_bases=20, iterations=20, seed=seed)
    _, result = separate_audio(mixture, SAMPLE_RATE, cfg, win_ms=64.0, hop_ms=32.0)
    assert audit_descent(result.trace.costs()) == []
