"""Problem validation, configuration checks, and the trace record format."""

import json

import numpy as np
import pytest

from ggdilrma.errors import DegenerateShape, NonFiniteInput, UnsupportedBeta
from ggdilrma.types import GgdConfig, MixtureSpectrogram, TraceRecord, validate_problem


def make_mixture(I=8, J=16, M=2, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((I, J, M)) + 1j * rng.standard_normal((I, J, M))
    return MixtureSpectrogram(
        data=data, sample_rate=16000, frame_len=2 * (I - 1), hop_len=I - 1
    )


class TestValidateProblem:
    def test_valid_descriptor(self):
        x = make_mixture(I=8, J=16, M=2)
        cfg = GgdConfig(beta=4.0, domain=0.5, n_bases=2)
        shape = validate_problem(x, cfg)
        assert (shape.n_bins, shape.n_frames, shape.n_sources, shape.n_bases) == (
            8,
            16,
            2,
            2,
        )

    @pytest.mark.parametrize("beta", [3.0, 2.5, 5.0, 0.0, -1.0, 4.0001])
    def test_unsupported_beta(self, beta):
        x = make_mixture()
        with pytest.raises(UnsupportedBeta):
            validate_problem(x, GgdConfig(beta=beta))

    @pytest.mark.parametrize("beta", [0.3, 1.0, 1.99, 2.0, 4.0])
    def test_supported_beta(self, beta):
        x = make_mixture()
        validate_problem(x, GgdConfig(beta=beta))

    def test_nan_input(self):
        x = make_mixture()
        x.data[3, 5, 1] = np.nan
        with pytest.raises(NonFiniteInput):
            validate_problem(x, GgdConfig())

    def test_empty_dimension(self):
        data = np.zeros((4, 0, 2), dtype=np.complex128)
        x = MixtureSpectrogram(data=data, sample_rate=16000, frame_len=6, hop_len=3)
        with pytest.raises(DegenerateShape):
            validate_problem(x, GgdConfig())

    def test_message_lists_every_violation(self):
        x = make_mixture()
        x.data[0, 0, 0] = np.inf
        with pytest.raises((NonFiniteInput, UnsupportedBeta)) as err:
            validate_problem(x, GgdConfig(beta=3.0))
        assert "beta" in str(err.value)
        assert "NaN/Inf" in str(err.value)


class TestGgdConfig:
    def test_update_scheme(self):
        assert GgdConfig(beta=2.0).update_scheme == "ip"
        assert GgdConfig(beta=0.5).update_scheme == "ip"
        assert GgdConfig(beta=4.0).update_scheme == "quartic"

    def test_validate_rejects_bad_domain(self):
        with pytest.raises(UnsupportedBeta):
            GgdConfig(domain=0.0).validate()

    def test_validate_rejects_bad_rank(self):
        with pytest.raises(DegenerateShape):
            GgdConfig(n_bases=0).validate()


class TestTrace:
    def test_jsonl_round_trip(self):
        records = [
            TraceRecord(iteration=1, cost=10.5, elapsed_ms=3.25, skipped_updates=0),
            TraceRecord(iteration=2, cost=-7.0, elapsed_ms=2.5, skipped_updates=3),
        ]
        for rec in records:
            obj = json.loads(rec.to_json())
            again = TraceRecord(
                iteration=obj["iter"],
                cost=obj["cost"],
                elapsed_ms=obj["elapsed_ms"],
                skipped_updates=obj["skipped_updates"],
            )
            assert again == rec
