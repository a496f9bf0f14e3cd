"""The property suite's majorizer section, run on every test pass."""

import pytest

from ggdilrma import benchmark


@pytest.mark.parametrize("seed", range(3))
def test_majorizer_trial_holds_the_paper_bound(seed, monkeypatch):
    calls = []
    batched = benchmark.quartic_majorizer

    def spy(*args):
        calls.append(args)
        return batched(*args)

    monkeypatch.setattr(benchmark, "quartic_majorizer", spy)
    worst_gap, worst_eq = benchmark.majorizer_trial(seed, n_draws=200)
    assert len(calls) == 200  # the same batched majorizer the quartic sweep runs
    assert worst_gap >= -1e-10
    assert worst_eq <= 1e-10
