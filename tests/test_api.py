"""The package's top-level names: what ``run`` and the CLI take and return."""

import ggdilrma

PUBLIC = {
    "ConvergenceTrace",
    "GgdConfig",
    "MixingSpec",
    "MixtureSpectrogram",
    "RunResult",
    "SeparationError",
    "SourceSpectrogram",
    "StftPlan",
    "align_permutation",
    "audit_descent",
    "istft",
    "mix",
    "read_wav",
    "run",
    "si_sdr",
    "stft",
    "synth_source",
    "write_wav",
}


def test_all_is_the_user_facing_surface():
    assert sorted(ggdilrma.__all__) == sorted(PUBLIC)
    assert all(hasattr(ggdilrma, name) for name in ggdilrma.__all__)
