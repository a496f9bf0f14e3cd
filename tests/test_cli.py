"""Command-line workflows: simulate -> separate -> evaluate compose."""

import builtins
import inspect
import json

import numpy as np
import pytest

from ggdilrma import cli, errors
from ggdilrma.cli import main
from ggdilrma.mixsim import write_wav
from ggdilrma.types import GgdConfig, audit_descent
from ggdilrma.workflows import separate_audio

TRACE_KEYS = {"iter", "cost", "elapsed_ms", "skipped_updates"}


def test_simulate_separate_evaluate_compose(tmp_path):
    scene, est = tmp_path / "scene", tmp_path / "est"
    mixture, trace, rows = scene / "mix.wav", tmp_path / "t.jsonl", tmp_path / "rows.jsonl"
    simulate = ["simulate", "--out", str(mixture), "--matrix", "1,0.6;0.5,1"]
    simulate += ["--kind", "low_rank_tonal", "subgaussian", "--len-s", "2"]
    assert main(simulate) == 0

    separate = ["separate", "--input", str(mixture), "--out-dir", str(est)]
    separate += ["--iters", "5", "--bases", "2", "--trace", str(trace)]
    assert main(separate) == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [r["iter"] for r in records] == [1, 2, 3, 4, 5]
    assert all(set(r) == TRACE_KEYS for r in records)
    assert audit_descent([r["cost"] for r in records]) == []

    # the mixture sits next to ref_1.wav and ref_2.wav but is not a reference
    evaluate = ["evaluate", "--est", str(est), "--ref", str(scene), "--mix", str(mixture)]
    assert main(evaluate + ["--jsonl", str(rows)]) == 0
    assert [json.loads(line)["source"] for line in rows.read_text().splitlines()] == [1, 2]


@pytest.mark.parametrize(
    "argv",
    [
        ["separate", "--input", "in.wav", "--out-dir", "out", "--threads", "1"],
        ["benchmark", "--threads", "1"],
        # The suite runs only at its fixed settings.
        ["benchmark", "--trials", "1"],
        ["benchmark", "--seed", "0"],
        ["benchmark", "--e2e-duration-s", "1"],
        ["benchmark", "--e2e-iters", "2"],
    ],
)
def test_threads_flag_is_a_usage_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert argv[-2] in err and len(err.splitlines()) == 1


def test_separate_defaults_are_the_library_defaults():
    args = cli._build_parser().parse_args(["separate", "--input", "a", "--out-dir", "b"])
    parsed = GgdConfig(
        beta=args.beta, domain=args.p, n_bases=args.bases, iterations=args.iters, seed=args.seed
    )
    assert parsed == GgdConfig()
    params = inspect.signature(separate_audio).parameters
    assert (args.win_ms, args.hop_ms) == (params["win_ms"].default, params["hop_ms"].default)


def test_inject_fault_flag_is_a_usage_error(capsys):
    assert main(["benchmark", "--inject-fault"]) == 1
    assert "--inject-fault" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--p", "nan"], "UnsupportedBeta"),
        (["--p", "inf"], "UnsupportedBeta"),
        (["--win-ms", "nan"], "ShapeMismatch"),
        (["--hop-ms", "inf"], "ShapeMismatch"),
        (["--win-ms", "0"], "ShapeMismatch"),
        (["--hop-ms", "-64"], "ShapeMismatch"),
    ],
)
def test_non_finite_or_non_positive_setting_exits_1(flags, error, tmp_path, capsys):
    clip = tmp_path / "clip.wav"
    write_wav(str(clip), 0.1 * np.random.default_rng(0).standard_normal((16000, 2)), 16000)
    argv = ["separate", "--input", str(clip), "--out-dir", str(tmp_path / "out")]
    assert main(argv + ["--iters", "2", "--bases", "2"] + flags) == 1
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("hop_ms", ["100", "1e30", "1e308"])
def test_hop_longer_than_half_the_window_exits_1(hop_ms, tmp_path, capsys):
    # 1e308 ms is an infinite hop in samples: rejected before any int().
    clip = tmp_path / "clip.wav"
    write_wav(str(clip), 0.1 * np.random.default_rng(0).standard_normal((16000, 2)), 16000)
    argv = ["separate", "--input", str(clip), "--out-dir", str(tmp_path / "out")]
    assert main(argv + ["--iters", "2", "--bases", "2", "--hop-ms", hop_ms]) == 1
    err = capsys.readouterr().err
    assert "ShapeMismatch" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["separate", "--input", "clip.wav", "--out-dir", "out", "--iters", "2", "--bases", "2"],
        ["simulate", "--out", "mix.wav", "--matrix", "1,0.5;0.5,1", "--len-s", "1"],
    ],
)
def test_negative_seed_exits_1(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_wav("clip.wav", 0.1 * np.random.default_rng(0).standard_normal((16000, 2)), 16000)
    assert main(argv + ["--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "--seed" in err and len(err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["clip.wav"]  # nothing synthesized or written


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--out", "mix.wav", "--matrix", "1,0.5;0.5,1", "--len-s", "nan"],
        ["simulate", "--out", "mix.wav", "--matrix", "1,0.5;0.5,1", "--len-s", "inf"],
        ["simulate", "--out", "mix.wav", "--matrix", "1,0.5;0.5,1", "--sample-rate", "0"],
        ["simulate", "--out", "mix.wav", "--matrix", "1,0.5;0.5,1", "--sample-rate", "-8000"],
    ],
)
def test_non_finite_duration_or_no_trials_exits_1(argv, tmp_path, monkeypatch, capsys):
    # Rejected at parse time: nothing is synthesized, run or written.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert argv[-2] in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "duration",
    [["--len-s", "1e-5"], ["--len-s", "0.5", "--sample-rate", "1"]],
)
def test_duration_of_no_samples_exits_1_naming_both_flags(duration, tmp_path, monkeypatch, capsys):
    # Each flag is valid alone; their product rounds to 0 samples.
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--out", "mix.wav", "--matrix", "1,0.5;0.5,1", *duration]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert "--len-s" in captured.err and "--sample-rate" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "mixing", [["--matrix", "1,0.5;0.5,1"], ["--ir-dir", "irs"]], ids=["matrix", "ir-dir"]
)
def test_empty_source_wavs_exit_1_and_write_nothing(mixing, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "irs").mkdir()
    for m in (1, 2):
        for n in (1, 2):
            write_wav(f"irs/ir_m{m}_n{n}.wav", np.array([1.0, 0.5, 0.25]), 16000)
    for name in ("e1.wav", "e2.wav"):
        write_wav(name, np.zeros(0), 16000)
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = ["simulate", "--sources", "e1.wav", "e2.wav", *mixing, "--out", "out/m.wav"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: DegenerateShape: sources must have at least one sample"
    ]
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("matrix", ["inf,1;1,1", "nan,1;1,1"])
def test_non_finite_mixing_gain_exits_1_and_writes_nothing(matrix, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--out", "mix.wav", "--matrix", matrix, "--len-s", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: NonFiniteInput: mixing gains must be finite"]
    assert list(tmp_path.iterdir()) == []


def test_mixture_overflowing_float32_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # The gain is finite, but the mixed samples overflow 32-bit floats.
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--out", "newdir/mix.wav", "--matrix", "1e39,1;1,1", "--len-s", "0.5"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: NonFiniteInput: --matrix gives a mixture that is not finite as 32-bit floats"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "out_dir, trace, error",
    [("e4", "nodir/t.jsonl", "FileNotFoundError"), ("mix.wav/e4", "t.jsonl", "NotADirectoryError")],
)
def test_unwritable_trace_or_out_dir_exits_2_and_leaves_nothing(
    out_dir, trace, error, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    write_wav("mix.wav", 0.1 * np.random.default_rng(0).standard_normal((8000, 2)), 16000)
    argv = ["separate", "--input", "mix.wav", "--out-dir", out_dir, "--trace", trace]
    assert main(argv + ["--iters", "1", "--bases", "2"]) == 2
    assert f"I/O error: {error}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mix.wav"]


@pytest.mark.parametrize("win_ms", ["1e30", "1e308"])
def test_window_longer_than_the_signal_exits_1(win_ms, tmp_path, capsys):
    # Checked before any window is built: a 1e30 ms window would need 1.6e31
    # samples, and 1e308 ms overflows to an infinite frame length.
    clip = tmp_path / "clip.wav"
    write_wav(str(clip), 0.1 * np.random.default_rng(0).standard_normal((16000, 2)), 16000)
    argv = ["separate", "--input", str(clip), "--out-dir", str(tmp_path / "out")]
    assert main(argv + ["--iters", "2", "--bases", "2", "--win-ms", win_ms]) == 1
    assert "SignalTooShort" in capsys.readouterr().err


def test_wav_cut_short_inside_its_fmt_chunk_exits_2(tmp_path, capsys):
    clip = tmp_path / "clip.wav"
    write_wav(str(clip), 0.1 * np.random.default_rng(0).standard_normal((16000, 2)), 16000)
    clip.write_bytes(clip.read_bytes()[:20])
    argv = ["separate", "--input", str(clip), "--out-dir", str(tmp_path / "out")]
    assert main(argv + ["--iters", "2", "--bases", "2"]) == 2
    err = capsys.readouterr().err
    assert "UnsupportedFormat" in err and len(err.splitlines()) == 1


def test_silent_wav_exits_3_and_writes_no_trace_record(tmp_path, capsys):
    clip, trace = tmp_path / "silent.wav", tmp_path / "t.jsonl"
    write_wav(str(clip), np.zeros((16000, 2)), 16000)
    argv = ["separate", "--input", str(clip), "--out-dir", str(tmp_path / "out")]
    assert main(argv + ["--iters", "2", "--bases", "2", "--trace", str(trace)]) == 3
    assert "SilentMixture" in capsys.readouterr().err
    assert not trace.exists() or trace.read_text() == ""


def test_cost_that_is_not_finite_exits_3_and_writes_no_trace_record(tmp_path, capsys):
    # At --p 1e-3 the whitened ratio is raised to beta / p = 4000 and overflows in
    # the first iteration, whose cost is then not finite.
    mixture, out, trace = tmp_path / "mix.wav", tmp_path / "out", tmp_path / "t.jsonl"
    assert main(["simulate", "--out", str(mixture), "--matrix", "1,0.6;0.5,1", "--len-s", "1"]) == 0
    argv = ["separate", "--input", str(mixture), "--out-dir", str(out), "--p", "1e-3"]
    with pytest.warns(RuntimeWarning):
        assert main(argv + ["--iters", "3", "--trace", str(trace)]) == 3
    assert "NonFiniteCost" in capsys.readouterr().err
    assert trace.read_text() == ""
    assert not list(out.glob("source_*.wav"))


def test_weights_underflowing_at_a_large_beta_over_p_exit_3_naming_it(tmp_path, capsys):
    # At beta = 2, --p 1e-3 raises 1 / S to beta / p = 2000: every IP weight
    # underflows to zero, so the first sweep's covariance is singular.
    mixture, out = tmp_path / "mix.wav", tmp_path / "out"
    assert main(["simulate", "--out", str(mixture), "--matrix", "1,0.6;0.5,1", "--len-s", "1"]) == 0
    argv = ["separate", "--input", str(mixture), "--out-dir", str(out), "--beta", "2"]
    assert main(argv + ["--p", "1e-3", "--iters", "3"]) == 3
    err = capsys.readouterr().err
    assert "SingularCovariance" in err and "beta/p = 2000" in err
    assert not list(out.glob("*.wav"))


def test_weights_overflowing_at_a_large_beta_over_p_exit_3_naming_it_without_warning(
    tmp_path, capsys
):
    # At beta = 1.5, --p 1e-3 raises 1 / S to beta / p = 1500: the IP weights
    # overflow, so the factor of the first sweep is not finite in some bins.  That
    # is a singular covariance, raised with no numpy warning on the way (the suite
    # turns a RuntimeWarning into an error).
    mixture, out = tmp_path / "mix.wav", tmp_path / "out"
    assert main(["simulate", "--out", str(mixture), "--matrix", "1,0.6;0.5,1", "--len-s", "1"]) == 0
    argv = ["separate", "--input", str(mixture), "--out-dir", str(out), "--beta", "1.5"]
    assert main(argv + ["--p", "1e-3", "--iters", "3"]) == 3
    err = capsys.readouterr().err
    assert "SingularCovariance" in err and "beta/p = 1500" in err
    assert err.rstrip().endswith("at bin 496, source 0")
    assert "Warning" not in err
    assert not list(out.glob("*.wav"))


#: The README's exit code of every error the CLI can meet.
EXIT_CODES = {
    "NonFiniteInput": 1,
    "UnsupportedBeta": 1,
    "DegenerateShape": 1,
    "SignalTooShort": 1,
    "ShapeMismatch": 1,
    "LengthMismatch": 1,
    "ZeroReference": 1,
    "TooManySources": 1,
    "UnsupportedFormat": 2,
    "IoFailure": 2,
    "FileNotFoundError": 2,
    "SilentMixture": 3,
    "NonFiniteCost": 3,
    "SingularCovariance": 3,
}


def test_every_error_class_has_an_exit_code():
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.SeparationError)
    }
    categories = {"SeparationError", "InvalidInput", "FileError"}
    assert classes - categories == set(EXIT_CODES) - {"FileNotFoundError"}


@pytest.mark.parametrize("name, code", sorted(EXIT_CODES.items()))
def test_each_error_exits_with_its_documented_code(name, code, tmp_path, monkeypatch, capsys):
    error = getattr(errors, name, None) or getattr(builtins, name)

    def fail(path):
        raise error("raised for the test")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "read_wav", fail)
    assert main(["separate", "--input", "in.wav", "--out-dir", "out"]) == code
    err = capsys.readouterr().err
    assert name in err and len(err.splitlines()) == 1
