"""Command-line workflows: simulate -> separate -> evaluate compose."""

import builtins
import json

import numpy as np
import pytest

from ggdilrma import cli, errors
from ggdilrma.cli import main
from ggdilrma.cost import audit_descent
from ggdilrma.mixsim import write_wav

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
    ],
)
def test_threads_flag_is_a_usage_error(argv, capsys):
    assert main(argv) == 1
    assert "--threads" in capsys.readouterr().err


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
        ["benchmark", "--trials", "1", "--e2e-duration-s", "1", "--e2e-iters", "2"],
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
        ["benchmark", "--trials", "1", "--e2e-iters", "2", "--e2e-duration-s", "nan"],
        ["benchmark", "--trials", "1", "--e2e-iters", "2", "--e2e-duration-s", "inf"],
        ["benchmark", "--e2e-duration-s", "1", "--e2e-iters", "2", "--trials", "0"],
        ["benchmark", "--e2e-duration-s", "1", "--e2e-iters", "2", "--trials", "-1"],
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
    "SingularCovariance": 3,
    "SingularDemixing": 3,
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
