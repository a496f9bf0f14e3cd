"""Command-line workflows: simulate -> separate -> evaluate compose."""

import json

import pytest

from ggdilrma.cli import main
from ggdilrma.cost import audit_descent

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
    assert audit_descent([r["cost"] for r in records]).ok

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
