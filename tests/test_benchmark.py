"""The property suite: its majorizer section, and its driver at a tiny scale."""

import pytest

from ggdilrma import benchmark, demix_homogeneous
from ggdilrma.cli import main


@pytest.mark.parametrize("seed", range(3))
def test_majorizer_trial_holds_the_paper_bound(seed, monkeypatch):
    calls = []
    batched = benchmark.quartic_majorizer
    assert batched is demix_homogeneous.quartic_majorizer  # the G the quartic sweep factors

    def spy(*args):
        calls.append(args)
        return batched(*args)

    monkeypatch.setattr(benchmark, "quartic_majorizer", spy)
    monkeypatch.setattr(benchmark, "MAJORIZER_DRAWS", 200)
    worst_gap, worst_eq = benchmark.majorizer_trial(seed)
    assert len(calls) == 200
    assert worst_gap >= -1e-10
    assert worst_eq <= 1e-10


SECTIONS = [
    "descent beta=1.0",
    "descent beta=1.99",
    "descent beta=2.0",
    "descent beta=4.0",
    "quartic majorizer bound",
    "end-to-end separation",
]


def test_benchmark_command_prints_one_line_per_section(monkeypatch, capsys):
    for name, value in [
        ("TRIALS", 1), ("E2E_DURATION_S", 1.0), ("E2E_ITERATIONS", 2), ("MAJORIZER_DRAWS", 10)
    ]:
        monkeypatch.setattr(benchmark, name, value)
    suite, e2e_calls, rows = benchmark.run_suite, [], []
    trial = benchmark.e2e_trial

    def e2e_spy(seed, beta):
        e2e_calls.append((seed, beta))
        return trial(seed, beta)

    def suite_spy():
        rows.extend(suite())
        return rows

    monkeypatch.setattr(benchmark, "e2e_trial", e2e_spy)
    monkeypatch.setattr(benchmark, "run_suite", suite_spy)
    code = main(["benchmark"])
    out, err = capsys.readouterr()

    lines = out.splitlines()
    assert [name for name, _, _ in rows] == SECTIONS
    assert lines[: len(rows)] == [
        f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}" for name, passed, detail in rows
    ]
    if all(passed for _, passed, _ in rows):
        assert (code, lines[len(rows):], err) == (0, ["property suite passed"], "")
    else:
        assert (code, len(lines), err) == (4, len(rows), "property suite FAILED\n")
    assert sorted(e2e_calls) == [(0, 2.0), (0, 4.0)]  # trials x 2, once per beta
