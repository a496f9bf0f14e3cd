"""Batch command-line interface: simulate, separate, evaluate, benchmark.

``simulate`` mixes given or synthesized sources, ``separate`` runs the
separation on a multichannel WAV, ``evaluate`` scores estimates against
references by SI-SDR (clamped to [-80, +80] dB), and ``benchmark`` runs
the seeded property suite, whose checks and pass bounds are fixed.

Exit codes: 0 success, 1 invalid arguments or inputs (including a NaN,
infinite or non-positive --p, --win-ms, --hop-ms, --len-s or
--e2e-duration-s, and --trials below 1), 2 I/O failure (an
unreadable file, or a WAV that is malformed, cut short or neither 16-bit
PCM nor 32-bit float), 3 numerical failure during separation (trace
flushed first), 4 property suite failure.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import benchmark
from .errors import (
    DegenerateShape,
    FileError,
    InvalidInput,
    IoFailure,
    LengthMismatch,
    SeparationError,
)
from .mixsim import (
    MixingSpec,
    load_impulse_responses,
    mix,
    parse_matrix,
    read_wav,
    synth_source,
    write_wav,
    SOURCE_KINDS,
)
from .types import GgdConfig
from .workflows import evaluate_separation, separate_audio


class _CliArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors with exit code 1."""

    def error(self, message):
        raise _CliArgumentError(message)


def non_negative_int(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only non-negative integers."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def positive_int(text: str) -> int:
    """A ``--trials`` value: a section over no trials would pass without checking anything."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def positive_seconds(text: str) -> float:
    """A duration in seconds, finite and > 0: it is converted to a sample count."""
    if not 0.0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return float(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ggdilrma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sep = sub.add_parser("separate", help="separate a multichannel WAV into sources")
    sep.add_argument("--input", required=True, help="multichannel input WAV")
    sep.add_argument("--out-dir", required=True, help="directory for source_{n}.wav")
    sep.add_argument("--beta", type=float, default=4.0, help="GGD shape parameter (default 4)")
    sep.add_argument("--p", type=float, default=0.5, help="domain parameter (default 0.5)")
    sep.add_argument("--bases", type=int, default=20, help="NMF rank per source (default 20)")
    sep.add_argument("--iters", type=int, default=1000, help="iterations (default 1000)")
    sep.add_argument("--seed", type=non_negative_int, default=0, help="RNG seed (default 0)")
    sep.add_argument("--win-ms", type=float, default=128.0, help="analysis window (default 128 ms)")
    sep.add_argument("--hop-ms", type=float, default=64.0, help="hop (default 64 ms)")
    sep.add_argument("--ref-channel", type=int, default=1, help="1-based back-projection channel")
    sep.add_argument("--trace", default=None, help="write per-iteration JSONL trace here")

    sim = sub.add_parser("simulate", help="mix given or synthesized sources")
    sim.add_argument("--sources", nargs="+", default=None, help="source WAV paths")
    sim.add_argument("--matrix", default=None, help='instantaneous gains, e.g. "1,0.5;0.5,1"')
    sim.add_argument("--ir-dir", default=None, help="directory of ir_m{m}_n{n}.wav responses")
    sim.add_argument("--out", required=True, help="output mixture WAV path")
    sim.add_argument(
        "--kind",
        nargs="+",
        default=["subgaussian"],
        choices=SOURCE_KINDS,
        help="synthetic source kind(s); one value applies to all sources",
    )
    sim.add_argument(
        "--len-s", type=positive_seconds, default=10.0, help="synthetic length in seconds"
    )
    sim.add_argument("--seed", type=non_negative_int, default=0, help="RNG seed (default 0)")
    sim.add_argument("--sample-rate", type=int, default=16000, help="synthetic rate (default 16 kHz)")

    ev = sub.add_parser("evaluate", help="score separated sources against references")
    ev.add_argument("--est", required=True, help="directory of estimated source WAVs")
    ev.add_argument("--ref", required=True, help="directory of reference source WAVs")
    ev.add_argument("--mix", required=True, help="mixture WAV (improvement baseline)")
    ev.add_argument("--ref-channel", type=int, default=1, help="1-based mixture channel")
    ev.add_argument("--jsonl", default=None, help="also write rows as JSONL here")

    bench = sub.add_parser("benchmark", help="run the seeded property suite")
    bench.add_argument(
        "--trials", type=positive_int, default=10, help="trials per section (default 10)"
    )
    bench.add_argument("--seed", type=non_negative_int, default=0, help="suite seed (default 0)")
    bench.add_argument(
        "--e2e-duration-s", type=positive_seconds, default=3.0, help="end-to-end audio length"
    )
    bench.add_argument("--e2e-iters", type=int, default=120, help="end-to-end iterations")
    return parser


def _sorted_wavs(directory: str) -> List[str]:
    paths = sorted(glob.glob(os.path.join(directory, "*.wav")))
    if not paths:
        raise IoFailure(f"no WAV files in {directory}")
    return paths


def _cmd_separate(args) -> int:
    samples, rate = read_wav(args.input)
    cfg = GgdConfig(
        beta=args.beta, domain=args.p, n_bases=args.bases, iterations=args.iters, seed=args.seed
    )
    cfg.validate()
    if not (1 <= args.ref_channel <= samples.shape[1]):
        raise DegenerateShape(
            f"--ref-channel {args.ref_channel} outside 1..{samples.shape[1]}"
        )
    os.makedirs(args.out_dir, exist_ok=True)

    trace_fh = open(args.trace, "w") if args.trace else None

    def on_record(rec):
        trace_fh.write(rec.to_json() + "\n")
        trace_fh.flush()

    try:
        estimates, _ = separate_audio(
            samples,
            rate,
            cfg,
            win_ms=args.win_ms,
            hop_ms=args.hop_ms,
            reference_channel=args.ref_channel - 1,
            on_record=on_record if trace_fh else None,
        )
    finally:
        if trace_fh is not None:
            trace_fh.close()

    for n in range(estimates.shape[1]):
        write_wav(os.path.join(args.out_dir, f"source_{n + 1}.wav"), estimates[:, n], rate)
    print(f"wrote {estimates.shape[1]} sources to {args.out_dir}")
    return 0


def _cmd_simulate(args) -> int:
    if (args.matrix is None) == (args.ir_dir is None):
        raise _CliArgumentError("specify exactly one of --matrix or --ir-dir")

    if args.sources is not None:
        loaded = [read_wav(p) for p in args.sources]
        rate = loaded[0][1]
        if any(r != rate for _, r in loaded):
            raise LengthMismatch("source WAVs must share a sample rate")
        sources = [s[:, 0] for s, _ in loaded]
        lengths = {len(s) for s in sources}
        if len(lengths) != 1:
            raise LengthMismatch("source WAVs must share a length")
        n_sources = len(sources)
    else:
        rate = args.sample_rate
        if args.matrix is not None:
            n_sources = parse_matrix(args.matrix).shape[1]
        else:
            raise _CliArgumentError("--ir-dir simulation needs explicit --sources")
        kinds = args.kind if len(args.kind) > 1 else args.kind * n_sources
        if len(kinds) != n_sources:
            raise _CliArgumentError(f"{len(kinds)} kinds for {n_sources} sources")
        length = int(round(args.len_s * rate))
        sources = [
            synth_source(kinds[n], length, seed=args.seed + n) for n in range(n_sources)
        ]

    if args.matrix is not None:
        spec = MixingSpec(mode="instantaneous", matrix=parse_matrix(args.matrix))
    else:
        spec = load_impulse_responses(args.ir_dir, n_channels=len(sources), n_sources=len(sources))
    mixture = mix(sources, spec)

    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    write_wav(args.out, mixture, rate)
    for n, s in enumerate(sources):
        write_wav(os.path.join(out_dir, f"ref_{n + 1}.wav"), s, rate)
    print(f"wrote mixture {args.out} and {len(sources)} references to {out_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    est = [read_wav(p)[0][:, 0] for p in _sorted_wavs(args.est)]
    mixture, _ = read_wav(args.mix)
    # `simulate` writes the mixture next to its references; it is not one.
    ref_paths = [p for p in _sorted_wavs(args.ref) if not os.path.samefile(p, args.mix)]
    ref = [read_wav(p)[0][:, 0] for p in ref_paths]
    if not (1 <= args.ref_channel <= mixture.shape[1]):
        raise DegenerateShape(
            f"--ref-channel {args.ref_channel} outside 1..{mixture.shape[1]}"
        )
    rows = evaluate_separation(est, ref, mixture[:, args.ref_channel - 1])

    print(f"{'source':>6} {'estimate':>8} {'SI-SDR dB':>10} {'improvement dB':>15}")
    for row in rows:
        print(
            f"{row.source:>6} {row.estimate_index + 1:>8} "
            f"{row.sdr_db:>10.2f} {row.sdr_improvement_db:>15.2f}"
        )
    mean_gain = float(np.mean([r.sdr_improvement_db for r in rows]))
    print(f"{'mean':>6} {'':>8} {'':>10} {mean_gain:>15.2f}")

    if args.jsonl:
        perm = [row.estimate_index for row in rows]
        with open(args.jsonl, "w") as fh:
            for row in rows:
                record = {"source": row.source, "sdr_db": row.sdr_db}
                record.update(sdr_improvement_db=row.sdr_improvement_db, perm=perm)
                fh.write(json.dumps(record) + "\n")
    return 0


def _cmd_benchmark(args) -> int:
    report = benchmark.run_suite(
        trials=args.trials,
        seed=args.seed,
        e2e_duration_s=args.e2e_duration_s,
        e2e_iterations=args.e2e_iters,
    )
    for check in report.checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    if not report.ok:
        print("property suite FAILED", file=sys.stderr)
        return 4
    print("property suite passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    handlers = {
        "separate": _cmd_separate,
        "simulate": _cmd_simulate,
        "evaluate": _cmd_evaluate,
        "benchmark": _cmd_benchmark,
    }
    try:
        return handlers[args.command](args)
    except _CliArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidInput as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (FileError, OSError) as exc:
        print(f"I/O error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except SeparationError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
