"""Seeded workloads, timed separations, correctness checks and metrics.

The benchmark drives ggdilrma only through its public entry points
(``workflows.separate_audio`` and ``cli.main``) and gives the program
nothing but the generated audio.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs the workload untraced, then
again with the layer wrappers of :mod:`layers` installed, and reports the
per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np
import scipy

import ggdilrma
from ggdilrma import cli, metrics, mixsim, pipeline, workflows
from ggdilrma.errors import SeparationError
from ggdilrma.stft import istft, n_frames_for, stft
from ggdilrma.types import GgdConfig, SourceSpectrogram

import layers

SAMPLE_RATE = 16000

#: Values of the property suite's ``E2E_MATRIX`` (``ggdilrma.benchmark``).
E2E_MATRIX = ((1.0, 0.6), (0.5, 1.0))

#: Input gains of the ``clips_ip`` loudness ladder, in dB.  The four rungs
#: at -20 dB and below raise ``SingularCovariance`` for every scene, and the
#: two at 0 and +20 dB separate for every scene; the outcome flips somewhere
#: between -14 and -4 dB depending on the scene, so no rung sits there and the
#: failure count of a run does not depend on its seed.
LADDER_DB = tuple(float(g) for g in range(-80, 21, 20))

#: Nominal wall time of one pass over the ladder.  A ladder workload runs
#: round(seconds / LADDER_PASS_S) whole passes (at least one), a count fixed
#: by ``--seconds`` alone, so ``attempted`` and ``failed`` repeat exactly.
LADDER_PASS_S = 1.5

#: Iterations at which the traced run scores the current estimates.
CHECKPOINTS = (1, 5, 10, 20)

#: p90 is reported from at least this many iteration times (ten beyond it).
MIN_ITERATION_SAMPLES = 100

#: No new separation starts after this many seconds of the process, so a
#: run ends well inside the 180 s limit even on a slow machine.
START_DEADLINE_S = 110.0

#: Tolerances of the per-separation correctness checks.
DESCENT_SLACK = 1e-9  # same rule as ggdilrma.cost.audit_descent
BACK_PROJECTION_RTOL = 1e-9

#: Gated timings are rescaled to a machine on which one speed-probe kernel
#: call takes this long (its typical time during runs on the 2-core machine
#: the bounds were set on).
REFERENCE_PACE_MS = 1.6

#: Kernel calls per pace sample; the sample is their median, so one
#: interrupted call does not count.
PACE_CALLS = 3

#: Rescaled time = wall time * (REFERENCE_PACE_MS / pace) ** PACE_EXPONENT.
#: When the machine slows, the program slows less than the small kernel: the
#: exponent that made five-run spreads smallest was 0.5-0.75 at paper scale
#: and 0.75-1 on the short clips (see README.md).
PACE_EXPONENT = 0.75

#: Each scene is set up this many times; its set-up time is their median.
SETUP_REPEATS = 3

#: Scene used for the recorded seed-commit cost traces.
REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_traces.json"


@dataclass(frozen=True)
class Workload:
    """One seeded input family and the separation settings applied to it."""

    name: str
    kinds: tuple
    duration_s: float
    win_ms: float
    hop_ms: float
    beta: float
    iterations: int
    mixing: str = "instantaneous"
    gains_db: tuple = (0.0,)
    via_cli: bool = False
    n_bases: int = 20
    domain: float = 0.5


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="paper_quartic",
            kinds=("low_rank_tonal", "subgaussian"),
            duration_s=10.0,
            win_ms=128.0,
            hop_ms=64.0,
            beta=4.0,
            iterations=20,
        ),
        Workload(
            name="short_win_3ch",
            kinds=("subgaussian", "low_rank_tonal", "supergaussian"),
            duration_s=10.0,
            win_ms=32.0,
            hop_ms=16.0,
            beta=4.0,
            iterations=20,
            mixing="convolutive",
        ),
        Workload(
            name="clips_ip",
            kinds=("low_rank_tonal", "subgaussian"),
            duration_s=2.0,
            win_ms=64.0,
            hop_ms=32.0,
            beta=2.0,
            iterations=20,
            gains_db=LADDER_DB,
            via_cli=True,
        ),
    )
}


class CheckFailed(Exception):
    """A separation's output failed a correctness check."""


#: Last sub-seed key of a scene's FIR system and of its NMF initialisation;
#: sources use keys 0..N-1.
FIR_KEY, INIT_KEY = 99, 100


def sub_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass
class Scene:
    sources: list
    mixture: np.ndarray  # what the program receives, gain applied
    seed: int
    path: Optional[str] = None


def fir_system(rng: np.random.Generator, n: int, taps: int = 16) -> np.ndarray:
    """Direct path plus a short decaying tail; 1 ms at 16 kHz, far below the window."""
    H = np.zeros((n, n, taps))
    for m in range(n):
        for k in range(n):
            delay = 0 if m == k else int(rng.integers(1, 4))
            tail = 0.2 * rng.standard_normal(taps) * np.exp(-np.arange(taps) / 3.0)
            tail[: delay + 1] = 0.0
            H[m, k] = tail
            H[m, k, delay] += 1.0 if m == k else rng.uniform(0.3, 0.7)
    return H


def make_scene(wl: Workload, seed: int, index: int, work_dir: Path) -> Scene:
    """Scene ``index`` of a workload under ``seed``: sources, mixture, WAV."""
    length = int(round(wl.duration_s * SAMPLE_RATE))
    sources = [
        mixsim.synth_source(kind, length, seed=sub_seed(seed, index, n))
        for n, kind in enumerate(wl.kinds)
    ]
    if wl.mixing == "convolutive":
        H = fir_system(np.random.default_rng(sub_seed(seed, index, FIR_KEY)), len(sources))
        spec = mixsim.MixingSpec(mode="convolutive", impulse_responses=H)
    else:
        spec = mixsim.MixingSpec(mode="instantaneous", matrix=np.array(E2E_MATRIX))
    gain = 10.0 ** (wl.gains_db[index % len(wl.gains_db)] / 20.0)
    mixture = mixsim.mix(sources, spec) * gain
    scene = Scene(sources=sources, mixture=mixture, seed=sub_seed(seed, index, INIT_KEY))
    if wl.via_cli:
        scene.path = str(work_dir / "mixture.wav")
        mixsim.write_wav(scene.path, mixture, SAMPLE_RATE)
    return scene


@dataclass
class Outcome:
    ok: bool
    stamps: list = field(default_factory=list)  # clock at the start, at each record, at the end
    paces: list = field(default_factory=list)  # pace ms, one right after each stamp
    costs: list = field(default_factory=list)
    estimates: Optional[np.ndarray] = None
    projected: Optional[np.ndarray] = None  # back-projected sources (I, J, N)
    samples: Optional[np.ndarray] = None  # the waveform the program separated


class Runner:
    """Runs one workload's separations and times them from outside."""

    def __init__(
        self,
        wl: Workload,
        work_dir: Path,
        tracer: Optional[layers.Tracer] = None,
        probe: Optional[SpeedProbe] = None,
    ):
        self.wl = wl
        self.work_dir = work_dir
        self.tracer = tracer
        self.probe = probe
        # An uninstalled tracer still gives a clock that skips paused work.
        self.timer = tracer if tracer is not None else layers.Tracer()
        self.clock = self.timer.clock

    def _stamp(self, out: Outcome) -> None:
        """Record the clock, then a pace sample that the clock does not see."""
        out.stamps.append(self.clock())
        if self.probe is not None:
            with self.timer.paused():
                out.paces.append(self.probe.pace())

    def separate(self, scene: Scene) -> Outcome:
        out = Outcome(ok=False)

        def on_record(record):
            self._stamp(out)
            out.costs.append(record.cost)

        if self.wl.via_cli:
            return self._separate_cli(scene, out, on_record)
        wl = self.wl
        cfg = GgdConfig(
            beta=wl.beta, domain=wl.domain, n_bases=wl.n_bases, iterations=wl.iterations, seed=scene.seed
        )
        out.samples = scene.mixture
        self._stamp(out)
        try:
            out.estimates, result = workflows.separate_audio(
                scene.mixture, SAMPLE_RATE, cfg, wl.win_ms, wl.hop_ms, on_record=on_record
            )
        except SeparationError:
            return out
        self._stamp(out)
        out.projected = result.sources.data
        out.ok = True
        return out

    def _separate_cli(self, scene: Scene, out: Outcome, on_record) -> Outcome:
        wl = self.wl
        out_dir = self.work_dir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [
            "separate", "--input", scene.path, "--out-dir", str(out_dir),
            "--beta", repr(wl.beta), "--p", repr(wl.domain), "--bases", str(wl.n_bases),
            "--iters", str(wl.iterations), "--seed", str(scene.seed),
            "--win-ms", repr(wl.win_ms), "--hop-ms", repr(wl.hop_ms),
        ]  # fmt: skip
        original = workflows.separate_audio

        def capture(samples, rate, cfg, **kwargs):
            user_callback = kwargs.get("on_record")

            def chained(record):
                on_record(record)
                if user_callback is not None:
                    user_callback(record)

            kwargs["on_record"] = chained
            out.samples = samples
            estimates, result = original(samples, rate, cfg, **kwargs)
            out.estimates, out.projected = estimates, result.sources.data
            return estimates, result

        # The CLI reaches separate_audio through its own imported name today;
        # patching the workflows name too keeps the capture if that changes.
        patched = [m for m in (cli, workflows) if getattr(m, "separate_audio", None) is original]
        for module in patched:
            module.separate_audio = capture
        span = self.tracer.span("cli.separate") if self.tracer else contextlib.nullcontext()
        quiet = io.StringIO()
        try:
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet), span:
                self._stamp(out)
                code = cli.main(argv)
                self._stamp(out)
        finally:
            for module in patched:
                module.separate_audio = original
        if code == 3:  # SeparationError: the program's own numerical failure exit
            return out
        if code != 0:
            raise CheckFailed(f"cli exited with code {code}: {quiet.getvalue().strip()}")
        written = sorted(p.name for p in out_dir.glob("source_*.wav"))
        if len(written) != len(wl.kinds):
            raise CheckFailed(f"cli wrote {written}, expected {len(wl.kinds)} sources")
        out.ok = True
        return out


def descent_violations(costs, slack: float = DESCENT_SLACK) -> List[int]:
    """Iterations (1-based) whose cost rose beyond ``slack * (1 + |previous|)``."""
    return [
        k + 1
        for k in range(1, len(costs))
        if costs[k] > costs[k - 1] + slack * (1.0 + abs(costs[k - 1]))
    ]


def back_projection_error(projected: np.ndarray, samples: np.ndarray, wl: Workload) -> float:
    """Relative gap between the summed sources and the reference-channel STFT."""
    plan = workflows.plan_from_ms(wl.win_ms, wl.hop_ms, SAMPLE_RATE)
    x_ref = stft(samples, plan, SAMPLE_RATE).data[:, :, 0]
    return float(np.linalg.norm(projected.sum(axis=2) - x_ref) / np.linalg.norm(x_ref))


def check(out: Outcome, wl: Workload) -> None:
    """Raise :class:`CheckFailed` unless a finished separation is correct."""
    if len(out.costs) != wl.iterations:
        raise CheckFailed(f"{len(out.costs)} cost records for {wl.iterations} iterations")
    bad = descent_violations(out.costs)
    if bad:
        raise CheckFailed(f"cost increased at iterations {bad}")
    if not np.all(np.isfinite(out.estimates)):
        raise CheckFailed("non-finite source estimates")
    err = back_projection_error(out.projected, out.samples, wl)
    if not err <= BACK_PROJECTION_RTOL:
        raise CheckFailed(f"back-projected sources miss the mixture by {err:.3e} relative")


def sisdr_gains(estimates: np.ndarray, scene: Scene) -> List[float]:
    """Per-source SI-SDR improvement over the reference mixture channel."""
    columns = [estimates[:, n] for n in range(estimates.shape[1])]
    aligned = metrics.align_permutation(columns, scene.sources)
    return [
        aligned.sdr_db[n] - metrics.si_sdr(scene.mixture[:, 0], ref)
        for n, ref in enumerate(scene.sources)
    ]


class SpeedProbe:
    """A small fixed numpy kernel timed between iterations to track the machine's speed.

    On a shared machine the speed switches between states within seconds
    and drifts over minutes, which no run length averages out.  The kernel
    mixes the program's kinds of work (complex contractions over bins and
    frames, element-wise powers, batched 2x2 solves, a factor product) at a
    size that takes about a millisecond.  A pace sample is taken after every
    iteration, with the clock paused, so each iteration is bracketed by two
    samples; dividing by their mean removes most of the machine's changes of
    speed while a faster program still reads faster.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        I, J, M, K = 64, 64, 2, 20
        self.xd = rng.standard_normal((I, J, M)) + 1j * rng.standard_normal((I, J, M))
        self.W = rng.standard_normal((I, M, M)) + 1j * rng.standard_normal((I, M, M))
        self.r = rng.uniform(0.5, 2.0, (I, J))
        self.T, self.V = rng.random((M, I, K)), rng.random((M, K, J))
        self.kernel()  # first touch of the arrays, untimed

    def kernel(self) -> float:
        xd, W = self.xd, self.W
        y = np.einsum("inm,ijm->ijn", W, xd)
        a = np.abs(y[:, :, 0] / self.r) ** 4
        G = np.einsum("ij,ija,ijb->iab", a, xd, xd.conj()) + np.eye(2)
        z = np.linalg.solve(W @ G, np.broadcast_to(np.eye(2)[0][:, None], (len(W), 2, 1)))
        S = self.T @ self.V
        return float(np.sum(S**0.5 / (S + 1.0))) + float(np.abs(z).sum())

    def pace(self) -> float:
        """Median milliseconds of ``PACE_CALLS`` kernel calls, taken now."""
        times = []
        for _ in range(PACE_CALLS):
            t0 = time.perf_counter()
            self.kernel()
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)


@dataclass
class Phase:
    """Everything one measurement loop observed."""

    attempted: int = 0
    failed: int = 0
    setup_s: list = field(default_factory=list)  # per scene, median of SETUP_REPEATS
    setup_paces: list = field(default_factory=list)  # per scene, mean pace around its set-up
    finished: list = field(default_factory=list)  # (stamp intervals s, paces) each
    paces: list = field(default_factory=list)  # every pace sample of the phase
    gains: list = field(default_factory=list)  # per separation, failures score 0 dB
    ok_spans: list = field(default_factory=list)  # span index ranges of finished separations
    checkpoint_gains: dict = field(default_factory=dict)  # iteration -> gains, failures 0 dB

    def iterations(self) -> int:
        return sum(len(intervals) - 2 for intervals, _ in self.finished)

    def probe_ms(self) -> float:
        return statistics.median(self.paces)

    def timings(self, rescaled: bool) -> tuple:
        """Separation seconds and iteration ms of the finished separations.

        A separation is cut at its stamps into the part before the first
        record, the iterations between records, and the part after the last.
        Rescaled, each part uses the mean of the two pace samples around it,
        and a separation is the sum of its rescaled parts.
        """
        if not self.finished:
            return [], np.array([])
        seconds, iter_ms = [], []
        for intervals, paces in self.finished:
            if rescaled:
                intervals = intervals * rescale((paces[:-1] + paces[1:]) / 2.0)
            seconds.append(float(intervals.sum()))
            iter_ms.append(intervals[1:-1] * 1e3)
        return seconds, np.concatenate(iter_ms)


def rescale(pace_ms):
    """Factor taking a wall time measured at ``pace_ms`` to the reference machine."""
    return (REFERENCE_PACE_MS / pace_ms) ** PACE_EXPONENT


class Checkpoints:
    """Scores the demixing state that each ``iteration_step`` returns, untimed."""

    def __init__(self, tracer: layers.Tracer, wl: Workload, scene: Scene):
        self.tracer, self.wl, self.scene = tracer, wl, scene
        self.iteration = 0
        self.gains = {}

    def __call__(self, args, result) -> None:
        self.iteration += 1
        if self.iteration not in CHECKPOINTS:
            return
        with self.tracer.paused():
            try:
                xd, W = np.asarray(args[0]), np.asarray(result[0])
                y = (xd @ W.transpose(0, 2, 1)) * np.linalg.inv(W)[:, None, 0, :]  # onto channel 0
            except (IndexError, TypeError, ValueError, np.linalg.LinAlgError):
                return  # iteration_step changed shape: this checkpoint stays unscored
            plan = workflows.plan_from_ms(self.wl.win_ms, self.wl.hop_ms, SAMPLE_RATE)
            estimates = istft(SourceSpectrogram(data=y), plan, length=self.scene.mixture.shape[0])
            gain = float(np.mean(sisdr_gains(estimates, self.scene)))
            self.gains[self.iteration] = gain


def run_phase(runner: Runner, seed: int, seconds: float, min_samples: int, deadline: float) -> Phase:
    """Separate consecutive scenes of ``seed`` until ``seconds`` have passed.

    A workload with a gain ladder instead separates a fixed number of whole
    passes over the ladder (see ``LADDER_PASS_S``), so every rung weighs the
    same and the counts do not depend on the machine's speed.  Each scene is
    set up just before its separation, between two pace samples, outside the
    timed regions.  The loop also goes on until ``min_samples`` iteration
    times exist, unless the process clock passes ``deadline``.
    """
    wl, tracer = runner.wl, runner.tracer
    phase = Phase()
    start = time.perf_counter()
    rungs = len(wl.gains_db)
    target = rungs * max(1, round(seconds / LADDER_PASS_S)) if rungs > 1 else 0

    def more() -> bool:
        now = time.perf_counter()
        wanted = (
            (now - start < seconds if rungs == 1 else phase.attempted < target)
            or phase.iterations() < min_samples
            or phase.attempted % rungs != 0
        )
        return phase.attempted == 0 or (wanted and now < deadline)

    while more():
        before = runner.probe.pace()
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            scene = make_scene(wl, seed, phase.attempted, runner.work_dir)
            times.append(time.perf_counter() - t0)
        after = runner.probe.pace()
        phase.paces += [before, after]
        phase.setup_s.append(statistics.median(times))
        phase.setup_paces.append((before + after) / 2.0)
        mark = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.step_hook = Checkpoints(tracer, wl, scene)
        out = runner.separate(scene)
        phase.attempted += 1
        if tracer:
            reached = tracer.step_hook.gains if out.ok else {}
            for k in CHECKPOINTS:
                phase.checkpoint_gains.setdefault(k, []).append(reached.get(k, 0.0))
        if not out.ok:
            phase.failed += 1
            phase.gains.append([0.0] * len(wl.kinds))
            continue
        check(out, wl)
        phase.paces.extend(out.paces)
        phase.finished.append((np.diff(out.stamps), np.asarray(out.paces)))
        with tracer.span("metrics.align") if tracer else contextlib.nullcontext():
            phase.gains.append(sisdr_gains(out.estimates, scene))
        if tracer:
            phase.ok_spans.append((mark, len(tracer.spans)))
    if tracer:
        tracer.step_hook = None
    return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def quality(phase: Phase) -> tuple:
    """Mean SI-SDR gain over sources and separations, and the worst source's mean."""
    gains = np.array(phase.gains)
    return float(gains.mean()), float(gains.mean(axis=0).min())


def timing_metrics(phase: Phase, rescaled: bool) -> dict:
    seconds, iter_ms = phase.timings(rescaled)
    setup = np.array(phase.setup_s)
    if rescaled:
        setup = setup * rescale(np.array(phase.setup_paces))
    return {
        "setup_s": (float(np.median(setup)), "s"),
        # Median over finished separations; failed ones are counted by ok_frac.
        "separate_s": (statistics.median(seconds) if seconds else float("nan"), "s"),
        "iter_ms_p50": (percentile(iter_ms, 50), "ms"),
        "iter_ms_p90": (percentile(iter_ms, 90), "ms"),
    }


def end_to_end(phase: Phase) -> dict:
    """Gated metrics first; their timings are rescaled to the reference machine speed."""
    mean_gain, min_gain = quality(phase)
    return {
        **timing_metrics(phase, rescaled=True),
        "ok_frac": ((phase.attempted - phase.failed) / phase.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sisdr_gain_db": (mean_gain, "dB"),
        "sisdr_gain_min_db": (min_gain, "dB"),
        "fail_frac": (phase.failed / phase.attempted, "ratio"),
        **{f"{name}_wall": value for name, value in timing_metrics(phase, rescaled=False).items()},
        "probe_kernel_ms": (phase.probe_ms(), "ms"),
    }


def layer_metrics(tracer: layers.Tracer, phase: Phase, untraced: Phase) -> dict:
    """Per-layer metrics from the spans of the traced phase's finished separations.

    In-loop layers are reported per iteration, the others per call.
    """
    spans = tracer.spans
    picked = [i for a, b in phase.ok_spans for i in range(a, b)]
    steps = [i for i in picked if spans[i].name == layers.ITERATION]
    n_iter = max(len(steps), 1)

    def named(name):
        return [i for i in picked if spans[i].name == name]

    def in_loop(name):
        return [i for i in named(name) if layers.in_loop(spans, i)]

    def ms_per_iter(name):
        return 1e3 * sum(spans[i].duration for i in in_loop(name)) / n_iter

    def mb_per_iter(name):
        return sum(spans[i].nbytes for i in in_loop(name)) / n_iter / 1e6

    def ms_per_call(name):
        durations = [spans[i].duration for i in named(name)]
        return 1e3 * float(np.mean(durations)) if durations else 0.0

    child_s = dict.fromkeys(steps, 0.0)
    for i in picked:
        if spans[i].parent in child_s:
            child_s[spans[i].parent] += spans[i].duration
    step_ms = 1e3 * sum(spans[i].duration for i in steps) / n_iter
    self_ms = 1e3 * sum(spans[i].duration - child_s[i] for i in steps) / n_iter
    singular = sum(
        count
        for (name, exc), count in tracer.raises.items()
        if name == "demix_ip.ip_sweep" and exc.startswith("Singular")
    )
    untraced_p50 = percentile(untraced.timings(rescaled=False)[1], 50)
    # Both halves are rescaled by their own pace samples, so drift between them cancels.
    overhead = percentile(phase.timings(rescaled=True)[1], 50) / percentile(
        untraced.timings(rescaled=True)[1], 50
    ) - 1.0
    mean_gain, min_gain = quality(phase)
    out = {
        "pipeline.iteration_step_ms": (step_ms, "ms"),
        "pipeline.iteration_self_ms": (self_ms, "ms"),
        "pipeline.separate_ms": (ms_per_iter("pipeline.separate"), "ms"),
        "pipeline.separate_calls": (len(named("pipeline.separate")) / max(len(phase.ok_spans), 1), "count"),
        "pipeline.separate_mb_computed": (mb_per_iter("pipeline.separate"), "MB"),
        "demix_homogeneous.quartic_sweep_ms": (ms_per_iter("demix_homogeneous.quartic_sweep"), "ms"),
        "demix_homogeneous.quartic_sweep_mb_computed": (mb_per_iter("demix_homogeneous.quartic_sweep"), "MB"),
        "demix_homogeneous.skipped_frac": (tracer.skipped / max(tracer.skip_attempts, 1), "ratio"),
        "demix_ip.ip_sweep_ms": (ms_per_iter("demix_ip.ip_sweep"), "ms"),
        "demix_ip.ip_sweep_mb_computed": (mb_per_iter("demix_ip.ip_sweep"), "MB"),
        "demix_ip.singular_raises": (singular, "count"),
        "source_model.update_bases_ms": (ms_per_iter("source_model.update_bases"), "ms"),
        "source_model.update_activations_ms": (ms_per_iter("source_model.update_activations"), "ms"),
        "cost.ggd_cost_ms": (ms_per_iter("cost.ggd_cost"), "ms"),
        "cost.ggd_cost_mb_computed": (mb_per_iter("cost.ggd_cost"), "MB"),
        "pipeline.back_project_ms": (ms_per_call("pipeline.back_project"), "ms"),
        "stft.stft_ms": (ms_per_call("stft.stft"), "ms"),
        "stft.istft_ms": (ms_per_call("stft.istft"), "ms"),
        "cli.read_wav_ms": (ms_per_call("cli.read_wav"), "ms"),
        "cli.write_wav_ms": (ms_per_call("cli.write_wav"), "ms"),
        "cli.separate_ms": (ms_per_call("cli.separate"), "ms"),
        "metrics.align_ms": (ms_per_call("metrics.align"), "ms"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.probe_kernel_ms": (phase.probe_ms(), "ms"),
        "trace.absent_layers": (len(tracer.absent), "count"),
        "quality.sisdr_gain_db": (mean_gain, "dB"),
        "quality.sisdr_gain_min_db": (min_gain, "dB"),
    }
    for k in CHECKPOINTS:
        gains = phase.checkpoint_gains.get(k, [])
        out[f"ttq.sisdr_gain_db_it{k:02d}"] = (float(np.mean(gains)) if gains else 0.0, "dB")
        out[f"ttq.time_s_it{k:02d}"] = (k * untraced_p50 / 1e3, "s")
    return out


def reference_costs(wl: Workload, work_dir: Path) -> Optional[list]:
    """Cost trace of the fixed scene whose trace was recorded at the seed commit."""
    scene = make_scene(wl, REFERENCE_SEED, wl.gains_db.index(0.0), work_dir)
    out = Runner(wl, work_dir).separate(scene)
    return out.costs if out.ok else None


def trace_deviation(costs: Optional[list], recorded: list) -> float:
    """Largest relative deviation from the recorded trace (1.0 if it failed)."""
    if costs is None or len(costs) != len(recorded):
        return 1.0
    c, r = np.array(costs), np.array(recorded)
    return float(np.max(np.abs(c - r) / np.abs(r)))


def blas_threads() -> Optional[int]:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    """HEAD of ``root/.git``, read from its files so nothing outside ``root`` is touched."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_identity(root: Path) -> dict:
    """Git commit when available (a plain checkout has none) and a digest of src/."""
    commit = git_commit(root)
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def header(wl: Workload, args, root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    plan = workflows.plan_from_ms(wl.win_ms, wl.hop_ms, SAMPLE_RATE)
    n_samples = int(round(wl.duration_s * SAMPLE_RATE))
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ggdilrma": getattr(ggdilrma, "__version__", "unknown"),
        **source_identity(root),
        "shape": {
            "I": plan.n_bins,
            "J": n_frames_for(plan, n_samples),
            "M": len(wl.kinds),
            "K": wl.n_bases,
            "iterations": wl.iterations,
        },
        "beta": wl.beta,
        "path": "cli.main" if wl.via_cli else "workflows.separate_audio",
    }


def result_line(correct: bool, phases: list, values: dict, names: list) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": max(sum(p.attempted for p in phases), 1),
            "failed": sum(p.failed for p in phases),
            "metrics": {n: {"value": values[n][0], "unit": values[n][1]} for n in names},
        }
    )


def metric_names(kind: str) -> list:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def run(
    wl: Workload,
    args,
    work_dir: Path,
    emit=print,
    min_samples: int = MIN_ITERATION_SAMPLES,
    probe: Optional[SpeedProbe] = None,
) -> int:
    """Warm up, measure, check and print; returns the process exit code."""
    deadline = time.perf_counter() + START_DEADLINE_S
    warm = dataclasses.replace(wl, duration_s=min(wl.duration_s, 0.5), iterations=2, gains_db=(0.0,))
    Runner(warm, work_dir).separate(make_scene(warm, args.seed, 0, work_dir))
    probe = probe or SpeedProbe()

    phases = []
    try:
        if not args.trace:
            phase = run_phase(Runner(wl, work_dir, probe=probe), args.seed, args.seconds, min_samples, deadline)
            phases.append(phase)
            values = end_to_end(phase)
            summary = {n: {"value": v, "unit": u} for n, (v, u) in values.items()}
            emit(json.dumps({"summary": summary, "iteration_samples": phase.iterations()}))
            names = metric_names("end_to_end")
        else:
            half = args.seconds / 2.0
            untraced = run_phase(Runner(wl, work_dir, probe=probe), args.seed, half, 0, deadline)
            phases.append(untraced)
            tracer = layers.Tracer()
            tracer.install({"pipeline": pipeline, "workflows": workflows, "cli": cli})
            try:
                traced = run_phase(Runner(wl, work_dir, tracer, probe), args.seed, half, 0, deadline)
            finally:
                tracer.uninstall()
            phases.append(traced)
            values = layer_metrics(tracer, traced, untraced)
            recorded = json.loads(REFERENCE_FILE.read_text())[wl.name]
            values["pipeline.cost_trace_rel_dev"] = (
                trace_deviation(reference_costs(wl, work_dir), recorded),
                "ratio",
            )
            not_called = [n for n, (v, _) in values.items() if v == 0 and n.endswith("_ms")]
            emit(json.dumps({"layers": {"absent": tracer.absent, "not_called": not_called}}))
            names = metric_names("per_layer")
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        emit(result_line(False, phases, {}, []))
        return 1
    emit(result_line(True, phases, values, names))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ggdilrma performance benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="rewrite reference_traces.json from the current program (seed commit only)",
    )
    args = parser.parse_args(argv)
    if args.record_reference:
        return args
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    src = (root / "src").resolve()
    if src not in Path(ggdilrma.__file__).resolve().parents:
        print(f"error: ggdilrma was imported from {ggdilrma.__file__}, not {src}", file=sys.stderr)
        return 2
    work_dir = root / ".bench_work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_reference:
            traces = {name: reference_costs(wl, work_dir) for name, wl in WORKLOADS.items()}
            REFERENCE_FILE.write_text(json.dumps(traces, indent=1) + "\n")
            return 0
        wl = WORKLOADS[args.workload]
        print(json.dumps({"header": header(wl, args, root)}))
        return run(wl, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if work_dir.parent.exists() and not any(work_dir.parent.iterdir()):
            work_dir.parent.rmdir()
