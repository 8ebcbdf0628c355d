"""Workload definitions, seeded input generation and the offline reference.

A workload's inputs are made once per ``(workload, seed, size)``: a labelled
training cohort for the detector and one raw-ECG recording per patient,
pre-encoded into wire frames (encoding is the wearable's cost, never timed).
The reference is the lossless offline chain — one ``StreamingMonitor`` per
patient fed every frame, then one ``classify_windows`` call — against which
every emitted decision is checked bit for bit.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serving import StreamingMonitor, classify_windows, decode_chunk, encode_chunk
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.ecg_model import ECGWaveformParams, synthesize_ecg
from repro.signals.windows import WindowingParams

ROOT = Path(__file__).resolve().parent.parent
TRAINING_COHORT = CohortParams(
    n_patients=3, n_sessions=6, session_duration_s=1500.0, total_seizures=8, seed=2019
)
CACHE_DIR = Path(__file__).resolve().parent / ".cache"


@dataclass(frozen=True)
class Workload:
    """One traffic mix (``BENCHMARK.json`` and ``README.md`` say why each).

    ``serving`` is ``"sharded"`` (closed loop through a 2-shard fleet that
    reshards live) or ``"gateway"`` (open loop through the lossy ingest
    gateway)."""

    name: str
    serving: str
    fs: float
    n_patients: int
    duration_s: float
    frame_s: float
    window_s: float
    step_s: float
    #: Sharded: the chunk-count drain policy's period.
    drain_every: int = 0
    #: Open loop: patient-seconds of ECG offered per wall-second.
    offered_rate: float = 0.0
    #: Open loop: independent single-frame drops (fraction) and burst count.
    drop_frac: float = 0.0
    bursts: int = 0

    @property
    def frame_samples(self) -> int:
        return int(round(self.frame_s * self.fs))

    @property
    def windowing(self) -> WindowingParams:
        return WindowingParams(window_s=self.window_s, step_s=self.step_s, min_beats=40)

    @property
    def lossy(self) -> bool:
        """The gateway workload is the open-loop, lossy-transport one."""
        return self.serving == "gateway"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="replay-64hz-overlap",
            serving="sharded",
            fs=64.0,
            n_patients=32,
            duration_s=600.0,
            frame_s=8.0,
            window_s=60.0,
            step_s=15.0,
            drain_every=32,
        ),
        Workload(
            name="gateway-lossy-128hz",
            serving="gateway",
            fs=128.0,
            n_patients=24,
            duration_s=420.0,
            frame_s=4.0,
            window_s=60.0,
            step_s=30.0,
            offered_rate=2000.0,
            drop_frac=0.01,
            bursts=3,
        ),
    )
}


def toy(workload: Workload) -> Workload:
    """The same workload at toy size (for the benchmark's own tests)."""
    return replace(workload, n_patients=4)


@dataclass
class Frame:
    """One pre-encoded wire frame and its place in the stream."""

    patient_id: int
    index: int  # frame index within the patient's stream
    payload: bytes
    #: Open loop: seconds after the pass start at which the frame is due.
    due_s: float = 0.0


@dataclass
class Inputs:
    """Everything a workload run consumes, generated from one seed."""

    workload: Workload
    seed: int
    training: object  # the labelled SyntheticCohort the detector trains on
    streams: Dict[int, List[Frame]]  # patient -> every frame of the stream
    frames: List[Frame]  # the frames sent, in send order
    dropped: Dict[int, List[int]]  # patient -> dropped frame indices (open loop)

    @property
    def patient_seconds(self) -> float:
        return self.workload.n_patients * self.workload.duration_s

    def lost_intervals(self, patient_id: int) -> List[Tuple[float, float]]:
        """Sample-time spans ``[a, b)`` of a patient's dropped frames."""
        w = self.workload
        n = w.frame_samples
        return [(i * n / w.fs, (i + 1) * n / w.fs) for i in self.dropped.get(patient_id, [])]


def _rng(seed: int, tag: str) -> np.random.Generator:
    digest = hashlib.sha256(("%d/%s" % (seed, tag)).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _drop_pattern(w: Workload, n_frames: int, rng: np.random.Generator) -> Dict[int, List[int]]:
    """~``drop_frac`` single drops plus ``bursts`` runs of 3-6 frames.

    The first and last two frames of every stream are never dropped, so each
    stream starts in sync and ends with intact data to flush.
    """
    dropped: Dict[int, set] = {p: set() for p in range(w.n_patients)}
    lo, hi = 1, n_frames - 2
    for p in range(w.n_patients):
        keep = rng.random(n_frames) >= w.drop_frac
        dropped[p].update(int(i) for i in np.flatnonzero(~keep) if lo <= i < hi)
    for _ in range(w.bursts):
        p = int(rng.integers(w.n_patients))
        length = int(rng.integers(3, 7))
        start = int(rng.integers(lo, max(lo + 1, hi - length)))
        dropped[p].update(range(start, min(start + length, hi)))
    return {p: sorted(ix) for p, ix in dropped.items() if ix}


def generate(w: Workload, seed: int) -> Inputs:
    """Make a workload's inputs from ``seed`` (same seed, same inputs)."""
    # The detector is part of the system under test, not of the traffic: it
    # trains on one fixed labelled cohort, so set-up times the same training
    # problem on every seed (SMO's run time varies several-fold between
    # cohorts).
    training = generate_cohort(TRAINING_COHORT)
    ecg_params = ECGWaveformParams(fs=w.fs)
    cohort = generate_cohort(
        CohortParams(
            n_patients=w.n_patients,
            n_sessions=w.n_patients,
            session_duration_s=w.duration_s,
            total_seizures=0,
            seed=int(_rng(seed, "serving").integers(1, 2**31 - 1)),
            ecg_params=ecg_params,
        )
    )
    rng = _rng(seed, "ecg")
    n = w.frame_samples
    n_frames = int(w.duration_s * w.fs) // n
    streams: Dict[int, List[Frame]] = {}
    for pid, recording in enumerate(cohort.recordings[: w.n_patients]):
        ecg = synthesize_ecg(
            recording.beat_times_s, recording.duration_s, recording.respiration, rng,
            params=ecg_params,
        ).ecg_mv.astype(np.float32)
        stream = []
        for k in range(n_frames):
            # Strict replays number frames 0, 1, 2...; the lossy datagram
            # transport carries the absolute sample offset instead.
            seq = k * n if w.lossy else k
            stream.append(
                Frame(pid, k, encode_chunk(pid, seq, w.fs, ecg[k * n : (k + 1) * n]))
            )
        streams[pid] = stream

    dropped: Dict[int, List[int]] = {}
    if w.lossy:
        dropped = _drop_pattern(w, n_frames, _rng(seed, "loss"))
        # A frame is due once its last sample exists.  Patients started
        # recording at different times: phase offsets spread over a window
        # step keep their window boundaries (and the feature-extraction work
        # they trigger) from all landing at once.
        speedup = w.offered_rate / w.n_patients
        phases = _rng(seed, "phase").uniform(0.0, w.step_s, size=w.n_patients)
        frames = []
        for pid, stream in streams.items():
            lost = set(dropped.get(pid, ()))
            for f in stream:
                if f.index not in lost:
                    f.due_s = (phases[pid] + (f.index + 1) * w.frame_s) / speedup
                    frames.append(f)
        frames.sort(key=lambda f: (f.due_s, f.patient_id))
    else:
        frames = [streams[p][k] for k in range(n_frames) for p in sorted(streams)]
    return Inputs(w, seed, training, streams, frames, dropped)


def _source_digest() -> str:
    """Hash of the program under test and of this benchmark: cached inputs
    and references are only valid for the code that made them."""
    h = hashlib.sha256()
    for package in (ROOT / "src" / "repro", CACHE_DIR.parent):
        for path in sorted(package.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _cache_path(kind: str, w: Workload, seed: int) -> Path:
    key = "%s/%r/%d/%s" % (kind, w, seed, _source_digest())
    return CACHE_DIR / (hashlib.sha256(key.encode()).hexdigest()[:24] + ".pkl")


def is_cached(w: Workload, seed: int) -> bool:
    """Whether both the inputs and the reference for ``seed`` are cached."""
    return all(_cache_path(kind, w, seed).exists() for kind in ("inputs", "reference"))


def _cached(path: Path, make):
    """Load ``path`` from the per-checkout cache, or make and store it."""
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except (OSError, EOFError, pickle.UnpicklingError):
        pass
    value = make()
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(path)
    return value


def load_inputs(w: Workload, seed: int) -> Inputs:
    """:func:`generate`, cached per seed and code so generation stays out of
    every rerun."""
    return _cached(_cache_path("inputs", w, seed), lambda: generate(w, seed))


@dataclass
class RefWindow:
    """One reference decision and the frame whose push emitted its window
    (``None`` when the end-of-stream flush emitted it)."""

    decision: object  # WindowDecision
    frame_index: Optional[int]


@dataclass
class Reference:
    #: (patient, window start) -> the lossless offline decision.
    lossless: Dict[Tuple[int, float], RefWindow]
    #: The windows the run must emit: the lossless set on the replays, the
    #: offline lossy monitors' set (same frames dropped) on the open loop.
    expected: Dict[Tuple[int, float], RefWindow]
    gaps: int
    windows_reset: int


def _offline(inputs: Inputs, detector, lossy: bool):
    """Offline chain: one monitor per patient, one batched classify.

    Lossless runs feed every frame of each stream; lossy runs feed only the
    frames that were sent, with their sample-offset ``seq``."""
    w = inputs.workload
    sent = {(f.patient_id, f.index) for f in inputs.frames}
    pending, origin = [], []
    gaps = windows_reset = 0
    for pid, stream in sorted(inputs.streams.items()):
        monitor = StreamingMonitor(pid, w.fs, windowing=w.windowing, lossy=lossy)
        for f in stream:
            if lossy and (pid, f.index) not in sent:
                continue
            chunk = decode_chunk(f.payload)
            out = monitor.push(chunk.samples, seq=chunk.seq if lossy else None)
            pending += out
            origin += [f.index] * len(out)
        out = monitor.finish()
        pending += out
        origin += [None] * len(out)
        gaps += monitor.n_gaps
        windows_reset += monitor.windows_reset_by_gap
    decisions = classify_windows(detector, pending)
    table = {(d.patient_id, d.start_s): RefWindow(d, k) for d, k in zip(decisions, origin)}
    return table, gaps, windows_reset


def reference(inputs: Inputs, detector) -> Reference:
    """The offline reference for ``inputs``, cached per seed and code."""

    def make() -> Reference:
        lossless, _, _ = _offline(inputs, detector, lossy=False)
        if not inputs.workload.lossy:
            return Reference(lossless, lossless, 0, 0)
        expected, gaps, reset = _offline(inputs, detector, lossy=True)
        return Reference(lossless, expected, gaps, reset)

    return _cached(_cache_path("reference", inputs.workload, inputs.seed), make)
