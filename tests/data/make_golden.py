#!/usr/bin/env python3
"""Regenerate the golden-trace regression fixture.

Produces, next to this script:

* ``golden_trace.npz``     — a deterministic single-patient raw ECG trace
  (float32 samples + sampling frequency + the fixed replay chunk size);
* ``golden_model.npz``     — the trained quadratic SVM as plain arrays
  (support vectors, signed dual coefficients, bias, scaler moments), so the
  replay classifier is reconstructed *without* re-training — the fixture
  must not depend on SMO convergence reproducing bit-identically forever;
* ``golden_decisions.json``— the expected :class:`WindowDecision` list of
  the paper's 9/15-bit fixed-point detector over the trace.

``tests/test_golden_trace.py`` replays the committed trace through the
monitor, the sharded fleet (with a mid-stream reshard) and the TCP gateway
and compares against the committed JSON — any drift in the DSP, windowing,
feature extraction or serving layers fails loudly.  Regenerate (and review
the diff like code!) only when an intentional numerical change lands:

    PYTHONPATH=src python tests/data/make_golden.py

Re-running this script today does not reproduce the committed
``golden_model.npz``: the support vectors, their labels and the scaler
moments match, but α differs by up to 2.4% relative and the bias reads
0.15930 against the committed 0.15910.  The replay checks the committed
arrays, so regenerating any file here is itself a reviewed numeric change,
never a refresh.
"""

import json
import pathlib

import numpy as np

from repro.features.extractor import extract_cohort_features
from repro.serving import StreamingMonitor, classify_windows
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.ecg_model import ECGWaveformParams, synthesize_ecg
from repro.signals.windows import WindowingParams
from repro.svm.kernels import PolynomialKernel
from repro.svm.model import SVMTrainParams, train_svm

HERE = pathlib.Path(__file__).parent

#: Replay constants — mirrored by tests/test_golden_trace.py.
FS = 64.0
CHUNK_SAMPLES = 4096
PATIENT_ID = 17
WINDOWING = WindowingParams(window_s=60.0, step_s=60.0, min_beats=40)


def load_golden_detector():
    """The committed classifier: arrays → SVMModel → 9/15-bit QuantizedSVM.

    Mirrored by ``tests/test_golden_trace.py`` (which must stay standalone).
    """
    from repro.quant import QuantizationConfig, QuantizedSVM
    from repro.svm.model import SVMModel
    from repro.svm.scaling import StandardScaler

    with np.load(HERE / "golden_model.npz") as data:
        scaler = StandardScaler()
        scaler.mean_ = data["scaler_mean"].copy()
        scaler.scale_ = data["scaler_scale"].copy()
        model = SVMModel(
            support_vectors=data["support_vectors"].copy(),
            dual_coef=data["dual_coef"].copy(),
            bias=float(data["bias"]),
            kernel=PolynomialKernel(degree=2),
            alpha=data["alpha"].copy(),
            sv_labels=data["sv_labels"].copy(),
            scaler=scaler,
        )
    return QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))


def main() -> None:
    # ------------------------------------------------ deterministic ECG trace
    trace_params = CohortParams(
        n_patients=1,
        n_sessions=1,
        session_duration_s=900.0,
        total_seizures=1,
        seed=517,
        ecg_params=ECGWaveformParams(fs=FS),
    )
    recording = generate_cohort(trace_params).recordings[0]
    ecg = synthesize_ecg(
        recording.beat_times_s,
        recording.duration_s,
        recording.respiration,
        np.random.default_rng(518),
        params=ECGWaveformParams(fs=FS),
    )
    np.savez_compressed(
        HERE / "golden_trace.npz",
        ecg_mv=ecg.ecg_mv.astype(np.float32),
        fs=np.float64(FS),
        chunk_samples=np.int64(CHUNK_SAMPLES),
        patient_id=np.int64(PATIENT_ID),
    )

    # ------------------------------------------------------- frozen classifier
    # Trained once, committed as arrays: the replay never re-trains.
    cohort = generate_cohort(
        CohortParams(
            n_patients=3,
            n_sessions=6,
            session_duration_s=1500.0,
            total_seizures=8,
            seed=7,
        )
    )
    features = extract_cohort_features(cohort)
    model = train_svm(
        features.X,
        features.y,
        kernel=PolynomialKernel(degree=2),
        params=SVMTrainParams(),
    )
    np.savez_compressed(
        HERE / "golden_model.npz",
        support_vectors=model.support_vectors,
        dual_coef=model.dual_coef,
        bias=np.float64(model.bias),
        alpha=model.alpha,
        sv_labels=model.sv_labels,
        scaler_mean=model.scaler.mean_,
        scaler_scale=model.scaler.scale_,
    )

    # ----------------------------------------------------- expected decisions
    detector = load_golden_detector()
    monitor = StreamingMonitor(PATIENT_ID, FS, windowing=WINDOWING)
    chunks = [
        ecg.ecg_mv[lo : lo + CHUNK_SAMPLES].astype(np.float32).astype(np.float64)
        for lo in range(0, ecg.ecg_mv.size, CHUNK_SAMPLES)
    ]
    pending = []
    for seq, chunk in enumerate(chunks):
        pending.extend(monitor.push(chunk, seq=seq))
    pending.extend(monitor.finish())
    decisions = classify_windows(detector, pending)
    payload = [
        dict(
            patient_id=d.patient_id,
            start_s=d.start_s,
            end_s=d.end_s,
            n_beats=d.n_beats,
            usable=d.usable,
            score=d.score,
            alarm=d.alarm,
        )
        for d in decisions
    ]
    with open(HERE / "golden_decisions.json", "w") as fh:
        json.dump(payload, fh, indent=1)
    print(
        "golden fixture written: %d samples, %d chunks, %d decisions (%d usable)"
        % (ecg.ecg_mv.size, len(chunks), len(decisions), sum(d.usable for d in decisions))
    )


if __name__ == "__main__":
    main()
