"""Hot-path pinning tests: windower, fused kernel, batch extraction.

Two layers were rebuilt for raw speed — the linear-buffer
:class:`~repro.signals.windows.StreamingWindower` and the preallocated fused
batch pipeline of :class:`~repro.quant.quantized_model.QuantizedSVM` — both
under one contract: **bit-exactness** against the straightforward reference
computation.  These tests pin that contract:

* a hypothesis property that the windower (pushed in random chunks, with a
  snapshot/restore mid-stream) emits windows bit-identical to a one-shot
  push of the same beats,
* fused-kernel parity against the reference per-row path across random
  quantization configs, batch shapes, threads, pickling and the wide-word
  fallback,
* batch feature extraction matching the per-window path.
"""

import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.features.extractor import FeatureExtractor
from repro.quant import QuantizationConfig, QuantizedSVM
from repro.signals.windows import StreamingWindower, WindowingParams
from repro.svm.model import train_svm


def _windows_equal(a, b):
    assert len(a) == len(b)
    for wa, wb in zip(a, b):
        assert wa.start_s == wb.start_s
        assert wa.end_s == wb.end_s
        assert np.array_equal(wa.beat_times_s, wb.beat_times_s)
        assert np.array_equal(wa.rr_s, wb.rr_s)
        assert np.array_equal(wa.r_amplitudes_mv, wb.r_amplitudes_mv)


def _beat_stream(rng, n_beats):
    rr = rng.uniform(0.3, 1.4, size=n_beats)
    times = np.cumsum(rr)
    amps = 1.0 + 0.3 * rng.standard_normal(n_beats)
    return times, amps


class TestWindowerProperty:
    @given(
        n_beats=st.integers(0, 120),
        n_chunks=st.integers(1, 12),
        step_divisor=st.sampled_from([1, 2, 4]),
        snapshot_at=st.integers(0, 11),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_push_matches_one_shot(
        self, n_beats, n_chunks, step_divisor, snapshot_at, seed
    ):
        """Any chunking and a mid-stream snapshot/restore emit exactly the
        windows of a single push of the whole stream."""
        rng = np.random.default_rng(seed)
        times, amps = _beat_stream(rng, n_beats)
        params = WindowingParams(
            window_s=10.0, step_s=10.0 / step_divisor, min_beats=4
        )

        reference = StreamingWindower(params)
        expected = reference.push(times, amps)

        boundaries = np.sort(rng.integers(0, n_beats + 1, size=n_chunks - 1))
        edges = np.concatenate(([0], boundaries, [n_beats])).astype(int)
        windower = StreamingWindower(params)
        emitted = []
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            if k == snapshot_at % max(n_chunks, 1):
                # Round-trip through the picklable snapshot mid-stream.
                state = pickle.loads(pickle.dumps(windower.snapshot()))
                windower = StreamingWindower.from_snapshot(state)
            emitted.extend(windower.push(times[lo:hi], amps[lo:hi]))

        _windows_equal(expected, emitted)


def _random_model(rng, n_samples=40, n_features=6):
    X = rng.normal(size=(n_samples, n_features)) * rng.uniform(
        0.1, 10.0, size=n_features
    )
    y = np.where(rng.random(n_samples) > 0.5, 1, -1)
    y[0], y[1] = 1, -1
    return train_svm(X, y), X


class TestFusedKernelParity:
    def _assert_parity(self, det, X):
        ref = QuantizedSVM(det.model, det.config)
        ref._use_fused = False
        assert np.array_equal(det.decision_function(X), ref.decision_function(X))
        assert np.array_equal(det.predict(X), ref.predict(X))
        s, l = det.scores_and_labels(X)
        rs, rl = ref.scores_and_labels(X)
        assert np.array_equal(s, rs)
        assert np.array_equal(l, rl)

    def test_random_configs_bit_identical(self):
        rng = np.random.default_rng(21)
        model, X = _random_model(rng)
        for _ in range(12):
            config = QuantizationConfig(
                feature_bits=int(rng.integers(4, 16)),
                coeff_bits=int(rng.integers(4, 20)),
                truncate_after_dot=int(rng.integers(0, 10)),
                truncate_after_square=int(rng.integers(0, 10)),
            )
            det = QuantizedSVM(model, config)
            assert det._use_fused
            batch = X[rng.integers(0, X.shape[0], size=int(rng.integers(1, 25)))]
            self._assert_parity(det, batch)

    def test_edge_shapes(self):
        rng = np.random.default_rng(22)
        model, X = _random_model(rng)
        det = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))
        # Empty batch.
        empty = det.predict(np.empty((0, X.shape[1])))
        assert empty.shape == (0,)
        # 1-D input (single window).
        self._assert_parity(det, X[0])
        # Single-row 2-D input.
        self._assert_parity(det, X[:1])
        # A batch larger than the initial workspace capacity (forces growth).
        big = np.tile(X, (4, 1))
        assert big.shape[0] > 64
        self._assert_parity(det, big)

    def test_narrow_mac1_gating_and_parity(self):
        # The narrow (int32 MAC1) stage engages only when the exact
        # worst-case bound proves every MAC1 intermediate fits 32 bits;
        # wider configs stay fused but run the int64 einsum.  Both branches
        # must be bit-identical to the unfused reference.
        rng = np.random.default_rng(26)
        model, X = _random_model(rng)
        narrow = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))
        assert narrow._use_fused and narrow._use_narrow_mac1
        assert narrow._sv_shifted_t32 is not None
        self._assert_parity(narrow, X)

        wide = QuantizedSVM(model, QuantizationConfig(feature_bits=18, coeff_bits=8))
        assert wide._use_fused and not wide._use_narrow_mac1
        assert wide._sv_shifted_t32 is None
        self._assert_parity(wide, X)

    def test_wide_words_fall_back_to_reference(self):
        rng = np.random.default_rng(23)
        model, X = _random_model(rng)
        det = QuantizedSVM(model, QuantizationConfig(feature_bits=63, coeff_bits=15))
        assert not det._use_fused
        a = det.predict(X)
        b = np.concatenate([det.predict(X[i : i + 1]) for i in range(X.shape[0])])
        assert np.array_equal(a, b)

    def test_pickle_round_trip(self):
        rng = np.random.default_rng(24)
        model, X = _random_model(rng)
        det = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))
        det.predict(X)  # populate the thread-local workspace before pickling
        clone = pickle.loads(pickle.dumps(det))
        assert np.array_equal(det.predict(X), clone.predict(X))
        assert np.array_equal(
            det.decision_function(X), clone.decision_function(X)
        )

    def test_thread_safety_of_workspaces(self):
        rng = np.random.default_rng(25)
        model, X = _random_model(rng, n_samples=60)
        det = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))
        expected = det.predict(X)
        errors = []

        def worker(seed):
            r = np.random.default_rng(seed)
            for _ in range(30):
                idx = r.integers(0, X.shape[0], size=int(r.integers(1, 40)))
                if not np.array_equal(det.predict(X[idx]), expected[idx]):
                    errors.append(seed)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestBatchExtraction:
    def test_extract_batch_matches_per_window(self):
        rng = np.random.default_rng(31)
        items = []
        for _ in range(12):
            n = int(rng.integers(3, 80))  # some below the 8-beat usability bar
            times, amps = _beat_stream(rng, n)
            items.append((times, np.diff(times), amps))
        extractor = FeatureExtractor()
        X, kept = extractor.extract_batch(items)
        assert X.shape[0] == len(kept)
        for row, idx in zip(X, kept):
            beats, rr, amps = items[idx]
            assert np.array_equal(row, extractor.extract_beats(beats, rr, amps))
        dropped = set(range(len(items))) - set(kept)
        for idx in dropped:
            with pytest.raises(ValueError):
                beats, rr, amps = items[idx]
                extractor.extract_beats(beats, rr, amps)
