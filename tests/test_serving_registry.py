"""Per-patient model registry: heterogeneous fleet parity, grouped drains.

The contract under test extends the serving layer's headline guarantee to
heterogeneous fleets:

* a fleet serving every patient their *own* tailored backend (feature
  subset, SV budget, bit widths) produces decisions bit-identical to
  classifying each patient offline with that same backend (fixed-point
  scores exact);
* a registry holding a single shared model is decision-for-decision
  identical to the pre-registry shared-classifier fleet — across shard
  counts, executor backends and the TCP gateway path;
* the group-by-model drain emits decisions in exactly the same
  :func:`~repro.serving.fleet.decision_sort_key` order as a single-model
  drain over the same queue, for random model assignments and shard counts
  (hypothesis-fuzzed).
"""

import asyncio
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design_point import DesignPoint
from repro.quant import QuantizationConfig, QuantizedSVM, QuantizedSVMBackend
from repro.serving import (
    IngestGateway,
    ModelRegistry,
    MonitorFleet,
    PendingWindow,
    ShardedFleet,
    StreamingMonitor,
    backend_from_design_point,
    backend_label,
    classify_grouped,
    classify_windows,
    decision_sort_key,
    encode_chunk,
)
from repro.signals.dataset import CohortParams, generate_cohort
from repro.signals.ecg_model import synthesize_ecg
from repro.svm import FloatSVMBackend

FS = 128.0

#: 4-patient cohort (one ~17-minute session each) for the fleet parity tests.
REGISTRY_COHORT = CohortParams(
    n_patients=4,
    n_sessions=4,
    session_duration_s=1000.0,
    total_seizures=4,
    seed=31,
)


def _design_point(name, n_features, n_sv, feature_bits, coeff_bits, **extras):
    """A design point carrying only the configuration the registry needs."""
    return DesignPoint(
        name=name,
        n_features=n_features,
        n_support_vectors=n_sv,
        feature_bits=feature_bits,
        coeff_bits=coeff_bits,
        sensitivity=float("nan"),
        specificity=float("nan"),
        gm=float("nan"),
        energy_nj=0.0,
        area_mm2=0.0,
        extras=dict(extras),
    )


@pytest.fixture(scope="module")
def fleet_streams():
    """Per-patient raw ECG chunk streams for the heterogeneous parity tests."""
    cohort = generate_cohort(REGISTRY_COHORT)
    rng = np.random.default_rng(13)
    streams = {}
    for recording in cohort.recordings:
        ecg = synthesize_ecg(
            recording.beat_times_s, recording.duration_s, recording.respiration, rng
        )
        streams[recording.patient_id] = [
            ecg.ecg_mv[lo : lo + 4100] for lo in range(0, ecg.ecg_mv.size, 4100)
        ]
    return streams


@pytest.fixture(scope="module")
def q915(quadratic_model):
    return QuantizedSVM(
        quadratic_model, QuantizationConfig(feature_bits=9, coeff_bits=15)
    ).as_backend()


@pytest.fixture(scope="module")
def q1218(quadratic_model):
    return QuantizedSVM(
        quadratic_model, QuantizationConfig(feature_bits=12, coeff_bits=18)
    ).as_backend()


@pytest.fixture(scope="module")
def lean_backend(feature_matrix):
    """A reduced design point (feature subset + SV budget + 8/12 bits),
    trained through the registry's design-point builder."""
    point = _design_point("lean-30f", n_features=30, n_sv=24, feature_bits=8, coeff_bits=12)
    return backend_from_design_point(point, feature_matrix)


@pytest.fixture(scope="module")
def het_registry(q915, q1218, lean_backend, quadratic_model):
    """Patients 1-3 run tailored backends; everyone else gets the default."""
    registry = ModelRegistry(default=q915)
    registry.register(1, quadratic_model.as_backend())
    registry.register(2, q1218)
    registry.register(3, lean_backend)
    return registry


# ---------------------------------------------------------------------------
# Registry unit behaviour
# ---------------------------------------------------------------------------


class TestModelRegistry:
    def test_default_fallback_and_strict_lookup(self, q915, q1218):
        registry = ModelRegistry(default=q915)
        registry.register(7, q1218)
        assert registry.backend_for(7) is q1218
        assert registry.backend_for(8) is q915
        strict = ModelRegistry()
        with pytest.raises(KeyError, match="no default"):
            strict.backend_for(8)
        with pytest.raises(KeyError, match="no default"):
            strict.version_of(8)

    def test_epoch_bumps_and_version_stamps(self, q915, q1218):
        registry = ModelRegistry()
        assert registry.epoch == 0
        registry.set_default(q915)
        assert registry.epoch == 1
        registry.register(3, q1218)
        assert registry.epoch == 2
        assert registry.version_of(3) == 2
        assert registry.version_of(99) == 1  # served by the default
        # Hot swap: the entry is replaced atomically and re-stamped.
        registry.register(3, q915)
        assert registry.epoch == 3
        assert registry.version_of(3) == 3
        assert registry.backend_for(3) is q915
        registry.unregister(3)
        assert registry.epoch == 4
        assert registry.backend_for(3) is q915  # back on the default
        with pytest.raises(KeyError):
            registry.unregister(3)

    def test_membership_and_labels(self, q915, q1218):
        registry = ModelRegistry.from_models({1: q1218}, default=q915)
        assert registry.has_model(1) and 1 in registry
        assert not registry.has_model(2)
        assert registry.patient_ids == [1] and len(registry) == 1
        assert registry.label_for(1) == "q12/18[f=53,sv=%d]" % q1218.n_support_vectors
        assert registry.label_for(2).startswith("q9/15[")
        assert set(registry.backends()) == {q915, q1218}
        assert "epoch=" in repr(registry)

    def test_backend_label_fallback(self, quadratic_model):
        assert backend_label(quadratic_model) == "SVMModel"
        assert backend_label(quadratic_model.as_backend()).startswith("float64[")


class TestDesignPointJson:
    def test_round_trip(self):
        point = _design_point(
            "paper-9/15", n_features=30, n_sv=68.5, feature_bits=9, coeff_bits=15, stage=3.0
        )
        point.sensitivity, point.specificity, point.gm = 0.85, 0.9, 0.874
        point.energy_nj, point.area_mm2 = 12.5, 0.031
        restored = DesignPoint.from_json(point.to_json(indent=2))
        assert restored == point
        assert restored.extras == {"stage": 3.0}

    def test_nan_metrics_emit_strict_json(self):
        """Unevaluated points carry NaN metrics; the payload must still be
        RFC-8259 JSON (``null``, never the ``NaN`` literal non-Python
        parsers reject) and read back as NaN."""
        point = _design_point("pre-eval", 30, 24, 9, 15, odd=float("nan"))
        payload = point.to_json()
        assert "NaN" not in payload and '"gm": null' in payload
        restored = DesignPoint.from_json(payload)
        assert math.isnan(restored.gm)
        assert math.isnan(restored.sensitivity) and math.isnan(restored.specificity)
        assert math.isnan(restored.extras["odd"])
        assert restored.name == point.name and restored.feature_bits == 9

    def test_rejects_malformed_payloads(self):
        point = _design_point("p", 10, 8, 9, 15)
        with pytest.raises(ValueError, match="unknown"):
            DesignPoint.from_json(point.to_json().replace('"name"', '"nom"'))
        with pytest.raises(ValueError, match="missing"):
            DesignPoint.from_json('{"name": "p"}')
        with pytest.raises(ValueError, match="object"):
            DesignPoint.from_json("[1, 2]")


# ---------------------------------------------------------------------------
# Backend adapters
# ---------------------------------------------------------------------------


class TestBackendAdapters:
    def test_full_width_adapter_is_transparent(self, quadratic_model, feature_matrix):
        backend = FloatSVMBackend(quadratic_model)
        X = feature_matrix.X
        scores, labels = backend.scores_and_labels(X)
        ref_scores, ref_labels = quadratic_model.scores_and_labels(X)
        assert np.array_equal(scores, ref_scores) and np.array_equal(labels, ref_labels)
        assert np.array_equal(labels, quadratic_model.predict(X))
        assert backend.n_features == quadratic_model.n_features
        assert backend.n_support_vectors == quadratic_model.n_support_vectors

    def test_feature_projection_equals_manual_slice(self, feature_matrix):
        from repro.svm.model import train_svm

        indices = [0, 5, 11, 17, 23, 31, 40, 52]
        sliced = feature_matrix.X[:, indices]
        model = train_svm(sliced, feature_matrix.y)
        quantized = QuantizedSVM(model, QuantizationConfig(feature_bits=9, coeff_bits=15))
        backend = QuantizedSVMBackend(quantized, feature_indices=indices)
        scores, labels = backend.scores_and_labels(feature_matrix.X)
        ref_scores, ref_labels = quantized.scores_and_labels(sliced)
        assert np.array_equal(scores, ref_scores) and np.array_equal(labels, ref_labels)
        assert np.array_equal(scores, quantized.decision_function(sliced))

    def test_projection_validation(self, quadratic_model, feature_matrix):
        with pytest.raises(ValueError, match="selects 2 columns"):
            FloatSVMBackend(quadratic_model, feature_indices=[0, 1])
        quantized = QuantizedSVM(quadratic_model, QuantizationConfig())
        backend = QuantizedSVMBackend(
            quantized, feature_indices=list(range(52, 52 + quadratic_model.n_features))
        )
        with pytest.raises(ValueError, match="only"):
            backend.scores_and_labels(feature_matrix.X)

    def test_describe_and_name_override(self, quadratic_model):
        quantized = QuantizedSVM(
            quadratic_model, QuantizationConfig(feature_bits=9, coeff_bits=15)
        )
        assert quantized.as_backend().describe() == "q9/15[f=%d,sv=%d]" % (
            quantized.n_features,
            quantized.n_support_vectors,
        )
        assert quantized.as_backend(name="paper-point").describe() == "paper-point"
        assert "paper-point" in repr(quantized.as_backend(name="paper-point"))
        named = quadratic_model.as_backend(name="reference")
        assert named.describe() == "reference" and "reference" in repr(named)

    def test_grouped_classify_resolves_before_classifying(self, q915, feature_matrix):
        strict = ModelRegistry(models={0: q915})
        pending = [
            PendingWindow(0, 0.0, 180.0, 100, feature_matrix.X[0]),
            PendingWindow(5, 0.0, 180.0, 100, feature_matrix.X[1]),
        ]
        with pytest.raises(KeyError, match="patient 5"):
            classify_grouped(strict.backend_for, pending)


# ---------------------------------------------------------------------------
# Design-point builders
# ---------------------------------------------------------------------------


class TestDesignPointBuilders:
    def test_float_reference_point_builds_float_backend(self, feature_matrix):
        point = _design_point("baseline-64bit", feature_matrix.n_features, 1, 64, 64)
        backend = backend_from_design_point(point, feature_matrix)
        assert isinstance(backend, FloatSVMBackend)
        assert backend.describe() == "baseline-64bit"
        assert backend.feature_indices is None

    def test_reduced_point_projects_and_budgets(self, lean_backend, feature_matrix):
        assert isinstance(lean_backend, QuantizedSVMBackend)
        assert lean_backend.n_features == 30
        assert lean_backend.n_support_vectors <= 24
        assert lean_backend.config.feature_bits == 8
        assert lean_backend.config.coeff_bits == 12
        # The backend consumes *full-width* fleet vectors.
        scores, labels = lean_backend.scores_and_labels(feature_matrix.X)
        assert scores.shape[0] == feature_matrix.n_samples
        assert set(np.unique(labels)) <= {-1, 1}

    def test_quantization_template_knobs_are_kept(self, feature_matrix):
        template = QuantizationConfig(
            truncate_after_dot=6, truncate_after_square=4, per_feature_scaling=False
        )
        point = _design_point("custom", feature_matrix.n_features, 16, 10, 14)
        backend = backend_from_design_point(point, feature_matrix, quantization=template)
        assert backend.config.feature_bits == 10 and backend.config.coeff_bits == 14
        assert backend.config.truncate_after_dot == 6
        assert backend.config.truncate_after_square == 4
        assert not backend.config.per_feature_scaling

    def test_invalid_feature_count_rejected(self, feature_matrix):
        point = _design_point("too-wide", feature_matrix.n_features + 1, 16, 9, 15)
        with pytest.raises(ValueError, match="wants"):
            backend_from_design_point(point, feature_matrix)

    def test_from_design_points_shares_backends_per_configuration(self, feature_matrix):
        paper = _design_point("paper-9/15", 30, 24, 9, 15)
        renamed = _design_point("paper-9/15-bis", 30, 24, 9, 15)
        wide = _design_point("wide-12/18", feature_matrix.n_features, 24, 12, 18)
        registry = ModelRegistry.from_design_points(
            {0: paper, 1: paper, 2: wide, 3: renamed}, feature_matrix, default=paper
        )
        # One trained backend per distinct design point, shared by patients.
        assert registry.backend_for(0) is registry.backend_for(1)
        assert registry.backend_for(0) is registry.default
        assert registry.backend_for(2) is not registry.backend_for(0)
        assert registry.label_for(0) == "paper-9/15"
        assert registry.label_for(2) == "wide-12/18"
        # A same-configuration point under a different *name* gets its own
        # backend: the per-model drain ledger must never misattribute labels.
        assert registry.backend_for(3) is not registry.backend_for(0)
        assert registry.label_for(3) == "paper-9/15-bis"
        # Round trip through JSON persistence builds the same configuration.
        reloaded = DesignPoint.from_json(wide.to_json())
        rebuilt = backend_from_design_point(reloaded, feature_matrix)
        scores, _ = rebuilt.scores_and_labels(feature_matrix.X)
        ref_scores, _ = registry.backend_for(2).scores_and_labels(feature_matrix.X)
        assert np.array_equal(scores, ref_scores)


# ---------------------------------------------------------------------------
# Heterogeneous fleet parity (full DSP path)
# ---------------------------------------------------------------------------


def _offline_reference(streams, fs, registry):
    """Per-patient offline classification, each patient with their own model."""
    decisions = []
    for patient_id, chunks in streams.items():
        monitor = StreamingMonitor(patient_id, fs)
        pending = []
        for chunk in chunks:
            pending.extend(monitor.push(chunk))
        pending.extend(monitor.finish())
        decisions.extend(classify_windows(registry.backend_for(patient_id), pending))
    decisions.sort(key=decision_sort_key)
    return decisions


def _assert_identical(reference, candidate, *, float_patients=()):
    assert len(candidate) == len(reference) > 0
    for expected, got in zip(reference, candidate):
        assert got.patient_id == expected.patient_id
        assert got.start_s == expected.start_s
        assert got.end_s == expected.end_s
        assert got.usable == expected.usable
        assert got.alarm == expected.alarm
        if expected.score is None:
            assert got.score is None
        elif got.patient_id in float_patients:
            # Float scores: BLAS may dispatch differently per batch shape.
            assert math.isclose(got.score, expected.score, rel_tol=1e-9, abs_tol=1e-12)
        else:
            assert got.score == expected.score  # fixed point: bit identical


class TestHeterogeneousFleetParity:
    def test_fleet_matches_per_patient_offline(self, fleet_streams, het_registry):
        reference = _offline_reference(fleet_streams, FS, het_registry)
        fleet = MonitorFleet(het_registry, FS)
        decisions = sorted(fleet.run(fleet_streams), key=decision_sort_key)
        _assert_identical(reference, decisions, float_patients={1})
        # All four models actually classified something.
        assert {het_registry.label_for(d.patient_id) for d in decisions if d.usable} == {
            backend_label(het_registry.backend_for(pid)) for pid in fleet_streams
        }

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_heterogeneous_parity(self, fleet_streams, het_registry, n_shards):
        reference = _offline_reference(fleet_streams, FS, het_registry)
        sharded = ShardedFleet(het_registry, FS, n_shards=n_shards)
        decisions = sharded.run(fleet_streams, drain_every=4)
        _assert_identical(reference, decisions, float_patients={1})

    def test_single_model_registry_matches_plain_fleet(self, fleet_streams, q915):
        plain = MonitorFleet(q915, FS).run(fleet_streams)
        wrapped = MonitorFleet(ModelRegistry(default=q915), FS).run(fleet_streams)
        assert wrapped == plain  # decision-for-decision, scores bit-identical
        plain_sharded = ShardedFleet(q915, FS, n_shards=2).run(fleet_streams)
        wrapped_sharded = ShardedFleet(ModelRegistry(default=q915), FS, n_shards=2).run(
            fleet_streams
        )
        assert wrapped_sharded == plain_sharded == plain

    def test_hot_swap_takes_effect_next_drain(self, q915, q1218, feature_matrix):
        fleet = MonitorFleet(ModelRegistry(default=q915), FS)
        window = PendingWindow(4, 0.0, 180.0, 100, feature_matrix.X[0])
        fleet.enqueue([window])
        before = fleet.drain()[0]
        epoch = fleet.register_model(4, q1218)
        assert fleet.registry.version_of(4) == epoch
        fleet.enqueue([PendingWindow(4, 180.0, 360.0, 100, feature_matrix.X[0])])
        after = fleet.drain()[0]
        ref_before = float(q915.scores_and_labels(feature_matrix.X[:1])[0][0])
        ref_after = float(q1218.scores_and_labels(feature_matrix.X[:1])[0][0])
        assert before.score == ref_before
        assert after.score == ref_after
        assert fleet.model_label_for(4).startswith("q12/18[")


class TestGatewayHeterogeneousParity:
    """The TCP front door preserves heterogeneous parity (quantized backends:
    bit-exact regardless of how asyncio interleaves the node uplinks)."""

    def _registry(self, q915, q1218, lean_backend):
        return ModelRegistry(default=q915, models={1: q1218, 3: lean_backend})

    def test_tcp_gateway_matches_offline(self, fleet_streams, q915, q1218, lean_backend):
        registry = self._registry(q915, q1218, lean_backend)
        reference = _offline_reference(fleet_streams, FS, registry)

        async def run_gateway():
            fleet = ShardedFleet(registry, FS, n_shards=2)
            gateway = IngestGateway(fleet, queue_depth=8, backpressure="block")
            host, port = await gateway.serve()

            async def node(patient_id, chunks):
                _, writer = await asyncio.open_connection(host, port)
                for seq, chunk in enumerate(chunks):
                    writer.write(encode_chunk(patient_id, seq, FS, chunk))
                    await writer.drain()
                writer.close()
                await writer.wait_closed()

            await asyncio.gather(
                *[node(pid, chunks) for pid, chunks in sorted(fleet_streams.items())]
            )
            decisions = await gateway.stop()
            return decisions, gateway.stats()

        decisions, stats = asyncio.run(run_gateway())
        _assert_identical(reference, decisions)
        # Per-model drain counts: every decision attributed to its model.
        expected = {}
        for decision in decisions:
            label = registry.label_for(decision.patient_id)
            expected[label] = expected.get(label, 0) + 1
        assert stats.drained_by_model == expected
        assert sum(stats.drained_by_model.values()) == len(decisions)


# ---------------------------------------------------------------------------
# Property: group-by-model drains preserve the canonical decision order
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quantized_trio(quadratic_model):
    return [
        QuantizedSVM(quadratic_model, config).as_backend()
        for config in (
            QuantizationConfig(feature_bits=9, coeff_bits=15),
            QuantizationConfig(feature_bits=12, coeff_bits=18),
            QuantizationConfig(feature_bits=8, coeff_bits=12),
        )
    ]


class TestGroupedDrainOrderProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_shards=st.sampled_from([1, 2, 3, 4]))
    def test_grouped_drain_emits_single_model_order(
        self, quantized_trio, feature_matrix, seed, n_shards
    ):
        rng = np.random.default_rng(seed)
        n_windows = int(rng.integers(1, 50))
        pending = []
        for i in range(n_windows):
            usable = rng.random() > 0.15
            pending.append(
                PendingWindow(
                    patient_id=int(rng.integers(0, 12)),
                    start_s=180.0 * float(rng.integers(0, 8)),
                    end_s=180.0 * float(rng.integers(0, 8)) + 180.0,
                    n_beats=120,
                    features=feature_matrix.X[int(rng.integers(0, feature_matrix.n_samples))]
                    if usable
                    else None,
                )
            )
        assignment = {pid: quantized_trio[int(rng.integers(0, 3))] for pid in range(12)}
        registry = ModelRegistry(models=assignment)
        shared = quantized_trio[0]

        def keys(decisions):
            return [(d.start_s, d.patient_id, d.end_s, d.usable) for d in decisions]

        # Unsharded: the grouped drain must emit the queue's arrival order,
        # exactly as the single-model drain does.
        het, single = MonitorFleet(registry, FS), MonitorFleet(shared, FS)
        het.enqueue(pending)
        single.enqueue(pending)
        het_decisions = het.drain()
        assert keys(het_decisions) == keys(single.drain())

        # Sharded, any shard count: both canonically sorted, same sequence.
        het_sharded = ShardedFleet(registry, FS, n_shards=n_shards)
        single_sharded = ShardedFleet(shared, FS, n_shards=n_shards)
        het_sharded.enqueue(pending)
        single_sharded.enqueue(pending)
        assert keys(het_sharded.drain()) == keys(single_sharded.drain())

        # And the heterogeneous decisions match each window's own model,
        # bit-exactly (fixed-point pipelines are batch-composition invariant).
        for window, decision in zip(pending, het_decisions):
            if not window.usable:
                assert decision.score is None and not decision.alarm
                continue
            backend = registry.backend_for(window.patient_id)
            scores, labels = backend.scores_and_labels(window.features.reshape(1, -1))
            assert decision.score == float(scores[0])
            assert decision.alarm == (int(labels[0]) == 1)
