"""Bit-accurate fixed-point model of the quadratic-kernel inference pipeline.

:class:`QuantizedSVM` converts a trained float :class:`~repro.svm.model.SVMModel`
with a quadratic kernel into the integer-only datapath of the accelerator in
Figure 2 of the paper:

1. every feature ``j`` is a signed ``Dbits``-wide integer with a power-of-two
   LSB weight derived from its range exponent ``R_j`` (per-feature scaling) or
   from a single shared exponent (homogeneous scaling);
2. MAC1 accumulates the per-feature products, each re-aligned with a left
   shift of ``2·(R_j − R_min)`` so that all partial products share the scale
   of the least-significant feature; the accumulator then drops
   ``truncate_after_dot`` LSBs;
3. the kernel offset (+1) is added as an integer in the accumulator scale and
   the result is squared, after which ``truncate_after_square`` LSBs are
   dropped;
4. MAC2 multiplies by the quantised ``α_i y_i`` coefficients (``Abits`` wide),
   accumulates over support vectors and adds the quantised bias;
5. the predicted class is the sign of the final accumulator.

Every step uses integer arithmetic only.  Like the datapath, the model has
one pipeline: ``decision_function``, ``predict`` and ``scores_and_labels``
each map the one MAC2 accumulator that ``_accumulator`` returns, its value
times :attr:`QuantizedSVM.output_scale` for the score and its sign for the
label.  The accumulator comes from one of two implementations, chosen at
construction from exact worst-case bounds on the stored words:

* the fused batch kernel (``_accumulate_batch``), when every intermediate
  provably fits int64.  It runs on preallocated per-thread workspaces, with
  MAC1 in int32 words when those provably fit (numpy SIMD-vectorises int32
  products) and in int64 words otherwise;
* exact Python integers (``_accumulate_exact``) otherwise, so arbitrarily
  wide datapaths stay bit-exact.

Traffic, measured on the perfbench workloads and on
``examples/design_space_exploration.py`` (widths "D/A" are Dbits/Abits;
"uniform" is homogeneous scaling with one width throughout):

==========================================================  =================
Caller                                                      Path
==========================================================  =================
9/15 serving detector (both perfbench workloads)            fused, int32 MAC1
Figure 6 grid (Dbits 7–11, Abits 13–17); uniform 9 and 12   fused, int32 MAC1
12-bit per-feature words; Figure 7's uniform 16-bit point   fused, int64 MAC1
≥16-bit per-feature words; uniform ≥24 bits (Figure 7's     exact
uniform 32-bit point, a 64-bit homogeneous datapath)
==========================================================  =================

The boundaries move a little with the trained model, because the bounds are
computed on its stored words.

Setting ``_use_fused = False`` on an instance switches it to the unfused
``_accumulate_int64`` (or exact) reference that the parity tests and
benchmarks compare the kernel against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.markers import int_only
from repro.hardware.accelerator import AcceleratorConfig
from repro.quant.fixed_point import (
    int_bounds,
    quantize_columns,
    quantize_to_int,
    scale_for_exponent,
)
from repro.quant.ranges import (
    coefficient_range_exponent,
    feature_range_exponents,
    global_range_exponent,
)
from repro.svm.kernels import PolynomialKernel
from repro.svm.model import SVMModel

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.quant.backend import QuantizedSVMBackend

__all__ = ["QuantizationConfig", "QuantizedSVM"]


@dataclass
class QuantizationConfig:
    """Quantisation parameters of one fixed-point design point."""

    #: Bits used to represent each feature value (Dbits in the paper).
    feature_bits: int = 9
    #: Bits used to represent each α_i y_i coefficient (Abits in the paper).
    coeff_bits: int = 15
    #: LSBs discarded after the dot product.
    truncate_after_dot: int = 10
    #: LSBs discarded after the squarer.
    truncate_after_square: int = 10
    #: Per-feature power-of-two ranges (True) or one global range (False).
    per_feature_scaling: bool = True
    #: Half-width of the feature ranges in standard deviations of the SV set
    #: (see :data:`repro.quant.ranges.DEFAULT_RANGE_SIGMA`).
    range_margin_sigma: float = 3.0
    #: Width label of a conventional fixed-width datapath (the 64/32/16-bit
    #: pipelines of Figure 7).  It only affects the *hardware cost model*
    #: (the datapath is sized to this width); functionally the accumulators
    #: are given full headroom, as any sane fixed-point design allocates
    #: integer bits so that intermediate results never overflow.
    datapath_cap_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.feature_bits < 2 or self.coeff_bits < 2:
            raise ValueError("feature_bits and coeff_bits must be at least 2")
        if self.truncate_after_dot < 0 or self.truncate_after_square < 0:
            raise ValueError("truncation amounts cannot be negative")


class _BatchWorkspace:
    """Preallocated per-thread buffers for the fused batch kernel.

    One workspace holds every intermediate of a whole window batch: the
    standardised floats, the quantised words and the MAC1 panel (both in the
    detector's MAC1 word type), the int64 squarer panel and the MAC2 output
    vector.  A steady-state serving drain therefore runs the entire
    quantised pipeline without allocating.
    """

    __slots__ = ("capacity", "scaled", "q", "mac1", "acc1", "acc2")

    def __init__(
        self, capacity: int, n_features: int, n_support_vectors: int, mac1_dtype: np.dtype
    ) -> None:
        self.capacity = capacity
        self.scaled = np.empty((capacity, n_features), dtype=np.float64)
        self.q = np.empty((capacity, n_features), dtype=mac1_dtype)
        self.mac1 = np.empty((capacity, n_support_vectors), dtype=mac1_dtype)
        self.acc1 = np.empty((capacity, n_support_vectors), dtype=np.int64)
        self.acc2 = np.empty(capacity, dtype=np.int64)


class QuantizedSVM:
    """Integer-only implementation of the quadratic-kernel SVM pipeline."""

    def __init__(self, model: SVMModel, config: Optional[QuantizationConfig] = None) -> None:
        if config is None:
            config = QuantizationConfig()
        kernel = model.kernel
        if not isinstance(kernel, PolynomialKernel) or kernel.degree != 2:
            raise ValueError("the fixed-point pipeline implements the quadratic kernel only")
        if abs(kernel.gamma - 1.0) > 1e-12 or abs(kernel.coef0 - 1.0) > 1e-12:
            raise ValueError("the quadratic kernel must be (x·y + 1)^2 (gamma=1, coef0=1)")

        self.model = model
        self.config = config

        sv = model.scaled_support_vectors()
        self.n_support_vectors, self.n_features = sv.shape

        # ----------------------------------------------------- feature ranges
        if config.per_feature_scaling:
            self.range_exponents = feature_range_exponents(sv, config.range_margin_sigma)
        else:
            self.range_exponents = np.full(
                self.n_features,
                global_range_exponent(sv, config.range_margin_sigma),
                dtype=int,
            )
        self.feature_scales = np.array(
            [scale_for_exponent(r, config.feature_bits) for r in self.range_exponents]
        )

        # Shift that re-aligns each feature product to the scale of the
        # smallest exponent (implemented as a barrel shifter in hardware).
        r_min = int(np.min(self.range_exponents))
        self.product_shifts = 2 * (self.range_exponents - r_min)
        #: Real value of one LSB of the MAC1 accumulator before truncation.
        self.dot_scale = float(
            2.0 ** (2 * (r_min - config.feature_bits + 1))
        )
        #: Real value of one LSB of the dot product after truncation.
        self.dot_scale_truncated = self.dot_scale * (2.0**config.truncate_after_dot)
        #: Real value of one LSB of the kernel value after squaring + truncation.
        self.kernel_scale = (self.dot_scale_truncated**2) * (
            2.0**config.truncate_after_square
        )

        # --------------------------------------------------------- constants
        self.sv_int = self._quantize_features(sv)
        self.kernel_offset_int = int(round(1.0 / self.dot_scale_truncated))

        # ------------------------------------------------------ coefficients
        self.coeff_exponent = coefficient_range_exponent(model.dual_coef)
        self.coeff_scale = scale_for_exponent(self.coeff_exponent, config.coeff_bits)
        self.coeff_int = quantize_to_int(model.dual_coef, self.coeff_scale, config.coeff_bits)

        #: Real value of one LSB of the MAC2 accumulator.
        self.output_scale = self.coeff_scale * self.kernel_scale
        self.bias_int = int(round(model.bias / self.output_scale))

        # The worst-case MAC1 bounds are a Python-integer loop over every
        # support-vector word; both overflow checks read them, so it runs once.
        acc1_max, sv_shifted_max = self._worst_case_acc1()
        self._use_fast_path = self._fits_int64(acc1_max)

        # Fused batch kernel (fast path only): the shifted support-vector
        # matrix is precomputed and transposed once so MAC1 over a whole
        # batch is a single contiguous einsum, and per-thread workspaces let
        # repeated serving drains run with zero heap allocations.  Gated on
        # ``feature_bits <= 62`` because wider feature words quantise through
        # exact Python integers, which the integer workspaces cannot hold.
        self._use_fused = self._use_fast_path and config.feature_bits <= 62
        # MAC1 word type, fixed here: int32 when the exact worst-case bound
        # proves every MAC1 intermediate fits a 32-bit word (numpy
        # SIMD-vectorises int32 products; int64 ones go through a scalar
        # loop), int64 otherwise.  Either way the arithmetic cannot wrap, so
        # the kernel is bit-identical to the int64 reference.
        self._use_narrow_mac1 = self._use_fused and self._fits_int32_mac1(
            acc1_max, sv_shifted_max
        )
        self._mac1_dtype = np.dtype(np.int32) if self._use_narrow_mac1 else np.dtype(np.int64)
        self._tls: threading.local = threading.local()
        self._sv_shifted_t: Optional[np.ndarray] = None
        self._coeff_i64: Optional[np.ndarray] = None
        if self._use_fused:
            sv_shifted = self.sv_int.astype(np.int64) << self.product_shifts.astype(
                np.int64
            )[None, :]
            self._sv_shifted_t = np.ascontiguousarray(sv_shifted.T, dtype=self._mac1_dtype)
            self._coeff_i64 = self.coeff_int.astype(np.int64)

    def __getstate__(self) -> Dict[str, Any]:
        # ``threading.local`` does not pickle, so a pickled (or deep-copied)
        # model drops its per-thread workspace registry and rebuilds an
        # empty one on arrival.  The workspaces themselves stay: they are
        # what keeps callers on different threads from sharing buffers.
        state = self.__dict__.copy()
        state.pop("_tls", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._tls = threading.local()

    @property
    def _sv_shifted_t32(self) -> Optional[np.ndarray]:
        """The MAC1 operand when MAC1 runs in int32 words, else ``None``."""
        return self._sv_shifted_t if self._use_narrow_mac1 else None

    # ------------------------------------------------------------------ API
    def _quantize_features(self, values: np.ndarray) -> np.ndarray:
        """Quantise a feature matrix with the per-column feature scales."""
        return quantize_columns(values, self.feature_scales, self.config.feature_bits)

    def _as_batch(self, X: np.ndarray) -> np.ndarray:
        """``X`` as a 2-D float batch of ``n_features`` columns (validated)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise ValueError("expected %d features, got %d" % (self.n_features, X.shape[1]))
        return X

    def quantize_input(self, X: np.ndarray) -> np.ndarray:
        """Quantise raw test vectors exactly as the accelerator front-end does.

        The model's scaler (fitted at training time) is applied first — it is
        part of the feature-extraction stage, not of the inference
        accelerator — then each feature is rounded to its fixed-point grid and
        saturated to its ``[-2^{R_j}, 2^{R_j})`` range.
        """
        X = self._as_batch(X)
        if self.model.scaler is not None:
            X = self.model.scaler.transform(X)
        return self._quantize_features(X)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Approximate real-valued decision score implied by the integer pipeline."""
        return self._accumulator(X).astype(float) * self.output_scale

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class labels in ``{-1, +1}`` from the integer pipeline (sign bit).

        Accepts a whole batch of windows at once; the labels are bit-identical
        to a per-window loop, which is what the
        :class:`~repro.serving.fleet.MonitorFleet` batched drain relies on.
        """
        return np.where(self._accumulator(X) >= 0, 1, -1).astype(int)

    def scores_and_labels(self, X: np.ndarray) -> tuple:
        """Decision scores and class labels from a single pipeline pass.

        Labels are the sign of the integer accumulator (exactly as
        :meth:`predict`); the batched serving drain uses this to avoid
        running the pipeline twice per window batch.
        """
        acc = self._accumulator(X)
        return acc.astype(float) * self.output_scale, np.where(acc >= 0, 1, -1).astype(int)

    def as_backend(
        self,
        feature_indices: "Optional[Sequence[int]]" = None,
        name: Optional[str] = None,
    ) -> "QuantizedSVMBackend":
        """Wrap this pipeline as a serving-layer inference backend.

        The adapter (:class:`~repro.quant.backend.QuantizedSVMBackend`)
        selects the design point's ``feature_indices`` columns from the
        fleet's full-width window vectors before quantisation, so tailored
        per-patient pipelines can share one
        :class:`~repro.serving.registry.ModelRegistry`.
        """
        from repro.quant.backend import QuantizedSVMBackend

        return QuantizedSVMBackend(self, feature_indices=feature_indices, name=name)

    def accelerator_config(self) -> AcceleratorConfig:
        """Hardware design point matching this functional model."""
        return AcceleratorConfig(
            n_features=self.n_features,
            n_support_vectors=self.n_support_vectors,
            feature_bits=self.config.feature_bits,
            coeff_bits=self.config.coeff_bits,
            truncate_after_dot=self.config.truncate_after_dot,
            truncate_after_square=self.config.truncate_after_square,
            per_feature_scaling=self.config.per_feature_scaling,
            datapath_cap_bits=self.config.datapath_cap_bits,
        )

    # ------------------------------------------------------------- pipeline
    @int_only
    def _fits_int64(self, acc1_max: int) -> bool:
        """Worst-case overflow check for the int64 fast path.

        Bounds every intermediate of the pipeline with exact integer
        arithmetic on the *stored* constants (support-vector words,
        coefficient words, offset and bias) against the most adverse
        quantised input (every feature saturated, signs aligned), instead of
        the purely symbolic bit-growth estimate used previously — which was
        so conservative that it pushed the paper's own 9/15-bit design point
        onto the slow exact-arithmetic path.  ``acc1_max`` comes from
        :meth:`_worst_case_acc1`.
        """
        # ``>>`` on a negative value floors towards -inf, so the magnitude
        # after truncation can exceed the shifted magnitude bound by one.
        dot_max = (acc1_max >> self.config.truncate_after_dot) + 1
        sum_max = dot_max + abs(self.kernel_offset_int)
        squared_max = sum_max * sum_max
        kernel_max = (squared_max >> self.config.truncate_after_square) + 1
        acc2_max = (
            sum(abs(int(c)) for c in np.asarray(self.coeff_int)) * kernel_max
            + abs(self.bias_int)
        )
        limit = 1 << 62
        return max(acc1_max, squared_max, acc2_max) < limit

    @int_only
    def _worst_case_acc1(self) -> Tuple[int, int]:
        """Exact worst-case magnitudes of the MAC1 accumulator and of one
        shifted support-vector word, as ``(acc1_max, sv_shifted_max)``.

        ``acc1_max`` is computed against the most adverse quantised input
        (every feature saturated, signs aligned with the support-vector
        words), so it also bounds every partial sum the accumulation can
        ever pass through.  One pass over the words yields both maxima.
        """
        q_max = 1 << (self.config.feature_bits - 1)
        shifts = [1 << int(s) for s in self.product_shifts]
        acc1_max = 0
        sv_shifted_max = 0
        # ``tolist`` yields exact Python integers whatever the array's dtype.
        for row in np.asarray(self.sv_int).tolist():
            shifted = [abs(v) * s for v, s in zip(row, shifts)]
            acc1_max = max(acc1_max, q_max * sum(shifted))
            sv_shifted_max = max(sv_shifted_max, max(shifted, default=0))
        return acc1_max, sv_shifted_max

    @int_only
    def _fits_int32_mac1(self, acc1_max: int, sv_shifted_max: int) -> bool:
        """Exact overflow check for running the MAC1 stage in int32.

        True only when the quantised feature words, the shifted
        support-vector words, the worst-case MAC1 accumulation (hence every
        partial sum of it) and the truncated-plus-offset dot all provably fit
        a signed 32-bit word.  Under that bound int32 arithmetic is exact, so
        the narrow stage is bit-identical to the int64 reference by
        construction; the squarer and MAC2 still run in int64 (guarded by
        :meth:`_fits_int64`).  Both maxima come from :meth:`_worst_case_acc1`.
        """
        limit = 1 << 31
        if (1 << (self.config.feature_bits - 1)) > limit - 1:
            return False
        dot_max = (acc1_max >> self.config.truncate_after_dot) + 1
        sum_max = dot_max + abs(self.kernel_offset_int)
        return max(sv_shifted_max, acc1_max, sum_max) < limit

    def _accumulator(self, X: np.ndarray) -> np.ndarray:
        """MAC2 accumulator of every row of ``X``: the one pipeline pass.

        Every public entry point maps this array: the score is its value
        times :attr:`output_scale`, the label its sign.  With the fused
        kernel on, the result is a *view* into the calling thread's
        workspace, valid only until that thread's next batch, so callers
        consume it at once.  With it off, the unfused :meth:`_accumulate`
        reference runs instead.
        """
        if not self._use_fused:
            return self._accumulate(self.quantize_input(X))
        X = self._as_batch(X)
        n = X.shape[0]
        ws = self._workspace(n)
        q = self._quantize_batch(X, ws)
        return self._accumulate_batch(q, ws.mac1[:n], ws.acc1[:n], ws.acc2[:n])

    def _accumulate(self, q_test: np.ndarray) -> np.ndarray:
        """Unfused integer pipeline for every (already quantised) test row."""
        if self._use_fast_path:
            return self._accumulate_int64(q_test)
        return self._accumulate_exact(q_test)

    # ------------------------------------------------- fused batch kernel
    def _workspace(self, n: int) -> _BatchWorkspace:
        """Calling thread's workspace, grown (by doubling) to hold ``n`` rows."""
        ws: Optional[_BatchWorkspace] = getattr(self._tls, "ws", None)
        if ws is None or ws.capacity < n:
            capacity = 64 if ws is None else ws.capacity
            while capacity < n:
                capacity *= 2
            ws = _BatchWorkspace(
                capacity, self.n_features, self.n_support_vectors, self._mac1_dtype
            )
            self._tls.ws = ws
        return ws

    def _quantize_batch(self, X: np.ndarray, ws: _BatchWorkspace) -> np.ndarray:
        """Quantise a validated float batch into the workspace's MAC1 words.

        Mirrors :meth:`quantize_input` operation for operation — scaler
        standardisation, division by the per-feature scales, round to
        nearest even, saturation, integer cast — so the words are
        bit-identical to the allocating reference path.
        """
        n = X.shape[0]
        scaled = ws.scaled[:n]
        if self.model.scaler is not None:
            self.model.scaler.transform_into(X, scaled)
        else:
            np.copyto(scaled, X)
        np.divide(scaled, self.feature_scales[None, :], out=scaled)
        np.rint(scaled, out=scaled)
        lo, hi = int_bounds(self.config.feature_bits)
        np.clip(scaled, lo, hi, out=scaled)
        q = ws.q[:n]
        np.copyto(q, scaled, casting="unsafe")
        return q

    @int_only
    def _accumulate_batch(
        self,
        q_test: np.ndarray,
        mac1: np.ndarray,
        acc1: np.ndarray,
        acc2: np.ndarray,
    ) -> np.ndarray:
        """Integer pipeline over preallocated accumulators (no temporaries).

        Same arithmetic as :meth:`_accumulate_int64` step for step.  MAC1
        (the dot, its truncation and the kernel offset) runs in the MAC1
        word type of ``q_test`` and ``mac1``; its words widen into the int64
        ``acc1`` for the squarer, and MAC2 accumulates into the int64
        ``acc2``.  einsum
        and matmul on integer operands are exact, so reassociating the MAC
        sums cannot change a bit (integer addition is associative), and
        :meth:`_fits_int32_mac1` and :meth:`_fits_int64` rule out any
        wraparound.
        """
        sv_shifted_t = self._sv_shifted_t
        coeff = self._coeff_i64
        assert sv_shifted_t is not None and coeff is not None
        np.einsum("ij,jk->ik", q_test, sv_shifted_t, out=mac1)
        np.right_shift(mac1, self.config.truncate_after_dot, out=mac1)
        np.add(mac1, self.kernel_offset_int, out=mac1)
        np.copyto(acc1, mac1)
        np.multiply(acc1, acc1, out=acc1)
        np.right_shift(acc1, self.config.truncate_after_square, out=acc1)
        np.matmul(acc1, coeff, out=acc2)
        np.add(acc2, self.bias_int, out=acc2)
        return acc2

    @int_only
    def _accumulate_int64(self, q_test: np.ndarray) -> np.ndarray:
        shifts = self.product_shifts.astype(np.int64)
        sv_shifted = (self.sv_int.astype(np.int64)) << shifts[None, :]
        q_test = q_test.astype(np.int64)
        acc1 = q_test @ sv_shifted.T  # (n_test, n_sv)
        dot = acc1 >> self.config.truncate_after_dot
        summed = dot + np.int64(self.kernel_offset_int)
        squared = summed * summed
        kernel_int = squared >> self.config.truncate_after_square
        acc2 = kernel_int @ self.coeff_int.astype(np.int64)
        return acc2 + np.int64(self.bias_int)

    @int_only
    def _accumulate_exact(self, q_test: np.ndarray) -> np.ndarray:
        """Exact arbitrary-precision path (used by very wide datapaths).

        Returns an object array of exact Python integers.
        """
        trunc1 = self.config.truncate_after_dot
        trunc2 = self.config.truncate_after_square
        shifts = [int(s) for s in self.product_shifts]
        sv_rows = [[int(v) for v in row] for row in np.asarray(self.sv_int)]
        coeffs = [int(c) for c in np.asarray(self.coeff_int)]
        results = []
        for row in np.asarray(q_test):
            test_ints = [int(v) for v in row]
            acc2 = 0
            for sv_row, coeff in zip(sv_rows, coeffs):
                acc1 = 0
                for t, s, shift in zip(test_ints, sv_row, shifts):
                    acc1 += (t * s) << shift
                dot = acc1 >> trunc1
                summed = dot + self.kernel_offset_int
                kernel_int = (summed * summed) >> trunc2
                acc2 = acc2 + coeff * kernel_int
            results.append(acc2 + self.bias_int)
        return np.array(results, dtype=object)
