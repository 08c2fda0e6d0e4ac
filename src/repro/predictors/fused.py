"""Fused cross-shard predictor inference.

The per-shard quality and latency models share one architecture (the
paper's 5x128 ReLU MLP), so all of a cluster's models of one kind fuse
into a single :class:`repro.nn.StackedSequential`: stacked weight tensors
``[S, in, out]``, stacked scaler statistics ``[S, 1, F]``, and — for the
latency models — a precomputed ``[S, n_bins]`` bin-center table.  One
batched matmul per layer then serves every ISN's prediction for a query,
replacing 3 x n_shards tiny forward passes with three fused ones.

**Equivalence guarantee.**  Each stack slice runs the identical 2-D
matmul the per-shard model would (``np.matmul`` over a 3-D operand), the
scaler transform is elementwise, and class/probability extraction mirrors
the per-shard methods operation for operation — so fused outputs are
bit-identical to the per-shard loop.  ``tests/test_batched_inference.py``
asserts this with Hypothesis.

The weight stacks are the models' only storage: fusing rebinds every
per-shard Dense ``W``/``b`` to a view of its stack slice, so each weight
is resident once and retraining writes through.  The scaler statistics
and bin centers are copies, so the
:class:`~repro.predictors.bank.PredictorBank` re-fuses after retraining.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.losses import softmax
from repro.predictors.arrays import FloatArray, IndexArray
from repro.nn.model import StackedSequential
from repro.predictors.latency import LatencyPredictor
from repro.predictors.quality import QualityPredictor


def _stack_scalers(
    models: Sequence[QualityPredictor | LatencyPredictor],
) -> tuple[FloatArray, FloatArray]:
    """Stack fitted StandardScaler statistics into ``[S, 1, F]`` tensors."""
    means = []
    stds = []
    for model in models:
        if model.scaler.mean_ is None or model.scaler.std_ is None:
            raise RuntimeError("cannot fuse an unfitted predictor")
        means.append(model.scaler.mean_)
        stds.append(model.scaler.std_)
    return np.stack(means)[:, None, :], np.stack(stds)[:, None, :]


def _shard_major(
    features: FloatArray, mean: FloatArray, std: FloatArray
) -> FloatArray:
    """Scale ``features[NQ, S, F]`` into the kernel's ``[S, NQ, 1, F]`` layout.

    The transpose is materialized C-contiguous *before* the scaler
    transform so every downstream ufunc/matmul allocates C-ordered
    intermediates (they inherit input layout); the copy and the
    elementwise transform are exact, so bit-identity is unaffected.
    """
    x = np.ascontiguousarray(features.transpose(1, 0, 2))[:, :, None, :]
    return np.asarray((x - mean[:, None]) / std[:, None])


class FusedQualityModels:
    """Every shard's :class:`QualityPredictor` (one K) as one fused stack."""

    def __init__(self, predictors: list[QualityPredictor]) -> None:
        if not predictors:
            raise ValueError("need at least one predictor to fuse")
        if any(not p.trained for p in predictors):
            raise RuntimeError("cannot fuse untrained predictors")
        self.k = predictors[0].k
        if any(p.k != self.k for p in predictors):
            raise ValueError("fused quality predictors must share one K")
        self.mean, self.std = _stack_scalers(predictors)
        self.stack = StackedSequential.from_models([p.model for p in predictors])

    @property
    def n_shards(self) -> int:
        return self.stack.n_stacked

    def predict_with_zero_prob(
        self, features: FloatArray
    ) -> tuple[IndexArray, FloatArray]:
        """All shards' (count, P[class 0]) for one query.

        ``features`` is the query's ``[S, F]`` Table-I matrix; returns
        ``(counts[S], p_zero[S])``.  Mirrors the per-shard
        ``QualityPredictor.predict_with_zero_prob`` exactly: argmax over
        the softmax probabilities, zero-class probability read off the
        same row.
        """
        counts, p_zero = self.predict_with_zero_prob_many(features[None])
        return counts[0], p_zero[0]

    def predict_with_zero_prob_many(
        self, features: FloatArray
    ) -> tuple[IndexArray, FloatArray]:
        """Whole-trace variant: ``[NQ, S, F] -> (counts[NQ, S], p_zero[NQ, S])``.

        One matmul per layer covers every (query, shard) pair; each pair's
        gemm slice keeps the single-row shape, so results stay
        bit-identical to query-at-a-time inference.  Work runs shard-major
        so consecutive slices reuse each shard's weight block.
        """
        x = _shard_major(features, self.mean, self.std)
        probs = softmax(self.stack.forward_batched(x))[:, :, 0, :]  # [S, NQ, K+1]
        return np.argmax(probs, axis=-1).T, probs[:, :, 0].T


class FusedLatencyModels:
    """Every shard's :class:`LatencyPredictor` as one fused stack."""

    def __init__(self, predictors: list[LatencyPredictor]) -> None:
        if not predictors:
            raise ValueError("need at least one predictor to fuse")
        if any(not p.trained for p in predictors):
            raise RuntimeError("cannot fuse untrained predictors")
        self.mean, self.std = _stack_scalers(predictors)
        self.stack = StackedSequential.from_models([p.model for p in predictors])
        # Bin -> milliseconds lookup, one row per shard, built with the
        # same center_ms calls the per-shard path makes.
        self.centers_ms: FloatArray = np.stack(
            [
                np.array(
                    [p.binning.center_ms(b) for b in range(p.binning.n_bins)]
                )
                for p in predictors
            ]
        )

    @property
    def n_shards(self) -> int:
        return self.stack.n_stacked

    def predict_service_ms(self, features: FloatArray) -> FloatArray:
        """All shards' default-frequency service predictions: ``[S]``.

        ``features`` is the query's ``[S, F]`` Table-II matrix.  Mirrors
        ``LatencyPredictor.predict_one_ms``: argmax over logits, then the
        bin's geometric-midpoint center.
        """
        return np.asarray(self.predict_service_ms_many(features[None])[0])

    def predict_service_ms_many(self, features: FloatArray) -> FloatArray:
        """Whole-trace variant: ``[NQ, S, F] -> service_ms[NQ, S]``."""
        x = _shard_major(features, self.mean, self.std)
        bins = np.argmax(self.stack.forward_batched(x)[:, :, 0, :], axis=-1)  # [S, NQ]
        return np.asarray(self.centers_ms[np.arange(self.n_shards)[:, None], bins]).T
