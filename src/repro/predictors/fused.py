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

The weight stacks are the models' only storage and are not built here:
the :class:`~repro.predictors.bank.PredictorBank` allocates them with its
predictors, every per-shard Dense ``W``/``b`` a view of its slice from the
start, and training and ``load_state`` write through.  Fusing stacks only
the scaler statistics and bin centers, copies the bank re-fuses after
retraining.
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
    """Stack trained predictors' scaler statistics into ``[S, 1, F]`` tensors."""
    means = []
    stds = []
    for model in models:
        if not model.trained or model.scaler.mean_ is None or model.scaler.std_ is None:
            raise RuntimeError("cannot fuse untrained predictors")
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
    """Every shard's :class:`QualityPredictor` (one K) over its weight stack."""

    def __init__(
        self, predictors: list[QualityPredictor], stack: StackedSequential
    ) -> None:
        self.mean, self.std = _stack_scalers(predictors)
        self.k = predictors[0].k
        if any(p.k != self.k for p in predictors):
            raise ValueError("fused quality predictors must share one K")
        self.stack = stack

    @property
    def n_shards(self) -> int:
        return self.stack.n_stacked

    def predict_with_zero_prob_many(
        self, features: FloatArray
    ) -> tuple[IndexArray, FloatArray]:
        """Every shard's (count, P[class 0]) for each query's Table-I matrix:
        ``[NQ, S, F] -> (counts[NQ, S], p_zero[NQ, S])``, as the per-shard
        ``QualityPredictor.predict_with_zero_prob`` computes them.

        One matmul per layer covers every (query, shard) pair; each pair's
        gemm slice keeps the single-row shape, so results stay
        bit-identical to query-at-a-time inference.  Work runs shard-major
        so consecutive slices reuse each shard's weight block.
        """
        x = _shard_major(features, self.mean, self.std)
        probs = softmax(self.stack.forward_batched(x))[:, :, 0, :]  # [S, NQ, K+1]
        return np.argmax(probs, axis=-1).T, probs[:, :, 0].T


class FusedLatencyModels:
    """Every shard's :class:`LatencyPredictor` over its weight stack."""

    def __init__(
        self, predictors: list[LatencyPredictor], stack: StackedSequential
    ) -> None:
        self.mean, self.std = _stack_scalers(predictors)
        self.stack = stack
        # Bin -> milliseconds lookup, one row per shard, built with the
        # same center_ms calls the per-shard path makes.
        self.centers_ms: FloatArray = np.array(
            [[p.binning.center_ms(b) for b in range(p.binning.n_bins)] for p in predictors]
        )

    @property
    def n_shards(self) -> int:
        return self.stack.n_stacked

    def predict_service_ms_many(self, features: FloatArray) -> FloatArray:
        """Every shard's default-frequency service time for each query's
        Table-II matrix, ``[NQ, S, F] -> service_ms[NQ, S]``: argmax over
        the logits, then the bin center, as ``LatencyPredictor`` does."""
        x = _shard_major(features, self.mean, self.std)
        bins = np.argmax(self.stack.forward_batched(x)[:, :, 0, :], axis=-1)  # [S, NQ]
        return np.asarray(self.centers_ms[np.arange(self.n_shards)[:, None], bins]).T
