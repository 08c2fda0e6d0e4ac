"""The NN latency predictor (paper Section III-C).

Predicts a query's *service time at the default CPU frequency* on one ISN,
as a classification over log-spaced latency bins — the paper's latency
model likewise has "more neurons on the output layer due to the higher
variability of a query's service time".  Frequency scaling (Eq. 1) and
queueing (Eq. 2, "equivalent latency") are applied on top of the predicted
default-frequency service time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.model import Sequential, TrainingHistory, mlp_classifier
from repro.nn.scaler import StandardScaler
from repro.predictors.arrays import FloatArray, IndexArray
from repro.predictors.features import LATENCY_FEATURE_NAMES


@dataclass(frozen=True)
class LatencyBinning:
    """Log-spaced service-time bins.

    ``edges_ms`` are the interior bin boundaries; a service time maps to
    the index of the first edge above it.  Bin centers (geometric midpoints)
    convert a predicted class back to milliseconds.
    """

    edges_ms: tuple[float, ...]

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges_ms, dtype=np.float64)
        # Bin centers extrapolate from the outermost pair of edges.
        if not (
            edges.size >= 2 and np.isfinite(edges).all() and edges[0] > 0
            and (np.diff(edges) > 0).all()
        ):
            raise ValueError(
                "latency bin edges must be at least two finite, positive, strictly "
                f"increasing ms values, got {self.edges_ms}"
            )

    @classmethod
    def logarithmic(
        cls, lo_ms: float = 0.5, hi_ms: float = 200.0, n_bins: int = 24
    ) -> "LatencyBinning":
        if not 0 < lo_ms < hi_ms:
            raise ValueError("need 0 < lo < hi")
        if n_bins < 3:
            raise ValueError(f"need at least three bins, got n_bins={n_bins}")
        edges = np.geomspace(lo_ms, hi_ms, n_bins - 1)
        return cls(edges_ms=tuple(float(e) for e in edges))

    @property
    def n_bins(self) -> int:
        return len(self.edges_ms) + 1

    def bin_of(self, service_ms: float) -> int:
        return int(np.searchsorted(self.edges_ms, service_ms, side="right"))

    def center_ms(self, bin_index: int) -> float:
        """Representative service time for a bin (geometric midpoint)."""
        edges = self.edges_ms
        if bin_index <= 0:
            return float(edges[0] / np.sqrt(edges[1] / edges[0]))
        if bin_index >= len(edges):
            return float(edges[-1] * np.sqrt(edges[-1] / edges[-2]))
        return float(np.sqrt(edges[bin_index - 1] * edges[bin_index]))


class LatencyPredictor:
    """Per-shard service-time model: features (Table II) -> latency bin."""

    def __init__(
        self,
        binning: LatencyBinning | None = None,
        hidden_layers: int = 5,
        hidden_units: int = 128,
        seed: int = 0,
    ) -> None:
        self.binning = binning or LatencyBinning.logarithmic()
        self.scaler = StandardScaler()
        self.model: Sequential = mlp_classifier(
            n_features=len(LATENCY_FEATURE_NAMES),
            n_classes=self.binning.n_bins,
            hidden_layers=hidden_layers,
            hidden_units=hidden_units,
            seed=seed,
        )
        self.trained = False

    def fit(
        self,
        features: FloatArray,
        service_ms: FloatArray,
        iterations: int = 300,
        seed: int = 0,
        eval_set: tuple[FloatArray, FloatArray] | None = None,
        eval_every: int = 0,
    ) -> TrainingHistory:
        """Train from measured default-frequency service times (ms)."""
        labels = np.array([self.binning.bin_of(float(s)) for s in service_ms])
        x = self.scaler.fit_transform(features)
        if eval_set is not None:
            eval_labels = np.array(
                [self.binning.bin_of(float(s)) for s in eval_set[1]]
            )
            eval_set = (self.scaler.transform(eval_set[0]), eval_labels)
        history = self.model.fit(
            x,
            labels,
            iterations=iterations,
            seed=seed,
            eval_set=eval_set,
            eval_every=eval_every,
        )
        self.trained = True
        return history

    def predict_bins(self, features: FloatArray) -> IndexArray:
        self._require_trained()
        return self.model.predict_classes(self.scaler.transform(np.atleast_2d(features)))

    def predict_service_ms(self, features: FloatArray) -> FloatArray:
        """Predicted default-frequency service times in milliseconds."""
        return np.array(
            [self.binning.center_ms(int(b)) for b in self.predict_bins(features)]
        )

    def predict_one_ms(self, features: FloatArray) -> float:
        return float(self.predict_service_ms(features)[0])

    def accuracy(
        self,
        features: FloatArray,
        service_ms: FloatArray,
        tolerance_bins: int = 1,
    ) -> float:
        """Fraction of queries predicted within ``tolerance_bins`` bins.

        With the default 24 log bins, one bin is ~±30% relative error —
        the "accurate latency prediction" bar behind the paper's 87%.
        """
        self._require_trained()
        true_bins = np.array([self.binning.bin_of(float(s)) for s in service_ms])
        predicted = self.predict_bins(features)
        return float(np.mean(np.abs(predicted - true_bins) <= tolerance_bins))

    def state(self) -> dict[str, FloatArray]:
        """Trained weights + scaler + binning edges: what a fit worker returns."""
        self._require_trained()
        assert self.scaler.mean_ is not None and self.scaler.std_ is not None
        state = {f"model.{k}": v for k, v in self.model.state().items()}
        state["scaler.mean"] = self.scaler.mean_
        state["scaler.std"] = self.scaler.std_
        state["binning.edges"] = np.asarray(self.binning.edges_ms)
        return state

    def load_state(self, state: dict[str, FloatArray]) -> None:
        """Restore a trained predictor from :meth:`state` output."""
        edges = tuple(float(e) for e in state["binning.edges"])
        if edges != self.binning.edges_ms:
            raise ValueError("stored binning does not match this predictor's")
        self.model.load_state(
            {k[len("model."):]: v for k, v in state.items() if k.startswith("model.")}
        )
        self.scaler.mean_ = np.asarray(state["scaler.mean"], dtype=np.float64)
        self.scaler.std_ = np.asarray(state["scaler.std"], dtype=np.float64)
        self.trained = True

    def _require_trained(self) -> None:
        if not self.trained:
            raise RuntimeError("predictor has not been trained")
