"""The NN quality predictor (paper Section III-B).

Predicts, per query and per ISN, how many of the ISN's documents will land
in the final global top-K — an integer in [0, K], treated as a (K+1)-way
classification exactly as the paper does (sparse categorical cross-entropy
over "number of documents at an ISN that will be included in the
corresponding top-K results").
"""

from __future__ import annotations

import numpy as np

from repro.nn.model import Sequential, TrainingHistory, mlp_classifier
from repro.nn.optimizers import Adam
from repro.nn.scaler import StandardScaler
from repro.predictors.arrays import FloatArray, IndexArray, IntArray
from repro.predictors.features import QUALITY_FEATURE_NAMES


class QualityPredictor:
    """Per-shard quality model: features (Table I) -> docs-in-top-K class.

    One instance per (shard, K) pair; Cottage runs two per shard (K and
    K/2) to feed Algorithm 1's Q^K and Q^{K/2}.
    """

    def __init__(
        self,
        k: int,
        hidden_layers: int = 5,
        hidden_units: int = 128,
        seed: int = 0,
    ) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.scaler = StandardScaler()
        self.model: Sequential = mlp_classifier(
            n_features=len(QUALITY_FEATURE_NAMES),
            n_classes=k + 1,
            hidden_layers=hidden_layers,
            hidden_units=hidden_units,
            seed=seed,
        )
        self.trained = False

    def fit(
        self,
        features: FloatArray,
        labels: IntArray,
        iterations: int = 600,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        seed: int = 0,
        eval_set: tuple[FloatArray, IntArray] | None = None,
        eval_every: int = 0,
    ) -> TrainingHistory:
        """Train on (query, shard) samples; labels are clipped to [0, K]."""
        labels = np.clip(np.asarray(labels, dtype=np.int64), 0, self.k)
        x = self.scaler.fit_transform(features)
        if eval_set is not None:
            eval_set = (self.scaler.transform(eval_set[0]),
                        np.clip(np.asarray(eval_set[1], dtype=np.int64), 0, self.k))
        history = self.model.fit(
            x,
            labels,
            iterations=iterations,
            batch_size=batch_size,
            optimizer=Adam(learning_rate=learning_rate),
            seed=seed,
            eval_set=eval_set,
            eval_every=eval_every,
        )
        self.trained = True
        return history

    def predict_counts(self, features: FloatArray) -> IndexArray:
        """Predicted docs-in-top-K for a batch of feature rows."""
        self._require_trained()
        return self.model.predict_classes(self.scaler.transform(np.atleast_2d(features)))

    def predict_with_zero_prob(self, features: FloatArray) -> tuple[int, float]:
        """Predicted count plus the model's probability of class 0.

        The zero probability lets callers gate *cut* decisions on model
        confidence: a predicted zero with low confidence is a shard that
        might still contribute, and cutting it is how quality is lost.
        """
        self._require_trained()
        probs = self.model.predict_proba(
            self.scaler.transform(np.atleast_2d(features))
        )[0]
        return int(np.argmax(probs)), float(probs[0])

    def accuracy(self, features: FloatArray, labels: IntArray) -> float:
        """Exact-class accuracy (the paper's quality-prediction accuracy)."""
        self._require_trained()
        labels = np.clip(np.asarray(labels, dtype=np.int64), 0, self.k)
        return float(np.mean(self.predict_counts(features) == labels))

    def state(self) -> dict[str, FloatArray]:
        """Serializable weights + scaler (see :meth:`load_state`)."""
        self._require_trained()
        assert self.scaler.mean_ is not None and self.scaler.std_ is not None
        state = {f"model.{k}": v for k, v in self.model.state().items()}
        state["scaler.mean"] = self.scaler.mean_
        state["scaler.std"] = self.scaler.std_
        return state

    def load_state(self, state: dict[str, FloatArray]) -> None:
        """Restore a trained predictor from :meth:`state` output."""
        self.model.load_state(
            {k[len("model."):]: v for k, v in state.items() if k.startswith("model.")}
        )
        self.scaler.mean_ = np.asarray(state["scaler.mean"], dtype=np.float64)
        self.scaler.std_ = np.asarray(state["scaler.std"], dtype=np.float64)
        self.trained = True

    def _require_trained(self) -> None:
        if not self.trained:
            raise RuntimeError("predictor has not been trained")
