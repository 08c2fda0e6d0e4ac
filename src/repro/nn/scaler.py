"""Feature standardization."""

from __future__ import annotations

import numpy as np


class StandardScaler:
    """Zero-mean unit-variance feature scaling.

    Fitted on the training set only, then applied at inference time.  The
    Table I/II features span wildly different ranges (scores ~10, posting
    lengths ~10^4), so scaling is required for the MLPs to train at all.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("expected a 2-D feature matrix")
        self.mean_ = x.mean(axis=0)
        std = x.std(axis=0)
        # Constant features carry no signal; mapping them to exactly zero
        # (rather than dividing by ~0) keeps training numerically sane.
        self.std_ = np.where(std < 1e-12, 1.0, std)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("scaler is not fitted")
        return (np.asarray(x, dtype=np.float64) - self.mean_) / self.std_

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

