"""From-scratch numpy neural network framework.

Stands in for the TensorFlow/Keras stack the paper trained its predictors
with, and holds only what that training uses (Section III-B): Dense
layers, ReLU, sparse categorical cross-entropy, Adam, a Sequential
container with a mini-batch training loop, and standard feature scaling.
``mlp_classifier`` builds the paper's exact 5x128 ReLU topology, and
``StackedSequential`` fuses same-topology models for inference.
"""

from repro.nn.layers import Dense, Layer, ReLU, StackedDense
from repro.nn.losses import SparseCategoricalCrossentropy, softmax
from repro.nn.model import (
    Sequential,
    StackedSequential,
    TrainingHistory,
    mlp_classifier,
)
from repro.nn.optimizers import Adam
from repro.nn.scaler import StandardScaler

__all__ = [
    "Layer",
    "Dense",
    "StackedDense",
    "ReLU",
    "SparseCategoricalCrossentropy",
    "softmax",
    "Sequential",
    "StackedSequential",
    "TrainingHistory",
    "mlp_classifier",
    "Adam",
    "StandardScaler",
]
