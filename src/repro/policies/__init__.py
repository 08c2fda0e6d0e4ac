"""Baseline ISN-selection policies the paper compares Cottage against."""

from repro.policies.aggregation import AggregationPolicy
from repro.policies.base import BasePolicy
from repro.policies.exhaustive import ExhaustivePolicy
from repro.policies.rank_s import RankSPolicy
from repro.policies.taily import TailyPolicy

__all__ = [
    "BasePolicy",
    "ExhaustivePolicy",
    "AggregationPolicy",
    "RankSPolicy",
    "TailyPolicy",
]
