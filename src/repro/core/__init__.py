"""Cottage — the paper's primary contribution.

``budget`` implements Algorithm 1 (time budget determination); ``cottage``
the coordinated policy over an estimate source; ``sources`` the Taily and
exact sources (Cottage-withoutML and the oracle); ``variants`` the
uncoordinated Cottage-ISN ablation.
"""

from repro.core.budget import BudgetDecision, BudgetInput, determine_time_budget
from repro.core.cottage import CottagePolicy
from repro.core.sources import ExactEstimates, TailyEstimates
from repro.core.variants import CottageISNPolicy

__all__ = [
    "BudgetInput",
    "BudgetDecision",
    "determine_time_budget",
    "CottagePolicy",
    "TailyEstimates",
    "ExactEstimates",
    "CottageISNPolicy",
]
