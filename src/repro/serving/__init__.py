"""The open-loop serving drivers: load generation, queueing model, campaigns.

The drivers feed :meth:`repro.cluster.engine.SearchCluster.serve`, which
runs on the same engine as closed-loop ``run_trace``; admission control
(:mod:`repro.cluster.admission`) and the streaming ``ServingStats`` sink
are cluster code, re-exported here.

* :mod:`repro.serving.arrivals` — seeded Poisson and modulated-Poisson
  arrival processes: the three kinds ``make_arrivals`` builds (poisson,
  diurnal, burst);
* :mod:`repro.serving.stream` — lazy :class:`QueryStream` workloads over
  Zipf-popular query pools (bounded memory at any length);
* :mod:`repro.serving.queueing` — the closed M/G/1 fork-join model and
  the measured-knee locator;
* :mod:`repro.serving.campaign` — QPS sweeps producing
  throughput–latency–power curves and the knee-vs-model verdict.
"""

from repro.cluster.admission import AdmissionConfig, AdmissionController
from repro.cluster.engine import ServingStats
from repro.serving.arrivals import (
    ArrivalProcess,
    BurstProfile,
    DiurnalProfile,
    ModulatedPoissonProcess,
    PoissonProcess,
    make_arrivals,
)
from repro.serving.campaign import (
    CampaignConfig,
    CampaignResult,
    SweepPoint,
    run_campaign,
    zipf_weights,
)
from repro.serving.queueing import (
    ClusterQueueingModel,
    KneeEstimate,
    ShardLoadModel,
    locate_knee,
    model_from_policy,
)
from repro.serving.stream import QueryStream, pool_from_corpus

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "ArrivalProcess",
    "BurstProfile",
    "CampaignConfig",
    "CampaignResult",
    "ClusterQueueingModel",
    "DiurnalProfile",
    "KneeEstimate",
    "ModulatedPoissonProcess",
    "PoissonProcess",
    "QueryStream",
    "ServingStats",
    "ShardLoadModel",
    "SweepPoint",
    "locate_knee",
    "make_arrivals",
    "model_from_policy",
    "pool_from_corpus",
    "run_campaign",
    "zipf_weights",
]
