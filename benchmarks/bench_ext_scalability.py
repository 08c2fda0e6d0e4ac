"""Extension — optimizer scalability in the number of ISNs.

The paper argues Algorithm 1 is O(n log n) and "for this range [a few
hundred ISNs] our optimizer can scale well" (Section III-D, citing
Unicorn's query rewriting).  This bench times the budget determination on
synthetic prediction tuples from 16 to 512 ISNs and checks the growth is
sub-quadratic.

Pays for: EXPERIMENTS.md "Beyond the paper": "~170 µs for 512 ISNs" (wall, hand-run).
"""

import time

import numpy as np

from repro.core import BudgetInput, determine_time_budget


def _inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    inputs = []
    for sid in range(n):
        q_k = int(rng.integers(0, 4))
        boosted = float(rng.uniform(1.0, 30.0))
        inputs.append(
            BudgetInput(
                shard_id=sid,
                quality_k=q_k,
                quality_half_k=int(rng.integers(0, q_k + 1)) if q_k else 0,
                latency_current_ms=boosted * 1.286,
                latency_boosted_ms=boosted,
            )
        )
    return inputs


def _time_once(n, repeats=50):
    inputs = _inputs(n)
    start = time.perf_counter()
    for _ in range(repeats):
        determine_time_budget(inputs)
    return (time.perf_counter() - start) / repeats * 1e6  # microseconds


def test_ext_optimizer_scalability():
    sizes = (16, 64, 256, 512)
    micros = {n: _time_once(n) for n in sizes}

    print("\nExtension — Algorithm 1 decision time vs cluster size:")
    for n, us in micros.items():
        print(f"  {n:4d} ISNs: {us:8.1f} us")
    # Decisions stay sub-millisecond at the paper's "few hundred ISNs".
    assert micros[512] < 2000.0
    # Growth from 16 -> 512 ISNs (32x) stays well under quadratic (1024x).
    assert micros[512] / micros[16] < 200.0


def test_ext_decision_correct_at_scale():
    inputs = _inputs(512)
    decision = determine_time_budget(inputs)
    by_id = {i.shard_id: i for i in inputs}
    for sid in decision.selected:
        assert by_id[sid].latency_boosted_ms <= decision.time_budget_ms + 1e-9
