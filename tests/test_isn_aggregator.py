"""Unit tests for the simulated ISN server and the aggregator."""

import pytest

from repro.cluster import (
    Aggregator,
    CostModel,
    Decision,
    EnergyMeter,
    FrequencyScale,
    ISNServer,
    NetworkModel,
    PowerModel,
    Simulator,
)
from repro.retrieval import Query, ShardSearcher


@pytest.fixture()
def isn(shards):
    return ISNServer(
        shard_id=0,
        searcher=ShardSearcher(shards[0], k=5),
        cost_model=CostModel(),
        freq_scale=FrequencyScale(),
        meter=EnergyMeter(PowerModel()),
    )


def submit(isn, sim, query, freq=2.1, deadline=None, done=None):
    outcomes = []
    job = isn.make_job(
        query,
        freq_ghz=freq,
        deadline_ms=deadline,
        on_done=done or (lambda job, ok, busy: outcomes.append((ok, busy))),
    )
    isn.submit(job, sim)
    return job, outcomes


class TestISNServer:
    def test_processes_job(self, isn):
        sim = Simulator()
        query = Query(query_id=0, terms=("t1",))
        job, outcomes = submit(isn, sim, query)
        sim.run()
        assert outcomes == [(True, pytest.approx(sim.now))]
        assert isn.jobs_processed == 1
        assert isn.queued_work_default_ms == 0.0

    def test_fifo_order(self, isn):
        sim = Simulator()
        finished = []
        for qid, term in [(0, "t1"), (1, "t2")]:
            submit(
                isn, sim, Query(query_id=qid, terms=(term,)),
                done=lambda job, ok, busy: finished.append(job.query.query_id),
            )
        sim.run()
        assert finished == [0, 1]

    def test_deadline_abort_mid_service(self, isn):
        sim = Simulator()
        query = Query(query_id=0, terms=("t1",))
        probe = isn.make_job(query, 2.1, None, lambda *a: None)
        service = isn.cost_model.service_ms(probe.result.cost, 2.1)
        job, outcomes = submit(isn, sim, query, deadline=service / 2)
        sim.run()
        assert outcomes == [(False, pytest.approx(service / 2))]
        assert isn.jobs_aborted >= 1

    def test_expired_in_queue_discarded_without_work(self, isn):
        sim = Simulator()
        q0 = Query(query_id=0, terms=("t1",))
        probe = isn.make_job(q0, 2.1, None, lambda *a: None)
        service = isn.cost_model.service_ms(probe.result.cost, 2.1)
        # First job occupies the server past the second job's deadline.
        submit(isn, sim, q0)
        job, outcomes = submit(
            isn, sim, Query(query_id=1, terms=("t2",)), deadline=service / 10
        )
        sim.run()
        assert outcomes == [(False, 0.0)]
        assert job.aborted_in_queue

    def test_boost_runs_faster(self, isn):
        query = Query(query_id=0, terms=("t1",))
        sim_default = Simulator()
        submit(isn, sim_default, query, freq=2.1)
        sim_default.run()
        default_ms = sim_default.now

        sim_boost = Simulator()
        submit(isn, sim_boost, query, freq=2.7)
        sim_boost.run()
        assert sim_boost.now == pytest.approx(default_ms * 2.1 / 2.7)

    def test_frequency_clamped_to_ladder(self, isn):
        job = isn.make_job(Query(query_id=0, terms=("t1",)), 2.0, None, lambda *a: None)
        assert job.freq_ghz == 2.1

    def test_make_job_call_contract(self, isn):
        # Positional and keyword spellings both stay valid, and the job
        # prices its retrieval work once: every service time derives
        # from job.cycles.
        query = Query(query_id=0, terms=("t1",))
        done = lambda *a: None  # noqa: E731
        by_position = isn.make_job(query, 2.7, 40.0, done)
        by_keyword = isn.make_job(
            query=query, freq_ghz=2.7, deadline_ms=40.0, on_done=done
        )
        for job in (by_position, by_keyword):
            assert (job.freq_ghz, job.deadline_ms, job.boosted) == (2.7, 40.0, True)
            assert (job.shard_id, job.replica_id) == (isn.shard_id, isn.replica_id)
            assert job.on_done is done
            assert job.cycles == isn.cost_model.cycles(job.result.cost)
            assert job.service_default_ms == isn.cost_model.service_ms(
                job.result.cost, isn.freq_scale.default_ghz
            )
        with pytest.raises(AttributeError):
            by_position.not_a_field = 1  # slotted: one fixed record per job

    def test_queued_work_includes_running_job(self, isn):
        sim = Simulator()
        submit(isn, sim, Query(query_id=0, terms=("t1",)))
        submit(isn, sim, Query(query_id=1, terms=("t2",)))
        assert isn.queued_work_default_ms > 0
        assert isn.queue_length == 1  # one waiting, one in service


def make_cluster(shards, policy, k=5):
    sim = Simulator()
    isns = [
        [
            ISNServer(
                shard_id=i,
                searcher=ShardSearcher(shard, k=k),
                cost_model=CostModel(),
                freq_scale=FrequencyScale(),
                meter=EnergyMeter(PowerModel()),
            )
        ]
        for i, shard in enumerate(shards)
    ]
    aggregator = Aggregator(
        isns=isns, policy=policy, network=NetworkModel(), sim=sim, k=k
    )
    return sim, aggregator


class StaticPolicy:
    """Fixed decision for every query; records observations."""

    name = "static"

    def __init__(self, decision):
        self.decision = decision
        self.observed = []

    def decide(self, query, view):
        return self.decision

    def observe(self, record):
        self.observed.append(record)


class TestAggregator:
    def test_isn_ids_must_match_their_position(self, shards):
        # Jobs carry the shard/replica ids of the ISN that made them.
        sim, aggregator = make_cluster(shards, StaticPolicy(Decision(shard_ids=(0,))))
        swapped = [aggregator.groups[1], aggregator.groups[0]]
        with pytest.raises(ValueError):
            Aggregator(
                isns=swapped, policy=aggregator.policy, network=NetworkModel(),
                sim=sim, k=5,
            )

    def test_waits_for_all_without_budget(self, shards):
        policy = StaticPolicy(Decision(shard_ids=(0, 1, 2, 3)))
        sim, aggregator = make_cluster(shards, policy)
        query = Query(query_id=0, terms=("t1", "t12"))
        sim.schedule(0.0, lambda: aggregator.on_query(query))
        sim.run()
        assert len(aggregator.records) == 1
        record = aggregator.records[0]
        assert record.n_counted == 4
        assert record.result.hits
        assert policy.observed == [record]

    def test_budget_drops_stragglers(self, shards):
        # A 0.2 ms budget is below any service time: every ISN aborts and
        # the answer is empty, but the latency respects the deadline.
        policy = StaticPolicy(Decision(shard_ids=(0, 1), time_budget_ms=0.2))
        sim, aggregator = make_cluster(shards, policy)
        sim.schedule(0.0, lambda: aggregator.on_query(Query(query_id=0, terms=("t1",))))
        sim.run()
        record = aggregator.records[0]
        assert record.n_counted == 0
        assert record.result.hits == []
        assert record.latency_ms <= 0.2 + 2 * NetworkModel().delay_ms() + 1e-6

    def test_empty_selection_answers_immediately(self, shards):
        policy = StaticPolicy(Decision(shard_ids=(), coordination_delay_ms=0.5))
        sim, aggregator = make_cluster(shards, policy)
        sim.schedule(0.0, lambda: aggregator.on_query(Query(query_id=0, terms=("t1",))))
        sim.run()
        record = aggregator.records[0]
        assert record.latency_ms == 0.5
        assert record.result.hits == []

    def test_subset_matches_offline_merge(self, shards):
        policy = StaticPolicy(Decision(shard_ids=(0, 2)))
        sim, aggregator = make_cluster(shards, policy)
        query = Query(query_id=0, terms=("t1", "t12"))
        sim.schedule(0.0, lambda: aggregator.on_query(query))
        sim.run()
        from repro.retrieval import DistributedSearcher

        offline = DistributedSearcher(shards, k=5).search(query, shard_ids=[0, 2])
        assert aggregator.records[0].result.hits == offline.hits

    def test_coordination_delay_adds_latency(self, shards):
        fast = StaticPolicy(Decision(shard_ids=(0,)))
        slow = StaticPolicy(Decision(shard_ids=(0,), coordination_delay_ms=5.0))
        latencies = []
        for policy in (fast, slow):
            sim, aggregator = make_cluster(shards, policy)
            sim.schedule(0.0, lambda a=aggregator: a.on_query(Query(query_id=0, terms=("t1",))))
            sim.run()
            latencies.append(aggregator.records[0].latency_ms)
        assert latencies[1] == pytest.approx(latencies[0] + 5.0)

    def test_docs_searched_counts_partial_work(self, shards):
        # Abort mid-service: C_RES charges the fraction actually scanned.
        policy = StaticPolicy(Decision(shard_ids=(0,), time_budget_ms=0.5))
        sim, aggregator = make_cluster(shards, policy)
        sim.schedule(0.0, lambda: aggregator.on_query(Query(query_id=0, terms=("t1",))))
        sim.run()
        record = aggregator.records[0]
        full = ShardSearcher(shards[0], k=5).search(Query(query_id=0, terms=("t1",)))
        assert 0 <= record.docs_searched <= full.cost.docs_evaluated
