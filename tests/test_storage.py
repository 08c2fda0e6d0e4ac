"""Tests for predictor-bank persistence (shards: ``tests/test_store.py``)."""

import pytest

from repro.cluster import SearchCluster
from repro.predictors import PredictorBank


class TestBankRoundtrip:
    def test_save_load_predictions_identical(self, unit_testbed, tmp_path):
        path = tmp_path / "bank.npz"
        unit_testbed.bank.save(path)
        restored = PredictorBank.load(path, unit_testbed.cluster)
        assert restored.trained
        for query in list({q.terms: q for q in unit_testbed.wikipedia_trace}.values())[:10]:
            original = unit_testbed.bank.predict(query)
            loaded = restored.predict(query)
            for a, b in zip(original, loaded):
                assert a.quality_k == b.quality_k
                assert a.quality_half_k == b.quality_half_k
                assert a.service_default_ms == pytest.approx(b.service_default_ms)

    def test_untrained_save_rejected(self, unit_testbed, tmp_path):
        bank = PredictorBank(unit_testbed.cluster)
        with pytest.raises(RuntimeError):
            bank.save(tmp_path / "bank.npz")

    def test_shard_count_mismatch_rejected(self, unit_testbed, shards, tmp_path):
        path = tmp_path / "bank.npz"
        unit_testbed.bank.save(path)
        other = SearchCluster(shards, k=unit_testbed.cluster.k)
        with pytest.raises(ValueError):
            PredictorBank.load(path, other)
