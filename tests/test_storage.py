"""Tests for predictor-bank persistence (shards: ``tests/test_store.py``)."""

import numpy as np
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

    @pytest.mark.parametrize(
        "edit, named",
        [
            ("remove", "shard1.latency: missing model state key 'layer4.W'"),
            ("add", "shard0.quality_k: unexpected model state key 'layer12.W'"),
            ("add_predictor", "unexpected predictor 'shard8.latency'"),
        ],
    )
    def test_incomplete_or_foreign_bank_rejected(
        self, unit_testbed, tmp_path, edit, named
    ):
        """A bank missing one layer's array used to load with that layer's
        random initial weights, and predict wrong answers without error."""
        path = tmp_path / "bank.npz"
        unit_testbed.bank.save(path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        if edit == "remove":
            del arrays["shard1.latency.model.layer4.W"]
        elif edit == "add":
            arrays["shard0.quality_k.model.layer12.W"] = np.zeros((128, 128))
        else:
            arrays["shard8.latency.model.layer0.W"] = np.zeros((15, 128))
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError) as excinfo:
            PredictorBank.load(path, unit_testbed.cluster)
        assert str(excinfo.value) == f"{path}: {named}"
