"""The content-addressed result cache: digests, round-trips, recovery."""

import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.experiments import registry
from repro.experiments.checkpoints import Checkpoint
from repro.experiments.params import FAST_CONFIG, PaperConfig
from repro.ioutils import TMP_MARKER
from repro.runner import cache as cache_mod
from repro.runner.cache import (
    CACHE_SCHEMA,
    ResultCache,
    build_entry,
    cache_key,
    code_fingerprint,
    config_digest,
    decode_result,
    encode_result,
)


class TestDigests:
    def test_config_digest_is_stable(self):
        assert config_digest(FAST_CONFIG) == config_digest(FAST_CONFIG)

    def test_config_digest_distinguishes_configs(self):
        assert config_digest(FAST_CONFIG) != config_digest(None)
        tweaked = PaperConfig(kbar=PaperConfig().kbar * 2)
        assert config_digest(tweaked) != config_digest(PaperConfig())

    def test_digest_matches_an_asdict_hash(self):
        def plain(config):
            text = json.dumps(dataclasses.asdict(config), sort_keys=True)
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        listed = dataclasses.replace(FAST_CONFIG, capacities=[20.0, 30.0])
        for config in (FAST_CONFIG, PaperConfig(), PaperConfig(kbar=100), listed):
            assert config_digest(config) == plain(config)

    def test_code_fingerprint_covers_package_source(self):
        import repro

        root = pathlib.Path(repro.__file__).parent
        assert code_fingerprint() == code_fingerprint()  # cached + stable
        assert any(root.rglob("*.py"))

    def test_cache_key_depends_on_id_and_config(self):
        f1 = registry.get("F1")
        t2 = registry.get("T2")
        assert cache_key(f1, FAST_CONFIG) != cache_key(t2, FAST_CONFIG)
        assert cache_key(f1, FAST_CONFIG) != cache_key(f1, None)

    def test_lambda_registered_ids_digest_their_target(self):
        # S5.1's run is a lambda; its cache identity must come from
        # the declared target, not the lambda's qualname
        s51 = registry.get("S5.1")
        name = cache_mod.target_name(s51)
        assert "lambda" not in name
        assert name.endswith("sampling_series")


class TestEncodeDecode:
    def test_series_round_trip(self):
        result = {"x": np.array([1.0, 2.0]), "y": np.array([0.5, 0.25])}
        kind, payload = encode_result(result)
        assert kind == "series"
        back = decode_result(kind, payload)
        assert set(back) == {"x", "y"}
        np.testing.assert_array_equal(back["x"], result["x"])

    def test_checkpoints_round_trip(self):
        rows = [
            Checkpoint("T9", "made up", 1.0, 1.0 + 1e-12, True),
            Checkpoint("T9", "also made up", 2.0, 3.0, False),
        ]
        kind, payload = encode_result(rows)
        assert kind == "checkpoints"
        back = decode_result(kind, payload)
        assert back == rows

    def test_fallback_is_repr(self):
        kind, payload = encode_result(3.5)
        assert kind == "repr"
        assert decode_result(kind, payload) == "3.5"

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown cached result kind"):
            decode_result("pickle", {})


class TestResultCache:
    def test_one_address_per_load_and_per_store(self, tmp_path, monkeypatch):
        exp = registry.get("T2")
        want = cache_key(exp, FAST_CONFIG)
        calls = []
        real = cache_mod.config_digest

        def counting(config):
            calls.append(config)
            return real(config)

        monkeypatch.setattr(cache_mod, "config_digest", counting)
        cache = ResultCache(tmp_path)
        result = {"x": [1.0, 2.0], "value": [3.0, 4.0]}
        assert cache.load(exp, FAST_CONFIG) is None
        assert len(calls) == 1
        entry = cache.store(exp, FAST_CONFIG, result)
        assert len(calls) == 2
        assert entry["key"] == want
        assert cache.load(exp, FAST_CONFIG) is not None
        assert len(calls) == 3

    def test_store_then_load(self, tmp_path):
        exp = registry.get("T2")
        cache = ResultCache(tmp_path)
        stored = cache.store(exp, FAST_CONFIG, exp.run(FAST_CONFIG))
        loaded = cache.load(exp, FAST_CONFIG)
        assert loaded == stored
        assert loaded["schema"] == CACHE_SCHEMA

    def test_miss_on_other_config(self, tmp_path):
        exp = registry.get("T2")
        cache = ResultCache(tmp_path)
        cache.store(exp, FAST_CONFIG, exp.run(FAST_CONFIG))
        assert cache.load(exp, None) is None

    def test_two_cold_runs_write_identical_bytes(self, tmp_path):
        exp = registry.get("T2")
        digests = []
        for sub in ("a", "b"):
            cache = ResultCache(tmp_path / sub)
            cache.store(exp, FAST_CONFIG, exp.run(FAST_CONFIG))
            path = cache.entry_path(exp, FAST_CONFIG)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_corrupt_entry_is_deleted_and_treated_as_miss(self, tmp_path):
        exp = registry.get("T2")
        cache = ResultCache(tmp_path)
        cache.store(exp, FAST_CONFIG, exp.run(FAST_CONFIG))
        path = cache.entry_path(exp, FAST_CONFIG)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.load(exp, FAST_CONFIG) is None
        assert not path.exists()

    def test_tampered_payload_fails_self_verification(self, tmp_path):
        exp = registry.get("T2")
        cache = ResultCache(tmp_path)
        cache.store(exp, FAST_CONFIG, exp.run(FAST_CONFIG))
        path = cache.entry_path(exp, FAST_CONFIG)
        entry = json.loads(path.read_text())
        entry["result"][0]["measured"] = 123.456  # forged number
        path.write_text(json.dumps(entry))
        assert cache.load(exp, FAST_CONFIG) is None

    def test_sweep_removes_orphaned_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        orphan = tmp_path / "T2" / f"deadbeef{TMP_MARKER}xyz"
        orphan.parent.mkdir(parents=True)
        orphan.write_text("half-written")
        removed = cache.sweep()
        assert orphan in removed
        assert not orphan.exists()

    def test_entry_path_is_filesystem_safe(self, tmp_path):
        exp = registry.get("S5.1")
        path = ResultCache(tmp_path).entry_path(exp, None)
        assert path.parent.name == "S5_1"

    def test_build_entry_matches_store(self, tmp_path):
        exp = registry.get("T2")
        result = exp.run(FAST_CONFIG)
        assert build_entry(exp, FAST_CONFIG, result) == ResultCache(
            tmp_path
        ).store(exp, FAST_CONFIG, result)
