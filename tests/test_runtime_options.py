"""RuntimeOptions surface: validation, the transport alias, the LoCECConfig view."""

from __future__ import annotations

import pytest

from repro.core.config import LoCECConfig, ResilienceConfig, RuntimeOptions
from repro.exceptions import ModelConfigError


class TestRuntimeOptions:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(ModelConfigError):
            RuntimeOptions(backend="sparse").validate()
        with pytest.raises(ModelConfigError):
            RuntimeOptions(phase2_workers=-1).validate()
        with pytest.raises(ModelConfigError):
            RuntimeOptions(transport="tcp").validate()
        RuntimeOptions().validate()  # defaults are valid

    def test_resolved_resilience_threads_transport(self):
        assert RuntimeOptions().resolved_resilience() is None
        resolved = RuntimeOptions(transport="shm").resolved_resilience()
        assert resolved is not None and resolved.transport == "shm"
        base = ResilienceConfig(max_attempts=5)
        merged = RuntimeOptions(
            transport="pickle", resilience=base
        ).resolved_resilience()
        assert merged.max_attempts == 5
        assert merged.transport == "pickle"
        # transport="auto" leaves a provided resilience untouched.
        assert RuntimeOptions(resilience=base).resolved_resilience() is base


class TestLoCECConfigRuntimeOptions:
    def test_runtime_options_mirror_flat_fields_and_validate_writes_nothing(self):
        resilience = ResilienceConfig(max_attempts=5, transport="shm")
        config = LoCECConfig(
            community_model="xgb",
            backend="csr",
            ml_backend="hist",
            nn_backend="loop",
            phase2_workers=2,
            phase2_shards=3,
            resilience=resilience,
        )
        before = dict(vars(config))
        config.validate()
        assert vars(config) == before
        assert all(vars(config)[name] is value for name, value in before.items())
        assert config.runtime_options == RuntimeOptions(
            backend="csr",
            ml_backend="hist",
            nn_backend="loop",
            phase2_workers=2,
            phase2_shards=3,
            resilience=resilience,
        )
        assert not hasattr(config, "runtime")
