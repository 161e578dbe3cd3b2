"""RuntimeOptions surface: validation and the LoCECConfig view."""

from __future__ import annotations

import pytest

from repro.core.config import LoCECConfig, ResilienceConfig, RuntimeOptions
from repro.exceptions import ModelConfigError


class TestRuntimeOptions:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(ModelConfigError):
            RuntimeOptions(backend="sparse").validate()
        with pytest.raises(ModelConfigError):
            RuntimeOptions(resilience=ResilienceConfig(transport="tcp")).validate()
        RuntimeOptions().validate()  # defaults are valid


class TestLoCECConfigRuntimeOptions:
    def test_runtime_options_mirror_flat_fields_and_validate_writes_nothing(self):
        resilience = ResilienceConfig(max_attempts=5, transport="shm")
        config = LoCECConfig(
            community_model="xgb",
            backend="csr",
            ml_backend="hist",
            nn_backend="loop",
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
            resilience=resilience,
        )
        assert not hasattr(config, "runtime")
