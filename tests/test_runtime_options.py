"""RuntimeOptions surface: validation, the transport alias, LoCECConfig sync."""

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


class TestLoCECConfigSync:
    def test_runtime_block_wins_over_flat_fields(self):
        config = LoCECConfig.locec_xgb(seed=0)
        config.runtime = RuntimeOptions(
            backend="csr", phase2_workers=2, transport="shm"
        )
        config.validate()
        assert config.backend == "csr"
        assert config.phase2_workers == 2
        assert config.resilience is not None
        assert config.resilience.transport == "shm"

    def test_runtime_options_property_roundtrip(self):
        config = LoCECConfig.locec_xgb(seed=0)
        config.runtime = RuntimeOptions(backend="csr", phase2_workers=2)
        config.validate()
        rebuilt = config.runtime_options
        assert rebuilt.backend == "csr"
        assert rebuilt.phase2_workers == 2
