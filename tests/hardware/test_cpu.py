"""Tests for the CPU model."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.cpu import CpuModel


class TestCpuModel:
    def test_defaults_match_epyc_7542(self):
        cpu = CpuModel()
        assert cpu.physical_cores == 32
        assert cpu.hardware_threads == 64
        assert cpu.base_frequency_hz == pytest.approx(2.9e9)

    def test_invalid_core_count_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuModel(physical_cores=0)

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuModel(base_frequency_hz=0)

    def test_effective_cores_linear_up_to_physical(self):
        cpu = CpuModel()
        assert cpu.effective_cores(1) == 1.0
        assert cpu.effective_cores(16) == 16.0
        assert cpu.effective_cores(32) == 32.0

    def test_smt_adds_partial_throughput(self):
        cpu = CpuModel()
        # 33 threads = 31 solo cores + 1 SMT pair.
        assert 32.0 < cpu.effective_cores(33) < 33.0

    def test_effective_cores_capped_at_hardware_threads(self):
        cpu = CpuModel()
        assert cpu.effective_cores(1000) == cpu.effective_cores(64)

    def test_effective_cores_needs_at_least_one_thread(self):
        with pytest.raises(ConfigurationError):
            CpuModel().effective_cores(0)

    def test_scalar_throughput_scales_with_threads(self):
        cpu = CpuModel()
        assert cpu.scalar_ops_per_second(4) == pytest.approx(
            4 * cpu.scalar_ops_per_second(1)
        )

    def test_simd_faster_than_scalar_per_op(self):
        cpu = CpuModel()
        assert cpu.simd_ops_per_second() > cpu.scalar_ops_per_second()
