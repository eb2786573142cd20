"""Tests for the filesystem models."""

import pytest

from repro.errors import ConfigurationError
from repro.kernel.filesystems import FILESYSTEMS, Filesystem


class TestFilesystems:
    def test_expected_filesystems_registered(self):
        for name in ("raw", "ext4", "zfs", "overlayfs", "9p", "virtiofs"):
            assert name in FILESYSTEMS

    def test_ninep_is_the_expensive_networked_one(self):
        ninep = FILESYSTEMS["9p"]
        assert ninep.networked
        assert ninep.per_op_overhead_s > FILESYSTEMS["virtiofs"].per_op_overhead_s
        assert ninep.bandwidth_efficiency < FILESYSTEMS["virtiofs"].bandwidth_efficiency

    def test_raw_has_no_overhead(self):
        raw = FILESYSTEMS["raw"]
        assert raw.per_op_overhead_s == 0.0
        assert raw.bandwidth_efficiency == 1.0

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ConfigurationError):
            Filesystem("bad", per_op_overhead_s=0.0, bandwidth_efficiency=1.5)

    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigurationError):
            Filesystem("bad", per_op_overhead_s=-1.0, bandwidth_efficiency=0.5)

