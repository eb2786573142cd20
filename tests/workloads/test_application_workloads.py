"""Tests for memcached/YCSB and MySQL/sysbench (Figures 16-17)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.platforms import get_platform
from repro.workloads.memcached import MemcachedYcsbWorkload
from repro.workloads.mysql import MysqlOltpWorkload
from repro.workloads.ycsb import WORKLOAD_A, WORKLOAD_C, YcsbWorkloadSpec


class TestYcsbSpec:
    def test_workload_a_is_50_50(self):
        assert WORKLOAD_A.read_proportion == 0.5
        assert WORKLOAD_A.update_proportion == 0.5

    @pytest.mark.parametrize(
        "read, update",
        [
            (0.6, 0.6),
            (math.nan, math.nan),
            (0.5, math.nan),
            (1.5, -0.5),
            (-0.25, 1.25),
        ],
        ids=["sum-above-one", "both-nan", "update-nan", "read-above-one", "read-negative"],
    )
    def test_proportions_must_sum_to_one(self, read, update):
        """Each proportion is in [0, 1] and they sum to 1; NaN fails both."""
        with pytest.raises(ConfigurationError):
            YcsbWorkloadSpec("bad", read_proportion=read, update_proportion=update)

    def test_is_update_classification(self):
        assert WORKLOAD_A.is_update(0.1)
        assert not WORKLOAD_A.is_update(0.9)
        assert not WORKLOAD_C.is_update(0.0)

    def test_out_of_range_draw_rejected(self):
        with pytest.raises(ConfigurationError):
            WORKLOAD_A.is_update(1.0)


def _throughput(name, rng, **kwargs):
    workload = MemcachedYcsbWorkload(ops_per_client=40, **kwargs)
    return workload.run(get_platform(name), rng.child(name)).throughput_ops_per_s


class TestMemcached:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("clients", 0),
            ("clients", 2.5),
            ("ops_per_client", 0),
            ("ops_per_client", 2.5),
            ("ops_per_client", math.nan),
            ("ops_per_client", True),
            ("server_threads", -1),
            ("server_threads", 2.0),
        ],
    )
    def test_invalid_parameters_rejected(self, field, value):
        """Counts are ints >= 1: a float or NaN count would never run down."""
        with pytest.raises(ConfigurationError, match=field):
            MemcachedYcsbWorkload(**{field: value})

    def test_all_clients_complete(self, rng):
        workload = MemcachedYcsbWorkload(clients=8, ops_per_client=20)
        result = workload.run(get_platform("native"), rng)
        assert result.operations == 160
        assert result.mean_latency_s > 0

    def test_containers_near_native(self, rng):
        native = _throughput("native", rng)
        assert _throughput("docker", rng) > 0.85 * native
        assert _throughput("lxc", rng) > 0.85 * native

    def test_newer_hypervisors_worse_than_qemu(self, rng):
        """Finding 17."""
        qemu = _throughput("qemu", rng)
        assert _throughput("firecracker", rng) < qemu
        assert _throughput("cloud-hypervisor", rng) < qemu

    def test_kata_surprisingly_low(self, rng):
        """Finding 18: the packet-rate ceiling binds."""
        assert _throughput("kata", rng) < 0.85 * _throughput("docker", rng)

    def test_gvisor_lowest(self, rng):
        values = {
            name: _throughput(name, rng)
            for name in ("native", "docker", "lxc", "qemu", "firecracker",
                         "cloud-hypervisor", "kata", "gvisor", "osv")
        }
        assert values["gvisor"] == min(values.values())

    def test_more_clients_more_throughput_until_saturation(self, rng):
        few = MemcachedYcsbWorkload(clients=4, ops_per_client=40).run(
            get_platform("native"), rng.child("few")
        )
        many = MemcachedYcsbWorkload(clients=48, ops_per_client=40).run(
            get_platform("native"), rng.child("many")
        )
        assert many.throughput_ops_per_s > 2 * few.throughput_ops_per_s


class TestMysql:
    def test_invalid_threads_rejected(self):
        with pytest.raises(ConfigurationError):
            MysqlOltpWorkload(thread_counts=())

    def test_result_lengths_match(self, rng):
        workload = MysqlOltpWorkload(thread_counts=(10, 50, 100))
        result = workload.run(get_platform("docker"), rng)
        assert len(result.tps) == 3
        assert result.thread_counts == (10, 50, 100)

    def test_guest_peak_around_50_threads(self, rng):
        """Finding 20."""
        result = MysqlOltpWorkload().run(get_platform("docker"), rng)
        threads, _ = result.peak()
        assert 20 <= threads <= 70

    def test_native_peaks_later_without_big_gain(self, rng):
        """Finding 20."""
        native = MysqlOltpWorkload().run(get_platform("native"), rng.child("n"))
        docker = MysqlOltpWorkload().run(get_platform("docker"), rng.child("d"))
        native_threads, native_peak = native.peak()
        _, docker_peak = docker.peak()
        assert native_threads >= 70
        assert native_peak < 1.35 * docker_peak

    def test_osv_flat_and_lowest(self, rng):
        """Finding 21."""
        result = MysqlOltpWorkload().run(get_platform("osv"), rng)
        tail = result.tps[3:]
        assert (max(tail) - min(tail)) / max(result.tps) < 0.25
        assert max(result.tps) < 1_500

    def test_firecracker_half_of_main_group(self, rng):
        """Finding 22."""
        fc = MysqlOltpWorkload().run(get_platform("firecracker"), rng.child("f")).peak()[1]
        docker = MysqlOltpWorkload().run(get_platform("docker"), rng.child("d")).peak()[1]
        assert 0.35 * docker < fc < 0.7 * docker

    def test_deterministic_model_values(self):
        workload = MysqlOltpWorkload()
        platform = get_platform("qemu")
        assert workload.tps_at(platform, 50) == workload.tps_at(platform, 50)

    def test_tps_positive_everywhere(self, rng, main_platform):
        result = MysqlOltpWorkload(thread_counts=(10, 80, 160)).run(main_platform, rng)
        assert all(v > 0 for v in result.tps)
