"""Golden-value regression tests for seed 42.

These lock the models' calibration: any model change that silently
moves a headline number by more than a few percent fails here, forcing
a deliberate recalibration (recorded in CHANGES.md) instead of an
accidental one. Tolerances are deliberately tight — these
are regression guards, not physics claims.
"""

import pytest

from repro.core.figures import run_figure

SEED = 42

#: (platform, expected mean, relative tolerance) for Figure 11, Gbit/s.
GOLDEN_IPERF = [
    ("native", 37.2, 0.03),
    ("osv", 36.6, 0.03),
    ("docker", 34.1, 0.03),
    ("qemu", 27.9, 0.03),
    ("firecracker", 26.7, 0.04),
    ("cloud-hypervisor", 20.7, 0.04),
    ("kata", 25.0, 0.03),
    ("gvisor", 2.27, 0.05),
]

#: (platform, expected mean ms, relative tolerance) for Figure 13.
GOLDEN_CONTAINER_BOOT = [
    ("docker-oci", 98.4, 0.06),
    ("docker", 349.0, 0.06),
    ("gvisor", 190.3, 0.06),
    ("kata", 587.5, 0.06),
    ("lxc", 820.4, 0.08),
]

#: (platform, expected mean ms, relative tolerance) for Figure 14.
GOLDEN_HYPERVISOR_BOOT = [
    ("cloud-hypervisor", 128.4, 0.06),
    ("qemu-qboot", 223.7, 0.06),
    ("qemu", 281.3, 0.06),
    ("firecracker", 338.3, 0.06),
    ("qemu-microvm", 449.3, 0.06),
]

#: (platform, expected unique functions) for Figure 18 — exact: the HAP
#: measurement is fully deterministic.
GOLDEN_HAP = [
    ("firecracker", 2420),
    ("kata", 2241),
    ("gvisor", 2174),
    ("qemu", 1954),
    ("docker", 1683),
    ("lxc", 1616),
    ("native", 1370),
    ("cloud-hypervisor", 1103),
    ("osv", 832),
]


@pytest.fixture(scope="module")
def iperf():
    return run_figure("fig11", SEED, repetitions=5)


@pytest.fixture(scope="module")
def container_boot():
    return run_figure("fig13", SEED, startups=300)


@pytest.fixture(scope="module")
def hypervisor_boot():
    return run_figure("fig14", SEED, startups=300)


@pytest.fixture(scope="module")
def hap():
    return run_figure("fig18", SEED)


@pytest.mark.parametrize(("platform", "expected", "tolerance"), GOLDEN_IPERF)
def test_iperf_golden(iperf, platform, expected, tolerance):
    assert iperf.row(platform).summary.mean == pytest.approx(expected, rel=tolerance)


@pytest.mark.parametrize(("platform", "expected", "tolerance"), GOLDEN_CONTAINER_BOOT)
def test_container_boot_golden(container_boot, platform, expected, tolerance):
    assert container_boot.row(platform).summary.mean == pytest.approx(
        expected, rel=tolerance
    )


@pytest.mark.parametrize(("platform", "expected", "tolerance"), GOLDEN_HYPERVISOR_BOOT)
def test_hypervisor_boot_golden(hypervisor_boot, platform, expected, tolerance):
    assert hypervisor_boot.row(platform).summary.mean == pytest.approx(
        expected, rel=tolerance
    )


@pytest.mark.parametrize(("platform", "expected"), GOLDEN_HAP)
def test_hap_golden_exact(hap, platform, expected):
    assert hap.row(platform).summary.mean == expected
