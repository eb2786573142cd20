"""Benchmark workloads — the programs the paper runs on every platform.

Micro-benchmarks: ffmpeg (CPU), sysbench prime (CPU), tinymembench and
STREAM (memory), fio (block I/O), iperf3 and netperf (network), and the
startup-time probe. Applications: memcached under YCSB workload-a and
MySQL under sysbench ``oltp_read_write``.

Each workload consumes platform *profiles* and returns a typed result.
Workloads validate platform capabilities and raise
:class:`~repro.errors.UnsupportedOperationError` for the paper's
exclusions (Firecracker/fio, OSv/libaio, gVisor/randread).
"""

from repro.workloads.base import Workload
from repro.workloads.ffmpeg import FfmpegEncodeWorkload, FfmpegResult
from repro.workloads.sysbench_cpu import SysbenchCpuWorkload, SysbenchCpuResult
from repro.workloads.tinymembench import (
    TinymembenchLatencyWorkload,
    TinymembenchThroughputWorkload,
    LatencyPoint,
    ThroughputResult,
)
from repro.workloads.stream import StreamWorkload, StreamResult
from repro.workloads.fio import FioThroughputWorkload, FioLatencyWorkload, FioResult, FioLatencyResult
from repro.workloads.iperf import IperfWorkload, IperfResult
from repro.workloads.netperf import NetperfWorkload, NetperfResult
from repro.workloads.startup import StartupWorkload, StartupResult, MeasurementMethod
from repro.workloads.memcached import MemcachedYcsbWorkload, MemcachedResult
from repro.workloads.ycsb import YcsbWorkloadSpec, WORKLOAD_A
from repro.workloads.mysql import MysqlOltpWorkload, MysqlOltpResult

__all__ = [
    "Workload",
    "FfmpegEncodeWorkload",
    "FfmpegResult",
    "SysbenchCpuWorkload",
    "SysbenchCpuResult",
    "TinymembenchLatencyWorkload",
    "TinymembenchThroughputWorkload",
    "LatencyPoint",
    "ThroughputResult",
    "StreamWorkload",
    "StreamResult",
    "FioThroughputWorkload",
    "FioLatencyWorkload",
    "FioResult",
    "FioLatencyResult",
    "IperfWorkload",
    "IperfResult",
    "NetperfWorkload",
    "NetperfResult",
    "StartupWorkload",
    "StartupResult",
    "MeasurementMethod",
    "MemcachedYcsbWorkload",
    "MemcachedResult",
    "YcsbWorkloadSpec",
    "WORKLOAD_A",
    "MysqlOltpWorkload",
    "MysqlOltpResult",
]
