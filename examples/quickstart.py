#!/usr/bin/env python3
"""Quickstart: run two headline experiments and print the paper-style rows.

Usage::

    python examples/quickstart.py [seed]

This reproduces Figure 11 (iperf3 network throughput) and Figure 13
(container startup CDF) on the simulated dual-EPYC testbed, then renders
them as ASCII tables — the same rows the paper plots.
"""

from __future__ import annotations

import sys

from repro import BenchmarkSuite


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42
    suite = BenchmarkSuite(seed=seed, quick=True)

    print(suite.describe())
    print()

    iperf = suite.run_figure("fig11")
    print(iperf.render())
    print()

    native = iperf.row("native").summary.mean
    print("Relative network throughput (native = 100%):")
    for platform in iperf.ranking(ascending=False):
        row = iperf.row(platform)
        print(f"  {row.label:<18} {100 * row.summary.mean / native:6.1f}%")
    print()

    boot = suite.run_figure("fig13")
    print(boot.render())
    print()
    print("Key takeaway: containers start in ~100 ms while a Kata container")
    print("pays for namespaces + a hypervisor boot + the agent handshake,")
    print("and LXC pays for a full systemd (Finding 13).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
