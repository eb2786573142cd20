"""Virtio transports and guest/host sharing protocols.

The paravirtualized device family every hypervisor in the study relies on:

* :mod:`repro.virtio.queue` — the virtqueue ring (descriptors, kicks, irqs)
* :mod:`repro.virtio.blk`   — virtio-blk block devices
* :mod:`repro.virtio.fs`    — virtio-fs (FUSE over virtio, with DAX)
* :mod:`repro.virtio.ninep` — the 9P filesystem protocol (Kata default,
  gVisor's Sentry<->Gofer channel)
"""

from repro.virtio.queue import Virtqueue
from repro.virtio.blk import VirtioBlk
from repro.virtio.fs import VirtioFs
from repro.virtio.ninep import NinePChannel

__all__ = [
    "Virtqueue",
    "VirtioBlk",
    "VirtioFs",
    "NinePChannel",
]
