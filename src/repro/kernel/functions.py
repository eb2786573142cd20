"""Host-kernel function catalog — the substrate of the HAP measurement.

The paper's Section 4 traces, with ftrace/trace-cmd, *which host-kernel
functions* each isolation platform causes to execute while running a set of
workloads, then weighs them by exploit likelihood (EPSS). To reproduce that
we need an inventory of host-kernel functions organized by subsystem.

The catalog combines two sources:

* a curated list of well-known real kernel function names per subsystem
  (the "stems"), and
* deterministically generated sibling functions around each stem
  (``__stem``, ``stem_locked``, ``stem_slowpath``, ...) to reach a
  realistic per-subsystem population — a 5.4-era kernel exposes tens of
  thousands of traceable functions, of which each workload touches a few
  thousand.

Generation is pure (hash-seeded), so the catalog is identical across runs
and machines.
"""

from __future__ import annotations

import enum
import functools
import hashlib
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["Subsystem", "KernelFunction", "KernelFunctionCatalog", "default_catalog"]


class Subsystem(enum.Enum):
    """Host-kernel subsystems relevant to the traced workloads."""

    SCHED = "sched"
    MM = "mm"
    VFS = "vfs"
    EXT4 = "ext4"
    BLOCK = "block"
    NET_CORE = "net_core"
    TCP_IP = "tcp_ip"
    BRIDGE = "bridge"
    NETFILTER = "netfilter"
    KVM = "kvm"
    IRQ = "irq"
    TIME = "time"
    SIGNAL = "signal"
    FUTEX = "futex"
    EPOLL = "epoll"
    PIPE_TTY = "pipe_tty"
    NAMESPACE = "namespace"
    CGROUP = "cgroup"
    SECCOMP = "seccomp"
    VSOCK = "vsock"
    FUSE = "fuse"
    NINEP = "ninep"
    KSM = "ksm"
    SECURITY = "security"


# (stem functions, generated population) per subsystem. Populations are
# scaled to a 5.4-era kernel's traceable-function counts.
_SUBSYSTEM_SPECS: dict[Subsystem, tuple[list[str], int]] = {
    Subsystem.SCHED: (
        ["schedule", "pick_next_task_fair", "enqueue_entity", "dequeue_entity",
         "update_curr", "try_to_wake_up", "select_task_rq_fair", "load_balance",
         "scheduler_tick", "context_switch", "finish_task_switch", "yield_task_fair"],
        420,
    ),
    Subsystem.MM: (
        ["handle_mm_fault", "do_anonymous_page", "alloc_pages_vma", "__alloc_pages_nodemask",
         "page_add_new_anon_rmap", "lru_cache_add", "do_mmap", "mmap_region",
         "unmap_vmas", "zap_pte_range", "copy_page_range", "madvise_free_pte_range",
         "shrink_page_list", "get_user_pages_fast"],
        780,
    ),
    Subsystem.VFS: (
        ["vfs_read", "vfs_write", "do_sys_open", "path_lookupat", "link_path_walk",
         "dput", "d_lookup", "generic_file_read_iter", "generic_file_write_iter",
         "vfs_fsync_range", "iterate_dir", "notify_change", "vfs_statx"],
        560,
    ),
    Subsystem.EXT4: (
        ["ext4_file_read_iter", "ext4_file_write_iter", "ext4_map_blocks",
         "ext4_es_lookup_extent", "ext4_mb_new_blocks", "ext4_journal_start_sb",
         "ext4_da_write_begin", "ext4_writepages", "ext4_sync_file"],
        450,
    ),
    Subsystem.BLOCK: (
        ["blk_mq_make_request", "blk_mq_dispatch_rq_list", "blk_mq_complete_request",
         "submit_bio", "bio_endio", "blkdev_direct_IO", "nvme_queue_rq",
         "nvme_irq", "blk_account_io_done"],
        380,
    ),
    Subsystem.NET_CORE: (
        ["__netif_receive_skb_core", "dev_queue_xmit", "netif_rx", "napi_poll",
         "sock_sendmsg", "sock_recvmsg", "skb_copy_datagram_iter", "sk_stream_alloc_skb",
         "net_rx_action", "dev_hard_start_xmit", "__skb_clone"],
        610,
    ),
    Subsystem.TCP_IP: (
        ["tcp_sendmsg", "tcp_recvmsg", "tcp_write_xmit", "tcp_v4_rcv", "tcp_ack",
         "tcp_rcv_established", "ip_queue_xmit", "ip_local_deliver", "ip_rcv",
         "tcp_push", "tcp_clean_rtx_queue", "inet_recvmsg"],
        520,
    ),
    Subsystem.BRIDGE: (
        ["br_handle_frame", "br_forward", "br_fdb_update", "br_nf_pre_routing",
         "veth_xmit", "internal_dev_xmit"],
        140,
    ),
    Subsystem.NETFILTER: (
        ["nf_hook_slow", "ipt_do_table", "nf_conntrack_in", "nf_nat_ipv4_fn",
         "nft_do_chain"],
        210,
    ),
    Subsystem.KVM: (
        ["kvm_arch_vcpu_ioctl_run", "vcpu_enter_guest", "kvm_mmu_page_fault",
         "kvm_emulate_instruction", "handle_ept_violation", "kvm_set_msr",
         "kvm_vcpu_block", "kvm_io_bus_write", "kvm_irq_delivery_to_apic",
         "kvm_mmu_load", "svm_vcpu_run", "kvm_fast_pio"],
        680,
    ),
    Subsystem.IRQ: (
        ["handle_irq_event_percpu", "__do_softirq", "irq_exit", "ksoftirqd_run",
         "tasklet_action"],
        190,
    ),
    Subsystem.TIME: (
        ["hrtimer_interrupt", "hrtimer_start_range_ns", "ktime_get", "tick_sched_timer",
         "clockevents_program_event", "do_clock_gettime"],
        170,
    ),
    Subsystem.SIGNAL: (
        ["do_send_sig_info", "get_signal", "signal_wake_up_state", "do_sigaction",
         "force_sig_info"],
        130,
    ),
    Subsystem.FUTEX: (
        ["futex_wait", "futex_wake", "futex_wait_queue_me", "get_futex_key"],
        70,
    ),
    Subsystem.EPOLL: (
        ["ep_poll", "ep_send_events", "ep_insert", "ep_poll_callback", "do_epoll_wait"],
        80,
    ),
    Subsystem.PIPE_TTY: (
        ["pipe_read", "pipe_write", "tty_write", "n_tty_read", "pty_write",
         "unix_stream_sendmsg", "unix_stream_recvmsg"],
        160,
    ),
    Subsystem.NAMESPACE: (
        ["copy_namespaces", "create_new_namespaces", "switch_task_namespaces",
         "pidns_get", "mntns_install", "netns_get", "setns"],
        110,
    ),
    Subsystem.CGROUP: (
        ["cgroup_attach_task", "cgroup_mkdir", "css_set_move_task",
         "mem_cgroup_charge", "cpu_cgroup_attach", "cgroup_procs_write"],
        150,
    ),
    Subsystem.SECCOMP: (
        ["__seccomp_filter", "seccomp_run_filters", "bpf_prog_run_pin_on_cpu",
         "seccomp_attach_filter"],
        40,
    ),
    Subsystem.VSOCK: (
        ["vsock_stream_sendmsg", "vsock_stream_recvmsg", "virtio_transport_send_pkt",
         "vhost_vsock_handle_tx_kick"],
        60,
    ),
    Subsystem.FUSE: (
        ["fuse_simple_request", "fuse_dev_do_read", "fuse_dev_do_write",
         "fuse_direct_io", "virtio_fs_enqueue_req"],
        90,
    ),
    Subsystem.NINEP: (
        ["p9_client_rpc", "p9_client_read", "p9_client_write", "p9_virtio_request",
         "p9_fd_poll"],
        70,
    ),
    Subsystem.KSM: (
        ["ksm_scan_thread", "try_to_merge_one_page", "stable_tree_search",
         "cmp_and_merge_page"],
        40,
    ),
    Subsystem.SECURITY: (
        ["security_file_open", "apparmor_file_permission", "cap_capable",
         "security_socket_sendmsg", "security_task_kill"],
        120,
    ),
}

_VARIANT_PATTERNS = [
    "__{stem}",
    "{stem}_slowpath",
    "{stem}_locked",
    "_raw_{stem}",
    "{stem}_common",
    "{stem}_begin",
    "{stem}_end",
    "{stem}_fastpath",
    "{stem}_helper",
    "{stem}_prepare",
    "{stem}_finish",
    "{stem}_check",
    "{stem}_one",
    "{stem}_all",
    "do_{stem}",
    "try_{stem}",
    "{stem}_internal",
    "{stem}_nolock",
    "{stem}_rcu",
    "{stem}_bh",
]


@dataclass(frozen=True)
class KernelFunction:
    """One traceable host-kernel function."""

    name: str
    subsystem: Subsystem
    #: Stable rank inside the subsystem: 0 is the hottest/most central
    #: function; high ranks are rarely-exercised edge paths. Platform trace
    #: profiles express breadth as "the first k ranks".
    rank: int


def _generate_names(stems: list[str], population: int, subsystem: Subsystem) -> list[str]:
    """Deterministically expand stems to ``population`` unique names."""
    names: list[str] = list(stems)
    seen = set(names)
    index = 0
    while len(names) < population:
        stem = stems[index % len(stems)]
        pattern = _VARIANT_PATTERNS[(index // len(stems)) % len(_VARIANT_PATTERNS)]
        candidate = pattern.format(stem=stem)
        if candidate in seen:
            # Disambiguate deterministically with a short hash suffix.
            digest = hashlib.blake2b(
                f"{subsystem.value}/{candidate}/{index}".encode(), digest_size=3
            ).hexdigest()
            candidate = f"{candidate}_{digest}"
        seen.add(candidate)
        names.append(candidate)
        index += 1
    return names[:population]


class KernelFunctionCatalog:
    """The full inventory of traceable host-kernel functions.

    Functions within a subsystem are ordered by *rank*: the curated stems
    come first (they sit on every hot path), generated siblings follow.
    A platform that "uses subsystem X with breadth 0.4" executes the first
    40 % of X's ranks — breadth composes monotonically, so a platform that
    exercises strictly more functionality always has a superset HAP.
    """

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ConfigurationError("catalog scale must be positive")
        self._by_subsystem: dict[Subsystem, list[KernelFunction]] = {}
        for subsystem, (stems, population) in _SUBSYSTEM_SPECS.items():
            count = max(len(stems), int(round(population * scale)))
            names = _generate_names(stems, count, subsystem)
            self._by_subsystem[subsystem] = [
                KernelFunction(name, subsystem, rank) for rank, name in enumerate(names)
            ]
        self._by_name = {
            fn.name: fn for fns in self._by_subsystem.values() for fn in fns
        }

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> KernelFunction:
        """Look up a function by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(f"unknown kernel function: {name!r}") from None

    def select_breadth(self, subsystem: Subsystem, breadth: float) -> list[KernelFunction]:
        """The first ``breadth`` fraction of a subsystem's ranks.

        ``breadth`` is clamped to [0, 1]; a non-zero breadth always selects
        at least one function (a subsystem is either untouched or its entry
        points run).
        """
        if breadth <= 0.0:
            return []
        breadth = min(1.0, breadth)
        functions = self._by_subsystem[subsystem]
        count = max(1, int(round(breadth * len(functions))))
        return functions[:count]


@functools.lru_cache(maxsize=8)
def default_catalog(scale: float = 1.0) -> KernelFunctionCatalog:
    """The shared catalog for a given scale (memoized).

    Catalog construction is pure — the name expansion depends only on the
    static subsystem specs and ``scale`` — yet building the ~6k-name
    inventory dominates a HAP cell's runtime when done per cell. Consumers
    that do not mutate the catalog (all of ours; the public API is
    read-only) should take this shared instance instead of constructing
    :class:`KernelFunctionCatalog` directly.
    """
    return KernelFunctionCatalog(scale)
