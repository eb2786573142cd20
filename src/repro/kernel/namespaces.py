"""Linux namespaces: the container isolation primitive.

runc and LXC build their isolation from namespaces (visibility) plus
cgroups (resource limits). For the reproduction, namespaces matter in
three places: container startup cost (Figure 13), the HAP breadth of the
namespace subsystem (Figure 18), and the defense-in-depth audit
(Finding 28).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.units import left_sum, us

__all__ = ["NamespaceKind", "NamespaceSet"]


class NamespaceKind(enum.Enum):
    """The seven namespace kinds of a 5.4-era kernel."""

    MNT = "mnt"
    PID = "pid"
    NET = "net"
    IPC = "ipc"
    UTS = "uts"
    USER = "user"
    CGROUP = "cgroup"


#: unshare()/clone() cost of creating each namespace kind. NET dominates:
#: it allocates a fresh network stack and sysfs tree.
_CREATION_COST_S: dict[NamespaceKind, float] = {
    NamespaceKind.MNT: us(90.0),
    NamespaceKind.PID: us(45.0),
    NamespaceKind.NET: us(1_400.0),
    NamespaceKind.IPC: us(40.0),
    NamespaceKind.UTS: us(12.0),
    NamespaceKind.USER: us(110.0),
    NamespaceKind.CGROUP: us(30.0),
}


@dataclass(frozen=True)
class NamespaceSet:
    """The namespace configuration of a confined context."""

    kinds: frozenset[NamespaceKind] = field(
        default_factory=lambda: frozenset(NamespaceKind)
    )

    def __post_init__(self) -> None:
        if not self.kinds:
            raise ConfigurationError("a namespace set cannot be empty")

    @classmethod
    def standard_container(cls) -> "NamespaceSet":
        """What runc sets up for a default (root) Docker container."""
        return cls(
            frozenset(
                {
                    NamespaceKind.MNT,
                    NamespaceKind.PID,
                    NamespaceKind.NET,
                    NamespaceKind.IPC,
                    NamespaceKind.UTS,
                }
            )
        )

    @classmethod
    def unprivileged_container(cls) -> "NamespaceSet":
        """LXC unprivileged containers add USER (and CGROUP) namespaces."""
        return cls(frozenset(NamespaceKind))

    def creation_cost(self) -> float:
        """Seconds to create all namespaces in the set.

        Summed in the catalog's declaration order: float addition is not
        associative, and frozenset iteration order is not stable across a
        pickle round-trip under hash randomization — an unordered sum
        made process/remote grid results differ from serial ones in the
        last ulp.
        """
        return left_sum(
            cost for kind, cost in _CREATION_COST_S.items() if kind in self.kinds
        )
