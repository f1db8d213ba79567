"""What the host offers this process: the CPUs it may run on."""

from __future__ import annotations

import os

__all__ = ["host_cpus"]


def host_cpus() -> int:
    """CPUs this process may run on (its affinity set, not the machine's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1
