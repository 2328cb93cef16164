"""Resource use of this process and its descendants, read from /proc.

The benchmark runs on a shared one-core VM whose hypervisor takes the
core away for stretches (steal time), so wall time per operation swings
by a quarter between runs minutes apart.  CPU time does not count the
stolen stretches, so the timed metrics are CPU seconds: of this process
for in-process operations (its server thread included), and of the whole
process tree (Ray's GCS, raylet and workers) for operations that run on
Ray.  On one core with one closed-loop client, an operation's wall time
is its CPU time plus steal and waits.
"""

from __future__ import annotations

import os

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (state first)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None


def tree_pids() -> set[int]:
    """This process and every live descendant."""
    parent: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                parent[int(name)] = int(fields[1])
    tree, todo = set(), [os.getpid()]
    while todo:
        pid = todo.pop()
        tree.add(pid)
        todo.extend(p for p, pp in parent.items() if pp == pid and p not in tree)
    return tree


def tree_cpu_s() -> float:
    """CPU seconds used so far by the process tree: user and system time
    of each live process plus that of its children already reaped."""
    ticks = 0
    for pid in tree_pids():
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime (proc(5) fields 14-17)
            ticks += sum(int(x) for x in fields[11:15])
    return ticks * _TICK_S


def tree_hwm_mb() -> float:
    """Summed peak resident set (VmHWM) of the process tree, in MiB."""
    kib = 0
    for pid in tree_pids():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except (FileNotFoundError, ProcessLookupError):
            continue
    return kib / 1024
