"""Shared helpers: percentiles, process-tree CPU and memory readings, and
the host-speed calibration of the closed loops."""

from __future__ import annotations

import difflib
import gc
import os
import random
import statistics
import time
from typing import Dict, Iterable, List, Sequence

_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated between
    closest ranks; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as fh:
        data = fh.read()
    # The command name may hold spaces; fields resume after its ')'.
    return data[data.rindex(")") + 2:].split()


def tree_pids(root: int) -> List[int]:
    """``root`` and every live descendant."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue
        parents.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(parents.get(pid, ()))
    return out


def cpu_seconds(pids: Iterable[int]) -> float:
    """User+system CPU of ``pids``, including their reaped children."""
    total = 0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        # utime, stime, cutime, cstime are fields 14-17 of /proc/pid/stat.
        total += sum(int(f) for f in fields[11:15])
    return total / _TICKS


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident sets (VmHWM) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


class Calibration:
    """A fixed piece of pure-Python work that measures how fast the host
    runs right now.

    The closed loops run it before every request and scale the request's
    times by ``REF_S / calibration time``: a time at reference host
    speed.  On a shared host the same Table-1 pass took 0.26 s in one
    minute and 0.74 s twenty minutes later, and 20 s windows of one
    process spread 12% (IQR over median); scaled, they spread 3%
    (NOTES.md).

    The work is varied interpreted code from the standard library, as
    the program's own is: a ``difflib`` diff of two seeded texts,
    recursive calls and a sort of tuples.  A pointer chase through a
    ring too large for the caches tracked the program worse.  The
    collector is off while it runs, so that garbage the program left
    behind does not time itself into the calibration.
    """

    #: Calibration time that defines reference host speed: about what
    #: this 2-vCPU host took in a quiet minute.
    REF_S = 0.008

    def __init__(self):
        rng = random.Random(5)
        text = "".join(rng.choice("abcdefgh \n") for _ in range(6000)).splitlines()
        self._texts = (text, [ln if rng.random() < 0.8 else ln[::-1] for ln in text])
        for _ in range(3):  # let the interpreter specialise the code
            self.measure()

    def _work(self) -> None:
        difflib.SequenceMatcher(None, *self._texts).get_opcodes()
        _fib(18)
        sorted(((x * 7919) % 1009, str(x)) for x in range(8000))

    def speed(self) -> float:
        """Host speed now over reference speed, from three measurements."""
        return self.REF_S / statistics.median(self.measure() for _ in range(3))

    def measure(self) -> float:
        """Seconds the fixed work took just now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._work()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
