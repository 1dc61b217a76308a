"""Machine-speed calibration for times measured on a shared host.

On the host this benchmark was tuned on, the speed of the same Python job
drifts by up to 2x over minutes as neighbours load the shared cores, which
no run length or median removes. A fixed pure-Python task that allocates
and walks many small objects, like the package's scalar tape, slows down
in step: the ratio of a job's time to the task's time, measured right next
to it, varied about 6% where the raw time varied 38%.

Every reported time is therefore in reference seconds: the wall time as
measured, multiplied by ``speed_factor`` = REFERENCE_S / (the task's time
measured next to it). On an unloaded core of the tuning host the factor is
about 1. The raw wall times are kept next to the scaled ones in the
results file.
"""

from __future__ import annotations

import gc
import time

# best time of one task() on an unloaded core of the tuning host
# (Intel Xeon, 2 vCPUs, Python 3.11)
REFERENCE_S = 0.050


class _Node:
    __slots__ = ("op", "args", "val")

    def __init__(self, op, args, val):
        self.op = op
        self.args = args
        self.val = val


def task() -> float:
    # small rounds: the few hundred KiB it holds at once stay below the
    # job's own peak, so calibrating between stages leaves peak RSS alone
    total = 0.0
    for _ in range(30):
        nodes = []
        for i in range(4000):
            nodes.append(_Node(i & 7, (i, i + 1), float(i)))
        for node in reversed(nodes):
            total += node.val * 0.5
    return total


def task_seconds() -> float:
    """Time of one task(), with the cyclic collector off so that the size
    of the caller's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(before_s: float, after_s: float) -> float:
    """Factor that turns a wall time measured between two task timings
    into reference seconds."""
    return REFERENCE_S / (0.5 * (before_s + after_s))


class Stages:
    """Wall times of consecutive stages of one process.

    A task is timed when the object is made and after every stage. Each
    stage is scaled by the speed factor of the tasks on either side of it;
    the time from ``start_ns`` (process start) to the first task by that
    task's alone. The tasks themselves fall in no stage.
    """

    def __init__(self, start_ns: int):
        self.raw_s = {"startup": (time.monotonic_ns() - start_ns) / 1e9}
        self.tasks_s = [task_seconds()]
        self._start = time.monotonic_ns()

    def end(self, name: str) -> None:
        self.raw_s[name] = (time.monotonic_ns() - self._start) / 1e9
        self.tasks_s.append(task_seconds())
        self._start = time.monotonic_ns()

    def scaled_s(self) -> dict[str, float]:
        tasks = self.tasks_s
        factors = [REFERENCE_S / tasks[0]] + [
            speed_factor(a, b) for a, b in zip(tasks, tasks[1:])]
        return {name: t * f for (name, t), f in zip(self.raw_s.items(),
                                                     factors)}
