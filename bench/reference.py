"""A fixed reference task that gauges how fast the host runs right now.

The shared host this benchmark was written on changes speed by up to 2x
in phases of seconds to minutes, and the change hits all pure-Python
code alike (CPU time tracks wall time, and steal time is small).  Timing
the same fixed task next to every job lets ``run.py`` report job time in
*reference seconds*: the seconds the job would have taken had the host
run at the speed at which this task takes ``REFERENCE_S``.

The task is plain Python in the style of the package's hot paths (a
sparse map from occupation tuples to complex amplitudes, float
arithmetic, a JSON table) but uses nothing from ``singlerail``, so a
change to the program cannot change it.  It runs with the cyclic garbage
collector off, so that whatever the program keeps alive between jobs
does not slow it down.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter

#: seconds the task takes at the reference speed: a round figure near its
#: fastest times on a 2-vCPU Xeon VM at 2.1 GHz.  Only ratios between runs
#: matter, but changing it makes figures before and after incomparable.
REFERENCE_S = 0.02

_MODES = 6
_STEPS = 800
_ROWS = 120


def _task() -> int:
    amps: dict[tuple[int, ...], complex] = {}
    for step in range(_STEPS):
        key = tuple((step >> m) & 1 for m in range(_MODES))
        amps[key] = amps.get(key, 0j) + complex(step * 1e-3, -step * 2e-3)
        moved = {}
        for occ, amp in amps.items():
            if abs(amp) > 1e-15:
                moved[occ[1:] + occ[:1]] = amp * (0.6 + 0.8j)
        amps = moved
    rows = [{"n": n, "x": n / 7.0, "ok": "pass"} for n in range(_ROWS)]
    return len(json.dumps(rows)) + len(amps)


def reference_seconds() -> float:
    """Time one run of the reference task, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _task()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
