"""Per-layer spans recorded from outside the package.

The tracer wraps public functions of ``singlerail`` while it is installed
and restores the originals when it is removed; nothing under ``src/``
knows about it.  A module-level function is replaced in *every*
``singlerail`` module that bound it (``concentration_round`` lives in both
``protocols`` and ``analytics``, ``compare_yield`` in ``analytics`` and
``cli``), otherwise calls through the other binding would escape their
span.  ``FockState`` methods are replaced on the class.

Each span records its layer-qualified name, start, duration, its parent
span and the job it belongs to.  Inclusive and self time (duration minus
the time covered by child spans) are aggregated on the fly; raw spans are
kept only while ``spans`` is a list.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

#: wrapped names per layer; "Class.method" names are patched on the class
TARGETS = {
    "fock": ("FockState.project", "FockState.without_modes", "FockState.tensor"),
    "optics": (
        "apply_beam_splitter",
        "detect_single_photon",
        "qnd_measure",
        "phase_flip",
    ),
    "protocols": (
        "concentration_round",
        "recyclable_to_pair",
        "iterate_concentration",
        "swap",
        "swap_chain_trace",
    ),
    "analytics": ("yield_oracle", "yield_series", "monte_carlo_yield", "compare_yield"),
    "cli": ("main", "render_csv", "render_json"),
}

LAYERS = tuple(TARGETS)


def span_names() -> list[str]:
    return [f"{layer}.{name.split('.')[-1]}" for layer, names in TARGETS.items() for name in names]


class Tracer:
    """Span and count recorder; ``install`` patches, ``remove`` restores."""

    def __init__(self) -> None:
        self.incl: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.oracle_results: list = []
        self.spans: list | None = None
        self.job_id = 0
        self._stack: list[list] = []
        self._next_span = 0
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for c in (self.incl, self.self_time, self.calls, self.counts):
            c.clear()
        self.oracle_results.clear()

    # -- spans -------------------------------------------------------------------

    def _wrap(self, name: str, fn, keep_result: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_span
            tracer._next_span += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                tracer.incl[name] += dt
                tracer.self_time[name] += dt - frame[0]
                tracer.calls[name] += 1
                if tracer.spans is not None:
                    tracer.spans.append((tracer.job_id, span_id, parent, name, t0, dt))
            if keep_result:
                tracer.oracle_results.append(result)
            return result

        return traced

    def _count_init(self, init):
        counts = self.counts

        @functools.wraps(init)
        def counted(obj, register, terms, *args, **kwargs):
            counts["fock.validated_constructions"] += 1
            counts["fock.terms_validated"] += len(terms)
            init(obj, register, terms, *args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for n, m in sys.modules.items() if n == "singlerail" or n.startswith("singlerail.")
        ]
        fock = sys.modules["singlerail.fock"]
        self._patch(fock.FockState, "__init__", self._count_init(fock.FockState.__init__))
        for layer, names in TARGETS.items():
            module = sys.modules[f"singlerail.{layer}"]
            for name in names:
                short = name.split(".")[-1]
                span = f"{layer}.{short}"
                if "." in name:
                    cls = getattr(module, name.split(".")[0])
                    self._patch(cls, short, self._wrap(span, cls.__dict__[short]))
                    continue
                original = getattr(module, name)
                keep = span == "analytics.yield_oracle"
                wrapper = self._wrap(span, original, keep_result=keep)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is original]:
                        self._patch(m, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- post-job measurements, outside every span ---------------------------------

    def take_oracle_peak_bits(self) -> int:
        """Largest numerator/denominator bit length over the oracle rounds
        returned since the last call; forgets them afterwards."""
        peak = 0
        for rounds in self.oracle_results:
            for r in rounds:
                for value in vars(r).values():
                    if isinstance(value, Fraction):
                        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
                        peak = max(peak, bits)
        self.oracle_results.clear()
        return peak
