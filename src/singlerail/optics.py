"""Linear-optical elements and ideal measurements on Fock states.

Three instruments cover everything the protocols need: a balanced beam
splitter with explicit sign placement, a cross-Kerr quantum nondemolition
(QND) photon-number reader, and ideal single-photon detectors.  All act
projectively and report every herald branch with its exact probability.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ConfigError
from .fock import MAX_CUTOFF, PLAN_CACHE_SIZE, FockState, ModeId, ModeRegister
from .fock import Occupation, _count, _names, _readout_plan, _real, _slots, _unit

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: photon counts are considered distinguishable by the QND homodyne
#: readout when their probe phases differ by more than this in cosine
QND_DISTINGUISH_TOL = 1e-9


@dataclass(frozen=True)
class BeamSplitter:
    """Balanced two-mode coupler with configurable sign placement.

    One input maps to ``(out0 + out1)/sqrt(2)`` and the other, named by
    ``minus_input``, to ``(out0 - out1)/sqrt(2)``.  The sign placement is
    explicit configuration because different stations wire the difference
    port differently, and detector labels hang off that choice.
    Output names may reuse the input slots or be fresh.
    """

    in_modes: tuple[ModeId, ModeId]
    out_modes: tuple[ModeId, ModeId]
    minus_input: ModeId

    def __post_init__(self):
        # stored as tuples: the splitter keys a cached plan, so it must hash
        object.__setattr__(self, "in_modes", _names(self.in_modes, "input modes"))
        object.__setattr__(self, "out_modes", _names(self.out_modes, "output modes"))
        if len(self.in_modes) != 2 or self.in_modes[0] == self.in_modes[1]:
            raise ConfigError(f"need two distinct input modes, got {self.in_modes!r}")
        if len(self.out_modes) != 2 or self.out_modes[0] == self.out_modes[1]:
            raise ConfigError(f"need two distinct output modes, got {self.out_modes!r}")
        if self.minus_input not in self.in_modes:
            raise ConfigError(
                f"minus_input {self.minus_input!r} is not one of {self.in_modes!r}"
            )

    def coefficients(self, in_mode: ModeId) -> tuple[float, float]:
        """Creation-operator coefficients of ``in_mode`` on the two outputs."""
        if in_mode not in self.in_modes:
            raise ConfigError(f"{in_mode!r} is not an input of this beam splitter")
        sign = -1.0 if in_mode == self.minus_input else 1.0
        return (_INV_SQRT2, sign * _INV_SQRT2)


def _program(n0: int, n1: int, c0: tuple, c1: tuple) -> tuple:
    """How |n0,n1> = (x^dag)^n0 (y^dag)^n1 / sqrt(n0! n1!) |00> expands in
    the output basis, on a row of |00> then each creation operator's
    polynomial: the divisor, each term as (source, destination, coefficient,
    sqrt(n+1) ladder factor) in expansion order, the last polynomial's start
    and its output occupations.  Every ket has one; |0,0>'s is ÷1.0, no ops."""
    keys, ops, base = ((0, 0),), [], 0
    for cu, cv in (c0,) * n0 + (c1,) * n1:
        raised: dict[tuple[int, int], int] = {}
        top = base + len(keys)
        for src, (mu, mv) in enumerate(keys):
            for key, c, n in (((mu + 1, mv), cu, mu), ((mu, mv + 1), cv, mv)):
                dst = raised.setdefault(key, len(raised))
                ops.append((base + src, top + dst, c, math.sqrt(n + 1)))
        keys, base = tuple(raised), top
    return math.sqrt(math.factorial(n0) * math.factorial(n1)), tuple(ops), base, keys


def _kernel(steps: tuple, n: int, wanted: tuple, keys: tuple) -> tuple:
    """The kernel of output slots ``wanted``, keyed ``keys``, from ``n`` kets'
    ``steps``: per feeding ket (every ket has a program) its position,
    divisor and row, the ops of those programs but the last polynomial's that
    reach no wanted slot, the (source, output) additions, the zeroed rows and
    ``keys``."""
    out = {slot: n + j for j, slot in enumerate(wanted)}
    divs, flat, adds, top = [], [], [], n + len(out)
    for i, (program, fed) in enumerate(steps):
        needed = [k for k, slot in enumerate(fed) if slot in out]
        if not needed:
            continue
        divisor, ops, last, _ = program
        divs.append((i, divisor, top))
        reached = (op for op in ops if op[1] < last or op[1] - last in needed)
        flat += [(top + s, top + d, c, lad) for s, d, c, lad in reached]
        adds += [(top + last + k, out[fed[k]]) for k in needed]
        top += last + len(fed)
    return tuple(divs), tuple(flat), tuple(adds), (0j,) * (top - n), keys


def _run(kernel: tuple, amps: tuple) -> list:
    """``kernel`` on the amplitudes of its input kets: its outputs, in its
    keys' order.  It replays the layered expansion op for op, ÷1.0 and ×1.0
    too; every sum starts at 0j, so no fold could flip an output zero's sign."""
    divs, ops, adds, zeros, keys = kernel
    buf = [*amps, *zeros]
    for i, divisor, dst in divs:
        buf[dst] = buf[i] / divisor
    for src, dst, c, ladder in ops:
        buf[dst] += buf[src] * c * ladder
    for src, dst in adds:
        buf[dst] += buf[src]
    return buf[len(amps) : len(amps) + len(keys)]


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _slot_plan(reg: ModeRegister, bs: BeamSplitter, support: tuple) -> tuple:
    """``bs`` on kets ``support`` of ``reg``: the output register and the
    kernel of every output occupation in first-appearance order, then the
    post-register of detectors on the outputs and per readout entry
    (``_readout_groups``) its pattern, fired detector and the kernel of its
    members, keyed by their kept occupations.  Compiled once per support."""
    i0, i1 = reg.indices(bs.in_modes)
    names = list(reg.names)
    names[i0], names[i1] = bs.out_modes
    new_reg = ModeRegister(names, reg.cutoff)
    c0 = bs.coefficients(bs.in_modes[0])
    c1 = bs.coefficients(bs.in_modes[1])
    slots: dict[Occupation, int] = {}
    steps = []
    for occ in support:
        n0, n1 = occ[i0], occ[i1]
        program = _program(n0, n1, c0, c1)
        lifted, fed = list(occ), []
        for lifted[i0], lifted[i1] in program[-1]:
            fed.append(slots.setdefault(tuple(lifted), len(slots)))
        steps.append((program, tuple(fed)))
    n = len(support)
    every = _kernel(steps, n, tuple(slots.values()), tuple(slots))
    if len(reg) == 2:  # detecting every mode leaves no post-state
        return new_reg, every, None, ()
    post_reg, readout = _readout_groups(new_reg, bs.out_modes, slots)
    entries = tuple(
        (pattern, fired, _kernel(steps, n, *zip(*((slots[o], k) for o, k in members))))
        for pattern, fired, members in readout
    )
    return new_reg, every, post_reg, entries


def apply_beam_splitter(state: FockState, bs: BeamSplitter) -> FockState:
    """Rewrite ``state`` in the output basis of ``bs``.

    The transformation is unitary, so the norm is preserved to round-off;
    total photon number is conserved term by term.  Each ket replays its
    input's expansion from the slot plan of the state's kets.
    """
    register, every, *_ = _slot_plan(state.register, bs, tuple(state.terms))
    out = _run(every, tuple(state.terms.values()))
    return FockState._of(register, dict(zip(every[-1], out)))


@dataclass(frozen=True)
class QndConfig:
    """Cross-Kerr photon-number probe over a set of monitored modes.

    The probe beam picks up a phase ``n * theta`` from ``n`` photons in the
    monitored modes; the homodyne readout resolves only the cosine of that
    phase, so counts whose cosines agree within ``QND_DISTINGUISH_TOL``
    fall in one outcome class.  ``theta = pi`` therefore yields the
    parity classes {0, 2} and {1}; a generic angle resolves every count
    separately.
    """

    monitored: tuple[ModeId, ...]
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "monitored", _names(self.monitored, "monitored modes"))
        if not self.monitored:
            raise ConfigError("QND needs at least one monitored mode")
        if len(set(self.monitored)) != len(self.monitored):
            raise ConfigError(f"duplicate monitored modes: {self.monitored!r}")
        object.__setattr__(self, "theta", _real(self.theta, "probe angle"))

    def outcome_classes(self, cutoff: int) -> list[frozenset[int]]:
        """Partition of possible counts {0..cutoff} by homodyne visibility."""
        cutoff = _count(cutoff, "photon cutoff", most=MAX_CUTOFF)
        return list(_outcome_classes(self.theta, cutoff)[0])


def _outcome_classes(theta: float, cutoff: int) -> tuple[tuple, tuple]:
    """The outcome classes of a probe at a finite ``theta`` over counts
    0..cutoff, a count its caller has read, and the class of each count;
    an overflowing phase is a ``ConfigError``."""
    if not math.isfinite(cutoff * theta):
        raise ConfigError(f"probe angle {theta!r}: phase at {cutoff} photons overflows")
    groups: list[tuple[float, set[int]]] = []
    for n in range(cutoff + 1):
        c = math.cos(n * theta)
        for value, members in groups:
            if abs(value - c) <= QND_DISTINGUISH_TOL:
                members.add(n)
                break
        else:
            groups.append((c, {n}))
    classes = tuple(frozenset(members) for _, members in groups)
    return classes, tuple(cls for n in range(cutoff + 1) for cls in classes if n in cls)


@dataclass(frozen=True)
class QndOutcome:
    """One homodyne result: the photon-count class it reveals."""

    outcome_class: frozenset[int]
    probability: float
    post_state: FockState


def qnd_measure(state: FockState, config: QndConfig) -> list[QndOutcome]:
    """Projectively measure the monitored-mode photon total, coarse-grained.

    Nondemolition: the post-states keep their photons.  One outcome per
    class with nonzero probability; probabilities sum to one.
    """
    monitored = _slots(state.register.indices(config.monitored))
    classes, class_of = _outcome_classes(config.theta, state.register.cutoff)
    seen = state.partition(lambda occ: class_of[sum(monitored(occ))])
    return [QndOutcome(cls, *seen[cls]) for cls in classes if cls in seen]


@dataclass(frozen=True)
class DetectionOutcome:
    """One detector reading over a set of detector modes.

    ``fired`` names the detector that saw exactly one photon, or ``None``
    for the no-click branch and for flagged multi-photon branches.
    ``pattern`` is the projected occupation of the detector modes and
    ``post_state`` has those modes removed (they are in a definite Fock
    level after the projection).
    """

    fired: ModeId | None
    pattern: tuple[int, ...]
    probability: float
    post_state: FockState
    flagged: bool


def detect_single_photon(
    state: FockState, detector_modes: tuple[ModeId, ...]
) -> list[DetectionOutcome]:
    """Read out photon-number-resolving detectors on ``detector_modes``.

    Every occupation pattern of the detector modes with nonzero weight
    becomes one outcome: single-photon patterns fire a detector and absorb
    the photon, the all-zero pattern is the no-click branch, and patterns
    with two or more photons are reported as distinct flagged outcomes,
    never merged with a single click.
    """
    det = _names(detector_modes, "detector modes")
    post_reg, readout = _readout_groups(state.register, det, state.terms)
    outcomes = []
    for pattern, fired, members in readout:
        prob, amps = _unit([state.terms[o] for o, _ in members])
        if prob > 0.0:
            post = FockState._of(post_reg, {k: a for (_, k), a in zip(members, amps)})
            outcomes.append(DetectionOutcome(fired, pattern, prob, post, sum(pattern) >= 2))
    return outcomes


def _readout_groups(reg: ModeRegister, det: tuple[ModeId, ...], support) -> tuple:
    """The register detectors ``det`` leave on ``reg`` and their readout of
    the kets ``support``: per pattern seen, its fired detector and members,
    as (ket, kept occupation) pairs.  Single clicks come first, in detector
    order, then no click, then the multi-photon patterns sorted."""
    if len(set(det)) != len(det) or not det:
        raise ConfigError(f"detector modes must be distinct and nonempty: {det!r}")
    post_reg, level, kept = _readout_plan(reg, det)
    groups: dict[tuple, list] = {}
    for occ in support:
        groups.setdefault(level(occ), []).append((occ, kept(occ)))
    n = len(det)
    singles = [(tuple(int(j == k) for j in range(n)), det[k]) for k in range(n)]
    multi = [(p, None) for p in sorted(groups) if sum(p) >= 2]
    order = (*singles, ((0,) * n, None), *multi)
    readout = ((p, f, tuple(groups[p])) for p, f in order if p in groups)
    return post_reg, tuple(readout)


def phase_flip(state: FockState, mode: ModeId) -> FockState:
    """Apply ``(-1)^n`` on ``mode``; exact involution (pure sign flips)."""
    i = state.register.index(mode)
    kets = state.terms
    return FockState._of(state.register, dict(zip(kets, _flipped(kets, kets.values(), i))))


def _flipped(keys, amps, i: int) -> list:
    """``amps`` of kets ``keys`` with ``(-1)^n`` on slot ``i``: sign flips."""
    return [-amp if occ[i] % 2 else amp for occ, amp in zip(keys, amps)]
