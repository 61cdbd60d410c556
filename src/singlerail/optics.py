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
from .fock import Occupation, _count, _kept, _names, _readout_plan, _real, _renormalized
from .fock import _slots

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
    the output basis: the divisor, then one layer per creation operator
    over the polynomial's output occupations, each term as (source key,
    new key, coefficient, sqrt(n+1) ladder factor) in the order the
    expansion accumulates it, then the output occupations."""
    keys, layers = ((0, 0),), []
    for cu, cv in (c0,) * n0 + (c1,) * n1:
        raised: dict[tuple[int, int], int] = {}
        ops = []
        for src, (mu, mv) in enumerate(keys):
            for key, c, n in (((mu + 1, mv), cu, mu), ((mu, mv + 1), cv, mv)):
                dst = raised.setdefault(key, len(raised))
                ops.append((src, dst, c, math.sqrt(n + 1)))
        keys = tuple(raised)
        layers.append((len(keys), tuple(ops)))
    return math.sqrt(math.factorial(n0) * math.factorial(n1)), tuple(layers), keys


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _slot_plan(reg: ModeRegister, bs: BeamSplitter, support: tuple) -> tuple:
    """``bs`` on kets ``support`` of ``reg``: the output register and slots
    (output occupations), per ket its transfer program (None if no photon
    meets the splitter) and the slots it feeds, then the post-register and
    readout of detectors on the outputs (``_readout_groups``) and per entry
    the positions of the kets feeding its members, and the members' slots."""
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
        program = _program(n0, n1, c0, c1) if n0 or n1 else None
        lifted, fed = list(occ), []
        for lifted[i0], lifted[i1] in program[2] if program else [(n0, n1)]:
            fed.append(slots.setdefault(tuple(lifted), len(slots)))
        steps.append((program, tuple(fed)))
    if len(reg) == 2:  # detecting every mode leaves no post-state
        return new_reg, tuple(slots), tuple(steps), None, (), ()
    post_reg, readout = _readout_groups(new_reg, bs.out_modes, slots)
    feeds = []
    for *_, members in readout:
        mine = tuple(slots[o] for o, _ in members)
        fed_by = tuple(i for i, (_, fed) in enumerate(steps) if set(fed) & set(mine))
        feeds.append((fed_by, mine))
    return new_reg, tuple(slots), tuple(steps), post_reg, readout, tuple(feeds)


def _outputs(reg: ModeRegister, bs: BeamSplitter, kets: dict, entry=None) -> tuple:
    """The slot plan of ``bs`` on ``kets`` and the output kets, exact zeros
    dropped: each ket replays its input's expansion, op by op.  With
    ``entry``, only the kets feeding that readout entry replay, and only
    its members are output."""
    plan = _slot_plan(reg, bs, tuple(kets))
    _, slots, steps, *_, feeds = plan
    replayed = zip(steps, kets.values())
    if entry is not None:  # only the kets feeding the entry, in support order
        amps = tuple(kets.values())
        replayed = [(steps[i], amps[i]) for i in feeds[entry][0]]
    out = [0j] * len(slots)
    for (program, fed), amp in replayed:
        poly = [amp]
        if program is not None:
            divisor, layers, _ = program
            poly = [amp / divisor]
            for width, ops in layers:
                raised = [0j] * width
                for src, dst, c, ladder in ops:
                    raised[dst] += poly[src] * c * ladder
                poly = raised
        for slot, a in zip(fed, poly):
            out[slot] += a
    if entry is None:
        return plan, _kept(dict(zip(slots, out)))
    return plan, _kept({slots[s]: out[s] for s in feeds[entry][1]})


def apply_beam_splitter(state: FockState, bs: BeamSplitter) -> FockState:
    """Rewrite ``state`` in the output basis of ``bs``.

    The transformation is unitary, so the norm is preserved to round-off;
    total photon number is conserved term by term.  Each ket replays its
    input's expansion from the slot plan of the state's kets.
    """
    (register, *_), out = _outputs(state.register, bs, state.terms)
    return FockState._of(register, out)


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


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
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

    @property
    def photons_seen(self) -> int:
        return sum(self.pattern)


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
    return [
        DetectionOutcome(fired, p, prob, FockState._of(post_reg, post), sum(p) >= 2)
        for p, fired, prob, post in _weighed(readout, state.terms)
    ]


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


def _weighed(readout: tuple, kets: dict):
    """Per pattern of ``readout`` with positive weight in ``kets``: the
    pattern, its fired detector, weight and members renormalized."""
    for pattern, fired, members in readout:
        prob, post = _renormalized({k: kets[o] for o, k in members if o in kets})
        if prob > 0.0:
            yield pattern, fired, prob, post


def phase_flip(state: FockState, mode: ModeId) -> FockState:
    """Apply ``(-1)^n`` on ``mode``; exact involution (pure sign flips)."""
    i = state.register.index(mode)
    return FockState._of(state.register, _flipped(state.terms, i))


def _flipped(kets: dict, i: int) -> dict:
    """``kets`` with ``(-1)^n`` applied on slot ``i``: pure sign flips."""
    return {occ: (-amp if occ[i] % 2 else amp) for occ, amp in kets.items()}
