"""Linear-optical elements and ideal measurements on Fock states.

Three instruments cover everything the protocols need: a balanced beam
splitter with explicit sign placement, a cross-Kerr quantum nondemolition
(QND) photon-number reader, and ideal single-photon detectors.  All act
projectively and report every herald branch with its exact probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .fock import FockState, ModeId, ModeRegister, Occupation

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


def _raise_out_mode(
    poly: dict[tuple[int, int], complex], coeffs: tuple[float, float]
) -> dict[tuple[int, int], complex]:
    # one creation operator, written in the output basis, applied to a
    # polynomial over output occupations (includes the sqrt(n+1) ladder factor)
    cu, cv = coeffs
    out: dict[tuple[int, int], complex] = {}
    for (mu, mv), amp in poly.items():
        key = (mu + 1, mv)
        out[key] = out.get(key, 0j) + amp * cu * math.sqrt(mu + 1)
        key = (mu, mv + 1)
        out[key] = out.get(key, 0j) + amp * cv * math.sqrt(mv + 1)
    return out


def apply_beam_splitter(state: FockState, bs: BeamSplitter) -> FockState:
    """Rewrite ``state`` in the output basis of ``bs``.

    The transformation is unitary, so the norm is preserved to round-off;
    total photon number is conserved term by term.
    """
    reg = state.register
    i0 = reg.index(bs.in_modes[0])
    i1 = reg.index(bs.in_modes[1])
    names = list(reg.names)
    names[i0] = bs.out_modes[0]
    names[i1] = bs.out_modes[1]
    new_reg = ModeRegister(tuple(names), reg.cutoff)

    c0 = bs.coefficients(bs.in_modes[0])
    c1 = bs.coefficients(bs.in_modes[1])
    out_terms: dict[Occupation, complex] = {}
    for occ, amp in state.terms.items():
        n0, n1 = occ[i0], occ[i1]
        if n0 == 0 and n1 == 0:
            out_terms[occ] = out_terms.get(occ, 0j) + amp
            continue
        # |n0,n1> = (x^dag)^n0 (y^dag)^n1 / sqrt(n0! n1!) |00>
        poly = {(0, 0): amp / math.sqrt(math.factorial(n0) * math.factorial(n1))}
        for _ in range(n0):
            poly = _raise_out_mode(poly, c0)
        for _ in range(n1):
            poly = _raise_out_mode(poly, c1)
        for (m0, m1), a in poly.items():
            lifted = list(occ)
            lifted[i0] = m0
            lifted[i1] = m1
            key = tuple(lifted)
            out_terms[key] = out_terms.get(key, 0j) + a
    return FockState(new_reg, out_terms)


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
        if not self.monitored:
            raise ConfigError("QND needs at least one monitored mode")
        if len(set(self.monitored)) != len(self.monitored):
            raise ConfigError(f"duplicate monitored modes: {self.monitored!r}")

    def outcome_classes(self, cutoff: int) -> list[frozenset[int]]:
        """Partition of possible counts {0..cutoff} by homodyne visibility."""
        groups: list[tuple[float, set[int]]] = []
        for n in range(cutoff + 1):
            c = math.cos(n * self.theta)
            for value, members in groups:
                if abs(value - c) <= QND_DISTINGUISH_TOL:
                    members.add(n)
                    break
            else:
                groups.append((c, {n}))
        return [frozenset(members) for _, members in groups]


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
    outcomes = []
    for cls in config.outcome_classes(state.register.cutoff):
        prob, post = state.project_count(config.monitored, cls)
        if post is None:
            continue
        outcomes.append(QndOutcome(cls, prob, post))
    return outcomes


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
    det = tuple(detector_modes)
    if len(set(det)) != len(det) or not det:
        raise ConfigError(f"detector modes must be distinct and nonempty: {det!r}")
    idxs = state.register.indices(det)
    seen = {tuple(occ[i] for i in idxs) for occ in state.terms}

    ordered: list[tuple[int, ...]] = []
    for k in range(len(det)):
        single = tuple(1 if j == k else 0 for j in range(len(det)))
        if single in seen:
            ordered.append(single)
    zero = (0,) * len(det)
    if zero in seen:
        ordered.append(zero)
    ordered.extend(sorted(p for p in seen if sum(p) >= 2))

    outcomes = []
    for pattern in ordered:
        prob, post = state.project(
            lambda occ, pattern=pattern: tuple(occ[i] for i in idxs) == pattern
        )
        if post is None:
            continue
        reduced = post.without_modes(det)
        total = sum(pattern)
        fired = det[pattern.index(1)] if total == 1 else None
        outcomes.append(
            DetectionOutcome(fired, pattern, prob, reduced, flagged=total >= 2)
        )
    return outcomes


def phase_flip(state: FockState, mode: ModeId) -> FockState:
    """Apply ``(-1)^n`` on ``mode``; exact involution (pure sign flips)."""
    i = state.register.index(mode)
    flipped = {
        occ: (-amp if occ[i] % 2 else amp) for occ, amp in state.terms.items()
    }
    return FockState(state.register, flipped)
