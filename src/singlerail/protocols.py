"""Single-rail entanglement protocols: generation, swapping, concentration.

The carrier of entanglement throughout is a single photon shared between
two distant modes, ``alpha |10> + beta |01>`` (a ``SingleRailPair``).
Heralded generation produces such pairs with tunable imbalance, swapping
extends them over chains at the price of squaring the imbalance per link,
and the concentration protocol restores a maximally entangled pair from
two identical copies using a cross-Kerr QND reader, a beam splitter and
single-photon detectors.  With the probe angle at pi the QND readout
cannot tell zero photons from two, and that merged outcome is recycled
into the next round instead of being discarded.

Every protocol step returns all herald branches with exact probabilities.
Control flow never inspects amplitudes: decisions are pure functions of
herald records (see ``herald_action``).  One generator, ``_round``, walks
a concentration round's branches: ``iterate_concentration`` keeps them in
its ledger, ``run_monte_carlo`` samples the ledger's first round, and
``concentration_round`` wraps them in records.  A step runs kernels the
slot plan compiled once per support (``optics._run``) on tuples of
amplitudes: ``_joint`` forms two pairs' kets by ``tensor``'s arithmetic,
``_probe``'s groups read the probe by ``qnd_measure``'s rule, ``_readout``
weighs each detector outcome by ``detect_single_photon``'s, ``optics._flipped``
flips D2 (``phase_flip``) and ``_pair_of`` alone turns kets into a pair.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import (
    ConfigError,
    ContractError,
    DegenerateStateError,
    ParameterWarning,
    RegisterError,
)
from .fock import DEFAULT_CUTOFF, MAX_ROUNDS, MAX_SWAP_DEPTH, MAX_TRIALS
from .fock import PLAN_CACHE_SIZE, FockState, ModeId, ModeRegister
from .fock import _amplitude, _count, _names, _nonzero, _real, _slots, _unit
from .optics import BeamSplitter, _flipped, _outcome_classes, _run, _slot_plan, phase_flip

if TYPE_CHECKING:
    import numpy as np

#: tolerance for "these two pairs are copies of each other"
PAIR_MATCH_TOL = 1e-12
#: the joint kets of two pairs, |10> and |01> of each, in ``FockState.tensor``'s order
_JOINT = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))
#: uniforms drawn at a time by ``count_draws``; bounds its memory
DRAW_CHUNK = 2**20


@dataclass(frozen=True)
class SourceParams:
    """Emission probabilities of the two photon-pair sources feeding one link.

    ``p_a`` and ``p_b`` are the per-shot pair-emission probabilities of the
    sources behind modes a and b; ``theta_ab`` is the propagation phase
    difference between the two paths to the heralding station.
    """

    p_a: float
    p_b: float
    theta_ab: float = 0.0

    def __post_init__(self):
        for name in ("p_a", "p_b"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0, 1))
        object.__setattr__(self, "theta_ab", _real(self.theta_ab, "theta_ab"))


def _past_float_max() -> ConfigError:
    return ConfigError("pair coefficients past ~1.34e154: their squares overflow")


def _canonical(coeff_a: complex, coeff_b: complex) -> tuple[float, complex]:
    """``from_coefficients``' arithmetic: canonical (alpha, beta), norm checked."""
    try:
        norm = math.sqrt(abs(coeff_a) ** 2 + abs(coeff_b) ** 2)
    except OverflowError:
        norm = math.inf
    if norm == math.inf and cmath.isfinite(coeff_a) and cmath.isfinite(coeff_b):
        raise _past_float_max()
    if not norm >= 1e-12:  # NaN-safe
        raise DegenerateStateError(f"pair coefficients have norm {norm!r}")
    rotation = cmath.exp(-1j * cmath.phase(coeff_a if abs(coeff_a) > 0.0 else coeff_b))
    return abs(coeff_a) / norm, coeff_b * rotation / norm


@dataclass(frozen=True)
class SingleRailPair:
    """One photon delocalized over two modes: alpha|1,0> + beta|0,1>.

    Canonical form: ``alpha`` is a non-negative ``float``, the relative phase
    lives entirely in the argument of the ``complex`` ``beta``, and the
    coefficients are normalized; both are read as amplitudes (``_amplitude``).
    Use ``from_coefficients`` to build one from raw amplitudes.
    """

    alpha: float
    beta: complex
    mode_a: ModeId = "a"
    mode_b: ModeId = "b"

    def __post_init__(self):
        _names((self.mode_a, self.mode_b), "pair modes")
        if self.mode_a == self.mode_b:
            raise RegisterError(f"pair modes must differ, got {self.mode_a!r} twice")
        alpha = _amplitude(self.alpha, "alpha")
        object.__setattr__(self, "beta", _amplitude(self.beta, "beta"))
        if alpha.imag:
            raise ContractError("alpha must be real in canonical form")
        object.__setattr__(self, "alpha", alpha.real)
        if self.alpha < 0.0:
            raise ContractError("alpha must be non-negative in canonical form")
        try:
            residual = abs(self.alpha**2 + abs(self.beta) ** 2 - 1.0)
        except OverflowError:
            raise _past_float_max() from None
        if not residual <= 1e-9:  # NaN-safe
            raise ContractError(
                f"pair coefficients are not normalized (off by {residual:.3g})"
            )

    @classmethod
    def from_coefficients(
        cls,
        coeff_a: complex,
        coeff_b: complex,
        mode_a: ModeId = "a",
        mode_b: ModeId = "b",
    ) -> "SingleRailPair":
        """Normalize and rotate raw coefficients into canonical form."""
        coeff_a = _amplitude(coeff_a, "coeff_a")
        coeff_b = _amplitude(coeff_b, "coeff_b")
        return cls(*_canonical(coeff_a, coeff_b), mode_a, mode_b)

    @classmethod
    def _of(cls, alpha: float, beta: complex, mode_a: ModeId, mode_b: ModeId):
        """Trusted constructor for pairs the package computed: nothing is re-read."""
        pair = object.__new__(cls)
        vars(pair).update(alpha=alpha, beta=beta, mode_a=mode_a, mode_b=mode_b)
        return pair

    @property
    def alpha_sq(self) -> float:
        return self.alpha**2

    @property
    def beta_sq(self) -> float:
        return abs(self.beta) ** 2

    @property
    def theta(self) -> float:
        """Relative phase between the two branches (argument of beta)."""
        return cmath.phase(self.beta)

    def with_modes(self, mode_a: ModeId, mode_b: ModeId) -> "SingleRailPair":
        """Renamed; ``self`` is validated already, so only the names are checked."""
        if (mode_a, mode_b) == (self.mode_a, self.mode_b):
            return self
        if mode_a == mode_b:
            raise RegisterError(f"pair modes must differ, got {mode_a!r} twice")
        return self._of(self.alpha, self.beta, mode_a, mode_b)

    def to_state(self) -> FockState:
        """The pair's |10> and |01> kets on its two modes, exact zeros dropped."""
        kets = {(1, 0): complex(self.alpha), (0, 1): complex(self.beta)}
        return FockState._of(ModeRegister((self.mode_a, self.mode_b)), kets)

    def close_to(self, other: "SingleRailPair") -> bool:
        return (
            abs(self.alpha - other.alpha) <= 1e-9
            and abs(self.beta - other.beta) <= 1e-9
        )


class Tag(Enum):
    SUCCESS = "success"
    RECYCLABLE = "recyclable"
    FAILURE = "failure"


@dataclass(frozen=True)
class HeraldEvent:
    """One classical record: which instrument reported what, how likely."""

    stage: str
    outcome: str
    probability: float  # conditional on reaching this stage


@dataclass(frozen=True)
class Herald:
    """Everything the classical side learns about one protocol branch."""

    events: tuple[HeraldEvent, ...]
    qnd_class: frozenset[int] | None = None
    detector: str | None = None
    sign_correction: bool = False
    correction_mode: ModeId | None = None


@dataclass(frozen=True)
class ProtocolResult:
    """One herald branch of a protocol step.

    ``probability`` is absolute (the product of the branch's event
    probabilities), so each step's result list sums to one.  ``state`` is
    the raw post-measurement state; when the herald calls for a sign
    correction it is recorded, not applied, and ``corrected_state()``
    applies it.  ``pair`` restates a success branch's corrected state,
    which holds the two modes of the new pair, as a ``SingleRailPair``,
    computed on first read; other branches read ``None``.
    """

    tag: Tag
    herald: Herald
    probability: float
    state: FockState | None

    def corrected_state(self) -> FockState | None:
        """Post-state with the recorded local phase flip applied."""
        if self.state is None:
            return None
        if not self.herald.sign_correction:
            return self.state
        return phase_flip(self.state, self.herald.correction_mode)

    @functools.cached_property
    def pair(self) -> SingleRailPair | None:
        if self.tag is not Tag.SUCCESS:
            return None
        state = self.corrected_state()
        return _pair_of(tuple(state.terms), tuple(state.terms.values()), state.register.names)


def _class_label(cls: frozenset[int]) -> str:
    return "|".join(str(n) for n in sorted(cls))


KEEP, RECYCLE, DISCARD = "keep", "recycle", "discard"
_TAGS = {KEEP: Tag.SUCCESS, RECYCLE: Tag.RECYCLABLE, DISCARD: Tag.FAILURE}


def herald_action(outcome_class: frozenset[int]) -> str:
    """Decide a round's fate from the QND record alone.

    This is deliberately a function of the outcome class only, never of
    state amplitudes: exactly one monitored photon means the pair survives,
    the merged even-count class (0 indistinguishable from 2) is recyclable,
    and anything else is discarded.
    """
    if outcome_class == frozenset({1}):
        return KEEP
    if outcome_class == frozenset({0, 2}):
        return RECYCLE
    return DISCARD


# -- heralded generation -------------------------------------------------------


def generate_entanglement(params: SourceParams) -> tuple[float, SingleRailPair]:
    """Heralded single-rail pair from two emissive sources and one click.

    To first order in the emission probabilities, one detection at the
    middle station heralds ``sqrt(p_a) |10> + sqrt(p_b) e^{i theta} |01>``
    (normalized) with herald probability ``(p_a + p_b) / 2``.
    """
    total = params.p_a + params.p_b
    if total >= 1.0:
        warnings.warn(
            "p_a + p_b >= 1: the first-order emission model is not trustworthy here",
            ParameterWarning,
            stacklevel=2,
        )
    herald_probability = total / 2.0
    alpha = math.sqrt(params.p_a / total)
    beta = math.sqrt(params.p_b / total) * cmath.exp(1j * params.theta_ab)
    return herald_probability, SingleRailPair(alpha, beta)


# -- entanglement swapping ------------------------------------------------------


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _station(step: str, modes: tuple[ModeId, ...]) -> tuple:
    """The joint register and the beam splitter of ``step`` over modes
    (a, b, c, d), built once per mode names.  The splitter's outputs keep
    the names of the inputs they replace and are its detectors; the first,
    the plus port, is D1.  A swap meets b and c, so D1 is b's port;
    concentration, and recycling, meet c and d (the second pair), so D1 is
    c's port.  Both wire c to the minus input."""
    meet = modes[1:3] if step == "swap" else modes[2:]
    return ModeRegister(modes), BeamSplitter(meet, meet, minus_input=modes[2])


def _label(station: BeamSplitter, fired: ModeId | None, pattern: tuple) -> str:
    """The detector of an outcome that brings the station one photon."""
    if fired is None:
        raise ContractError(f"impossible pattern {pattern!r} for one photon")
    return "D1" if fired == station.out_modes[0] else "D2"


def _pair_of(keys: tuple, amps, names: tuple) -> SingleRailPair:
    """The pair on modes ``names`` of the |10> and |01> amplitudes of computed
    kets ``keys``, ``amps``, built trusted; one missing or zero reads 0j."""
    a = amps[keys.index((1, 0))] if (1, 0) in keys else 0j
    b = amps[keys.index((0, 1))] if (0, 1) in keys else 0j
    return SingleRailPair._of(*_canonical(a or 0j, b or 0j), *names)


def _joint(pair1: SingleRailPair, pair2: SingleRailPair) -> tuple:
    """The amplitudes of ``_JOINT``: ``FockState.tensor``'s arithmetic on the
    pairs' ``to_state`` kets, read without building them."""
    a1, b1, a2, b2 = complex(pair1.alpha), pair1.beta, complex(pair2.alpha), pair2.beta
    return a1 * a2, a1 * b2, b1 * a2, b1 * b2


def _readout(register: ModeRegister, station: BeamSplitter, keys, amps) -> tuple:
    """The station's post-register and, from each readout entry's kernel on
    kets ``keys``, ``amps``, per outcome of positive weight (pattern, fired,
    weight, kets as keys and amplitudes at unit norm)."""
    *_, post_register, entries = _slot_plan(register, station, keys)
    outcomes = []
    for pattern, fired, kernel in entries:
        prob, post = _unit(_run(kernel, amps))
        if prob > 0.0:
            outcomes.append((pattern, fired, prob, (kernel[-1], post)))
    return post_register, outcomes


def swap(pair_ab: SingleRailPair, pair_cd: SingleRailPair) -> list[ProtocolResult]:
    """Connect two pairs by interfering their inner modes at one station.

    The inner modes (b of the first pair, c of the second) meet a balanced
    beam splitter wired as ``b -> (D1 + D2)/sqrt(2)``,
    ``c -> (D1 - D2)/sqrt(2)``, followed by photon counting.  Exactly one
    click leaves the outer modes in a pair with coefficients proportional
    to ``(alpha^2, +/- beta^2 e^{i(theta_ab + theta_cd)})``, the sign set
    by which detector fired (D1 keeps '+').  Zero clicks and double clicks
    are failures; all four branches are returned and their probabilities
    sum to one.
    """
    register, station = _station(
        "swap", (pair_ab.mode_a, pair_ab.mode_b, pair_cd.mode_a, pair_cd.mode_b)
    )
    joint = _nonzero(_JOINT, _joint(pair_ab, pair_cd))
    post_register, outcomes = _readout(register, station, *joint)
    results = []
    for pattern, fired, prob, post in outcomes:
        success = fired is not None
        if success:
            label = _label(station, fired, pattern)
        elif not any(pattern):
            label = "no-click"
        else:
            label = "multi-click:" + ",".join(map(str, pattern))
        herald = Herald(
            events=(HeraldEvent("swap-detect", label, prob),),
            detector=label if success else None,
        )
        tag = Tag.SUCCESS if success else Tag.FAILURE
        state = FockState._of(post_register, dict(zip(*post)))
        results.append(ProtocolResult(tag, herald, prob, state))
    return results


def swap_chain_trace(pair: SingleRailPair, n_swaps: int) -> list[SingleRailPair]:
    """Pairs after 1..n successive D1-heralded swaps over identical links.

    Every link carries a fresh copy of ``pair``; each step runs ``swap``'s
    station and reads only the D1 outcome's kets.  The k-th entry spans k+1
    links, so its coefficient ratio is the input ratio to the power k+1.
    """
    return list(_swap_chain(pair, _count(n_swaps, "swap count", most=MAX_SWAP_DEPTH)))


def _swap_chain(pair: SingleRailPair, n_swaps: int):
    """``swap_chain_trace``'s pairs one at a time, for a count already read.
    A step runs D1's kernel alone and builds no state, outcome or record."""
    register, station = _station("swap", ("a", "b", "c", "d"))
    names, current, seen = (pair.mode_a, pair.mode_b), pair, None
    for _ in range(n_swaps):
        support, amps = _nonzero(_JOINT, _joint(current, pair))
        if support != seen:  # a plan lookup only when a weight underflows
            seen, entries = support, _slot_plan(register, station, support)[-1]
        pattern, fired, kernel = entries[0]  # readout order puts D1 first
        prob, post = _unit(_run(kernel, amps))
        if not prob > 0.0:  # no outcome to read
            pattern, fired = (), None
        if _label(station, fired, pattern) != "D1":
            raise ContractError(f"a chain step read {pattern!r}, not D1's click")
        current = _pair_of(kernel[-1], post, names)
        yield current


# -- concentration ---------------------------------------------------------------


def _check_copies(pair1: SingleRailPair, pair2: SingleRailPair) -> None:
    gaps = abs(pair1.alpha - pair2.alpha), abs(pair1.beta - pair2.beta)
    if any(gap > PAIR_MATCH_TOL for gap in gaps):
        raise ContractError(
            "concentration needs two copies of one pair: "
            f"({pair1.alpha:.12g}, {pair1.beta:.12g}) vs "
            f"({pair2.alpha:.12g}, {pair2.beta:.12g})"
        )


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _probe(qnd_theta: float) -> tuple:
    """The QND probe of a concentration round at ``qnd_theta``, compiled on
    ``_JOINT`` by ``qnd_measure``'s rule (b1 + b2 photons): in class order,
    each class and the getter of its kets, and each class's action and label."""
    classes, class_of = _outcome_classes(qnd_theta, DEFAULT_CUTOFF)
    counted = [class_of[occ[1] + occ[3]] for occ in _JOINT]
    groups = [(c, _slots(tuple(i for i, k in enumerate(counted) if k == c))) for c in classes]
    return tuple(groups), {cls: (herald_action(cls), _class_label(cls)) for cls in classes}


def _round(pair1: SingleRailPair, pair2: SingleRailPair, qnd_theta: float):
    """Each branch of a round on two copies in record order: per class of
    positive weight of their joint kets, read by ``_probe``'s groups, the
    class, its verdict (action and label, a herald record) and weight; for a
    kept click (detector, weight), else None; post-register, kets (keys and
    amplitudes) renormalized."""
    _check_copies(pair1, pair2)
    modes = pair1.mode_a, pair1.mode_b, pair2.mode_a, pair2.mode_b
    register, station = _station("concentration", modes)
    groups, verdicts = _probe(qnd_theta)
    joint = _joint(pair1, pair2)
    for cls, getter in groups:  # in class order
        keys, amps = _nonzero(getter(_JOINT), getter(joint))
        prob, amps = _unit(amps)
        if not prob > 0.0:
            continue
        (action, label), kets = verdicts[cls], (keys, amps)
        if action != KEEP:
            yield cls, action, label, prob, None, register, kets
            continue
        post_register, clicks = _readout(register, station, *kets)
        for pattern, fired, weight, post in clicks:
            click = _label(station, fired, pattern), weight
            yield cls, action, label, prob, click, post_register, post


def _reduced(keys: tuple, amps, names: tuple) -> SingleRailPair:
    """The pair on modes ``names`` a recyclable class's kets ``keys``,
    ``amps`` over (a1, b1, a2, b2) reduce to at the concentration station,
    read from D1's click.  a2 feeds the difference port, which lands on D2,
    so D2's pair, flipped on b1 by ``phase_flip``'s rule, must agree."""
    register, station = _station("concentration", ("a1", "b1", "a2", "b2"))
    reduced: dict[str, SingleRailPair] = {}
    for pattern, fired, _, (ks, vs) in _readout(register, station, keys, amps)[1]:
        label = _label(station, fired, pattern)
        reduced[label] = _pair_of(ks, _flipped(ks, vs, 1) if label == "D2" else vs, names)
    if set(reduced) != {"D1", "D2"}:
        raise ContractError(f"expected both detector branches, got {set(reduced)!r}")
    if not reduced["D1"].close_to(reduced["D2"]):
        raise ContractError("detector branches disagree after sign correction")
    return reduced["D1"]


def concentration_round(
    pair1: SingleRailPair, pair2: SingleRailPair, qnd_theta: float = math.pi
) -> list[ProtocolResult]:
    """One concentration attempt on two identical pairs.

    The joint two-photon state is read by a cross-Kerr QND probe on the
    two b-side modes.  Exactly one monitored photon heralds the balanced
    subspace: a beam splitter across the second pair's modes plus a click
    on D1 or D2 then leaves the first pair's modes maximally entangled for
    any input imbalance and any relative phase (D2 needs a local sign
    flip, recorded in the herald and applied by
    ``ProtocolResult.corrected_state()``).  With ``qnd_theta = pi`` the
    readout cannot separate zero monitored photons from two, and that
    branch is returned as ``Tag.RECYCLABLE`` carrying the correlated
    two-photon state; at a generic angle the same counts are resolved
    and discarded.

    Returns every branch; probabilities sum to one.
    """
    branches = _round(pair1, pair2, _real(qnd_theta, "probe angle"))
    results = []
    for cls, action, label, prob, click, register, kets in branches:
        events, det = (HeraldEvent("qnd", label, prob),), None
        if click:
            det, weight = click
            events += (HeraldEvent("detector", det, weight),)
            prob *= weight
        herald = Herald(events, cls, det, det == "D2", det and pair1.mode_b)
        state = FockState._of(register, dict(zip(*kets)))
        results.append(ProtocolResult(_TAGS[action], herald, prob, state))
    return results


def recyclable_to_pair(result: ProtocolResult) -> SingleRailPair:
    """Reduce a recyclable two-photon branch back to a single-rail pair.

    The recyclable state correlates both pairs on the same side,
    ``(alpha^2 |1010> + beta^2 e^{2i theta} |0101>) / N`` over
    (a1, b1, a2, b2).  A beam splitter over the second pair's modes
    followed by one click always succeeds and leaves the first pair's
    modes carrying coefficients proportional to
    ``(alpha^2, +/- beta^2 e^{2i theta})``.  Wired like the kept branch of
    ``concentration_round``, the D2 branch carries the '-' sign and takes
    the phase flip on b1 that ``corrected_state()`` applies there; both
    branches reduce to the same pair, and the D1 one is returned.
    """
    if result.tag is not Tag.RECYCLABLE:
        raise ContractError(f"expected a recyclable branch, got {result.tag}")
    state = result.state
    if state is None or len(state.register) != 4:
        raise ContractError("recyclable branch must carry a four-mode state")
    return _reduced(tuple(state.terms), tuple(state.terms.values()), state.register.names[:2])


# -- iteration and sampling --------------------------------------------------------


@dataclass(frozen=True)
class RoundEntry:
    """Bookkeeping for one concentration round under exact propagation.

    ``attempts_per_source_pair`` counts round attempts per initially
    generated pair (round 1 starts at 1/2 since each attempt eats two
    pairs); ``yield_per_source_pair`` is attempts times success
    probability.  ``branches`` holds each branch the walk took, as (label,
    absolute probability, action) in ``concentration_round``'s order: the
    detector if kept, else the probe class; a round with no input has none.
    """

    round_index: int
    input_pair: SingleRailPair | None
    success_probability: float
    recycle_probability: float
    recycled_pair: SingleRailPair | None
    attempts_per_source_pair: float
    yield_per_source_pair: float
    cumulative_yield: float
    branches: tuple[tuple[str, float, str], ...] = ()


@dataclass(frozen=True)
class IterationLedger:
    """Per-round record of iterated concentration with recycling."""

    qnd_theta: float
    entries: tuple[RoundEntry, ...]

    @property
    def cumulative_yield(self) -> float:
        return self.entries[-1].cumulative_yield if self.entries else 0.0


def iterate_concentration(
    pair: SingleRailPair, rounds: int, qnd_theta: float = math.pi
) -> IterationLedger:
    """Iterate concentration, feeding each round the previous round's recycles.

    Exact probability propagation over the herald tree: all copies at a
    given depth are identical, so a deterministic-fraction inventory
    replaces per-copy sampling.  Round n consumes ``2**n`` source pairs
    per attempt; with a generic QND angle nothing is recyclable and later
    rounds simply record zero attempts.
    """
    rounds = _count(rounds, "round count", most=MAX_ROUNDS)
    qnd_theta = _real(qnd_theta, "probe angle")
    entries = []
    current: SingleRailPair | None = pair
    attempts = 0.5
    cumulative = 0.0
    for n in range(1, rounds + 1):
        branches, recycled = [], None
        if current:  # a round with no input pair is the same round at zero weight
            copies = current.with_modes("a1", "b1"), current.with_modes("a2", "b2")
            for _, action, label, prob, click, _, kets in _round(*copies, qnd_theta):
                if click:
                    label, weight = click
                    prob *= weight
                elif action == RECYCLE:
                    recycled = _reduced(*kets, (current.mode_a, current.mode_b))
                branches.append((label, prob, action))
        p_success = math.fsum(p for _, p, action in branches if action == KEEP)
        p_recycle = math.fsum(p for _, p, action in branches if action == RECYCLE)
        gained = attempts * p_success
        cumulative += gained
        entries.append(
            RoundEntry(
                n,
                current,
                p_success,
                p_recycle,
                recycled,
                attempts,
                gained,
                cumulative,
                tuple(branches),
            )
        )
        attempts = attempts * p_recycle / 2.0
        current = recycled
    return IterationLedger(qnd_theta, tuple(entries))


@dataclass(frozen=True)
class MonteCarloStats:
    """Sampled herald frequencies for one concentration round."""

    trials: int
    seed: int
    qnd_theta: float
    branch_labels: tuple[str, ...]
    branch_counts: tuple[int, ...]
    frequencies: dict[str, float]
    stderrs: dict[str, float]
    expected: dict[str, float]


def count_draws(
    rng: np.random.Generator, trials: int, edges: np.ndarray
) -> np.ndarray:
    """Bin counts of ``trials`` uniform draws cut at the ascending ``edges``.

    Bin i holds the draws u with ``edges[i-1] <= u < edges[i]``; the last
    of the ``len(edges) + 1`` bins holds the draws at or past the last
    edge.  Draws come ``DRAW_CHUNK`` at a time, which bounds memory and
    leaves the stream unchanged: ``rng.random`` yields the same values
    whether drawn at once or in chunks.
    """
    import numpy as np  # deferred: only a run that draws pays the import

    below = np.zeros(len(edges), dtype=np.int64)  # draws under each edge
    for start in range(0, trials, DRAW_CHUNK):
        draws = rng.random(min(DRAW_CHUNK, trials - start))
        for i, edge in enumerate(edges):
            below[i] += np.count_nonzero(draws < edge)
    return np.diff(below, prepend=0, append=trials)


def run_monte_carlo(
    pair: SingleRailPair,
    trials: int,
    qnd_theta: float = math.pi,
    seed: int = 0,
) -> MonteCarloStats:
    """Sample herald branches of one concentration round.

    The branches are the first round of ``iterate_concentration``'s ledger;
    sampling is the only stochastic element, fully determined by ``seed``.
    Frequencies are aggregated per tag with binomial standard errors.
    """
    trials = _count(trials, "trials", most=MAX_TRIALS)
    seed = _count(seed, "seed", 0)
    ledger = iterate_concentration(pair, 1, qnd_theta)
    branches = [(_TAGS[a].value, label, p) for label, p, a in ledger.entries[0].branches]
    import numpy as np  # deferred: only a run that draws pays the import

    probs = np.array([p for *_, p in branches], dtype=float)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ContractError(f"branch probabilities sum to {float(total)!r}, not 1")
    # the last branch takes every draw past the interior edges
    edges = np.cumsum(probs / total)[:-1]
    counts = count_draws(np.random.default_rng(seed), trials, edges)

    frequencies: dict[str, float] = {}
    expected: dict[str, float] = {}
    for (tag, _, p), n_hits in zip(branches, counts):
        frequencies[tag] = frequencies.get(tag, 0.0) + int(n_hits) / trials
        expected[tag] = expected.get(tag, 0.0) + p
    stderrs = {
        tag: math.sqrt(f * (1.0 - f) / trials) for tag, f in frequencies.items()
    }
    return MonteCarloStats(
        trials=trials,
        seed=seed,
        qnd_theta=ledger.qnd_theta,
        branch_labels=tuple(f"{tag}:{label}" for tag, label, _ in branches),
        branch_counts=tuple(int(c) for c in counts),
        frequencies=frequencies,
        stderrs=stderrs,
        expected=expected,
    )
