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
herald records (see ``herald_action``).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DegenerateStateError,
    ParameterWarning,
    RegisterError,
)
from .fock import FockState, ModeId, ModeRegister
from .optics import (
    BeamSplitter,
    apply_beam_splitter,
    detect_single_photon,
    phase_flip,
    qnd_measure,
    QndConfig,
)

#: tolerance for "these two pairs are copies of each other"
PAIR_MATCH_TOL = 1e-12
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
        for name, p in (("p_a", self.p_a), ("p_b", self.p_b)):
            if not 0.0 < p < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {p!r}")


@dataclass(frozen=True)
class SingleRailPair:
    """One photon delocalized over two modes: alpha|1,0> + beta|0,1>.

    Canonical form: ``alpha`` is real and non-negative, the relative phase
    lives entirely in the argument of ``beta``, and the coefficients are
    normalized.  Use ``from_coefficients`` to build one from raw amplitudes.
    """

    alpha: float
    beta: complex
    mode_a: ModeId = "a"
    mode_b: ModeId = "b"

    def __post_init__(self):
        if self.mode_a == self.mode_b:
            raise RegisterError(f"pair modes must differ, got {self.mode_a!r} twice")
        if self.alpha < 0.0:
            raise ContractError("alpha must be non-negative in canonical form")
        residual = abs(self.alpha**2 + abs(self.beta) ** 2 - 1.0)
        if residual > 1e-9:
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
        coeff_a = complex(coeff_a)
        coeff_b = complex(coeff_b)
        norm = math.sqrt(abs(coeff_a) ** 2 + abs(coeff_b) ** 2)
        if norm < 1e-12:
            raise DegenerateStateError("pair coefficients are numerically zero")
        if abs(coeff_a) > 0.0:
            rotation = cmath.exp(-1j * cmath.phase(coeff_a))
        else:
            rotation = cmath.exp(-1j * cmath.phase(coeff_b))
        return cls(
            alpha=abs(coeff_a) / norm,
            beta=coeff_b * rotation / norm,
            mode_a=mode_a,
            mode_b=mode_b,
        )

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
        return replace(self, mode_a=mode_a, mode_b=mode_b)

    def to_state(self) -> FockState:
        reg = ModeRegister((self.mode_a, self.mode_b))
        return FockState(reg, {(1, 0): complex(self.alpha), (0, 1): self.beta})

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
    applies it.  ``pair`` restates the corrected state as a
    ``SingleRailPair`` when it has that shape.
    """

    tag: Tag
    herald: Herald
    probability: float
    state: FockState | None
    pair: SingleRailPair | None = None

    def corrected_state(self) -> FockState | None:
        """Post-state with the recorded local phase flip applied."""
        if self.state is None:
            return None
        if not self.herald.sign_correction:
            return self.state
        return phase_flip(self.state, self.herald.correction_mode)


def _class_label(cls: frozenset[int]) -> str:
    return "|".join(str(n) for n in sorted(cls))


KEEP, RECYCLE, DISCARD = "keep", "recycle", "discard"


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


def _fresh_names(
    preferred: tuple[str, ...], taken: tuple[str, ...]
) -> tuple[str, ...]:
    out = []
    used = set(taken)
    for name in preferred:
        while name in used:
            name += "_"
        out.append(name)
        used.add(name)
    return tuple(out)


def _pair_from_state(
    state: FockState, mode_a: ModeId, mode_b: ModeId
) -> SingleRailPair:
    width = len(state.register)
    ia, ib = state.register.index(mode_a), state.register.index(mode_b)
    occ_a = tuple(1 if i == ia else 0 for i in range(width))
    occ_b = tuple(1 if i == ib else 0 for i in range(width))
    return SingleRailPair.from_coefficients(
        state.amplitude(occ_a), state.amplitude(occ_b), mode_a, mode_b
    )


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
    modes = (pair_ab.mode_a, pair_ab.mode_b, pair_cd.mode_a, pair_cd.mode_b)
    if len(set(modes)) != 4:
        raise RegisterError(f"swap needs four distinct modes, got {modes!r}")
    joint = pair_ab.to_state().tensor(pair_cd.to_state())
    det = _fresh_names(("D1", "D2"), modes)
    station = BeamSplitter(
        in_modes=(pair_ab.mode_b, pair_cd.mode_a),
        out_modes=det,
        minus_input=pair_cd.mode_a,
    )
    mixed = apply_beam_splitter(joint, station)

    results = []
    for outcome in detect_single_photon(mixed, det):
        if outcome.fired is not None and not outcome.flagged:
            label = "D1" if outcome.fired == det[0] else "D2"
            herald = Herald(
                events=(HeraldEvent("swap-detect", label, outcome.probability),),
                detector=label,
            )
            pair = _pair_from_state(
                outcome.post_state, pair_ab.mode_a, pair_cd.mode_b
            )
            results.append(
                ProtocolResult(
                    Tag.SUCCESS, herald, outcome.probability, outcome.post_state, pair
                )
            )
        else:
            label = (
                "no-click"
                if outcome.photons_seen == 0
                else "multi-click:" + ",".join(map(str, outcome.pattern))
            )
            herald = Herald(
                events=(HeraldEvent("swap-detect", label, outcome.probability),)
            )
            results.append(
                ProtocolResult(
                    Tag.FAILURE, herald, outcome.probability, outcome.post_state
                )
            )
    return results


def swap_chain_trace(pair: SingleRailPair, n_swaps: int) -> list[SingleRailPair]:
    """Pairs after 1..n successive D1-heralded swaps over identical links.

    Every link of the chain carries a fresh copy of ``pair``; each swap
    keeps the D1 branch.  The k-th entry spans k+1 links, so its
    coefficient ratio is the input ratio to the power k+1.
    """
    if n_swaps < 1:
        raise ConfigError(f"need at least one swap, got {n_swaps}")
    current = pair.with_modes("a", "b")
    link = pair.with_modes("c", "d")
    trace = []
    for _ in range(n_swaps):
        branches = swap(current, link)
        d1 = next(
            r
            for r in branches
            if r.tag is Tag.SUCCESS and r.herald.detector == "D1"
        )
        current = d1.pair.with_modes("a", "b")
        trace.append(d1.pair.with_modes(pair.mode_a, pair.mode_b))
    return trace


# -- concentration ---------------------------------------------------------------


def _check_copies(
    pair1: SingleRailPair, pair2: SingleRailPair, allow_unequal_phases: bool
) -> None:
    if abs(pair1.alpha - pair2.alpha) > PAIR_MATCH_TOL or abs(
        abs(pair1.beta) - abs(pair2.beta)
    ) > PAIR_MATCH_TOL:
        raise ContractError(
            "concentration needs two copies with identical moduli: "
            f"({pair1.alpha:.12g}, {abs(pair1.beta):.12g}) vs "
            f"({pair2.alpha:.12g}, {abs(pair2.beta):.12g})"
        )
    if not allow_unequal_phases and abs(pair1.beta - pair2.beta) > PAIR_MATCH_TOL:
        raise ContractError(
            "pair phases differ; pass allow_unequal_phases=True to explore "
            "phase sensitivity deliberately"
        )


def concentration_round(
    pair1: SingleRailPair,
    pair2: SingleRailPair,
    qnd_theta: float = math.pi,
    *,
    allow_unequal_phases: bool = False,
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
    _check_copies(pair1, pair2, allow_unequal_phases)
    modes = (pair1.mode_a, pair1.mode_b, pair2.mode_a, pair2.mode_b)
    if len(set(modes)) != 4:
        raise RegisterError(f"concentration needs four distinct modes, got {modes!r}")
    joint = pair1.to_state().tensor(pair2.to_state())
    probe = QndConfig(monitored=(pair1.mode_b, pair2.mode_b), theta=qnd_theta)

    results = []
    for reading in qnd_measure(joint, probe):
        action = herald_action(reading.outcome_class)
        qnd_event = HeraldEvent(
            "qnd", _class_label(reading.outcome_class), reading.probability
        )
        if action == KEEP:
            out_c, out_d = _fresh_names(("c2", "d2"), modes)
            splitter = BeamSplitter(
                in_modes=(pair2.mode_a, pair2.mode_b),
                out_modes=(out_c, out_d),
                minus_input=pair2.mode_a,
            )
            mixed = apply_beam_splitter(reading.post_state, splitter)
            for click in detect_single_photon(mixed, (out_c, out_d)):
                if click.fired is None:
                    # the kept class has exactly one photon on the second
                    # pair, so a detector always fires
                    raise ContractError(
                        f"impossible detector pattern {click.pattern!r} in "
                        "the kept class"
                    )
                label = "D1" if click.fired == out_c else "D2"
                herald = Herald(
                    events=(
                        qnd_event,
                        HeraldEvent("detector", label, click.probability),
                    ),
                    qnd_class=reading.outcome_class,
                    detector=label,
                    sign_correction=label == "D2",
                    correction_mode=pair1.mode_b,
                )
                result = ProtocolResult(
                    Tag.SUCCESS,
                    herald,
                    reading.probability * click.probability,
                    click.post_state,
                )
                pair = _pair_from_state(
                    result.corrected_state(), pair1.mode_a, pair1.mode_b
                )
                results.append(replace(result, pair=pair))
        else:
            tag = Tag.RECYCLABLE if action == RECYCLE else Tag.FAILURE
            herald = Herald(events=(qnd_event,), qnd_class=reading.outcome_class)
            results.append(
                ProtocolResult(tag, herald, reading.probability, reading.post_state)
            )
    return results


def recyclable_to_pair(result: ProtocolResult) -> SingleRailPair:
    """Reduce a recyclable two-photon branch back to a single-rail pair.

    The recyclable state correlates both pairs on the same side,
    ``(alpha^2 |1010> + beta^2 e^{2i theta} |0101>) / N`` over
    (a1, b1, a2, b2).  A beam splitter over the second pair's modes
    followed by one click always succeeds and leaves the first pair's
    modes carrying coefficients proportional to
    ``(alpha^2, +/- beta^2 e^{2i theta})``.  The difference port is wired
    to D1, so the D1 branch carries the '-' sign and a recorded phase
    flip restores it; both branches reduce to the same corrected pair,
    which is returned.
    """
    if result.tag is not Tag.RECYCLABLE:
        raise ContractError(f"expected a recyclable branch, got {result.tag}")
    state = result.state
    if state is None or len(state.register) != 4:
        raise ContractError("recyclable branch must carry a four-mode state")
    a1, b1, a2, b2 = state.register.names
    out_d, out_c = _fresh_names(("d2", "c2"), state.register.names)
    # b2 feeds the difference combination and the difference lands on the
    # c-port, so the D1 (c-port) branch picks up the '-' sign
    splitter = BeamSplitter(
        in_modes=(a2, b2), out_modes=(out_d, out_c), minus_input=b2
    )
    mixed = apply_beam_splitter(state, splitter)

    reduced: dict[str, SingleRailPair] = {}
    for click in detect_single_photon(mixed, (out_c, out_d)):
        if click.fired is None:
            raise ContractError(
                "recyclable reduction saw an impossible detector pattern "
                f"{click.pattern!r}"
            )
        label = "D1" if click.fired == out_c else "D2"
        post = click.post_state
        if label == "D1":
            post = phase_flip(post, b1)
        reduced[label] = _pair_from_state(post, a1, b1)
    if set(reduced) != {"D1", "D2"}:
        raise ContractError(f"expected both detector branches, got {set(reduced)!r}")
    if not reduced["D1"].close_to(reduced["D2"]):
        raise ContractError("detector branches disagree after sign correction")
    return reduced["D2"]


# -- iteration and sampling --------------------------------------------------------


@dataclass(frozen=True)
class RoundEntry:
    """Bookkeeping for one concentration round under exact propagation.

    ``attempts_per_source_pair`` counts round attempts per initially
    generated pair (round 1 starts at 1/2 since each attempt eats two
    pairs); ``yield_per_source_pair`` is attempts times success
    probability.
    """

    round_index: int
    input_pair: SingleRailPair | None
    success_probability: float
    recycle_probability: float
    recycled_pair: SingleRailPair | None
    attempts_per_source_pair: float
    yield_per_source_pair: float
    cumulative_yield: float


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
    if rounds < 1:
        raise ConfigError(f"need at least one round, got {rounds}")
    entries = []
    current: SingleRailPair | None = pair
    attempts = 0.5
    cumulative = 0.0
    for n in range(1, rounds + 1):
        if current is None:
            entries.append(
                RoundEntry(n, None, 0.0, 0.0, None, 0.0, 0.0, cumulative)
            )
            continue
        branches = concentration_round(
            current.with_modes("a1", "b1"),
            current.with_modes("a2", "b2"),
            qnd_theta,
        )
        p_success = math.fsum(
            r.probability for r in branches if r.tag is Tag.SUCCESS
        )
        recyclables = [r for r in branches if r.tag is Tag.RECYCLABLE]
        p_recycle = math.fsum(r.probability for r in recyclables)
        recycled = recyclable_to_pair(recyclables[0]) if recyclables else None
        if recycled is not None:
            recycled = recycled.with_modes(pair.mode_a, pair.mode_b)
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


def _branch_label(result: ProtocolResult) -> str:
    detail = result.herald.detector or (
        _class_label(result.herald.qnd_class) if result.herald.qnd_class else ""
    )
    return f"{result.tag.value}:{detail}" if detail else result.tag.value


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
    below = np.zeros(len(edges), dtype=np.int64)  # draws under each edge
    for start in range(0, trials, DRAW_CHUNK):
        draws = rng.random(min(DRAW_CHUNK, trials - start))
        below += [np.count_nonzero(draws < edge) for edge in edges]
    return np.diff(below, prepend=0, append=trials)


def run_monte_carlo(
    pair: SingleRailPair,
    trials: int,
    qnd_theta: float = math.pi,
    seed: int = 0,
) -> MonteCarloStats:
    """Sample herald branches of one concentration round.

    Branch probabilities come from the exact simulation; sampling is the
    only stochastic element and is fully determined by ``seed``.
    Frequencies are aggregated per tag with binomial standard errors.
    """
    if trials < 1:
        raise ConfigError(f"need at least one trial, got {trials}")
    branches = concentration_round(
        pair.with_modes("a1", "b1"), pair.with_modes("a2", "b2"), qnd_theta
    )
    probs = np.array([r.probability for r in branches], dtype=float)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ContractError(f"branch probabilities sum to {total!r}, not 1")
    edges = np.cumsum(probs / total)
    counts = count_draws(np.random.default_rng(seed), trials, edges)
    if not counts[-1]:
        counts = counts[:-1]  # no draw past the last edge (round-off)

    frequencies: dict[str, float] = {}
    expected: dict[str, float] = {}
    for res, n_hits in zip(branches, counts):
        tag = res.tag.value
        frequencies[tag] = frequencies.get(tag, 0.0) + n_hits / trials
        expected[tag] = expected.get(tag, 0.0) + res.probability
    stderrs = {
        tag: math.sqrt(f * (1.0 - f) / trials) for tag, f in frequencies.items()
    }
    return MonteCarloStats(
        trials=trials,
        seed=seed,
        qnd_theta=qnd_theta,
        branch_labels=tuple(_branch_label(r) for r in branches),
        branch_counts=tuple(int(c) for c in counts),
        frequencies=frequencies,
        stderrs=stderrs,
        expected=expected,
    )
