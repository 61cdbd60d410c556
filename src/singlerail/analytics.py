"""Yield accounting for iterated concentration, three independent ways.

Per round the protocol either distills one maximally entangled pair or
(at probe angle pi) recycles a less entangled one into the next round.
This module evaluates the per-source-pair yield of each round via

* ``yield_term``: the closed-form series, a fixed algebraic shortcut;
* the paper's coefficient recursion x' = x**2/(x**2 + y**2), exactly,
  with a per-source-pair inventory (round n is fed by 2**n source pairs
  per attempt).  ``yield_oracle`` is the reference: every quantity is a
  reduced ``Fraction``.  ``compare_yield`` evaluates the same recursion
  with certified rounding: bounds of P digits in ROUND_FLOOR and
  ROUND_CEILING ``decimal`` contexts, rerun at 2P digits until both
  bounds of every value round to the same float.  That ends: past the
  exact integers' length only the division rounds, and its bracket
  narrows past every boundary between doubles.  So its floats equal
  the reference's bit for bit;
* ``monte_carlo_yield``: seeded sampling of the herald tree whose branch
  probabilities an ``IterationLedger`` already walked.

The closed-form series and the oracle agree for rounds 1 and 2 but not
beyond; ``compare_yield`` tabulates both side by side and flags every
difference above tolerance as a documented discrepancy instead of failing
or hiding it.  The oracle is the authority.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction

from .errors import CapacityError, ConfigError
from .fock import MAX_ORACLE_BITS, MAX_ORACLE_ROUNDS, MAX_ROUNDS, MAX_TRIALS
from .fock import _amplitude, _count, _real, _shown, _weight
from .protocols import KEEP, RECYCLE, IterationLedger, SingleRailPair, _probe

#: formula-vs-oracle differences above this are reported as discrepancies
YIELD_MATCH_TOL = 1e-12

#: decimal digits kept per value in the first pass of ``_oracle_floats``
_START_DIGITS = 50


def _balance_ratio(x: float, y: float, power: int) -> float:
    """(x*y)**power / (x**power + y**power)**2, computed without under/overflow."""
    lo, hi = (x, y) if x <= y else (y, x)
    if hi == 0.0:
        return 0.0
    r = (lo / hi) ** power
    return r / (1.0 + r) ** 2


def _moduli(alpha: complex, beta: complex) -> list[float]:
    """|alpha| and |beta|, not both 0, read alike for the closed form and the
    oracle: finite amplitudes whose squares, summed, fit a float (``fock._weight``)."""
    amps = _amplitude(alpha, "alpha"), _amplitude(beta, "beta")
    if not math.isfinite(_weight(amps)):
        raise ConfigError(f"alpha, beta must be finite numbers: {alpha!r}, {beta!r}")
    if not any(amps):
        raise ConfigError("alpha and beta cannot both vanish")
    return [abs(a) for a in amps]


def yield_term(alpha: complex, beta: complex, n: int) -> float:
    """Closed-form yield of round ``n`` per source pair.

    Rounds 1 and 3 are explicit special cases; every other round uses
    the product form, with the bracket index running from 3 to n-1 (none
    at n = 2).  Only the moduli of ``alpha`` and ``beta`` enter.  The
    expression stays fixed even where the exact oracle disagrees (rounds >= 3);
    ``compare_yield`` surfaces those differences instead of reconciling
    them.
    """
    n = _count(n, "round index", most=MAX_ROUNDS)
    return _term(*(m**2 for m in _moduli(alpha, beta)), n)


def yield_series(alpha: complex, beta: complex, n_rounds: int) -> list[float]:
    n_rounds = _count(n_rounds, "round count", most=MAX_ROUNDS)
    x, y = (m**2 for m in _moduli(alpha, beta))  # read once per series
    return [_term(x, y, n) for n in range(1, n_rounds + 1)]


def _term(x: float, y: float, n: int) -> float:  # x = |alpha|**2, y = |beta|**2
    ab_sq = x * y  # |alpha * beta|^2
    if n == 1:
        return ab_sq
    if n == 3:
        return (
            0.25
            * (1.0 - 2.0 * ab_sq)
            * (1.0 - _balance_ratio(x, y, 2))
            * _balance_ratio(x, y, 4)
        )
    bracket = 1.0
    for j in range(3, n):  # j = 3 .. n-1
        bracket *= 1.0 - 2.0 * _balance_ratio(x, y, 2 ** (j - 2))
    return (
        (1.0 - 2.0 * ab_sq)
        / 2.0 ** (n - 1)
        * bracket
        * _balance_ratio(x, y, 2 ** (n - 1))
    )


@dataclass(frozen=True)
class OracleRound:
    """Exact accounting of one round of the herald tree.

    All fields are per source pair where applicable; ``alpha_sq`` is the
    a-side weight of the pair entering this round.
    """

    round_index: int
    alpha_sq: Fraction
    attempts: Fraction
    success_probability: Fraction
    recycle_probability: Fraction
    yield_value: Fraction


def _probe_actions(qnd_theta: float) -> set[str]:
    """Herald actions the probe at ``qnd_theta`` can report on two pairs,
    read from the walk's own probe (``protocols._probe``).  No amplitude
    is read."""
    verdicts = _probe(_real(qnd_theta, "probe angle"))[1]
    return {action for action, _ in verdicts.values()}


def _oracle_weight(alpha: complex, beta: complex, n_rounds: int) -> tuple:
    """Domain checks; the round count, the exact start weight x of both oracle
    paths and the squared float moduli the closed form reads."""
    n_rounds = _count(n_rounds, "round count")
    if n_rounds > MAX_ORACLE_ROUNDS:
        raise CapacityError(
            f"oracle enumerates at most {MAX_ORACLE_ROUNDS} rounds "
            f"(2**n source pairs feed round n), got {_shown(n_rounds)}"
        )
    moduli = _moduli(alpha, beta)
    a_sq, b_sq = (Fraction(m) ** 2 for m in moduli)
    return n_rounds, a_sq / (a_sq + b_sq), [m**2 for m in moduli]


def yield_oracle(
    alpha: complex, beta: complex, n_rounds: int, qnd_theta: float = math.pi
) -> list[OracleRound]:
    """Exact yield of each round of iterated concentration.

    With pair weight x (y = 1 - x) two copies of the pair herald one
    monitored photon with probability 2xy, which is kept, and zero or two
    with probability x**2 + y**2, which the pi probe merges and recycles
    into a pair of weight x**2 / (x**2 + y**2).  Every quantity is a
    reduced ``Fraction``.  Round 1 starts at one attempt per two source
    pairs, and each later attempt eats two recycled survivors.  A probe
    without a one-photon class keeps nothing, and one without the merged
    {0, 2} class recycles nothing, so later rounds see no attempts.
    Its numbers reach b * 2**n bits from a start weight of b bits, and
    its time about 4× per doubling (hours for 1e-300 at 16 rounds), so past
    ``MAX_ORACLE_BITS`` it raises ``CapacityError``; the CLI never calls it.
    """
    n_rounds, x, _ = _oracle_weight(alpha, beta, n_rounds)
    bits = max(x.numerator.bit_length(), x.denominator.bit_length()) << n_rounds
    if bits > MAX_ORACLE_BITS:
        raise CapacityError(f"the oracle would reach {bits} bits, past {MAX_ORACLE_BITS}")
    actions = _probe_actions(qnd_theta)
    zero = Fraction(0)

    attempts = Fraction(1, 2)  # one attempt consumes two source pairs
    rounds: list[OracleRound] = []
    for n in range(1, n_rounds + 1):
        y = 1 - x
        x_sq = x * x
        p_keep = 2 * x * y if KEEP in actions else zero
        p_even = x_sq + y * y if RECYCLE in actions else zero
        rounds.append(
            OracleRound(
                round_index=n,
                alpha_sq=x,
                attempts=attempts,
                success_probability=p_keep,
                recycle_probability=p_even,
                yield_value=attempts * p_keep,
            )
        )
        if p_even == 0:
            attempts = zero
            continue
        x = x_sq / p_even
        attempts = attempts * p_even / 2
    return rounds


@dataclass(frozen=True)
class YieldTerm:
    """One round's closed-form value next to the exact oracle."""

    round_index: int
    value: float
    oracle_value: float
    discrepancy: float
    matches: bool


@dataclass(frozen=True)
class MonteCarloRound:
    round_index: int
    attempts: int
    successes: int
    estimate: float
    stderr: float


@dataclass(frozen=True)
class YieldReport:
    """Side-by-side yield table: closed form next to the oracle."""

    terms: tuple[YieldTerm, ...]
    cumulative_formula: float
    cumulative_oracle: float

    @property
    def discrepancies(self) -> tuple[YieldTerm, ...]:
        return tuple(t for t in self.terms if not t.matches)


def monte_carlo_yield(
    ledger: IterationLedger, trials: int, seed: int = 0
) -> list[MonteCarloRound]:
    """Sample the ledger's herald tree on a population of ``trials`` source pairs.

    Each round's success and recycle probabilities are the ones the
    ledger's state-vector walk recorded; the multinomial draws are the
    only stochastic element and are fully determined by ``seed``.
    """
    trials = _count(trials, "trials", most=MAX_TRIALS)
    seed = _count(seed, "seed", 0)
    import numpy as np  # deferred: only a run that draws pays the import

    rng = np.random.default_rng(seed)
    population = trials  # surviving pairs entering the current round
    out: list[MonteCarloRound] = []
    for entry in ledger.entries:
        n = entry.round_index
        attempts = population // 2
        if entry.input_pair is None or attempts == 0:
            out.append(MonteCarloRound(n, attempts, 0, 0.0, 0.0))
            population = 0
            continue
        p_success = entry.success_probability
        p_recycle = entry.recycle_probability
        p_fail = max(0.0, 1.0 - p_success - p_recycle)
        pvals = np.array([p_success, p_recycle, p_fail], dtype=float)
        successes, recycles, _ = rng.multinomial(attempts, pvals / pvals.sum()).tolist()
        p_hat = successes / attempts
        out.append(
            MonteCarloRound(
                round_index=n,
                attempts=attempts,
                successes=successes,
                estimate=successes / trials,
                stderr=math.sqrt(p_hat * (1.0 - p_hat) / attempts)
                * attempts
                / trials,
            )
        )
        population = recycles
    return out


def _bound_terms(
    u: int, v: int, live: int, ctx: Context
) -> list[tuple[Decimal, Decimal]]:
    """Lower (or upper) bounds on the yield ratios of rounds 1..``live``.

    Write x_n = u_n/s_n with s_n = u_n + v_n; the recursion squares both
    weights, u_{n+1} = u_n**2 and v_{n+1} = v_n**2.  Round n then yields
    2*w_n/E_n with w_n = u_n*v_n, E_1 = 2*s_1**2 and E_{n+1} =
    2*E_n*s_{n+1}, and the total of rounds 1..n is T_n/E_n with T_n =
    2*s_n*T_{n-1} + 2*w_n.  Every value, the inputs included, is a
    ``Decimal`` made by ``ctx`` alone, rounded to its precision in its
    one direction (ROUND_FLOOR or ROUND_CEILING); only sums and products
    of nonnegative values occur, so each result bounds its exact value
    from the same side.  Returns (numerator, denominator) per round,
    then the total's.
    """
    add, mul, make = ctx.add, ctx.multiply, ctx.create_decimal
    den = make(u + v)  # E_0 = s_1, so that E_1 = 2*s_1**2
    u, v, two = make(u), make(v), make(2)
    total, ratios = make(0), []
    for n in range(live):
        if n:
            u, v = mul(u, u), mul(v, v)
        s2, w2 = mul(two, add(u, v)), mul(two, mul(u, v))  # 2*s_n and 2*w_n
        den = mul(s2, den)
        total = add(mul(s2, total), w2)
        ratios.append((w2, den))
    ratios.append((total, den))
    return ratios


def _oracle_floats(
    x: Fraction, n_rounds: int, actions: set[str]
) -> tuple[list[float], float, int]:
    """``yield_oracle``'s yields and their total, each correctly rounded.

    Ziv's strategy over the interval recursion of ``_bound_terms``, run
    in a ROUND_FLOOR and a ROUND_CEILING ``decimal`` context of P digits
    and the widest exponent range, so nothing over- or underflows: a
    round's float is emitted once its lower bound num_lo/den_hi and its
    upper bound num_hi/den_lo, each divided in its own context, round to
    the same double; if any round or the total straddles two doubles, P
    doubles and both passes rerun.  Once P covers the exact integers only
    the division rounds, and its bracket of one unit in the P-th digit
    shrinks past, or lands on, every boundary between doubles (each has
    a finite decimal expansion), so the loop ends.  Also returns how
    many leading rounds have an exactly nonzero yield: the probe's
    herald actions cut the tree as in ``yield_oracle``, and u*v = 0
    keeps nothing.
    """
    u, v = x.numerator, x.denominator - x.numerator
    if KEEP not in actions or not u * v:
        live = 0
    elif RECYCLE not in actions:
        live = 1
    else:
        live = n_rounds
    digits = _START_DIGITS
    while True:
        down = Context(digits, ROUND_FLOOR, MIN_EMIN, MAX_EMAX)
        up = Context(digits, ROUND_CEILING, MIN_EMIN, MAX_EMAX)
        bounds = zip(_bound_terms(u, v, live, down), _bound_terms(u, v, live, up))
        floats = []
        for (num_lo, den_lo), (num_hi, den_hi) in bounds:
            # not float(Decimal), which reads (and may create) the thread's context
            value = float(down.to_sci_string(down.divide(num_lo, den_hi)))
            if value != float(up.to_sci_string(up.divide(num_hi, den_lo))):
                break
            floats.append(value)
        else:
            return floats[:-1] + [0.0] * (n_rounds - live), floats[-1], live
        digits *= 2


def compare_yield(
    alpha: complex, beta: complex, n_rounds: int, qnd_theta: float = math.pi
) -> YieldReport:
    """Tabulate closed form vs oracle per round at probe ``qnd_theta``.

    The oracle column is ``yield_oracle``'s exact yield correctly rounded
    to a float (``_oracle_floats``).  Any |formula - oracle| above
    ``YIELD_MATCH_TOL`` is carried in the report as a documented
    discrepancy with both values; nothing is clipped or suppressed.  The
    closed form describes the pi probe's tree; a round in which the
    configured probe keeps nothing (no one-photon class, or no recycled
    input to attempt) has an exactly zero oracle yield, and its formula
    value is 0 as well.
    """
    n_rounds, x, (a_sq, b_sq) = _oracle_weight(alpha, beta, n_rounds)
    oracle, total, live = _oracle_floats(x, n_rounds, _probe_actions(qnd_theta))
    rounds = range(1, n_rounds + 1)
    formula = [_term(a_sq, b_sq, n) if n <= live else 0.0 for n in rounds]
    terms = []
    for n, (f_val, o_val) in enumerate(zip(formula, oracle), start=1):
        gap = abs(f_val - o_val)
        terms.append(
            YieldTerm(
                round_index=n,
                value=f_val,
                oracle_value=o_val,
                discrepancy=gap,
                matches=gap <= YIELD_MATCH_TOL,
            )
        )
    return YieldReport(
        terms=tuple(terms),
        cumulative_formula=sum(formula),
        cumulative_oracle=total,
    )


def entanglement_ratio(pair: SingleRailPair) -> float:
    """min/max of the two branch weights; 1 means maximally entangled."""
    lo, hi = sorted((pair.alpha_sq, pair.beta_sq))
    return lo / hi
