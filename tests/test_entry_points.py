"""Public entry points refuse out-of-domain numbers with a ``ConfigError``.

Each kind of number has one reader in ``fock``, called once where a
public entry point takes the value:

* ``_count`` reads every count (trials, rounds, swaps, a round index, a
  photon cutoff) and seed: floats, bools and strings are refused, a
  count below 1 or a seed below 0 is refused, even one too long for
  ``str``;
* ``_real`` reads every probe angle, ``theta_ab``, ``p_a`` and ``p_b``:
  bools, strings, complex numbers, containers and values that are not
  finite floats are refused, and ``p_a``/``p_b`` must lie in (0, 1);
* ``_amplitude`` reads every caller's amplitude (the terms of
  ``FockState``, the coefficients of ``superpose`` and
  ``from_coefficients``, the ``alpha``/``beta`` of the yield functions
  and of ``SingleRailPair``): bools, strings, containers and values past
  the float range are refused; NaN and inf are left to the rule that
  owns them;
* ``_names`` reads every sequence of mode names (the modes of a
  ``ModeRegister`` and of its ``indices``, a splitter's inputs and
  outputs, the monitored modes, detector modes and dropped modes) into a
  tuple: a bare string, which would read as one name per character, is
  refused, and equal names in a list or a tuple give equal records.

Every public count has a cap, one ``MAX_*`` constant of ``fock``'s
limits table, defined nowhere else: one past it is refused at once, by
a ``ConfigError`` "... must be <= cap" or, for the exact oracle, its
``CapacityError``; seeds have no cap.  The photon cutoff's cap (32)
also bounds the probe's loop over counts.  A numpy scalar gives the
same results, ``repr`` included, as the equal Python number.  A probe
angle whose phase at the cutoff overflows is refused before that loop.
Guards walk ``singlerail.__all__`` so that a new public count, seed,
real or amplitude parameter cannot skip these tables.  An integer too
long for ``str`` in a message is named by sign and length.
"""

import ast
import contextlib
import inspect
import itertools
import math
import pathlib
import signal
from fractions import Fraction

import numpy as np
import pytest

import singlerail
from singlerail import (
    BeamSplitter,
    CapacityError,
    ConfigError,
    ContractError,
    FockState,
    ModeRegister,
    QndConfig,
    RegisterError,
    SingleRailPair,
    SourceParams,
    compare_yield,
    concentration_round,
    detect_single_photon,
    iterate_concentration,
    monte_carlo_yield,
    qnd_measure,
    run_monte_carlo,
    single_photon,
    superpose,
    swap_chain_trace,
    yield_oracle,
    yield_series,
    yield_term,
)
from singlerail import fock
from conftest import make_pair

PAIR = make_pair(0.8, theta=0.3)
LEDGER = iterate_concentration(PAIR, 3)


def _pairs():
    return PAIR.with_modes("a1", "b1"), PAIR.with_modes("a2", "b2")


#: each public entry point that takes a probe angle, called at ``theta``
ANGLE_ENTRY_POINTS = {
    "outcome_classes": lambda theta: QndConfig(("b",), theta).outcome_classes(2),
    "qnd_measure": lambda theta: qnd_measure(
        FockState(ModeRegister(("a", "b")), {(1, 0): 0.6, (0, 1): 0.8}),
        QndConfig(("b",), theta),
    ),
    "concentration_round": lambda theta: concentration_round(*_pairs(), theta),
    "iterate_concentration": lambda theta: iterate_concentration(PAIR, 3, theta),
    "run_monte_carlo": lambda theta: run_monte_carlo(PAIR, 100, theta),
    "yield_oracle": lambda theta: yield_oracle(PAIR.alpha, PAIR.beta, 3, theta),
    "compare_yield": lambda theta: compare_yield(PAIR.alpha, PAIR.beta, 3, theta),
}

#: each public entry point that takes a count, called with count ``n``
COUNT_ENTRY_POINTS = {
    "ModeRegister": lambda n: ModeRegister(("a", "b"), n),
    "monte_carlo_yield": lambda n: monte_carlo_yield(LEDGER, n, seed=3),
    "run_monte_carlo": lambda n: run_monte_carlo(PAIR, n, seed=3),
    "iterate_concentration": lambda n: iterate_concentration(PAIR, n),
    "swap_chain_trace": lambda n: swap_chain_trace(PAIR, n),
    "yield_oracle": lambda n: yield_oracle(PAIR.alpha, PAIR.beta, n),
    "compare_yield": lambda n: compare_yield(PAIR.alpha, PAIR.beta, n),
    "yield_series": lambda n: yield_series(PAIR.alpha, PAIR.beta, n),
    "yield_term": lambda n: yield_term(PAIR.alpha, PAIR.beta, n),
}

#: the cap of each public count, a constant of ``fock``'s limits table
COUNT_CAPS = {
    "ModeRegister": fock.MAX_CUTOFF,
    "monte_carlo_yield": fock.MAX_TRIALS,
    "run_monte_carlo": fock.MAX_TRIALS,
    "iterate_concentration": fock.MAX_ROUNDS,
    "swap_chain_trace": fock.MAX_SWAP_DEPTH,
    "yield_oracle": fock.MAX_ORACLE_ROUNDS,
    "compare_yield": fock.MAX_ORACLE_ROUNDS,
    "yield_series": fock.MAX_ROUNDS,
    "yield_term": fock.MAX_ROUNDS,
}
#: the counts whose cap refuses with the oracle's pinned ``CapacityError``
ORACLE_COUNTS = {"yield_oracle", "compare_yield"}
#: the counts cheap enough to run at their cap here; the closed form runs
#: at its cap in ``TestClosedFormRoundCap``
CHEAP_CAPS = {"ModeRegister", "iterate_concentration"}

#: each public entry point that takes a seed, called with seed ``s``
SEED_ENTRY_POINTS = {
    "monte_carlo_yield": lambda s: monte_carlo_yield(LEDGER, 100, seed=s),
    "run_monte_carlo": lambda s: run_monte_carlo(PAIR, 100, seed=s),
}

#: each public real parameter, as "callable.parameter", called with ``x``
REAL_ENTRY_POINTS = {
    "QndConfig.theta": lambda x: QndConfig(("b",), x),
    "SourceParams.p_a": lambda x: SourceParams(x, 0.2),
    "SourceParams.p_b": lambda x: SourceParams(0.2, x),
    "SourceParams.theta_ab": lambda x: SourceParams(0.1, 0.2, x),
    "concentration_round.qnd_theta": lambda x: concentration_round(*_pairs(), x),
    "iterate_concentration.qnd_theta": lambda x: iterate_concentration(PAIR, 3, x),
    "run_monte_carlo.qnd_theta": lambda x: run_monte_carlo(PAIR, 100, x, seed=3),
    "yield_oracle.qnd_theta": lambda x: yield_oracle(PAIR.alpha, PAIR.beta, 3, x),
    "compare_yield.qnd_theta": lambda x: compare_yield(PAIR.alpha, PAIR.beta, 3, x),
}

TWO_MODES = ModeRegister(("a", "b"))

#: each public amplitude, as "callable.parameter", called with ``z``
AMPLITUDE_ENTRY_POINTS = {
    "FockState.terms": lambda z: FockState(TWO_MODES, {(1, 0): z, (0, 1): 0.8}),
    "superpose.addends": lambda z: superpose(
        [(z, single_photon(TWO_MODES, "a")), (0.8, single_photon(TWO_MODES, "b"))]
    ),
    "SingleRailPair.from_coefficients.coeff_a": (
        lambda z: SingleRailPair.from_coefficients(z, 0.8)
    ),
    "SingleRailPair.from_coefficients.coeff_b": (
        lambda z: SingleRailPair.from_coefficients(0.6, z)
    ),
    "yield_term.alpha": lambda z: yield_term(z, 0.8, 3),
    "yield_term.beta": lambda z: yield_term(0.6, z, 3),
    "yield_series.alpha": lambda z: yield_series(z, 0.8, 3),
    "yield_series.beta": lambda z: yield_series(0.6, z, 3),
    "yield_oracle.alpha": lambda z: yield_oracle(z, 0.8, 3),
    "yield_oracle.beta": lambda z: yield_oracle(0.6, z, 3),
    "compare_yield.alpha": lambda z: compare_yield(z, 0.8, 3),
    "compare_yield.beta": lambda z: compare_yield(0.6, z, 3),
}

THREE_MODES = ModeRegister(("a", "b", "c"))
#: a state with modes a and b empty, so that both can be dropped or read
C_ONLY = FockState(THREE_MODES, {(0, 0, 1): 0.6, (0, 0, 2): 0.8})

#: each public sequence of mode names, as "callable.parameter", called
#: with ``names``, which name modes a and b
NAMES_ENTRY_POINTS = {
    "ModeRegister.names": lambda names: ModeRegister(names),
    "ModeRegister.indices.names": lambda names: THREE_MODES.indices(names),
    "BeamSplitter.in_modes": lambda names: BeamSplitter(names, ("c", "d"), "a"),
    "BeamSplitter.out_modes": lambda names: BeamSplitter(("c", "d"), names, "c"),
    "QndConfig.monitored": lambda names: QndConfig(names, math.pi),
    "detect_single_photon.detector_modes": (
        lambda names: detect_single_photon(C_ONLY, names)
    ),
    "FockState.without_modes.modes": lambda names: C_ONLY.without_modes(names),
}
#: parameter names that carry a sequence of mode names
NAMES_PARAMETERS = {"names", "monitored", "in_modes", "out_modes", "detector_modes", "modes"}
#: hashable records built from a sequence of mode names
NAMED_RECORDS = {
    "ModeRegister.names",
    "BeamSplitter.in_modes",
    "BeamSplitter.out_modes",
    "QndConfig.monitored",
}

#: past ``sys.get_int_max_str_digits()``: ``str`` of it raises ``ValueError``
TOO_LONG_FOR_STR = pytest.param(-(10**5000), id="minus-10**5000")

#: parameter names that carry a count or a seed
COUNT_OR_SEED_PARAMETERS = {
    "trials",
    "rounds",
    "n_rounds",
    "n_swaps",
    "n",
    "cutoff",
    "seed",
}
#: result records whose fields echo the counts their producer read
RESULT_RECORDS = {"MonteCarloStats"}

#: parameter names that carry a real number, and those that carry an amplitude
REAL_PARAMETERS = {"theta", "qnd_theta", "theta_ab", "p_a", "p_b"}
AMPLITUDE_PARAMETERS = {"alpha", "beta", "coeff_a", "coeff_b"}
#: records whose fields echo the reals their producer read
READ_RECORDS = {"IterationLedger", "MonteCarloStats"}
#: the canonical pair built directly, with ``x`` beside 0.8 (x = 0.6 is
#: normalized); the rows take reals, since a complex alpha is not canonical
PAIR_ENTRY_POINTS = {
    "SingleRailPair.alpha": lambda x: SingleRailPair(x, 0.8),
    "SingleRailPair.beta": lambda x: SingleRailPair(0.8, x),
}

#: values neither the real nor the amplitude reader accepts
NOT_NUMBERS = [
    pytest.param(value, id=name)
    for name, value in (
        ("True", True),
        ("str", "0.3"),
        ("None", None),
        ("list", [0.3]),
        ("array", np.array([0.3])),
        ("10**400", 10**400),
    )
]


class TestNonFiniteProbeAngles:
    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("entry", sorted(ANGLE_ENTRY_POINTS))
    def test_are_config_errors(self, entry, theta):
        with pytest.raises(ConfigError, match="probe angle must be finite"):
            ANGLE_ENTRY_POINTS[entry](theta)

    @pytest.mark.parametrize("theta", [1e308, -1e308, 9e307])
    @pytest.mark.parametrize("entry", sorted(ANGLE_ENTRY_POINTS))
    def test_angles_whose_phase_overflows_are_config_errors(self, entry, theta):
        # the probe reads cos(n * theta) up to the cutoff, n = 2
        message = f"probe angle {theta!r}: phase at 2 photons overflows"
        with pytest.raises(ConfigError) as excinfo:
            ANGLE_ENTRY_POINTS[entry](theta)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("entry", sorted(ANGLE_ENTRY_POINTS))
    def test_finite_angles_still_run(self, entry):
        for theta in (math.pi, 1.0, -2.5, 8.98e307, -8.98e307):
            ANGLE_ENTRY_POINTS[entry](theta)

    def test_largest_angles_keep_their_classes(self):
        # 2 * theta is finite, so every count keeps its cos(n * theta)
        for theta in (8.98e307, -8.98e307, 1e300):
            cosines = [math.cos(n * theta) for n in range(3)]
            assert min(abs(a - b) for a, b in itertools.combinations(cosines, 2)) > 1e-9
            assert QndConfig(("b",), theta).outcome_classes(2) == [{0}, {1}, {2}]


class TestCountsAreIntegers:
    @pytest.mark.parametrize("value", [10.5, 3.0, True, False])
    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
    def test_floats_and_bools_are_config_errors(self, entry, value):
        with pytest.raises(ConfigError, match="must be an integer"):
            COUNT_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
    def test_numpy_integers_give_the_same_repr(self, entry):
        call = COUNT_ENTRY_POINTS[entry]
        for n in (1, 5):
            assert repr(call(np.int64(n))) == repr(call(n))

    @pytest.mark.parametrize("value", [0, -3, TOO_LONG_FOR_STR])
    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
    def test_counts_below_one_are_config_errors(self, entry, value):
        with pytest.raises(ConfigError, match="must be >= 1"):
            COUNT_ENTRY_POINTS[entry](value)

    def test_a_count_too_long_for_str_is_named_by_sign_and_length(self):
        with pytest.raises(ConfigError) as excinfo:
            swap_chain_trace(PAIR, -(10**5000))
        assert str(excinfo.value) == (
            "swap count must be >= 1, got a negative integer of ~5000 digits"
        )
        with pytest.raises(ConfigError, match="occupation must be >= 0, got a negative"):
            FockState(ModeRegister(("a",)), {(-(10**5000),): 1.0})

    def test_a_value_too_long_for_str_is_named_in_range_messages(self):
        huge = "a positive integer of ~5000 digits"
        with pytest.raises(CapacityError) as excinfo:
            FockState(ModeRegister(("a",)), {(10**5000,): 1.0})
        assert str(excinfo.value) == f"occupation ({huge},) exceeds cutoff 2"
        with pytest.raises(RegisterError) as excinfo:
            FockState(ModeRegister(("a", "b")), {(1, 10**5000, 0): 1.0})
        assert str(excinfo.value) == (
            f"occupation (1, {huge}, 0) does not fit register ModeRegister(a, b; cutoff=2)"
        )
        with pytest.raises(ConfigError) as excinfo:
            SourceParams(10**5000, 0.2)
        assert str(excinfo.value) == f"p_a must lie in (0, 1), got {huge}"
        with pytest.raises(ConfigError, match="p_b must lie in .* a negative integer"):
            SourceParams(0.2, -(10**5000))
        # another value too long for str is named by its type
        for tiny in (Fraction(1, 10**5000), Fraction(-1, 10**5000)):  # float() gives 0
            with pytest.raises(ConfigError) as excinfo:
                SourceParams(tiny, 0.2)
            assert str(excinfo.value) == (
                "p_a must lie in (0, 1), got a Fraction too long to show"
            )
        with pytest.raises(ConfigError) as excinfo:
            swap_chain_trace(PAIR, Fraction(10**5000))
        assert str(excinfo.value) == (
            "swap count must be an integer, got a Fraction too long to show"
        )
        # ordinary values keep their bytes
        with pytest.raises(CapacityError) as excinfo:
            FockState(ModeRegister(("a",)), {(3,): 1.0})
        assert str(excinfo.value) == "occupation (3,) exceeds cutoff 2"
        with pytest.raises(ConfigError) as excinfo:
            SourceParams(2, 0.2)
        assert str(excinfo.value) == "p_a must lie in (0, 1), got 2"


class TestClosedFormRoundCap:
    @pytest.mark.parametrize("n", [1025, 10**6, pytest.param(10**5000, id="10**5000")])
    @pytest.mark.parametrize("entry", ["yield_term", "yield_series"])
    def test_rounds_past_the_cap_are_config_errors(self, entry, n):
        # 2.0 ** (n - 1) overflows from n = 1025 on
        with pytest.raises(ConfigError, match="must be <= 1024, got"):
            COUNT_ENTRY_POINTS[entry](n)

    def test_the_cap_itself_still_runs(self):
        assert yield_term(0.6, 0.8, 1024) == 0.0
        series = yield_series(0.6, 0.8, 1024)
        assert len(series) == 1024 and series[-1] == 0.0


class TestSeedsAreIntegers:
    @pytest.mark.parametrize("value", [-1, 1.5, True, "3", TOO_LONG_FOR_STR])
    @pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
    def test_bad_seeds_are_config_errors(self, entry, value):
        with pytest.raises(ConfigError, match="seed must be"):
            SEED_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
    def test_numpy_integers_give_the_same_repr(self, entry):
        call = SEED_ENTRY_POINTS[entry]
        assert repr(call(np.int64(7))) == repr(call(7))


@pytest.mark.parametrize("theta_ab", [math.inf, -math.inf, math.nan])
def test_non_finite_source_phase_is_a_config_error(theta_ab):
    with pytest.raises(ConfigError, match="theta_ab must be finite"):
        SourceParams(0.1, 0.2, theta_ab)


@pytest.mark.parametrize("p", ["0.3", None, 0.3j, [0.3]])
def test_non_number_emission_probability_is_a_config_error(p):
    with pytest.raises(ConfigError, match="p_a must lie in"):
        SourceParams(p, 0.2)
    with pytest.raises(ConfigError, match="p_b must lie in"):
        SourceParams(0.2, p)


def test_every_public_count_and_seed_is_in_a_table():
    params = {
        name: set(inspect.signature(obj).parameters) & COUNT_OR_SEED_PARAMETERS
        for name in singlerail.__all__
        for obj in [getattr(singlerail, name)]
        if callable(obj)
        and not (inspect.isclass(obj) and issubclass(obj, Exception))
        and name not in RESULT_RECORDS
    }
    assert {n for n, p in params.items() if p - {"seed"}} == set(COUNT_ENTRY_POINTS)
    assert {n for n, p in params.items() if "seed" in p} == set(SEED_ENTRY_POINTS)
    # every public count has a finite cap, and it is a limits-table constant
    limits = {v for k, v in vars(fock).items() if k.startswith("MAX_")}
    assert set(COUNT_CAPS) == set(COUNT_ENTRY_POINTS)
    assert set(COUNT_CAPS.values()) <= limits


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_one_past_the_cap_is_refused_at_once(entry):
    most = COUNT_CAPS[entry]
    if entry in ORACLE_COUNTS:
        refusal = pytest.raises(CapacityError, match=f"at most {most} rounds")
    else:
        refusal = pytest.raises(ConfigError, match=f"must be <= {most}, got {most + 1}$")
    with _within(2.0), refusal:
        COUNT_ENTRY_POINTS[entry](most + 1)


@pytest.mark.parametrize("entry", sorted(CHEAP_CAPS))
def test_the_cheap_caps_run_at_the_cap(entry):
    with _within(2.0):
        COUNT_ENTRY_POINTS[entry](COUNT_CAPS[entry])


def test_every_cap_is_defined_in_the_limits_table_alone():
    # a top-level MAX_* assignment outside fock.py would be a second table
    src = pathlib.Path(fock.__file__).parent
    found = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            for target in getattr(node, "targets", None) or [node.target]:
                if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                    found.setdefault(target.id, []).append(path.name)
    assert found and all(files == ["fock.py"] for files in found.values()), found


@contextlib.contextmanager
def _within(seconds: float):
    """Raise ``TimeoutError`` inside the block once it has run ``seconds``."""

    def late(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestCutoffPastTheCap:
    # the probe reads cos(n * theta) for n in 0..cutoff; the cap bounds that
    # loop, which at theta 0 nothing else would end
    @pytest.mark.parametrize("theta", [0.0, 1.0, math.pi])
    def test_outcome_classes(self, theta):
        with _within(2.0), pytest.raises(ConfigError, match="photon cutoff must be <="):
            QndConfig(("b",), theta).outcome_classes(10**400)

    @pytest.mark.parametrize("theta", [0.0, 1.0, math.pi])
    def test_qnd_measure(self, theta):
        with _within(2.0), pytest.raises(ConfigError, match="photon cutoff must be <="):
            reg = ModeRegister(("a", "b"), 10**400)
            state = FockState(reg, {(1, 0): 0.6, (0, 1): 0.8})
            qnd_measure(state, QndConfig(("b",), theta))

    @pytest.mark.parametrize("theta", [0.0, 1.0, math.pi])
    def test_the_probe_runs_at_the_cap(self, theta):
        reg = ModeRegister(("a", "b"), fock.MAX_CUTOFF)
        state = FockState(reg, {(1, 0): 0.6, (0, 1): 0.8})
        with _within(2.0):
            QndConfig(("b",), theta).outcome_classes(fock.MAX_CUTOFF)
            qnd_measure(state, QndConfig(("b",), theta))

    @pytest.mark.parametrize("cutoff", [True, 2.0, "2", 0])
    def test_the_cutoff_is_read_as_a_count(self, cutoff):
        with pytest.raises(ConfigError, match="photon cutoff must be"):
            QndConfig(("b",), math.pi).outcome_classes(cutoff)


class TestOracleSizePastTheCap:
    # the Fraction oracle's numbers reach about b * 2**n bits from a start
    # weight of b bits, and its time follows that size, not the round count:
    # past the cap it is refused before any arithmetic, where 1e-300 over
    # 16 rounds would run for hours
    @staticmethod
    def _predicted(alpha_sq: float, rounds: int) -> int:
        x = Fraction(make_pair(alpha_sq).alpha) ** 2
        x /= x + Fraction(make_pair(alpha_sq).beta.real) ** 2
        return max(x.numerator.bit_length(), x.denominator.bit_length()) << rounds

    def test_the_largest_reference_sits_at_the_cap(self):
        # test_edges_bit_equal's reference, 1e-300 over 10 rounds
        assert self._predicted(1e-300, 10) == fock.MAX_ORACLE_BITS

    @pytest.mark.parametrize(
        "alpha_sq, rounds",
        [(2.5e-301, 10), (1e-300, 11), (1e-300, fock.MAX_ORACLE_ROUNDS), (5e-324, 11)],
    )
    def test_one_past_the_cap_is_refused_fast(self, alpha_sq, rounds):
        # 2.5e-301 is the next start weight past 1e-300's: 1105 bits for 1103
        assert self._predicted(alpha_sq, rounds) > fock.MAX_ORACLE_BITS
        pair = make_pair(alpha_sq)
        with _within(2.0), pytest.raises(CapacityError, match=r"would reach \d+ bits"):
            yield_oracle(pair.alpha, pair.beta, rounds)

    def test_compare_yield_keeps_its_round_cap_only(self):
        pair = make_pair(1e-300)
        with _within(2.0):
            assert len(compare_yield(pair.alpha, pair.beta, fock.MAX_ORACLE_ROUNDS).terms) == 16


class TestRealsAndAmplitudes:
    @pytest.mark.parametrize("value", [*NOT_NUMBERS, pytest.param(1j, id="1j")])
    @pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
    def test_reals_refuse_what_is_not_a_finite_real(self, entry, value):
        with pytest.raises(ConfigError):
            REAL_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("entry", sorted(AMPLITUDE_ENTRY_POINTS))
    def test_amplitudes_refuse_what_is_not_a_number(self, entry, value):
        with pytest.raises(ConfigError):
            AMPLITUDE_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
    def test_numpy_reals_give_the_same_repr(self, entry):
        call = REAL_ENTRY_POINTS[entry]
        assert repr(call(np.float64(0.3))) == repr(call(0.3))

    @pytest.mark.parametrize("entry", sorted(AMPLITUDE_ENTRY_POINTS))
    def test_numpy_amplitudes_give_the_same_repr(self, entry):
        call = AMPLITUDE_ENTRY_POINTS[entry]
        assert repr(call(np.float64(0.6))) == repr(call(0.6))
        assert repr(call(np.complex128(0.6 - 0.1j))) == repr(call(0.6 - 0.1j))

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("entry", sorted(PAIR_ENTRY_POINTS))
    def test_pair_coefficients_refuse_what_is_not_a_number(self, entry, value):
        with pytest.raises(ConfigError):
            PAIR_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", sorted(PAIR_ENTRY_POINTS))
    def test_numpy_pair_coefficients_give_the_same_repr(self, entry):
        call = PAIR_ENTRY_POINTS[entry]
        assert repr(call(np.float64(0.6))) == repr(call(0.6))

    def test_pair_coefficients_are_stored_as_float_and_complex(self):
        beta = 0.36 + 0.48j  # |beta| = 0.6
        for pair in (
            SingleRailPair(0.8, beta),
            SingleRailPair(np.float64(0.8), np.complex128(beta)),
            SingleRailPair(0.8 + 0j, beta),
            SingleRailPair(1, 0),
            SingleRailPair(0.6, 0.8),
        ):
            assert (type(pair.alpha), type(pair.beta)) == (float, complex)
        assert repr(SingleRailPair(0.8, np.complex128(beta))) == repr(
            SingleRailPair(0.8, beta)
        )

    def test_pair_coefficients_keep_their_rules(self):
        with pytest.raises(ContractError, match="alpha must be real in canonical form"):
            SingleRailPair(0.8j, 0.6)
        with pytest.raises(ContractError, match="alpha must be non-negative"):
            SingleRailPair(np.float64(-0.8), 0.6)
        with pytest.raises(ContractError, match="not normalized"):
            SingleRailPair(np.float64(math.nan), 0.6)
        with pytest.raises(ConfigError, match="past ~1.34e154"):
            SingleRailPair(np.float64(1e200), 0)
        for call, message in (
            (lambda: SingleRailPair(True, 0), "alpha must be a complex float, got True"),
            (lambda: SingleRailPair("x", 0), "alpha must be a complex float, got 'x'"),
            (lambda: SingleRailPair(1.0, "y"), "beta must be a complex float, got 'y'"),
        ):
            with pytest.raises(ConfigError) as excinfo:
                call()
            assert str(excinfo.value) == message

    def test_reader_messages(self):
        for call, message in (
            (
                lambda: QndConfig(("b",), True),
                "probe angle must be a real number, got True",
            ),
            (
                lambda: SourceParams(0.1, 0.2, 10**400),
                "theta_ab must be finite, got 1" + "0" * 400,
            ),
            (
                lambda: SourceParams(0.1, 1.5),
                "p_b must lie in (0, 1), got 1.5",
            ),
            (
                lambda: FockState(TWO_MODES, {(1, 0): "1"}),
                "amplitude must be a complex float, got '1'",
            ),
        ):
            with pytest.raises(ConfigError) as excinfo:
                call()
            assert str(excinfo.value) == message

    def test_echoed_values_are_plain_floats(self):
        ledger = iterate_concentration(PAIR, 3, np.float64(1.0))
        assert type(ledger.qnd_theta) is float
        assert type(run_monte_carlo(PAIR, 10, np.float64(1.0)).qnd_theta) is float
        params = SourceParams(np.float64(0.1), np.float64(0.2), np.float64(0.5))
        assert {type(v) for v in vars(params).values()} == {float}


def _public_parameters(names: set[str]) -> set[str]:
    """"callable.parameter" for each parameter in ``names`` of a callable in
    ``singlerail.__all__`` or a public method of a class there."""
    found = set()
    for name in singlerail.__all__:
        obj = getattr(singlerail, name)
        if not callable(obj) or inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        members = {name: obj}
        if inspect.isclass(obj):
            for attr in vars(obj):
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    members[f"{name}.{attr}"] = getattr(obj, attr)
        for qualified, member in members.items():
            if qualified not in READ_RECORDS:
                params = inspect.signature(member).parameters
                found |= {f"{qualified}.{p}" for p in params if p in names}
    return found


def test_every_public_real_and_amplitude_is_in_a_table():
    assert _public_parameters(REAL_PARAMETERS) == set(REAL_ENTRY_POINTS)
    # "FockState.terms" and "superpose.addends" hold their amplitudes inside
    named = {
        k
        for k in [*AMPLITUDE_ENTRY_POINTS, *PAIR_ENTRY_POINTS]
        if k.split(".")[-1] in AMPLITUDE_PARAMETERS
    }
    assert _public_parameters(AMPLITUDE_PARAMETERS) == named


class TestModeNameSequences:
    @pytest.mark.parametrize("entry", sorted(NAMES_ENTRY_POINTS))
    def test_a_list_reads_as_the_equal_tuple(self, entry):
        call = NAMES_ENTRY_POINTS[entry]
        from_list, from_tuple = call(["a", "b"]), call(("a", "b"))
        assert repr(from_list) == repr(from_tuple)
        if entry in NAMED_RECORDS:
            assert from_list == from_tuple and hash(from_list) == hash(from_tuple)

    @pytest.mark.parametrize("entry", sorted(NAMES_ENTRY_POINTS))
    def test_a_bare_string_is_refused(self, entry):
        # "ab" would otherwise read as the two modes a and b
        with pytest.raises(ConfigError, match="must be a sequence of mode names, got 'ab'"):
            NAMES_ENTRY_POINTS[entry]("ab")

    @pytest.mark.parametrize("entry", sorted(NAMES_ENTRY_POINTS))
    def test_a_name_that_is_not_a_string_is_refused(self, entry):
        # an int name once built a register whose repr raised TypeError
        with pytest.raises(ConfigError, match="must be str mode names, got 1$"):
            NAMES_ENTRY_POINTS[entry](("a", 1))

    def test_the_field_is_named(self):
        for call, message in (
            (lambda: QndConfig("ab", 1.0), "monitored modes must be a sequence"),
            (lambda: ModeRegister("ab"), "register modes must be a sequence"),
            (lambda: BeamSplitter(("a", "b"), "cd", "a"), "output modes must be a sequence"),
            (lambda: ModeRegister(5), "register modes must be a sequence of mode names, got 5"),
            (lambda: ModeRegister((1, 2)), "register modes must be str mode names, got 1"),
            (lambda: QndConfig((1,), 1.0), "monitored modes must be str mode names, got 1"),
            (
                lambda: BeamSplitter(("a", "b"), (3, 4), "a"),
                "output modes must be str mode names, got 3",
            ),
        ):
            with pytest.raises(ConfigError, match=message):
                call()


def test_every_public_mode_name_sequence_is_in_the_table():
    # ``Tag.names`` is the enum's functional API, not a mode-name sequence
    assert _public_parameters(NAMES_PARAMETERS) - {"Tag.names"} == set(NAMES_ENTRY_POINTS)
