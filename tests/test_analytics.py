import contextvars
import decimal
import functools
import hashlib
import math
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlerail import (
    CapacityError,
    ConfigError,
    analytics,
    compare_yield,
    entanglement_ratio,
    iterate_concentration,
    monte_carlo_yield,
    swap_chain_trace,
    yield_oracle,
    yield_series,
    yield_term,
)
from conftest import make_pair

INV_SQRT2 = 1 / math.sqrt(2)


def coeffs(alpha_sq: float, theta: float = 0.0):
    p = make_pair(alpha_sq, theta=theta)
    return p.alpha, p.beta


class TestYieldTerm:
    def test_round_index_domain(self):
        with pytest.raises(ConfigError):
            yield_term(INV_SQRT2, INV_SQRT2, 0)

    @pytest.mark.parametrize("alpha_sq", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_first_term_is_ab_squared(self, alpha_sq):
        a, b = coeffs(alpha_sq)
        assert yield_term(a, b, 1) == pytest.approx(alpha_sq * (1 - alpha_sq), abs=1e-15)

    def test_balanced_first_terms(self):
        assert yield_term(INV_SQRT2, INV_SQRT2, 1) == pytest.approx(0.25, abs=1e-12)
        assert yield_term(INV_SQRT2, INV_SQRT2, 2) == pytest.approx(1 / 16, abs=1e-12)

    def test_unbalanced_second_term(self):
        a, b = coeffs(0.8)
        assert yield_term(a, b, 2) == pytest.approx(8 / 425, abs=1e-12)

    def test_series_matches_terms(self):
        a, b = coeffs(0.7)
        series = yield_series(a, b, 5)
        assert series == [yield_term(a, b, n) for n in range(1, 6)]

    @pytest.mark.parametrize(
        "alpha",
        [math.nan, math.inf, -math.inf, "0.6", None, 1e200, 10**400],
        ids=["nan", "inf", "-inf", "string", "none", "square-overflows", "huge-int"],
    )
    def test_bad_coefficients_refused_like_the_oracle(self, alpha):
        # formula and oracle read the moduli alike: one class, one wording
        messages = set()
        for call in (yield_term, yield_series, yield_oracle, compare_yield):
            with pytest.raises(ConfigError) as excinfo:
                call(alpha, 0.8, 3)
            messages.add(str(excinfo.value))
        assert len(messages) == 1

    def test_deep_terms_do_not_overflow(self):
        a, b = coeffs(0.9)
        for n in range(1, 17):
            v = yield_term(a, b, n)
            assert math.isfinite(v) and v >= 0.0


class TestYieldOracle:
    def test_domain(self):
        with pytest.raises(ConfigError):
            yield_oracle(INV_SQRT2, INV_SQRT2, 0)
        with pytest.raises(CapacityError):
            yield_oracle(INV_SQRT2, INV_SQRT2, 17)

    @pytest.mark.parametrize(
        "args, error",
        [
            ((INV_SQRT2, INV_SQRT2, 0), ConfigError),
            ((INV_SQRT2, INV_SQRT2, 17), CapacityError),
            ((0.0, 0.0, 3), ConfigError),
            ((math.nan, INV_SQRT2, 3), ConfigError),
            ((INV_SQRT2, math.inf, 3), ConfigError),
            (("0.6", 0.8, 3), ConfigError),
            ((1e200, 1e200, 3), ConfigError),
        ],
        ids=[
            "no-rounds",
            "above-cap",
            "both-amplitudes-zero",
            "nan-alpha",
            "inf-beta",
            "string-alpha",
            "squares-overflow",
        ],
    )
    def test_domain_shared_with_compare_yield(self, args, error):
        messages = []
        for fn in (yield_oracle, compare_yield):
            with pytest.raises(error) as excinfo:
                fn(*args)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_round_count_too_long_for_str_is_named_by_length(self):
        with pytest.raises(CapacityError, match="got a positive integer of ~5000 digits"):
            yield_oracle(INV_SQRT2, INV_SQRT2, 10**5000)

    def test_balanced_exact_fractions(self):
        rounds = yield_oracle(INV_SQRT2, INV_SQRT2, 4)
        assert [r.yield_value for r in rounds] == [
            Fraction(1, 4),
            Fraction(1, 16),
            Fraction(1, 64),
            Fraction(1, 256),
        ]

    def test_unbalanced_exact_fractions(self):
        # alpha_sq = 0.8 passed as exact amplitudes keeps the tree rational
        a, b = math.sqrt(0.8), math.sqrt(0.2)
        rounds = yield_oracle(a, b, 3)
        assert [r.yield_value for r in rounds] == [
            Fraction(4, 25),
            Fraction(8, 425),
            Fraction(64, 109225),
        ]

    def test_attempt_halving(self):
        rounds = yield_oracle(INV_SQRT2, INV_SQRT2, 3)
        assert [r.attempts for r in rounds] == [
            Fraction(1, 2),
            Fraction(1, 8),
            Fraction(1, 32),
        ]

    def test_total_yield_below_one_half(self):
        # at most one concentrated pair per two inputs
        for alpha_sq in (0.3, 0.5, 0.8):
            a, b = coeffs(alpha_sq)
            total = sum(r.yield_value for r in yield_oracle(a, b, 10))
            assert total < Fraction(1, 2)

    @pytest.mark.parametrize(
        "alpha, beta, n_rounds, x0",
        [
            (math.sqrt(0.8), math.sqrt(0.2), 3, Fraction(4, 5)),
            # underflow-scale and next-to-one weights, deep enough for
            # the exact numbers to outgrow any float
            (*coeffs(1e-300), 8, None),
            (*coeffs(5e-324), 8, None),
            (*coeffs(0.9999999999999999), 8, None),
        ],
        ids=["0.8", "1e-300", "5e-324", "0.9999999999999999"],
    )
    def test_coefficient_recursion(self, alpha, beta, n_rounds, x0):
        rounds = yield_oracle(alpha, beta, n_rounds)
        xs = [r.alpha_sq for r in rounds]
        if x0 is not None:
            assert xs[0] == x0
        assert 0 < xs[0] < 1
        for prev, nxt in zip(xs, xs[1:]):
            assert nxt == prev**2 / (prev**2 + (1 - prev) ** 2)
        assert rounds[0].attempts == Fraction(1, 2)
        for prev, nxt in zip(rounds, rounds[1:]):
            assert nxt.attempts == prev.attempts * prev.recycle_probability / 2
        for r in rounds:
            # the pi probe keeps or recycles every attempt
            assert r.success_probability + r.recycle_probability == 1

    def test_exact_digest(self):
        # every field of every round, bit for bit: numerator and
        # denominator in hex (their decimal forms can exceed Python's
        # int-to-str digit limit)
        digest = hashlib.sha256()
        for alpha_sq in (0.01, 0.2, 0.3, 0.5, 0.77, 0.99):
            pair = make_pair(alpha_sq)
            for qnd_theta in (math.pi, 1.0, math.pi / 2, 0.0):
                for r in yield_oracle(pair.alpha, pair.beta, 9, qnd_theta):
                    for f in fields(r):
                        v = getattr(r, f.name)
                        digest.update(
                            f"{f.name}={v.numerator:x}/{v.denominator:x};".encode()
                        )
        assert digest.hexdigest() == (
            "914cbd38395456e5c63dee316b05ffaf8354c3f9806b585d653633e9c68b123a"
        )

    def test_matches_ledger_simulation(self):
        # exact enumeration against the full state-vector iteration
        from singlerail import iterate_concentration

        pair = make_pair(0.8)
        ledger = iterate_concentration(pair, 4)
        rounds = yield_oracle(pair.alpha, pair.beta, 4)
        for entry, oracle in zip(ledger.entries, rounds):
            assert entry.yield_per_source_pair == pytest.approx(
                float(oracle.yield_value), abs=1e-12
            )
            assert entry.attempts_per_source_pair == pytest.approx(
                float(oracle.attempts), abs=1e-12
            )


class TestOracleAtProbeAngle:
    @pytest.mark.parametrize("qnd_theta", [math.pi, 1.0, math.pi / 2, 2 * math.pi / 3, 0.0])
    def test_matches_ledger_walk(self, qnd_theta):
        # the oracle applies the walk's herald rule, so both agree at any angle
        pair = make_pair(0.3)
        ledger = iterate_concentration(pair, 3, qnd_theta)
        rounds = yield_oracle(pair.alpha, pair.beta, 3, qnd_theta)
        for entry, oracle in zip(ledger.entries, rounds):
            assert entry.yield_per_source_pair == pytest.approx(
                float(oracle.yield_value), abs=1e-12
            )


class TestWalkFollowsTheOracle:
    """The state-vector walk against the exact recursion over the whole domain."""

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(min_value=-6.0, max_value=math.log10(0.5)),
        st.booleans(),
        st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
    )
    def test_success_probability_at_every_normal_weight(self, log_t, mirror, theta_ab):
        # alpha_sq log-uniform in [1e-6, 1/2], or mirrored into [1/2, 1 - 1e-6]
        t = 10.0**log_t
        pair = make_pair(1.0 - t if mirror else t, theta=theta_ab)
        ledger = iterate_concentration(pair, 8)
        rounds = yield_oracle(pair.alpha, pair.beta, 8)
        for entry, oracle in zip(ledger.entries, rounds):
            exact = float(oracle.success_probability)
            if exact >= sys.float_info.min:
                got = entry.success_probability
                assert got == pytest.approx(exact, rel=1e-12, abs=0.0)


PROBE_ANGLES = (math.pi, 1.0, math.pi / 2, 2 * math.pi / 3, 0.0)


def assert_bit_equal(report, exact, total, alpha, beta):
    """``compare_yield``'s floats against the exact yields and the float of
    their exact total, with ``==``."""
    assert len(report.terms) == len(exact)
    for i, (term, value) in enumerate(zip(report.terms, exact), start=1):
        assert term.oracle_value == float(value)
        # the formula is zeroed exactly where the exact yield is 0
        assert term.value == (0.0 if value == 0 else yield_term(alpha, beta, i))
    assert report.cumulative_oracle == total


@functools.lru_cache(maxsize=None)
def oracle_reference(alpha_sq: float, qnd_theta: float):
    """``yield_oracle``'s exact yields of rounds 1-10 and the float of each
    running total, built once per (alpha_sq, probe).

    Round i of the oracle does not depend on how many rounds follow it,
    so one 10-round reference serves rounds 1-10; its running total is
    kept unreduced, which spares a gcd on every sum.
    """
    a, b = coeffs(alpha_sq)
    exact = tuple(r.yield_value for r in yield_oracle(a, b, 10, qnd_theta))
    totals, num, den = [], 0, 1
    for value in exact:
        num = num * value.denominator + value.numerator * den
        den *= value.denominator
        totals.append(num / den)
    return exact, tuple(totals)


class TestCompareYieldIsTheOracle:
    """``compare_yield``'s certified rounding against the ``Fraction`` reference."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.sampled_from(PROBE_ANGLES),
        st.integers(min_value=1, max_value=10),
    )
    def test_floats_bit_equal(self, alpha_sq, qnd_theta, n_rounds):
        a, b = coeffs(alpha_sq)
        exact = [r.yield_value for r in yield_oracle(a, b, n_rounds, qnd_theta)]
        assert_bit_equal(compare_yield(a, b, n_rounds, qnd_theta), exact, float(sum(exact)), a, b)

    @pytest.mark.parametrize("alpha_sq", [1e-300, 5e-324, 0.5, 0.9999999999999999])
    @pytest.mark.parametrize("qnd_theta", PROBE_ANGLES)
    def test_edges_bit_equal(self, alpha_sq, qnd_theta):
        a, b = coeffs(alpha_sq)
        exact, totals = oracle_reference(alpha_sq, qnd_theta)
        for n_rounds, total in enumerate(totals, start=1):
            report = compare_yield(a, b, n_rounds, qnd_theta)
            assert_bit_equal(report, exact[:n_rounds], total, a, b)

    def test_straddling_bounds_retry_to_the_exact_float(self, monkeypatch):
        # from 1 kept digit the first passes cannot decide every round, so
        # the loop must double the precision until the bounds agree
        monkeypatch.setattr(analytics, "_START_DIGITS", 1)
        precisions = []
        bound_terms = analytics._bound_terms

        def spy(u, v, live, ctx):
            precisions.append(ctx.prec)
            return bound_terms(u, v, live, ctx)

        monkeypatch.setattr(analytics, "_bound_terms", spy)
        for alpha_sq in (0.3, 0.77, 1e-300, 0.5):
            a, b = coeffs(alpha_sq)
            exact, totals = oracle_reference(alpha_sq, math.pi)
            passes = []
            for n_rounds, total in enumerate(totals, start=1):
                precisions.clear()
                report = compare_yield(a, b, n_rounds)
                assert_bit_equal(report, exact[:n_rounds], total, a, b)
                passes.append(len(set(precisions)))
            assert max(passes) > 1, alpha_sq

    def test_caller_decimal_context_is_irrelevant(self):
        # every bound comes from an explicit context; a coarse, truncating
        # thread context that traps on any rounding must change nothing
        points = [coeffs(alpha_sq) for alpha_sq in (0.3, 1e-300)]
        expected = [compare_yield(a, b, 16) for a, b in points]
        caller = decimal.Context(
            prec=3,
            rounding=decimal.ROUND_DOWN,
            traps=[decimal.Inexact, decimal.Underflow, decimal.Subnormal],
        )
        with decimal.localcontext(caller) as ctx:
            assert [compare_yield(a, b, 16) for a, b in points] == expected
            assert decimal.getcontext() is ctx
            assert (ctx.prec, ctx.rounding) == (3, decimal.ROUND_DOWN)
            assert {s for s, on in ctx.traps.items() if on} == {
                decimal.Inexact,
                decimal.Underflow,
                decimal.Subnormal,
            }
            assert not any(ctx.flags.values())
        # where no decimal context exists yet, none is made
        fresh = contextvars.Context()
        assert fresh.run(compare_yield, *points[1], 16) == expected[1]
        assert len(fresh) == 0

    def test_zeroing_reads_the_exact_yield(self, monkeypatch):
        # a stand-in closed form of ones shows which rounds get zeroed
        monkeypatch.setattr(analytics, "_term", lambda x, y, n: 1.0)
        a, b = coeffs(0.01)
        report = compare_yield(a, b, 9)
        # round 9's exact yield is nonzero but its float underflows
        assert yield_oracle(a, b, 9)[8].yield_value > 0
        assert report.terms[8].oracle_value == 0.0
        assert [t.value for t in report.terms] == [1.0] * 9
        # a probe without the merged {0, 2} class recycles nothing
        report = compare_yield(a, b, 9, 1.0)
        assert [t.value for t in report.terms] == [1.0] + [0.0] * 8


class TestCompareYield:
    def test_first_two_rounds_match(self):
        a, b = coeffs(0.8)
        report = compare_yield(a, b, 5)
        assert report.terms[0].matches
        assert report.terms[1].matches

    def test_later_rounds_documented_not_suppressed(self):
        a, b = coeffs(0.5)
        report = compare_yield(a, b, 4)
        flagged = report.discrepancies
        assert [t.round_index for t in flagged] == [3, 4]
        for t in flagged:
            assert t.discrepancy == pytest.approx(abs(t.value - t.oracle_value))
            assert t.value != t.oracle_value

    def test_balanced_frozen_values(self):
        report = compare_yield(INV_SQRT2, INV_SQRT2, 4)
        values = [(t.value, t.oracle_value) for t in report.terms]
        assert values[2][0] == pytest.approx(3 / 128, abs=1e-12)
        assert values[2][1] == pytest.approx(1 / 64, abs=1e-12)
        assert values[3][0] == pytest.approx(1 / 128, abs=1e-12)
        assert values[3][1] == pytest.approx(1 / 256, abs=1e-12)

    def test_cumulative_totals(self):
        a, b = coeffs(0.7)
        report = compare_yield(a, b, 5)
        assert report.cumulative_formula == pytest.approx(
            sum(t.value for t in report.terms), abs=1e-15
        )
        assert report.cumulative_oracle == pytest.approx(
            sum(t.oracle_value for t in report.terms), abs=1e-12
        )

    @pytest.mark.parametrize("alpha_sq", [0.3, 0.65, 0.9])
    def test_recycling_beats_single_round(self, alpha_sq):
        a, b = coeffs(alpha_sq)
        report = compare_yield(a, b, 5)
        assert report.cumulative_oracle > report.terms[0].oracle_value

    def test_oracle_monotone_in_rounds(self):
        a, b = coeffs(0.8)
        totals = [compare_yield(a, b, n).cumulative_oracle for n in (1, 2, 3, 4)]
        assert totals == sorted(totals)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_alpha_beta_symmetry(self, n):
        a, b = coeffs(0.8)
        assert yield_term(a, b, n) == pytest.approx(yield_term(b, a, n), abs=1e-12)
        fwd = yield_oracle(a, b, n)[-1].yield_value
        rev = yield_oracle(b, a, n)[-1].yield_value
        assert float(fwd) == pytest.approx(float(rev), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.8, 2.4])
    def test_phase_independence(self, theta):
        a0, b0 = coeffs(0.8, theta=0.0)
        a1, b1 = coeffs(0.8, theta=theta)
        r0 = compare_yield(a0, b0, 3)
        r1 = compare_yield(a1, b1, 3)
        for t0, t1 in zip(r0.terms, r1.terms):
            assert t0.value == pytest.approx(t1.value, abs=1e-12)
            assert t0.oracle_value == pytest.approx(t1.oracle_value, abs=1e-12)


class TestMonteCarloYield:
    def test_deterministic(self):
        ledger = iterate_concentration(make_pair(0.8), 3)
        r1 = monte_carlo_yield(ledger, 10_000, seed=9)
        r2 = monte_carlo_yield(ledger, 10_000, seed=9)
        assert [(m.successes, m.attempts) for m in r1] == [
            (m.successes, m.attempts) for m in r2
        ]

    def test_estimates_track_oracle(self):
        pair = make_pair(0.8)
        rounds = monte_carlo_yield(iterate_concentration(pair, 2), 100_000, seed=2)
        oracle = yield_oracle(pair.alpha, pair.beta, 2)
        for mc, exact in zip(rounds, oracle):
            if mc.stderr == 0.0:
                continue
            assert abs(mc.estimate - float(exact.yield_value)) < 4 * mc.stderr

    def test_attached_to_ledger(self):
        ledger = iterate_concentration(make_pair(0.5), 2)
        rounds = monte_carlo_yield(ledger, 20_000, seed=1)
        assert [m.round_index for m in rounds] == [1, 2]
        assert rounds[0].attempts == 10_000

    def test_reports_plain_numbers(self):
        rounds = monte_carlo_yield(iterate_concentration(make_pair(0.8), 3), 100, seed=3)
        for m in rounds:
            assert type(m.successes) is int
            assert type(m.estimate) is float and type(m.stderr) is float
        assert "np." not in repr(rounds)


class TestEntanglementRatio:
    def test_values(self):
        assert entanglement_ratio(make_pair(0.5)) == pytest.approx(1.0)
        assert entanglement_ratio(make_pair(0.8)) == pytest.approx(0.25)

    def test_after_one_swap(self):
        out = swap_chain_trace(make_pair(0.8), 1)[-1]
        assert entanglement_ratio(out) == pytest.approx(1 / 16, abs=1e-12)
