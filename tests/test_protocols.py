import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlerail import (
    ConfigError,
    ContractError,
    ModeRegister,
    ParameterWarning,
    RegisterError,
    SingleRailPair,
    SourceParams,
    Tag,
    concentration_round,
    generate_entanglement,
    herald_action,
    iterate_concentration,
    recyclable_to_pair,
    run_monte_carlo,
    single_photon,
    superpose,
    swap,
    swap_chain_trace,
)
from conftest import make_pair


def plus_bell(mode_a: str, mode_b: str):
    reg = ModeRegister((mode_a, mode_b))
    s2 = 1 / math.sqrt(2)
    return superpose([(s2, single_photon(reg, mode_a)), (s2, single_photon(reg, mode_b))])


class TestSourceParams:
    def test_domain(self):
        with pytest.raises(ConfigError):
            SourceParams(0.0, 0.5)
        with pytest.raises(ConfigError):
            SourceParams(0.5, 1.0)

    def test_first_order_warning(self):
        with pytest.warns(ParameterWarning):
            generate_entanglement(SourceParams(0.6, 0.5))


class TestGenerate:
    def test_symmetric_sources_give_balanced_pair(self):
        herald, pair = generate_entanglement(SourceParams(0.01, 0.01))
        assert herald == pytest.approx(0.01)
        assert pair.alpha == pytest.approx(1 / math.sqrt(2))
        assert abs(pair.beta) == pytest.approx(1 / math.sqrt(2))

    def test_asymmetric_sources(self):
        herald, pair = generate_entanglement(SourceParams(0.016, 0.004))
        assert herald == pytest.approx(0.01)
        assert pair.alpha_sq == pytest.approx(0.8, abs=1e-12)
        assert pair.beta_sq == pytest.approx(0.2, abs=1e-12)

    def test_phase_bookkeeping(self):
        _, pair = generate_entanglement(SourceParams(0.01, 0.01, theta_ab=0.7))
        assert pair.theta == pytest.approx(0.7)

    def test_pair_is_normalized(self):
        _, pair = generate_entanglement(SourceParams(0.03, 0.005, theta_ab=2.1))
        assert pair.alpha_sq + pair.beta_sq == pytest.approx(1.0, abs=1e-12)


class TestSingleRailPair:
    def test_canonical_form_rotates_global_phase(self):
        pair = SingleRailPair.from_coefficients(1j * 0.6, 1j * 0.8)
        assert pair.alpha == pytest.approx(0.6)
        assert pair.beta == pytest.approx(0.8)

    def test_negative_first_coefficient_absorbed(self):
        pair = SingleRailPair.from_coefficients(-0.6, 0.8)
        assert pair.alpha == pytest.approx(0.6)
        assert pair.beta == pytest.approx(-0.8)

    def test_normalizes_input(self):
        pair = SingleRailPair.from_coefficients(3.0, 4.0)
        assert pair.alpha == pytest.approx(0.6)

    def test_invalid_direct_construction(self):
        with pytest.raises(ContractError):
            SingleRailPair(alpha=1.0, beta=1.0)
        with pytest.raises(RegisterError):
            SingleRailPair(alpha=1.0, beta=0.0, mode_a="a", mode_b="a")

    def test_to_state_round_trip(self):
        pair = make_pair(0.7, theta=1.3)
        s = pair.to_state()
        assert s.amplitude((1, 0)) == pytest.approx(pair.alpha)
        assert s.amplitude((0, 1)) == pytest.approx(pair.beta)


class TestSwap:
    def test_four_distinct_modes_required(self):
        p = make_pair(0.5)
        with pytest.raises(RegisterError):
            swap(p.with_modes("a", "b"), p.with_modes("b", "c"))

    def test_branch_probabilities_sum_to_one(self):
        p = make_pair(0.73, theta=0.4)
        res = swap(p.with_modes("a", "b"), p.with_modes("c", "d"))
        assert sum(r.probability for r in res) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_single_click_probability(self):
        p = make_pair(0.5)
        res = swap(p.with_modes("a", "b"), p.with_modes("c", "d"))
        succ = [r for r in res if r.tag is Tag.SUCCESS]
        assert sum(r.probability for r in succ) == pytest.approx(0.5, abs=1e-12)
        for r in succ:
            assert r.pair.alpha_sq == pytest.approx(0.5, abs=1e-12)

    def test_unbalanced_branch_table(self):
        # |alpha|^2 = 0.8: per-detector 0.34, no-click 0.16, bunching 0.08 each
        p = make_pair(0.8)
        res = swap(p.with_modes("a", "b"), p.with_modes("c", "d"))
        probs = {}
        for r in res:
            probs[r.herald.events[0].outcome] = r.probability
        assert probs["D1"] == pytest.approx(0.34, abs=1e-12)
        assert probs["D2"] == pytest.approx(0.34, abs=1e-12)
        assert probs["no-click"] == pytest.approx(0.16, abs=1e-12)
        assert probs["multi-click:2,0"] == pytest.approx(0.08, abs=1e-12)
        assert probs["multi-click:0,2"] == pytest.approx(0.08, abs=1e-12)

    def test_post_swap_coefficients(self):
        p = make_pair(0.8)
        res = swap(p.with_modes("a", "b"), p.with_modes("c", "d"))
        for r in res:
            if r.tag is Tag.SUCCESS:
                assert r.pair.alpha_sq == pytest.approx(16 / 17, abs=1e-12)
                assert r.pair.mode_a == "a" and r.pair.mode_b == "d"

    @pytest.mark.parametrize("t1,t2", [(0.0, 0.0), (0.3, 1.1), (math.pi / 2, 0.25)])
    def test_detector_sets_the_sign(self, t1, t2):
        # D1 keeps '+', D2 flips the beta term; phases add across the station
        p1 = make_pair(0.6, theta=t1, mode_a="a", mode_b="b")
        p2 = make_pair(0.6, theta=t2, mode_a="c", mode_b="d")
        res = {r.herald.detector: r for r in swap(p1, p2) if r.tag is Tag.SUCCESS}
        plus = cmath.phase(res["D1"].pair.beta)
        minus = cmath.phase(res["D2"].pair.beta)
        assert cmath.exp(1j * plus) == pytest.approx(cmath.exp(1j * (t1 + t2)))
        assert cmath.exp(1j * minus) == pytest.approx(cmath.exp(1j * (t1 + t2 + math.pi)))


class TestSwapChain:
    def test_requires_positive_depth(self):
        with pytest.raises(ConfigError):
            swap_chain_trace(make_pair(0.8), 0)

    def test_balanced_fixed_point(self):
        for n in (1, 2, 4):
            out = swap_chain_trace(make_pair(0.5), n)[-1]
            assert out.alpha_sq == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n,expected_ratio_sq", [(1, 16.0), (2, 64.0), (3, 256.0)])
    def test_closed_form_ratio(self, n, expected_ratio_sq):
        out = swap_chain_trace(make_pair(0.8), n)[-1]
        assert out.alpha_sq / out.beta_sq == pytest.approx(expected_ratio_sq, rel=1e-12)

    def test_trace_is_cumulative(self):
        trace = swap_chain_trace(make_pair(0.8), 3)
        assert len(trace) == 3
        assert trace[1].alpha_sq == pytest.approx(swap_chain_trace(make_pair(0.8), 2)[-1].alpha_sq)

    def test_preserves_input_mode_names(self):
        out = swap_chain_trace(make_pair(0.8, mode_a="left", mode_b="right"), 2)[-1]
        assert (out.mode_a, out.mode_b) == ("left", "right")


class TestHeraldAction:
    # decision logic sees only the outcome class, never any amplitude
    @pytest.mark.parametrize(
        "cls,action",
        [
            (frozenset({1}), "keep"),
            (frozenset({0, 2}), "recycle"),
            (frozenset({0}), "discard"),
            (frozenset({2}), "discard"),
            (frozenset({0, 1, 2}), "discard"),
        ],
    )
    def test_mapping(self, cls, action):
        assert herald_action(cls) == action


class TestConcentrationRound:
    def test_identical_copies_required(self):
        p1 = make_pair(0.8, mode_a="a1", mode_b="b1")
        p2 = make_pair(0.7, mode_a="a2", mode_b="b2")
        with pytest.raises(ContractError):
            concentration_round(p1, p2)

    def test_unequal_phases_rejected_by_default(self):
        p1 = make_pair(0.8, theta=0.0, mode_a="a1", mode_b="b1")
        p2 = make_pair(0.8, theta=0.5, mode_a="a2", mode_b="b2")
        with pytest.raises(ContractError):
            concentration_round(p1, p2)
        res = concentration_round(p1, p2, allow_unequal_phases=True)
        assert sum(r.probability for r in res) == pytest.approx(1.0, abs=1e-12)

    def test_branch_probabilities_sum_to_one(self):
        for theta in (math.pi, 1.0):
            p = make_pair(0.65, theta=0.2)
            res = concentration_round(
                p.with_modes("a1", "b1"), p.with_modes("a2", "b2"), theta
            )
            assert sum(r.probability for r in res) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha_sq", [0.5, 0.65, 0.8])
    def test_success_probability_is_2ab(self, alpha_sq):
        p = make_pair(alpha_sq)
        res = concentration_round(p.with_modes("a1", "b1"), p.with_modes("a2", "b2"))
        succ = [r for r in res if r.tag is Tag.SUCCESS]
        expected = 2 * alpha_sq * (1 - alpha_sq)
        assert sum(r.probability for r in succ) == pytest.approx(expected, abs=1e-12)

    def test_tags_follow_herald_action(self):
        # blindness: the tag is a function of the QND class alone
        tag_for = {"keep": Tag.SUCCESS, "recycle": Tag.RECYCLABLE, "discard": Tag.FAILURE}
        p = make_pair(0.8)
        for theta in (math.pi, 1.0):
            res = concentration_round(
                p.with_modes("a1", "b1"), p.with_modes("a2", "b2"), theta
            )
            for r in res:
                assert r.tag is tag_for[herald_action(r.herald.qnd_class)]

    def test_generic_theta_discards_even_counts(self):
        p = make_pair(0.8)
        res = concentration_round(p.with_modes("a1", "b1"), p.with_modes("a2", "b2"), 1.0)
        by_tag = {}
        for r in res:
            by_tag.setdefault(r.tag, 0.0)
            by_tag[r.tag] += r.probability
        assert by_tag[Tag.SUCCESS] == pytest.approx(0.32, abs=1e-12)
        assert by_tag[Tag.FAILURE] == pytest.approx(0.68, abs=1e-12)
        assert Tag.RECYCLABLE not in by_tag

    def test_parity_theta_recycles_even_counts(self):
        p = make_pair(0.8)
        res = concentration_round(p.with_modes("a1", "b1"), p.with_modes("a2", "b2"))
        rec = [r for r in res if r.tag is Tag.RECYCLABLE]
        assert len(rec) == 1
        assert rec[0].probability == pytest.approx(0.68, abs=1e-12)
        assert rec[0].herald.qnd_class == frozenset({0, 2})

    @pytest.mark.parametrize("theta_ab", [0.0, 0.9, math.pi])
    def test_success_states_are_maximally_entangled_after_correction(self, theta_ab):
        p = make_pair(0.7, theta=theta_ab)
        res = concentration_round(p.with_modes("a1", "b1"), p.with_modes("a2", "b2"))
        target = plus_bell("a1", "b1")
        succ = [r for r in res if r.tag is Tag.SUCCESS]
        assert len(succ) == 2
        for r in succ:
            fid = r.corrected_state().fidelity(target)
            assert fid == pytest.approx(1.0, abs=1e-12)

    def test_d2_branch_records_the_correction(self):
        p = make_pair(0.7)
        res = {
            r.herald.detector: r
            for r in concentration_round(p.with_modes("a1", "b1"), p.with_modes("a2", "b2"))
            if r.tag is Tag.SUCCESS
        }
        assert res["D1"].herald.sign_correction is False
        assert res["D2"].herald.sign_correction is True
        assert res["D2"].herald.correction_mode == "b1"
        # raw D2 state is the '-' combination before the recorded flip
        raw = res["D2"].state
        amp_a = raw.amplitude((1, 0))
        amp_b = raw.amplitude((0, 1))
        assert amp_a == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert amp_b == pytest.approx(-1 / math.sqrt(2), abs=1e-12)

    def test_d2_corrected_state_is_plus_bell(self):
        p = make_pair(0.7)
        res = {
            r.herald.detector: r
            for r in concentration_round(p.with_modes("a1", "b1"), p.with_modes("a2", "b2"))
            if r.tag is Tag.SUCCESS
        }
        target = plus_bell("a1", "b1")
        assert res["D2"].corrected_state().fidelity(target) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(min_value=1e-6, max_value=1 - 1e-6),
        st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
    )
    def test_corrected_state_is_the_one_correction(self, alpha_sq, theta_ab):
        p = make_pair(alpha_sq, theta=theta_ab)
        target = plus_bell("a1", "b1")
        for r in concentration_round(p.with_modes("a1", "b1"), p.with_modes("a2", "b2")):
            if r.tag is Tag.SUCCESS:
                fid = r.corrected_state().fidelity(target)
                assert fid == pytest.approx(1.0, abs=1e-12)
            if not r.herald.sign_correction:
                assert r.corrected_state() is r.state


class TestRecyclableToPair:
    def test_wrong_tag_rejected(self):
        p = make_pair(0.8)
        res = concentration_round(p.with_modes("a1", "b1"), p.with_modes("a2", "b2"))
        succ = next(r for r in res if r.tag is Tag.SUCCESS)
        with pytest.raises(ContractError):
            recyclable_to_pair(succ)

    def test_coefficient_recursion(self):
        # alpha' = alpha^2 / sqrt(alpha^4 + beta^4): 0.8 -> 16/17
        p = make_pair(0.8)
        res = concentration_round(p.with_modes("a1", "b1"), p.with_modes("a2", "b2"))
        rec = next(r for r in res if r.tag is Tag.RECYCLABLE)
        out = recyclable_to_pair(rec)
        assert out.alpha_sq == pytest.approx(0.64 / 0.68, abs=1e-12)
        assert (out.mode_a, out.mode_b) == ("a1", "b1")

    def test_balanced_input_stays_balanced(self):
        p = make_pair(0.5)
        res = concentration_round(p.with_modes("a1", "b1"), p.with_modes("a2", "b2"))
        rec = next(r for r in res if r.tag is Tag.RECYCLABLE)
        out = recyclable_to_pair(rec)
        assert out.alpha_sq == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("theta_ab", [0.3, 1.7])
    def test_phase_doubles(self, theta_ab):
        p = make_pair(0.8, theta=theta_ab)
        res = concentration_round(p.with_modes("a1", "b1"), p.with_modes("a2", "b2"))
        rec = next(r for r in res if r.tag is Tag.RECYCLABLE)
        out = recyclable_to_pair(rec)
        assert cmath.exp(1j * out.theta) == pytest.approx(cmath.exp(2j * theta_ab), abs=1e-12)


class TestIterateConcentration:
    def test_requires_positive_rounds(self):
        with pytest.raises(ConfigError):
            iterate_concentration(make_pair(0.8), 0)

    def test_single_round_matches_concentration_round(self):
        p = make_pair(0.8)
        ledger = iterate_concentration(p, 1)
        entry = ledger.entries[0]
        assert entry.success_probability == pytest.approx(0.32, abs=1e-12)
        assert entry.recycle_probability == pytest.approx(0.68, abs=1e-12)
        assert entry.attempts_per_source_pair == pytest.approx(0.5)
        assert entry.yield_per_source_pair == pytest.approx(0.16, abs=1e-12)

    def test_attempt_inventory_recursion(self):
        ledger = iterate_concentration(make_pair(0.8), 3)
        a1, a2, a3 = (e.attempts_per_source_pair for e in ledger.entries)
        assert a1 == pytest.approx(0.5)
        assert a2 == pytest.approx(0.5 * 0.68 / 2, abs=1e-12)
        p2_recycle = ledger.entries[1].recycle_probability
        assert a3 == pytest.approx(a2 * p2_recycle / 2, abs=1e-12)

    def test_round_two_success_probability(self):
        # recycled 16/17 pair: 2 a^4 b^4 / (a^4+b^4)^2 = 32/289
        ledger = iterate_concentration(make_pair(0.8), 2)
        assert ledger.entries[1].success_probability == pytest.approx(32 / 289, abs=1e-12)

    def test_coefficient_recursion_matches_recyclable_to_pair(self):
        ledger = iterate_concentration(make_pair(0.8), 3)
        for entry in ledger.entries:
            if entry.recycled_pair is None:
                continue
            expected = entry.input_pair.alpha_sq ** 2 / (
                entry.input_pair.alpha_sq ** 2 + entry.input_pair.beta_sq ** 2
            )
            assert entry.recycled_pair.alpha_sq == pytest.approx(expected, abs=1e-12)

    def test_balanced_chain(self):
        ledger = iterate_concentration(make_pair(0.5), 3)
        for entry in ledger.entries:
            assert entry.success_probability == pytest.approx(0.5, abs=1e-12)
        assert ledger.cumulative_yield == pytest.approx(0.25 + 0.0625 + 0.015625, abs=1e-12)

    def test_generic_theta_has_no_later_rounds(self):
        ledger = iterate_concentration(make_pair(0.8), 3, qnd_theta=1.0)
        assert ledger.entries[0].recycle_probability == 0.0
        assert ledger.entries[1].attempts_per_source_pair == 0.0
        assert ledger.entries[2].yield_per_source_pair == 0.0
        assert ledger.cumulative_yield == pytest.approx(0.16, abs=1e-12)


class TestMonteCarlo:
    def test_requires_trials(self):
        with pytest.raises(ConfigError):
            run_monte_carlo(make_pair(0.8), 0)

    def test_deterministic_given_seed(self):
        a = run_monte_carlo(make_pair(0.8), 2000, seed=11)
        b = run_monte_carlo(make_pair(0.8), 2000, seed=11)
        assert a.branch_counts == b.branch_counts
        assert a.frequencies == b.frequencies

    def test_counts_cover_all_trials(self):
        stats = run_monte_carlo(make_pair(0.8), 5000, seed=3)
        assert sum(stats.branch_counts) == 5000

    def test_frequencies_near_expected(self):
        stats = run_monte_carlo(make_pair(0.8), 100_000, seed=5)
        for tag, expected in stats.expected.items():
            freq = stats.frequencies[tag]
            sigma = math.sqrt(expected * (1 - expected) / stats.trials)
            assert abs(freq - expected) < 4 * sigma + 1e-12

    def test_expected_matches_exact_branches(self):
        stats = run_monte_carlo(make_pair(0.8), 100, seed=0)
        assert stats.expected["success"] == pytest.approx(0.32, abs=1e-12)
        assert stats.expected["recyclable"] == pytest.approx(0.68, abs=1e-12)
