import ast
import cmath
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singlerail import (
    ConfigError,
    ContractError,
    DegenerateStateError,
    FockState,
    Herald,
    ModeRegister,
    ProtocolResult,
    ParameterWarning,
    QndConfig,
    RegisterError,
    SingleRailPair,
    SourceParams,
    Tag,
    apply_beam_splitter,
    concentration_round,
    detect_single_photon,
    generate_entanglement,
    herald_action,
    iterate_concentration,
    qnd_measure,
    recyclable_to_pair,
    run_monte_carlo,
    single_photon,
    superpose,
    swap,
    swap_chain_trace,
)
from singlerail import protocols
from singlerail.protocols import IterationLedger, RoundEntry, _class_label, _station
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

    @pytest.mark.parametrize(
        "alpha, beta", [(math.nan, 0j), (1.0, complex(math.nan, 0.0)), (math.nan, math.nan)]
    )
    def test_nan_coefficients_rejected(self, alpha, beta):
        with pytest.raises(ContractError):
            SingleRailPair(alpha, beta)

    @pytest.mark.parametrize(
        "coeffs, error",
        [
            ((math.nan, 1.0), DegenerateStateError),
            ((1.0, math.nan), DegenerateStateError),
            ((math.inf, 1.0), ContractError),
        ],
    )
    def test_from_coefficients_rejects_non_finite(self, coeffs, error):
        with pytest.raises(error):
            SingleRailPair.from_coefficients(*coeffs)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SingleRailPair.from_coefficients(1e200, 1.0),
            lambda: SingleRailPair.from_coefficients(0.5, complex(1e200, 1e200)),
            lambda: SingleRailPair(1e200, 0j),
            lambda: SingleRailPair(0.0, complex(0.0, 1e200)),
            lambda: SingleRailPair.from_coefficients(1e154, 1e154),
        ],
        ids=[
            "from_coefficients-a",
            "from_coefficients-b",
            "direct-alpha",
            "direct-beta",
            "sum-of-squares",
        ],
    )
    def test_squares_past_float_max_are_config_errors(self, build):
        with pytest.raises(ConfigError, match="1.34e154"):
            build()

    def test_largest_squarable_coefficients_still_normalize(self):
        pair = SingleRailPair.from_coefficients(9e153, -9e153j)
        assert pair.alpha_sq == pytest.approx(0.5)
        assert pair.beta == pytest.approx(-1j * pair.alpha)

    @pytest.mark.parametrize(
        "build, shown",
        [
            (lambda: SingleRailPair(1.0, 0j, 1, 2), "1"),
            (lambda: SingleRailPair(1.0, 0j, "a", ["b"]), r"\['b'\]"),
            (lambda: SingleRailPair.from_coefficients(0.6, 0.8, "a", 2), "2"),
        ],
        ids=["direct", "list-name", "from_coefficients"],
    )
    def test_a_mode_name_that_is_not_a_string_is_refused(self, build, shown):
        # the refusal once came only from ModeRegister inside to_state or swap
        with pytest.raises(ConfigError, match=f"^pair modes must be str mode names, got {shown}$"):
            build()

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


def _chain_through_swap(pair, n_swaps):
    """The chain rebuilt from ``swap``'s records: each step keeps the
    branch heralded by D1 and its pair."""
    current, link = pair.with_modes("a", "b"), pair.with_modes("c", "d")
    trace = []
    for _ in range(n_swaps):
        kept = next(r for r in swap(current, link) if r.herald.detector == "D1")
        current = kept.pair.with_modes("a", "b")
        trace.append(kept.pair.with_modes(pair.mode_a, pair.mode_b))
    return trace


def _bits(pair):
    return repr(pair.alpha), repr(pair.beta), pair.mode_a, pair.mode_b


class TestSwapChainIsTheD1BranchOfSwap:
    """The chain reads the swap station without building records; every
    step must equal ``swap``'s D1 branch bit for bit."""

    @pytest.mark.parametrize("theta", [0.0, 0.3])
    @pytest.mark.parametrize("alpha_sq", [0.3, 0.499999038, 0.7, 1e-300])
    def test_every_step_equals_swap(self, alpha_sq, theta):
        pair = make_pair(alpha_sq, theta=theta, mode_a="left", mode_b="right")
        chain = swap_chain_trace(pair, 200)
        assert list(map(_bits, chain)) == list(map(_bits, _chain_through_swap(pair, 200)))

    def test_deep_chain_equals_swap(self):
        # beta**2 underflows to zero from about step 880 on
        pair = make_pair(0.7, theta=0.3)
        chain = swap_chain_trace(pair, 1500)
        assert abs(chain[-1].beta) ** 2 == 0.0 < abs(chain[-1].beta)
        assert list(map(_bits, chain)) == list(map(_bits, _chain_through_swap(pair, 1500)))

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @example(alpha_sq=0.7, theta=3.0, depth=1500)
    @example(alpha_sq=1e-5, theta=0.0, depth=1500)
    @given(
        alpha_sq=st.floats(1e-5, 0.7),
        theta=st.floats(0.0, 3.0),
        depth=st.integers(1, 1500),
    )
    def test_any_chain_equals_swap_bit_for_bit(self, alpha_sq, theta, depth):
        # past alpha_sq 0.5 the smaller weight underflows mid-chain, the
        # support loses kets and each new support brings its own feeding set
        pair = make_pair(alpha_sq, theta=theta)
        chain = swap_chain_trace(pair, depth)
        assert list(map(_bits, chain)) == list(map(_bits, _chain_through_swap(pair, depth)))

    def test_a_readout_without_d1_is_a_contract_error(self, monkeypatch):
        # the chain runs only the first readout entry's kernel; if that entry
        # is not D1's click, no other pair may be read instead
        d1 = _station("swap", ("a", "b", "c", "d"))[1].out_modes[0]
        plan = protocols._slot_plan

        def without_d1(*args):
            *head, entries = plan(*args)
            return (*head, tuple(e for e in entries if e[1] != d1))

        monkeypatch.setattr(protocols, "_slot_plan", without_d1)
        with pytest.raises(ContractError, match=r"read \(0, 1\), not D1's click"):
            swap_chain_trace(make_pair(0.3, theta=0.3), 3)

    def test_a_chain_step_re_reads_no_amplitude(self, monkeypatch):
        # the chain's pairs come from kets the package computed: built by
        # from_coefficients' arithmetic, with no reader or normalization check
        expected = list(map(_bits, swap_chain_trace(make_pair(0.3, theta=0.3), 40)))
        pair = make_pair(0.3, theta=0.3)

        def refused(*args, **kwargs):
            raise AssertionError("a chain step re-read a pair")

        monkeypatch.setattr(SingleRailPair, "__post_init__", refused)
        monkeypatch.setattr(protocols, "_amplitude", refused)
        assert list(map(_bits, swap_chain_trace(pair, 40))) == expected

    @pytest.mark.parametrize("dropped", ["D1", "every outcome"])
    def test_a_step_without_d1_is_a_contract_error(self, monkeypatch, dropped):
        # the chain reads D1's kernel; if D1's click weighs nothing, it must
        # never read a D2 pair instead, and a readout whose every outcome
        # weighs nothing is no ZeroDivisionError
        register, station = _station("swap", ("a", "b", "c", "d"))
        entries = protocols._slot_plan(register, station, protocols._JOINT)[-1]
        d1 = {kernel for _, fired, kernel in entries if fired == station.out_modes[0]}
        run = protocols._run

        def without_d1(kernel, amps):
            out = run(kernel, amps)
            return [0j] * len(out) if dropped != "D1" or kernel in d1 else out

        monkeypatch.setattr(protocols, "_run", without_d1)
        with pytest.raises(ContractError):
            swap_chain_trace(make_pair(0.3, theta=0.3), 3)

    def test_renaming_to_the_same_modes_is_free(self):
        pair = make_pair(0.3, theta=0.3)
        assert pair.with_modes("a", "b") is pair
        renamed = pair.with_modes("c", "d")
        assert (renamed.alpha, renamed.beta, renamed.mode_a, renamed.mode_b) == (
            pair.alpha,
            pair.beta,
            "c",
            "d",
        )

    def test_renaming_checks_only_the_names(self, monkeypatch):
        pair = make_pair(0.3, theta=0.3)
        validated = SingleRailPair(pair.alpha, pair.beta, "c", "d")

        def revalidated(self):
            raise AssertionError("with_modes re-ran the normalization check")

        monkeypatch.setattr(SingleRailPair, "__post_init__", revalidated)
        renamed = pair.with_modes("c", "d")
        assert renamed == validated and hash(renamed) == hash(validated)
        assert type(renamed) is SingleRailPair
        with pytest.raises(RegisterError, match="must differ"):
            pair.with_modes("c", "c")


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

    def test_four_distinct_modes_required(self):
        # the joint register refuses the repeated name before any readout
        p = make_pair(0.8)
        with pytest.raises(RegisterError):
            concentration_round(p.with_modes("a", "b"), p.with_modes("b", "c"))

    def test_unequal_phases_rejected_by_default(self):
        p1 = make_pair(0.8, theta=0.0, mode_a="a1", mode_b="b1")
        p2 = make_pair(0.8, theta=0.5, mode_a="a2", mode_b="b2")
        with pytest.raises(ContractError):
            concentration_round(p1, p2)

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

    @staticmethod
    def _recyclable(names, terms):
        state = FockState(ModeRegister(names), terms).normalize()
        return ProtocolResult(Tag.RECYCLABLE, Herald(events=()), 1.0, state)

    def test_two_mode_state_rejected(self):
        result = self._recyclable(("a1", "b1"), {(1, 0): 0.6, (0, 1): 0.8})
        with pytest.raises(ContractError, match="four-mode state"):
            recyclable_to_pair(result)

    def test_no_photon_at_the_station_rejected(self):
        # |1,0,0,0>: the station's modes a2, b2 see no photon
        result = self._recyclable(("a1", "b1", "a2", "b2"), {(1, 0, 0, 0): 1.0})
        with pytest.raises(ContractError, match=r"impossible pattern \(0, 0\)"):
            recyclable_to_pair(result)

    def test_one_detector_branch_rejected(self):
        # (|1010> + |1001>)/sqrt(2): a2 + b2 lands on D1 alone
        terms = {(1, 0, 1, 0): 1.0, (1, 0, 0, 1): 1.0}
        result = self._recyclable(("a1", "b1", "a2", "b2"), terms)
        with pytest.raises(ContractError, match="expected both detector branches"):
            recyclable_to_pair(result)

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

    def test_rounds_without_input_are_zero_weight_rounds(self):
        ledger = iterate_concentration(make_pair(0.8), 4, 1.0)
        cumulative = ledger.entries[0].cumulative_yield
        for n, entry in enumerate(ledger.entries[1:], start=2):
            dead = RoundEntry(n, None, 0.0, 0.0, None, 0.0, 0.0, cumulative)
            assert repr(entry) == repr(dead)


#: branch labels of a probe that resolves every count
RESOLVED = ("failure:0", "success:D1", "success:D2", "failure:2")


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
        # one count per branch at pi: recyclable, D1, D2
        stats = run_monte_carlo(make_pair(0.8), 5000, seed=3)
        assert len(stats.branch_counts) == len(stats.branch_labels) == 3
        assert sum(stats.branch_counts) == 5000

    def test_one_branch_takes_every_trial(self):
        # qnd_theta 0 reads nothing: one FAILURE branch
        stats = run_monte_carlo(make_pair(0.8), 3000, qnd_theta=0.0, seed=4)
        assert stats.branch_labels == ("failure:0|1|2",)
        assert stats.branch_counts == (3000,)

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

    def test_reports_plain_floats(self):
        stats = run_monte_carlo(make_pair(0.8), 100, seed=3)
        for table in (stats.frequencies, stats.stderrs, stats.expected):
            assert all(type(v) is float for v in table.values())
        assert "np.float64" not in repr(stats)

    @pytest.mark.parametrize(
        "qnd_theta,labels,counts",
        [
            (math.pi, ("recyclable:0|2", "success:D1", "success:D2"), (6772, 1566, 1662)),
            (1.0, RESOLVED, (6344, 1603, 1657, 396)),
            (0.0, ("failure:0|1|2",), (10000,)),
            (math.pi / 2, RESOLVED, (6344, 1603, 1657, 396)),
        ],
    )
    def test_branch_order_and_counts_are_pinned(self, qnd_theta, labels, counts):
        # the draws are cut at the cumulative branch probabilities, so a
        # moved branch moves the counts
        stats = run_monte_carlo(make_pair(0.8, theta=0.3), 10_000, qnd_theta, seed=7)
        assert (stats.branch_labels, stats.branch_counts) == (labels, counts)


#: probe angles: the parity probe, two that resolve every count, one that reads nothing
PROBE_ANGLES = [math.pi, 1.0, math.pi / 2, 0.0]
#: |alpha|^2 over (0, 1): uniform, log-uniform down to 1e-300, and the edges
_DRAW = random.Random(20261019)
WALK_ALPHA_SQ = sorted(
    [_DRAW.uniform(0.0, 1.0) for _ in range(45)]
    + [10 ** _DRAW.uniform(-300.0, 0.0) for _ in range(45)]
    + [1e-300, 5e-324, 0.5, 0.9999999999999999]
)


def _record_walk(pair, rounds, qnd_theta):
    """``iterate_concentration`` as a loop over the records of
    ``concentration_round`` and ``recyclable_to_pair``; a record's label is
    its last event's: the detector if kept, else the probe class."""
    entries, current, attempts, cumulative = [], pair, 0.5, 0.0
    for n in range(1, rounds + 1):
        p_success = p_recycle = 0.0
        recycled, walked = None, ()
        if current is not None:
            branches = concentration_round(
                current.with_modes("a1", "b1"), current.with_modes("a2", "b2"), qnd_theta
            )
            walked = tuple(
                (r.herald.events[-1].outcome, r.probability, herald_action(r.herald.qnd_class))
                for r in branches
            )
            p_success = math.fsum(r.probability for r in branches if r.tag is Tag.SUCCESS)
            recyclables = [r for r in branches if r.tag is Tag.RECYCLABLE]
            p_recycle = math.fsum(r.probability for r in recyclables)
            if recyclables:
                recycled = recyclable_to_pair(recyclables[0])
                recycled = recycled.with_modes(pair.mode_a, pair.mode_b)
        gained = attempts * p_success
        cumulative += gained
        fields = p_success, p_recycle, recycled, attempts, gained, cumulative
        entries.append(RoundEntry(n, current, *fields, walked))
        attempts = attempts * p_recycle / 2.0
        current = recycled
    return IterationLedger(qnd_theta, tuple(entries))


class TestRecordFreeStep:
    """The walk keeps its branches in the ledger and builds no record; the
    records of ``concentration_round`` and ``recyclable_to_pair`` wrap the
    same arithmetic, so both must agree bit for bit."""

    @pytest.mark.parametrize("theta_ab", [0.0, 0.4, 2.0])
    @pytest.mark.parametrize("qnd_theta", PROBE_ANGLES)
    def test_walk_equals_the_record_loop(self, qnd_theta, theta_ab):
        for alpha_sq in WALK_ALPHA_SQ:
            pair = make_pair(alpha_sq, theta=theta_ab)
            want = _record_walk(pair, 16, qnd_theta)
            assert repr(iterate_concentration(pair, 16, qnd_theta)) == repr(want)

    @pytest.mark.parametrize("alpha_sq", [5e-324, 1e-300, 0.3, 0.5, 0.9999999999999999])
    @pytest.mark.parametrize("theta_ab", [0.0, 0.4, 2.0])
    @pytest.mark.parametrize("qnd_theta", PROBE_ANGLES)
    def test_branches_equal_the_records(self, qnd_theta, theta_ab, alpha_sq):
        pair = make_pair(alpha_sq, theta=theta_ab)
        records = concentration_round(
            pair.with_modes("a1", "b1"), pair.with_modes("a2", "b2"), qnd_theta
        )
        entry = iterate_concentration(pair, 1, qnd_theta).entries[0]
        branches, recycled = entry.branches, entry.recycled_pair
        # a record's label is its last event's: the detector if kept, else the class
        assert [(label, repr(p), action) for label, p, action in branches] == [
            (r.herald.events[-1].outcome, repr(r.probability), herald_action(r.herald.qnd_class))
            for r in records
        ]
        recyclables = [r for r in records if r.tag is Tag.RECYCLABLE]
        want = recyclables and recyclable_to_pair(recyclables[0]).with_modes("a", "b")
        assert repr(recycled) == repr(want or None)

    @pytest.mark.parametrize("qnd_theta", PROBE_ANGLES)
    def test_every_probe_class_is_a_branch(self, qnd_theta):
        # 0 < alpha_sq < 1 puts weight on every count 0, 1 and 2
        entry = iterate_concentration(make_pair(0.3, theta=0.4), 1, qnd_theta).entries[0]
        branches = entry.branches
        labels = {label for label, _, action in branches if action != "keep"}
        classes = QndConfig(("b1", "b2"), qnd_theta).outcome_classes(2)
        kept = [cls for cls in classes if herald_action(cls) == "keep"]
        assert labels == {"|".join(map(str, sorted(c))) for c in classes if c not in kept}
        assert [label for label, _, action in branches if action == "keep"] == (
            ["D1", "D2"] if kept else []
        )

    @pytest.mark.parametrize("theta_ab", [0.0, 0.4, 2.5])
    @pytest.mark.parametrize("qnd_theta", PROBE_ANGLES)
    def test_the_ledger_is_a_complete_record(self, qnd_theta, theta_ab):
        # every live round's branches sum to one and the round's success and
        # recycle probabilities are their fsums, bit for bit; a kept branch
        # is labelled by its detector, any other by its probe class
        classes = QndConfig(("b1", "b2"), qnd_theta).outcome_classes(2)
        labels = {"keep": {"D1", "D2"}}
        for cls in classes:
            if herald_action(cls) != "keep":
                labels.setdefault(herald_action(cls), set()).add(_class_label(cls))
        for alpha_sq in WALK_ALPHA_SQ:
            pair = make_pair(alpha_sq, theta=theta_ab)
            for entry in iterate_concentration(pair, 16, qnd_theta).entries:
                if entry.input_pair is None:
                    assert entry.branches == ()
                    continue
                assert abs(math.fsum(p for _, p, _ in entry.branches) - 1.0) <= 1e-12
                for action, want in (
                    ("keep", entry.success_probability),
                    ("recycle", entry.recycle_probability),
                ):
                    got = math.fsum(p for _, p, a in entry.branches if a == action)
                    assert repr(got) == repr(want)
                assert all(label in labels.get(a, ()) for label, _, a in entry.branches)


def _terms(state):
    return repr(list(state.terms.items()))


class TestTheProbeReadIsQndMeasure:
    """A round's probe read and kept clicks are the public instruments'
    readouts of the two copies' product state, bit for bit and in order."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
            st.integers(-1074, -1).map(lambda e: 2.0**e),
        ),
        st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
        st.sampled_from([math.pi, 1.0, 0.0]),
    )
    def test_each_class_equals_qnd_measure(self, alpha_sq, theta_ab, qnd_theta):
        pair = make_pair(alpha_sq, theta=theta_ab)
        p1, p2 = pair.with_modes("a1", "b1"), pair.with_modes("a2", "b2")
        joint = p1.to_state().tensor(p2.to_state())
        outcomes = qnd_measure(joint, QndConfig(("b1", "b2"), qnd_theta))
        records: dict[frozenset, list] = {}
        for r in concentration_round(p1, p2, qnd_theta):
            records.setdefault(r.herald.qnd_class, []).append(r)
        assert list(records) == [o.outcome_class for o in outcomes]
        station = _station("concentration", ("a1", "b1", "a2", "b2"))[1]
        for o in outcomes:
            got = records[o.outcome_class]
            assert {repr(r.herald.events[0].probability) for r in got} == {repr(o.probability)}
            if herald_action(o.outcome_class) != "keep":
                assert [_terms(r.state) for r in got] == [_terms(o.post_state)]
                continue
            clicks = detect_single_photon(
                apply_beam_splitter(o.post_state, station), station.out_modes
            )
            assert [
                (r.herald.detector, repr(r.herald.events[1].probability), _terms(r.state))
                for r in got
            ] == [
                ("D1" if c.fired == station.out_modes[0] else "D2", repr(c.probability),
                 _terms(c.post_state))
                for c in clicks
            ]


#: per private step of a round in ``protocols``, the only defs that name it
WALK_REFERENCES = {
    # kets become a pair by ``from_coefficients``' arithmetic, read once
    "_canonical": {"SingleRailPair.from_coefficients", "_pair_of"},
    "from_coefficients": set(),
    "_probe": {"_round"},
    "_check_copies": {"_round"},
    "_round": {"iterate_concentration", "concentration_round"},
    "_reduced": {"iterate_concentration", "recyclable_to_pair"},
    "iterate_concentration": {"run_monte_carlo"},
    "_flipped": {"_reduced"},
    # the stations renormalize only by the instruments' rule, ``_unit``,
    # which ``FockState.partition`` and ``detect_single_photon`` run too
    "_unit": {"_readout", "_swap_chain", "_round"},
}


def _references(path, names):
    """Per name in ``names``, the defs of ``path`` that name it, as a bare
    name or an attribute, by qualified name."""
    found = {name: set() for name in names}

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}".lstrip(".")
        ident = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and ident in found:
            found[ident].add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(pathlib.Path(path).read_text(encoding="utf-8")), "")
    return found


def test_a_round_is_enumerated_once_and_kets_become_a_pair_once():
    # one branch generator reads the probe and checks the copies, and one
    # reader turns kets into a pair: a second path would fork the arithmetic;
    # the walk is the one consumer of the generator that keeps no record,
    # and the sampler reaches it only through the walk's ledger
    found = _references(protocols.__file__, WALK_REFERENCES)
    assert found == WALK_REFERENCES


PLAIN = ("a", "b", "c", "d")
#: mode names a station's detectors were once named after, in every slot
DETECTOR_LIKE = [("D1", "D2", "c2", "d2"), ("c2", "d2", "D1", "D2"), ("D1_", "D1", "D2", "D2_")]


def _pairs(modes):
    p = make_pair(0.8, theta=0.3)
    return p.with_modes(*modes[:2]), p.with_modes(*modes[2:])


def _branch_bits(results):
    """Everything a branch reports except mode names, exactly."""
    return [
        (
            r.tag,
            repr(r.herald.events),
            r.herald.detector,
            r.herald.sign_correction,
            repr(r.probability),
            repr(r.state.serialize()),
            repr(r.corrected_state().serialize()),
            r.pair and (repr(r.pair.alpha), repr(r.pair.beta)),
        )
        for r in results
    ]


def _ledger_bits(ledger):
    return [
        (
            repr(e.success_probability),
            repr(e.recycle_probability),
            repr(e.attempts_per_source_pair),
            repr(e.yield_per_source_pair),
            repr(e.cumulative_yield),
            e.input_pair and (repr(e.input_pair.alpha), repr(e.input_pair.beta)),
            e.recycled_pair and (repr(e.recycled_pair.alpha), repr(e.recycled_pair.beta)),
        )
        for e in ledger.entries
    ]


class TestStationModesMayLookLikeDetectors:
    """A station's detectors are its splitter's outputs; caller modes named
    like detectors must read out exactly as plain names do."""

    @pytest.mark.parametrize("modes", DETECTOR_LIKE)
    def test_swap(self, modes):
        res = swap(*_pairs(modes))
        assert _branch_bits(res) == _branch_bits(swap(*_pairs(PLAIN)))
        for r in res:
            if r.tag is Tag.SUCCESS:
                assert r.state.register.names == (modes[0], modes[3])

    @pytest.mark.parametrize("qnd_theta", [math.pi, 1.0])
    @pytest.mark.parametrize("modes", DETECTOR_LIKE)
    def test_concentration_round(self, modes, qnd_theta):
        res = concentration_round(*_pairs(modes), qnd_theta)
        assert _branch_bits(res) == _branch_bits(concentration_round(*_pairs(PLAIN), qnd_theta))
        for r in res:
            if r.tag is Tag.SUCCESS:
                assert r.state.register.names == modes[:2]
                assert r.herald.correction_mode == modes[1]

    @pytest.mark.parametrize("modes", DETECTOR_LIKE)
    def test_recyclable_to_pair(self, modes):
        def recycled(names):
            res = concentration_round(*_pairs(names))
            return recyclable_to_pair(next(r for r in res if r.tag is Tag.RECYCLABLE))

        out, plain = recycled(modes), recycled(PLAIN)
        assert (repr(out.alpha), repr(out.beta)) == (repr(plain.alpha), repr(plain.beta))
        assert (out.mode_a, out.mode_b) == modes[:2]

    @pytest.mark.parametrize("modes", DETECTOR_LIKE)
    def test_iterate_concentration(self, modes):
        pair, plain = _pairs(modes)[0], _pairs(PLAIN)[0]
        ledger = iterate_concentration(pair, 4)
        assert _ledger_bits(ledger) == _ledger_bits(iterate_concentration(plain, 4))
        assert all(
            (e.recycled_pair.mode_a, e.recycled_pair.mode_b) == modes[:2]
            for e in ledger.entries
        )

    @pytest.mark.parametrize("modes", DETECTOR_LIKE)
    def test_swap_chain_trace(self, modes):
        chain = swap_chain_trace(_pairs(modes)[0], 50)
        plain = swap_chain_trace(_pairs(PLAIN)[0], 50)
        assert [_bits(p)[:2] for p in chain] == [_bits(p)[:2] for p in plain]
        assert all((p.mode_a, p.mode_b) == modes[:2] for p in chain)

    @pytest.mark.parametrize("modes", [PLAIN, *DETECTOR_LIKE])
    def test_splitter_outputs_keep_the_input_names(self, modes):
        for step, meet in (("swap", modes[1:3]), ("concentration", modes[2:])):
            register, station = _station(step, modes)
            assert register.names == modes
            assert station.out_modes == station.in_modes == meet


def _layered_program(n0, n1, c0, c1):
    """The transfer program as the layer loop read it: the divisor, one
    layer per creation operator of (source, destination, coefficient,
    ladder) ops over the polynomial, and the output occupations."""
    keys, layers = ((0, 0),), []
    for cu, cv in (c0,) * n0 + (c1,) * n1:
        raised, ops = {}, []
        for src, (mu, mv) in enumerate(keys):
            for key, c, n in (((mu + 1, mv), cu, mu), ((mu, mv + 1), cv, mv)):
                dst = raised.setdefault(key, len(raised))
                ops.append((src, dst, c, math.sqrt(n + 1)))
        keys = tuple(raised)
        layers.append((len(keys), tuple(ops)))
    return math.sqrt(math.factorial(n0) * math.factorial(n1)), tuple(layers), keys


def _layer_loop(state, bs):
    """``bs`` on ``state`` replayed layer by layer, every sum started at 0j
    and exact zeros dropped: the reference the compiled kernels replace."""
    reg = state.register
    i0, i1 = reg.indices(bs.in_modes)
    c0, c1 = bs.coefficients(bs.in_modes[0]), bs.coefficients(bs.in_modes[1])
    names = list(reg.names)
    names[i0], names[i1] = bs.out_modes
    slots, out = {}, []
    for occ, amp in state.terms.items():
        n0, n1 = occ[i0], occ[i1]
        poly, keys = [amp], [(n0, n1)]
        if n0 or n1:
            divisor, layers, keys = _layered_program(n0, n1, c0, c1)
            poly = [amp / divisor]
            for width, ops in layers:
                raised = [0j] * width
                for src, dst, c, ladder in ops:
                    raised[dst] += poly[src] * c * ladder
                poly = raised
        lifted = list(occ)
        for (lifted[i0], lifted[i1]), a in zip(keys, poly):
            slot = slots.setdefault(tuple(lifted), len(slots))
            out += [0j] * (slot + 1 - len(out))
            out[slot] += a
    return FockState(ModeRegister(names, reg.cutoff), {o: a for o, a in zip(slots, out) if a})


def _read_pair(outcome):
    """The pair ``from_coefficients`` makes of a click's |10> and |01> kets."""
    kets = outcome.post_state.terms
    return SingleRailPair.from_coefficients(kets.get((1, 0)) or 0j, kets.get((0, 1)) or 0j)


_ALPHA_SQ = st.one_of(st.floats(1e-300, 0.99), st.sampled_from([1e-300, 0.7, 0.99]))


class TestKernelsReplayTheLayerLoop:
    """The compiled kernels of a chain step and of a concentration round
    give the layer loop's bits, -0.0 included, on every support a run
    meets: at alpha_sq 0.99 and 1e-300 the smaller amplitude underflows to
    zero mid-chain and the joint kets lose a ket (at 0.7 only its square)."""

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @example(alpha_sq=1e-300, theta_ab=math.pi, depth=1500)
    @example(alpha_sq=0.7, theta_ab=0.0, depth=1500)
    @example(alpha_sq=0.99, theta_ab=3.0, depth=1500)
    @given(alpha_sq=_ALPHA_SQ, theta_ab=st.floats(0.0, math.pi), depth=st.integers(1, 1500))
    def test_a_chain_step(self, alpha_sq, theta_ab, depth):
        pair = make_pair(alpha_sq, theta=theta_ab)
        station = _station("swap", ("a", "b", "c", "d"))[1]
        link, current, want = pair.with_modes("c", "d").to_state(), pair, []
        for _ in range(depth):
            joint = current.to_state().tensor(link)
            first = detect_single_photon(_layer_loop(joint, station), station.out_modes)[0]
            assert first.fired == station.out_modes[0]
            current = _read_pair(first)
            want.append(_bits(current))
        assert list(map(_bits, swap_chain_trace(pair, depth))) == want

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @example(alpha_sq=1e-300, theta_ab=0.0, qnd_theta=math.pi)
    @example(alpha_sq=0.99, theta_ab=math.pi, qnd_theta=1.0)
    @given(alpha_sq=_ALPHA_SQ, theta_ab=st.floats(0.0, math.pi), qnd_theta=st.sampled_from([math.pi, 1.0]))
    def test_a_concentration_round(self, alpha_sq, theta_ab, qnd_theta):
        pair = make_pair(alpha_sq, theta=theta_ab)
        p1, p2 = pair.with_modes("a1", "b1"), pair.with_modes("a2", "b2")
        station = _station("concentration", ("a1", "b1", "a2", "b2"))[1]
        probe = qnd_measure(p1.to_state().tensor(p2.to_state()), QndConfig(("b1", "b2"), qnd_theta))
        branches, kept, recycled = [], [], []
        for o in probe:
            action = herald_action(o.outcome_class)
            if action == "discard":
                branches.append((_class_label(o.outcome_class), repr(o.probability), action))
                continue
            replayed = _layer_loop(o.post_state, station)
            assert _terms(apply_beam_splitter(o.post_state, station)) == _terms(replayed)
            clicks = detect_single_photon(replayed, station.out_modes)
            labels = ["D1" if c.fired == station.out_modes[0] else "D2" for c in clicks]
            if action == "recycle":
                branches.append((_class_label(o.outcome_class), repr(o.probability), action))
                recycled.append(_bits(_read_pair(clicks[labels.index("D1")])))
                continue
            for label, c in zip(labels, clicks):
                branches.append((label, repr(o.probability * c.probability), action))
                kept.append((label, repr(c.probability), _terms(c.post_state)))
        records = concentration_round(p1, p2, qnd_theta)
        assert [
            (r.herald.detector, repr(r.herald.events[1].probability), _terms(r.state))
            for r in records
            if r.tag is Tag.SUCCESS
        ] == kept
        got = [_bits(recyclable_to_pair(r)) for r in records if r.tag is Tag.RECYCLABLE]
        assert [g[:2] for g in got] == [w[:2] for w in recycled]
        (entry, *_) = iterate_concentration(pair, 2, qnd_theta).entries
        assert [(label, repr(p), a) for label, p, a in entry.branches] == branches
        walked = [_bits(entry.recycled_pair)[:2]] if entry.recycled_pair else []
        assert walked == [w[:2] for w in recycled]

    @pytest.mark.parametrize("step", ["swap", "concentration"])
    @pytest.mark.parametrize("occ", [(0, 1, 1, 0), (0, 0, 1, 1), (0, 2, 0, 0), (1, 0, 1, 0)])
    def test_signed_zeros_at_each_station(self, step, occ):
        # a ket with a -0.0 part next to a one-photon ket, through every
        # readout entry's kernel and through the full kernel
        register, station = _station(step, ("a1", "b1", "a2", "b2"))
        signed = (1.0, -1.0, 1j, -1j, complex(-0.0, 0.6), complex(0.8, -0.0), complex(-0.8, -0.0))
        for amp in signed:
            state = FockState(register, {occ: amp, (0, 1, 0, 0): complex(-0.0, -0.5)})
            replayed = _layer_loop(state, station)
            assert _terms(apply_beam_splitter(state, station)) == _terms(replayed)
            kets = tuple(state.terms), tuple(state.terms.values())
            got = [
                (p, fired, repr(w), repr(list(zip(*post))))
                for p, fired, w, post in protocols._readout(register, station, *kets)[1]
            ]
            want = detect_single_photon(replayed, station.out_modes)
            assert got == [(o.pattern, o.fired, repr(o.probability), _terms(o.post_state)) for o in want]
