"""Operation results skip re-validation: they must equal validated ones.

``FockState(register, terms)`` validates public input.  The operations
of ``fock`` and ``optics`` build their results through the trusted
``FockState._of``, which only rejects non-finite amplitudes and drops
exact zeros.  Rebuilding any result through the validating constructor
must give the same bytes, and the checks ``_of`` keeps must still fire.
Structural plans are cached with a bound, which must hold.
"""

import importlib
import itertools
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singlerail
from singlerail import (
    BeamSplitter,
    CapacityError,
    ConfigError,
    DegenerateStateError,
    DetectionOutcome,
    FockState,
    ModeRegister,
    QndConfig,
    SingleRailPair,
    Tag,
    apply_beam_splitter,
    basis_state,
    concentration_round,
    detect_single_photon,
    phase_flip,
    qnd_measure,
    recyclable_to_pair,
    swap,
)
from singlerail.fock import PLAN_CACHE_SIZE, _readout_plan
from singlerail.optics import _outcome_classes, _slot_plan
from singlerail.protocols import _probe, _readout, _station
from conftest import SCALES, all_occupations, random_state

REG = ModeRegister(("m0", "m1", "m2", "m3"))


def _exact(state: FockState) -> str:
    """``serialize()`` in a form that also tells -0.0 from 0.0."""
    return repr(state.serialize())


def _results(s: FockState):
    """Every operation result on ``s`` that goes through ``_of``."""
    yield apply_beam_splitter(s, BeamSplitter(("m0", "m1"), ("o0", "o1"), "m1"))
    yield apply_beam_splitter(s, BeamSplitter(("m1", "m3"), ("m1", "m3"), "m1"))
    yield phase_flip(s, "m0")
    yield s.align_to(ModeRegister(("m3", "m1", "m0", "m2")))
    spectator = FockState(ModeRegister(("z",), cutoff=3), {(0,): 0.6 - 0.8j, (1,): 0.5j})
    yield s.tensor(spectator)
    yield s.tensor(basis_state(ModeRegister(("z",)), (0,))).without_modes(("z",))
    try:
        yield s.normalize()
    except DegenerateStateError:
        pass  # the subnormal variant has a zero norm
    for outcome in qnd_measure(s, QndConfig(("m2",), math.pi)):
        yield outcome.post_state
    for outcome in qnd_measure(s, QndConfig(("m0", "m3"), 0.7)):
        yield outcome.post_state
    for outcome in detect_single_photon(s, ("m0", "m1")):
        yield outcome.post_state


class TestTrustedPathChangesNothing:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(SCALES))
    def test_results_rebuild_to_the_same_bytes(self, seed, scale):
        s = random_state(np.random.default_rng(seed), REG)
        s = FockState(REG, {occ: a * scale for occ, a in s.terms.items()})
        for out in _results(s):
            assert _exact(FockState(out.register, out.terms)) == _exact(out)
            assert all(type(n) is int for occ in out.terms for n in occ)
            assert all(type(a) is complex and a for a in out.terms.values())

    def test_tensor_past_the_cutoff_raises(self):
        one = basis_state(ModeRegister(("a",), cutoff=1), (1,))
        with pytest.raises(CapacityError):
            one.tensor(basis_state(ModeRegister(("b",), cutoff=1), (1,)))

    def test_beam_splitter_overflow_is_non_finite(self):
        s = FockState(ModeRegister(("a", "b")), {(1, 0): 1.7e308, (0, 1): 1.7e308})
        with pytest.raises(ConfigError, match="non-finite"):
            apply_beam_splitter(s, BeamSplitter(("a", "b"), ("c", "d"), "b"))

    def test_hong_ou_mandel_ket_is_dropped_exactly(self):
        s = basis_state(ModeRegister(("a", "b")), (1, 1))
        out = apply_beam_splitter(s, BeamSplitter(("a", "b"), ("c", "d"), "b"))
        assert set(out.terms) == {(2, 0), (0, 2)}

    def test_trusted_constructor_keeps_its_two_checks(self):
        reg = ModeRegister(("a", "b"))
        s = FockState._of(reg, {(1, 0): 0.6 + 0j, (0, 1): 0j, (0, 0): -0.0 + 0j})
        assert s.terms == {(1, 0): 0.6 + 0j}
        with pytest.raises(ConfigError):
            FockState._of(reg, {(1, 0): complex(math.inf, 0.0)})
        with pytest.raises(ConfigError):
            FockState._of(reg, {(1, 0): complex(0.0, math.nan)})


def _raise_out_mode(poly, coeffs):
    """One output-basis creation operator on a polynomial (reference copy)."""
    cu, cv = coeffs
    out = {}
    for (mu, mv), amp in poly.items():
        key = (mu + 1, mv)
        out[key] = out.get(key, 0j) + amp * cu * math.sqrt(mu + 1)
        key = (mu, mv + 1)
        out[key] = out.get(key, 0j) + amp * cv * math.sqrt(mv + 1)
    return out


def polynomial_splitter(state: FockState, bs: BeamSplitter) -> FockState:
    """The splitter as a per-ket polynomial expansion: the reference the
    transfer table must reproduce bit for bit."""
    reg = state.register
    i0, i1 = reg.index(bs.in_modes[0]), reg.index(bs.in_modes[1])
    names = list(reg.names)
    names[i0], names[i1] = bs.out_modes
    c0, c1 = bs.coefficients(bs.in_modes[0]), bs.coefficients(bs.in_modes[1])
    out_terms = {}
    for occ, amp in state.terms.items():
        n0, n1 = occ[i0], occ[i1]
        if n0 == 0 and n1 == 0:
            out_terms[occ] = out_terms.get(occ, 0j) + amp
            continue
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
    return FockState._of(ModeRegister(tuple(names), reg.cutoff), out_terms)


class TestTransferTableIsBitExact:
    SPLITTERS = (
        BeamSplitter(("m0", "m1"), ("o0", "o1"), "m1"),
        BeamSplitter(("m0", "m1"), ("o0", "o1"), "m0"),
        BeamSplitter(("m3", "m1"), ("m3", "m1"), "m1"),
        BeamSplitter(("m2", "m0"), ("x", "y"), "m0"),
    )

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(SCALES),
        st.sampled_from((2, 3)),
    )
    def test_same_bytes_as_the_polynomial_expansion(self, seed, scale, cutoff):
        reg = ModeRegister(REG.names, cutoff)
        s = random_state(np.random.default_rng(seed), reg)
        s = FockState(reg, {occ: a * scale for occ, a in s.terms.items()})
        for bs in self.SPLITTERS:
            out = apply_beam_splitter(s, bs)
            ref = polynomial_splitter(s, bs)
            assert out.register == ref.register
            assert _exact(out) == _exact(ref)
            assert list(out.terms) == list(ref.terms)  # same accumulation order

    @pytest.mark.parametrize("occ", [(1, 1, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 0, 1)])
    @pytest.mark.parametrize("scale", SCALES)
    def test_two_photon_and_signed_inputs(self, occ, scale):
        for amp in (1.0, -1.0, 1j, complex(-0.0, 0.6), complex(0.8, -0.0)):
            s = FockState(REG, {occ: amp * scale, (0, 0, 1, 0): -0.5j * scale})
            for bs in self.SPLITTERS:
                assert _exact(apply_beam_splitter(s, bs)) == _exact(polynomial_splitter(s, bs))


def _outcome_bits(outcome) -> tuple:
    post = outcome.post_state
    return (
        outcome.pattern,
        outcome.fired,
        outcome.flagged,
        repr(outcome.probability),
        _exact(post),
        list(post.terms),  # insertion order
        post.register.names,
    )


def _station_bits(state: FockState, step: str) -> tuple[list, list]:
    """The station readout from the slot plan, and the splitter followed by
    ``detect_single_photon``, both as ``_outcome_bits``."""
    _, station = _station(step, state.register.names)
    plain = detect_single_photon(apply_beam_splitter(state, station), station.out_modes)
    kets = tuple(state.terms), tuple(state.terms.values())
    post_register, outcomes = _readout(state.register, station, *kets)
    got = [
        DetectionOutcome(fired, p, w, FockState._of(post_register, dict(zip(*post))), sum(p) >= 2)
        for p, fired, w, post in outcomes
    ]
    return list(map(_outcome_bits, got)), list(map(_outcome_bits, plain))


class TestStationReadoutOnTheSlotPlan:
    """``protocols._readout`` reads a station from its slot plan; it must
    equal the splitter followed by ``detect_single_photon`` bit for bit."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(SCALES),
        st.sampled_from(("swap", "concentration")),
    )
    def test_same_outcomes_as_splitter_then_detection(self, seed, scale, step):
        rng = np.random.default_rng(seed)
        s = random_state(rng, REG)
        # a random support; the subnormal scales also underflow some kets,
        # products and interference terms to exact zeros
        kept = [occ for occ in s.terms if rng.random() < 0.6] or list(s.terms)
        s = FockState(REG, {occ: s.terms[occ] * scale for occ in kept})
        got, want = _station_bits(s, step)
        assert got == want

    @pytest.mark.parametrize("occ", [(0, 1, 1, 0), (0, 0, 1, 1), (0, 2, 0, 0), (1, 0, 0, 1)])
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("step", ["swap", "concentration"])
    def test_two_photon_and_signed_inputs(self, occ, scale, step):
        for amp in (1.0, -1.0, 1j, complex(-0.0, 0.6), complex(0.8, -0.0)):
            s = FockState(REG, {occ: amp * scale, (1, 0, 0, 0): -0.5j * scale})
            got, want = _station_bits(s, step)
            assert got == want

    def test_non_finite_splitter_output_is_a_config_error(self):
        _, station = _station("swap", REG.names)
        s = FockState(REG, {(0, 1, 0, 0): 1.7e308, (0, 0, 1, 0): 1.7e308})
        with pytest.raises(ConfigError, match="non-finite"):
            _readout(s.register, station, tuple(s.terms), tuple(s.terms.values()))

    def test_overflowing_square_is_a_config_error(self):
        _, station = _station("concentration", REG.names)
        s = FockState(REG, {(0, 0, 1, 0): 1e200, (1, 0, 0, 0): 1e-200})
        with pytest.raises(ConfigError, match="overflows"):
            _readout(s.register, station, tuple(s.terms), tuple(s.terms.values()))


class TestPlanCachesAreBounded:
    def test_more_registers_than_the_bound(self):
        assert _slot_plan.cache_info().maxsize == PLAN_CACHE_SIZE
        results = set()
        for _sweep in range(2):  # the second sweep recomputes evicted plans
            for k in range(PLAN_CACHE_SIZE + 40):
                reg = ModeRegister((f"a{k}", f"b{k}", "c"))
                bs = BeamSplitter((f"a{k}", f"b{k}"), ("x", "y"), f"b{k}")
                s = FockState(reg, {(1, 0, 0): 0.6, (0, 1, 0): 0.8j})
                out = apply_beam_splitter(s, bs)
                kept = out.without_modes(("c",))
                support = tuple(s.terms)
                assert _slot_plan(reg, bs, support) == _slot_plan.__wrapped__(reg, bs, support)
                plan = _readout_plan(out.register, ("c",))
                # slot getters compare by identity: compare the output register
                assert plan[0] == ModeRegister(("x", "y"))
                assert _slot_plan.cache_info().currsize <= PLAN_CACHE_SIZE
                assert kept.register.names == ("x", "y")
                results.add((_exact(out), _exact(kept)))
        assert len(results) == 1  # same amplitudes whatever the mode names

    def test_slot_plans_stay_within_the_bound(self):
        assert _slot_plan.cache_info().maxsize == PLAN_CACHE_SIZE
        _, station = _station("swap", REG.names)
        supports = list(itertools.islice(itertools.combinations(all_occupations(4, 2), 3), 168))
        assert len(supports) == PLAN_CACHE_SIZE + 40
        for _sweep in range(2):  # the second sweep recomputes evicted plans
            for support in supports:
                s = FockState(REG, {occ: 0.5 - 0.25j * k for k, occ in enumerate(support)})
                got, want = _station_bits(s, "swap")
                assert got == want
                assert _slot_plan.cache_info().currsize <= PLAN_CACHE_SIZE
                plan = _slot_plan(REG, station, support)
                assert plan == _slot_plan.__wrapped__(REG, station, support)

    def test_station_caches_stay_within_the_bound(self):
        caches = (_station, _probe, _outcome_classes)
        assert all(c.cache_info().maxsize == PLAN_CACHE_SIZE for c in caches)
        pair = SingleRailPair.from_coefficients(0.6, 0.8j)
        results = set()
        for _sweep in range(2):  # the second sweep recomputes evicted stations
            for k in range(PLAN_CACHE_SIZE + 40):
                a1, b1, a2, b2 = (f"{m}{k}" for m in ("a1", "b1", "a2", "b2"))
                # a fresh probe per k with the parity classes of the pi probe
                theta = math.pi * (1.0 + k * 1e-12)
                branches = [
                    *swap(pair.with_modes(a1, b1), pair.with_modes(a2, b2)),
                    *concentration_round(pair.with_modes(a1, b1), pair.with_modes(a2, b2), theta),
                ]
                (recyclable,) = (r for r in branches if r.tag is Tag.RECYCLABLE)
                recycled = recyclable_to_pair(recyclable)
                assert all(c.cache_info().currsize <= PLAN_CACHE_SIZE for c in caches)
                results.add(
                    repr(
                        [(r.tag, r.herald.events, _exact(r.state)) for r in branches]
                        + [(r.pair.alpha, r.pair.beta) for r in branches if r.pair]
                        + [(recycled.alpha, recycled.beta)]
                    )
                )
        assert len(results) == 1  # same branches whatever the mode names


class TestReadoutPlans:
    def test_agree_with_detection_under_any_mode_names(self):
        occs = ((1, 0, 0), (0, 1, 0), (0, 0, 2), (1, 0, 1))
        results = set()
        for _sweep in range(2):  # the second sweep recomputes evicted plans
            for k in range(PLAN_CACHE_SIZE + 40):
                a, b = f"a{k}", f"b{k}"
                reg = ModeRegister((a, "c", b))
                s = FockState(reg, {(1, 0, 0): 0.6, (0, 0, 1): 0.8j})
                outs = detect_single_photon(s, (b, a))
                kept = s.without_modes(("c",))
                # slot getters compare by identity: compare what they read
                for drop, names, levels, keeps in (
                    (("c",), (a, b), [(0,), (1,), (0,), (0,)], [(1, 0), (0, 0), (0, 2), (1, 1)]),
                    ((b, a), ("c",), [(0, 1), (0, 0), (2, 0), (1, 1)], [(0,), (1,), (0,), (0,)]),
                ):
                    plan = _readout_plan(reg, drop)
                    assert plan[0] == ModeRegister(names)
                    assert [plan[1](o) for o in occs] == levels
                    assert [plan[2](o) for o in occs] == keeps
                assert kept.register.names == (a, b)
                assert [o.post_state.register.names for o in outs] == [("c",)] * 2
                results.add(repr([(o.pattern, o.probability, _exact(o.post_state)) for o in outs]))
                results.add(_exact(kept))
        assert len(results) == 2  # same amplitudes whatever the mode names


def test_every_lru_cache_in_the_package_is_bounded():
    caches = []
    for info in pkgutil.iter_modules(singlerail.__path__):
        module = importlib.import_module(f"singlerail.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                caches.append(name)
                assert value.cache_info().maxsize is not None, name
                assert value.cache_info().maxsize <= PLAN_CACHE_SIZE, name
    # the exact set: a new cache is added here on purpose
    assert sorted(caches) == sorted(
        ["_slot_plan", "_outcome_classes", "_station", "_probe", "_parser"]
    )
