import ast
import math
import pathlib

import numpy as np
import pytest

import singlerail
from singlerail import (
    BeamSplitter,
    ConfigError,
    FockState,
    ModeRegister,
    QndConfig,
    apply_beam_splitter,
    basis_state,
    detect_single_photon,
    phase_flip,
    qnd_measure,
    single_photon,
    vacuum,
)
from singlerail.fock import MAX_CUTOFF, NORM_TOL
from singlerail.optics import _readout_groups, _run, _slot_plan
from conftest import SCALES, random_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestBeamSplitterConstruction:
    def test_minus_input_must_be_an_input(self):
        with pytest.raises(ConfigError):
            BeamSplitter(("a", "b"), ("c", "d"), minus_input="c")

    def test_modes_must_be_distinct(self):
        with pytest.raises(ConfigError):
            BeamSplitter(("a", "a"), ("c", "d"), minus_input="a")
        with pytest.raises(ConfigError):
            BeamSplitter(("a", "b"), ("c", "c"), minus_input="a")

    def test_list_modes_are_stored_as_tuples(self):
        bs = BeamSplitter(["a", "b"], ["c", "d"], "b")
        assert bs == BeamSplitter(("a", "b"), ("c", "d"), "b")
        s = FockState(ModeRegister(("a", "b")), {(1, 0): 0.6, (0, 1): 0.8})
        assert apply_beam_splitter(s, bs).register.names == ("c", "d")

    def test_coefficients(self):
        bs = BeamSplitter(("a", "b"), ("c", "d"), minus_input="b")
        assert bs.coefficients("a") == (pytest.approx(INV_SQRT2), pytest.approx(INV_SQRT2))
        assert bs.coefficients("b") == (pytest.approx(INV_SQRT2), pytest.approx(-INV_SQRT2))

    def test_coefficients_of_a_mode_that_is_not_an_input(self):
        bs = BeamSplitter(("a", "b"), ("c", "d"), minus_input="b")
        with pytest.raises(ConfigError, match="'c' is not an input of this beam splitter"):
            bs.coefficients("c")


class TestSinglePhotonSplit:
    def test_plus_input_splits_symmetrically(self):
        reg = ModeRegister(("a", "b"))
        bs = BeamSplitter(("a", "b"), ("c", "d"), minus_input="b")
        out = apply_beam_splitter(single_photon(reg, "a"), bs)
        assert out.amplitude((1, 0)) == pytest.approx(INV_SQRT2)
        assert out.amplitude((0, 1)) == pytest.approx(INV_SQRT2)

    def test_minus_input_carries_the_sign(self):
        reg = ModeRegister(("a", "b"))
        bs = BeamSplitter(("a", "b"), ("c", "d"), minus_input="b")
        out = apply_beam_splitter(single_photon(reg, "b"), bs)
        assert out.amplitude((1, 0)) == pytest.approx(INV_SQRT2)
        assert out.amplitude((0, 1)) == pytest.approx(-INV_SQRT2)

    def test_spectator_modes_untouched(self):
        reg = ModeRegister(("a", "b", "m"))
        bs = BeamSplitter(("a", "b"), ("c", "d"), minus_input="b")
        s = FockState(reg, {(1, 0, 1): 1.0}).normalize()
        out = apply_beam_splitter(s, bs)
        assert out.register.names == ("c", "d", "m")
        assert out.amplitude((1, 0, 1)) == pytest.approx(INV_SQRT2)
        assert out.amplitude((0, 1, 1)) == pytest.approx(INV_SQRT2)


def test_hong_ou_mandel_bunching():
    # (1,1) in -> equal-weight (2,0) and (0,2), no coincidence term
    reg = ModeRegister(("a", "b"))
    bs = BeamSplitter(("a", "b"), ("c", "d"), minus_input="b")
    out = apply_beam_splitter(basis_state(reg, (1, 1)), bs)
    assert out.amplitude((1, 1)) == pytest.approx(0.0, abs=1e-15)
    assert abs(out.amplitude((2, 0))) == pytest.approx(INV_SQRT2)
    assert abs(out.amplitude((0, 2))) == pytest.approx(INV_SQRT2)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_two_photons_one_arm():
    # (2,0) in -> binomial pattern 1/2, 1/sqrt2, 1/2
    reg = ModeRegister(("a", "b"))
    bs = BeamSplitter(("a", "b"), ("c", "d"), minus_input="b")
    out = apply_beam_splitter(basis_state(reg, (2, 0)), bs)
    assert out.amplitude((2, 0)) == pytest.approx(0.5)
    assert out.amplitude((1, 1)) == pytest.approx(INV_SQRT2)
    assert out.amplitude((0, 2)) == pytest.approx(0.5)


def test_swap_station_four_term_expansion():
    # (alpha a + beta b)(alpha c + beta d) with BS on (b, c), minus on c
    alpha, beta = math.sqrt(0.8), math.sqrt(0.2)
    ab = FockState(ModeRegister(("a", "b")), {(1, 0): alpha, (0, 1): beta})
    cd = FockState(ModeRegister(("c", "d")), {(1, 0): alpha, (0, 1): beta})
    joint = ab.tensor(cd)
    bs = BeamSplitter(("b", "c"), ("D1", "D2"), minus_input="c")
    out = joint.align_to(ModeRegister(("a", "b", "c", "d")))
    out = apply_beam_splitter(out, bs)
    # register order after the positional rename: (a, D1, D2, d)
    assert out.register.names == ("a", "D1", "D2", "d")
    s2 = INV_SQRT2
    assert out.amplitude((1, 1, 0, 0)) == pytest.approx(alpha * alpha * s2)
    assert out.amplitude((1, 0, 1, 0)) == pytest.approx(-alpha * alpha * s2)
    assert out.amplitude((0, 1, 0, 1)) == pytest.approx(beta * beta * s2)
    assert out.amplitude((0, 0, 1, 1)) == pytest.approx(beta * beta * s2)
    assert out.amplitude((1, 0, 0, 1)) == pytest.approx(alpha * beta)
    assert abs(out.amplitude((0, 2, 0, 0))) == pytest.approx(alpha * beta * s2)
    assert abs(out.amplitude((0, 0, 2, 0))) == pytest.approx(alpha * beta * s2)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_beam_splitter_unitarity_random(rng):
    reg = ModeRegister(("a", "b", "m"))
    bs = BeamSplitter(("a", "b"), ("c", "d"), minus_input="a")
    for _ in range(300):
        s = random_state(rng, reg)
        out = apply_beam_splitter(s, bs)
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_beam_splitter_stays_unitary_up_to_the_cutoff_cap():
    # the cap guards this: from 71 photons on some ket's norm passes NORM_TOL
    reg = ModeRegister(("a", "b"), MAX_CUTOFF)
    bs = BeamSplitter(("a", "b"), ("c", "d"), minus_input="b")
    for total in range(MAX_CUTOFF + 1):
        for n in range(total + 1):
            out = apply_beam_splitter(basis_state(reg, (n, total - n)), bs)
            assert abs(out.norm_sq() - 1.0) <= NORM_TOL, (n, total - n)


def test_beam_splitter_involution(rng):
    # the balanced splitter is its own inverse when wired back symmetrically
    reg = ModeRegister(("a", "b"))
    fwd = BeamSplitter(("a", "b"), ("c", "d"), minus_input="b")
    back = BeamSplitter(("c", "d"), ("a", "b"), minus_input="d")
    for _ in range(50):
        s = random_state(rng, reg)
        roundtrip = apply_beam_splitter(apply_beam_splitter(s, fwd), back)
        for occ, re, im in s.serialize():
            assert roundtrip.amplitude(occ) == pytest.approx(complex(re, im), abs=1e-12)


class TestQnd:
    def test_monitored_modes_are_nonempty_and_distinct(self):
        with pytest.raises(ConfigError, match="QND needs at least one monitored mode"):
            QndConfig((), math.pi)
        with pytest.raises(ConfigError, match=r"duplicate monitored modes: \('b', 'b'\)"):
            QndConfig(("b", "b"), math.pi)

    def test_parity_theta_groups_zero_and_two(self):
        cfg = QndConfig(("b1", "b2"), math.pi)
        classes = cfg.outcome_classes(2)
        assert frozenset({0, 2}) in classes
        assert frozenset({1}) in classes
        assert len(classes) == 2

    def test_generic_theta_resolves_all_counts(self):
        cfg = QndConfig(("b1", "b2"), 1.0)
        classes = cfg.outcome_classes(2)
        assert sorted(classes, key=min) == [frozenset({0}), frozenset({1}), frozenset({2})]

    def test_outcome_completeness(self, rng):
        reg = ModeRegister(("b1", "b2", "x"))
        for theta in (math.pi, 1.0, 0.3):
            cfg = QndConfig(("b1", "b2"), theta)
            for _ in range(50):
                s = random_state(rng, reg)
                outs = qnd_measure(s, cfg)
                assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)
                for o in outs:
                    assert o.post_state.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_measurement_is_nondemolition(self):
        # monitored photons survive in the post state
        reg = ModeRegister(("b1", "b2"))
        s = FockState(reg, {(1, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0}).normalize()
        cfg = QndConfig(("b1", "b2"), math.pi)
        outs = {frozenset(o.outcome_class): o for o in qnd_measure(s, cfg)}
        even = outs[frozenset({0, 2})]
        assert even.probability == pytest.approx(1 / 3)
        assert even.post_state.amplitude((1, 1)) == pytest.approx(1.0)

    def test_each_outcome_is_the_projection_on_its_class(self, rng):
        reg = ModeRegister(("x", "b1", "y", "b2"))
        for theta in (math.pi, 1.0):
            cfg = QndConfig(("b1", "b2"), theta)
            for _ in range(20):
                s = random_state(rng, reg)
                outs = qnd_measure(s, cfg)
                assert [o.outcome_class for o in outs] == cfg.outcome_classes(2)
                for o in outs:
                    prob, post = s.project(
                        lambda occ, cls=o.outcome_class: occ[1] + occ[3] in cls
                    )
                    assert o.probability == prob
                    assert o.post_state.serialize() == post.serialize()


class TestDetection:
    def test_distinct_nonempty_modes_required(self):
        s = vacuum(ModeRegister(("a", "b")))
        with pytest.raises(ConfigError):
            detect_single_photon(s, ())
        with pytest.raises(ConfigError):
            detect_single_photon(s, ("a", "a"))

    def test_click_absorbs_the_photon(self):
        reg = ModeRegister(("a", "D"))
        s = FockState(reg, {(0, 1): 1.0, (1, 0): 1.0}).normalize()
        outs = detect_single_photon(s, ("D",))
        by_fired = {o.fired: o for o in outs}
        click = by_fired["D"]
        assert click.probability == pytest.approx(0.5)
        assert click.post_state.register.names == ("a",)
        assert click.post_state.amplitude((0,)) == pytest.approx(1.0)
        noclick = by_fired[None]
        assert noclick.flagged is False
        assert noclick.post_state.amplitude((1,)) == pytest.approx(1.0)

    def test_multi_photon_patterns_flagged(self):
        reg = ModeRegister(("a", "D1", "D2"))
        s = FockState(reg, {(0, 2, 0): 1.0, (0, 1, 1): 1.0, (1, 0, 0): 1.0}).normalize()
        outs = detect_single_photon(s, ("D1", "D2"))
        flagged = [o for o in outs if o.flagged]
        assert {o.pattern for o in flagged} == {(2, 0), (1, 1)}
        for o in flagged:
            assert o.fired is None

    def test_exhaustive_over_random_states(self, rng):
        reg = ModeRegister(("x", "D1", "D2"))
        for _ in range(100):
            s = random_state(rng, reg)
            outs = detect_single_photon(s, ("D1", "D2"))
            assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)
            patterns = [o.pattern for o in outs]
            assert len(patterns) == len(set(patterns))

    @pytest.mark.parametrize("det", [("c",), ("d", "a"), ("b", "d", "a")])
    def test_each_outcome_is_projection_then_drop(self, rng, det):
        # the one-pass readout against the two-step reference, bit for bit
        reg = ModeRegister(("a", "b", "c", "d"))
        idxs = reg.indices(det)
        singles = [tuple(int(j == k) for j in range(len(det))) for k in range(len(det))]
        for _ in range(20):
            s = random_state(rng, reg)
            outs = detect_single_photon(s, det)
            patterns = [o.pattern for o in outs]
            multi = sorted(p for p in patterns if sum(p) >= 2)
            assert patterns == singles + [(0,) * len(det)] + multi
            for o in outs:
                prob, post = s.project(
                    lambda occ, p=o.pattern: tuple(occ[i] for i in idxs) == p
                )
                reduced = post.without_modes(det)
                assert o.probability == prob
                assert o.post_state.register == reduced.register
                assert o.post_state.serialize() == reduced.serialize()


def reference_readout(state, key, dropped=()):
    """The readout written out ket by ket, independent of ``partition``:
    group, weigh each group with ``math.fsum``, renormalize, drop slots;
    post-state terms in the order their kets come."""
    groups = {}
    for occ, amp in state.terms.items():
        groups.setdefault(key(occ), {})[occ] = amp
    out = {}
    for k, kets in groups.items():
        prob = math.fsum(abs(a) ** 2 for a in kets.values())
        if prob > 0.0:
            scale = 1.0 / math.sqrt(prob)
            out[k] = prob, [
                (tuple(n for i, n in enumerate(occ) if i not in dropped), a * scale)
                for occ, a in kets.items()
            ]
    return out


def exact_terms(state):
    return list(state.terms.items())  # in insertion order


class TestReadoutsMatchTheKetByKetReference:
    """Bit for bit, including -0.0, against ``reference_readout``."""

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize(
        "det", [("a",), ("c",), ("d",), ("d", "b"), ("a", "b", "c")]
    )
    def test_detection(self, rng, det, scale):
        reg = ModeRegister(("a", "b", "c", "d"))
        idxs = reg.indices(det)
        for _ in range(20):
            s = random_state(rng, reg)
            # a random support; the subnormal scales underflow amplitudes
            # and squares to exact zeros
            kept = [occ for occ in s.terms if rng.random() < 0.6] or list(s.terms)
            s = FockState(reg, {occ: s.terms[occ] * scale for occ in kept})
            ref = reference_readout(s, lambda occ: tuple(occ[i] for i in idxs), idxs)
            outs = detect_single_photon(s, det)
            assert {o.pattern for o in outs} == set(ref)
            for o in outs:
                assert o.post_state.register.names == tuple(
                    n for n in reg.names if n not in det
                )
                assert (o.probability, repr(exact_terms(o.post_state))) == (
                    ref[o.pattern][0],
                    repr(ref[o.pattern][1]),
                )

    @pytest.mark.parametrize("theta", [math.pi, 1.0, 0.3, 2.0 * math.pi / 3.0])
    @pytest.mark.parametrize("monitored", [("b",), ("d", "a"), ("a", "b", "c")])
    def test_qnd(self, rng, theta, monitored):
        reg = ModeRegister(("a", "b", "c", "d"))
        idxs = reg.indices(monitored)
        cfg = QndConfig(monitored, theta)
        class_of = {n: cls for cls in cfg.outcome_classes(2) for n in cls}
        for _ in range(20):
            s = random_state(rng, reg)
            ref = reference_readout(s, lambda occ: class_of[sum(occ[i] for i in idxs)])
            outs = qnd_measure(s, cfg)
            assert {o.outcome_class for o in outs} == set(ref)
            for o in outs:
                assert o.post_state.register == reg
                assert (o.probability, repr(exact_terms(o.post_state))) == (
                    ref[o.outcome_class][0],
                    repr(ref[o.outcome_class][1]),
                )


def test_readouts_past_the_amplitude_limit_are_config_errors():
    s = FockState(ModeRegister(("a", "b")), {(1, 0): 1e200, (0, 1): 1e-200})
    with pytest.raises(ConfigError):
        detect_single_photon(s, ("a",))
    with pytest.raises(ConfigError):
        qnd_measure(s, QndConfig(("b",), math.pi))


class TestPhaseFlip:
    def test_flips_odd_occupancy_only(self):
        reg = ModeRegister(("a", "b"))
        s = FockState(reg, {(1, 0): 0.5, (0, 1): 0.5, (1, 1): 0.5, (0, 0): 0.5})
        out = phase_flip(s, "b")
        assert out.amplitude((1, 0)) == 0.5
        assert out.amplitude((0, 1)) == -0.5
        assert out.amplitude((1, 1)) == -0.5
        assert out.amplitude((0, 0)) == 0.5

    def test_involution_is_exact(self, rng):
        reg = ModeRegister(("a", "b", "c"))
        for _ in range(200):
            s = random_state(rng, reg)
            assert phase_flip(phase_flip(s, "b"), "b").serialize() == s.serialize()

    def test_preserves_norm(self, rng):
        reg = ModeRegister(("a", "b"))
        for _ in range(50):
            s = random_state(rng, reg)
            assert phase_flip(s, "a").norm_sq() == pytest.approx(1.0, abs=1e-12)


def _kept_outputs(kernel, kets) -> dict:
    """A kernel's outputs on ``kets`` by its keys, exact zeros dropped."""
    return {k: a for k, a in zip(kernel[-1], _run(kernel, tuple(kets.values()))) if a}


def _feeding(kernel, n) -> tuple:
    """The positions of the ``n`` input kets whose amplitudes a kernel reads."""
    divs, _, adds, *_ = kernel
    return tuple(sorted({i for i, *_ in divs} | {s for s, _ in adds if s < n}))


class TestReplayOfOneReadoutEntry:
    """A readout entry's kernel replays only the kets its slot plan records
    as feeding that entry's members, and equals the full kernel."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_each_entry_equals_the_full_replay_bit_for_bit(self, rng, scale):
        reg = ModeRegister(("a", "b", "c", "d"))
        bs = BeamSplitter(("b", "c"), ("b", "c"), minus_input="c")
        for _ in range(30):
            state = random_state(rng, reg)
            kets = {o: a * scale for o, a in state.terms.items() if rng.random() < 0.7}
            if not kets:
                continue
            out_reg, every, _, entries = _slot_plan(reg, bs, tuple(kets))
            full = _kept_outputs(every, kets)
            _, readout = _readout_groups(out_reg, bs.out_modes, every[-1])
            assert len(entries) == len(readout)
            for (_, _, kernel), (_, _, members) in zip(entries, readout):
                one = _kept_outputs(kernel, kets)
                wanted = {k: full[o] for o, k in members if o in full}
                assert repr(one) == repr(wanted)

    def test_the_feeding_set_follows_the_support(self):
        # the two-photon ket |0110> feeds only multi-click patterns, so D1
        # of a swap is fed by |1010> and |0101>: positions 0 and 3 of the
        # full support, and 0 and 1 once the |1001>, |0110> kets are gone
        reg = ModeRegister(("a", "b", "c", "d"))
        bs = BeamSplitter(("b", "c"), ("b", "c"), minus_input="c")
        full = {(1, 0, 1, 0): 0.5, (1, 0, 0, 1): 0.5, (0, 1, 1, 0): 0.5, (0, 1, 0, 1): 0.5}
        outer = {(1, 0, 1, 0): 0.6, (0, 1, 0, 1): 0.8}
        for kets, feeding in ((full, (0, 3)), (outer, (0, 1))):
            _, fired, kernel = _slot_plan(reg, bs, tuple(kets))[-1][0]
            assert fired == "b" and _feeding(kernel, len(kets)) == feeding


def _program_loops() -> set[str]:
    """The defs of the package holding a loop, or a comprehension, over a
    transfer program's or a kernel's ``ops`` (or ``layers``), by qualified
    name."""
    found = set()
    for path in pathlib.Path(singlerail.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                loop = getattr(node, "iter", None)
                names = {n.id for n in ast.walk(loop) if isinstance(n, ast.Name)} if loop else set()
                if names & {"layers", "ops"}:
                    found.add(f"{path.stem}.{fn.name}")
    return found


def test_one_site_compiles_and_one_loop_replays_a_transfer_program():
    # one compile site and one replay loop: a second copy would fork the
    # expansion's arithmetic
    assert _program_loops() == {"optics._kernel", "optics._run"}
