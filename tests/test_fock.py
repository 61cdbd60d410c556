import math

import numpy as np
import pytest

from singlerail import (
    CapacityError,
    ConfigError,
    DegenerateStateError,
    FockState,
    ModeRegister,
    RegisterError,
    basis_state,
    single_photon,
    superpose,
    vacuum,
)
from conftest import all_occupations, random_state


class TestModeRegister:
    def test_basic_lookup(self):
        reg = ModeRegister(("a", "b", "c"))
        assert len(reg) == 3
        assert reg.index("b") == 1
        assert reg.indices(("c", "a")) == (2, 0)
        assert "a" in reg and "z" not in reg

    def test_rejects_duplicates(self):
        with pytest.raises(RegisterError):
            ModeRegister(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            ModeRegister(())

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ConfigError):
            ModeRegister(("a",), cutoff=0)

    def test_cutoff_must_be_an_integer(self):
        with pytest.raises(ConfigError):
            ModeRegister(("a",), cutoff=1.9)
        with pytest.raises(ConfigError):
            ModeRegister(("a",), cutoff=True)
        assert ModeRegister(("a",), cutoff=np.int64(3)).cutoff == 3

    def test_hash_follows_equality(self):
        assert hash(ModeRegister(("a", "b"))) == hash(ModeRegister(["a", "b"], 2))

    def test_unknown_mode(self):
        reg = ModeRegister(("a", "b"))
        with pytest.raises(RegisterError):
            reg.index("q")

    def test_equality_includes_order_and_cutoff(self):
        assert ModeRegister(("a", "b")) == ModeRegister(("a", "b"))
        assert ModeRegister(("a", "b")) != ModeRegister(("b", "a"))
        assert ModeRegister(("a", "b")) != ModeRegister(("a", "b"), cutoff=3)

    def test_equality_with_what_is_not_a_register_is_not_implemented(self):
        reg = ModeRegister(("a", "b"))
        assert reg.__eq__(("a", "b")) is NotImplemented
        assert reg != ("a", "b")


class TestFockStateConstruction:
    def test_amplitude_lookup(self):
        reg = ModeRegister(("a", "b"))
        s = FockState(reg, {(1, 0): 0.6, (0, 1): 0.8j})
        assert s.amplitude((1, 0)) == 0.6
        assert s.amplitude((0, 1)) == 0.8j
        assert s.amplitude((0, 0)) == 0

    def test_cutoff_violation_is_an_error_not_truncation(self):
        reg = ModeRegister(("a", "b"))
        with pytest.raises(CapacityError):
            FockState(reg, {(2, 1): 1.0})

    def test_negative_occupation_rejected(self):
        reg = ModeRegister(("a",))
        with pytest.raises(ConfigError):
            FockState(reg, {(-1,): 1.0})

    def test_wrong_arity_rejected(self):
        reg = ModeRegister(("a", "b"))
        with pytest.raises(RegisterError):
            FockState(reg, {(1,): 1.0})

    def test_nonfinite_amplitude_rejected(self):
        reg = ModeRegister(("a",))
        with pytest.raises(ConfigError):
            FockState(reg, {(1,): float("nan")})

    def test_fractional_occupation_rejected(self):
        reg = ModeRegister(("a", "b"))
        with pytest.raises(ConfigError):
            FockState(reg, {(0.6, 1.9): 1.0})

    def test_bool_occupation_rejected(self):
        reg = ModeRegister(("a", "b"))
        with pytest.raises(ConfigError):
            FockState(reg, {(True, False): 1.0})

    def test_keys_naming_one_occupation_rejected(self):
        # Python's dict already merges (1, 0) and (1.0, 0.0), which hash
        # alike; keys that differ but cast to one occupation reach the
        # constructor and must not overwrite each other silently
        class Level:
            def __init__(self, n):
                self.n = n

            def __index__(self):
                return self.n

        reg = ModeRegister(("a", "b"))
        with pytest.raises(ConfigError):
            FockState(reg, {(1, 0): 1.0, (Level(1), 0): 2.0})

    @pytest.mark.parametrize(
        "build",
        [
            lambda reg: FockState(reg, {5: 1.0}),
            lambda reg: FockState(reg, {None: 1.0}),
            lambda reg: basis_state(reg, 5),
        ],
    )
    def test_occupation_that_is_not_iterable_rejected(self, build):
        with pytest.raises(ConfigError, match="occupation must be a sequence of counts"):
            build(ModeRegister(("a", "b")))

    @pytest.mark.parametrize("terms", [[((1, 0), 1.0)], ((1, 0), 1.0), None, "ab"], ids=repr)
    def test_terms_that_are_not_a_mapping_rejected(self, terms):
        # a list of pairs once raised a raw AttributeError on .items()
        with pytest.raises(ConfigError, match="^terms must be a Mapping, got "):
            FockState(ModeRegister(("a", "b")), terms)

    @pytest.mark.parametrize("occupation", [5, None, 1.5])
    def test_amplitude_of_what_is_not_an_occupation_rejected(self, occupation):
        # amplitude(5) once raised a raw TypeError from tuple()
        s = FockState(ModeRegister(("a", "b")), {(1, 0): 1.0})
        with pytest.raises(ConfigError, match="^occupation must be a sequence of counts"):
            s.amplitude(occupation)

    def test_amplitude_reads_occupations_as_the_constructor_does(self):
        s = FockState(ModeRegister(("a", "b")), {(1, 0): 0.6, (0, 1): 0.8})
        assert s.amplitude([np.int64(1), 0]) == 0.6 and s.amplitude((0, 0)) == 0j
        with pytest.raises(ConfigError, match="occupation must be >= 0"):
            s.amplitude((-1, 0))

    def test_numpy_integer_occupations_are_read_as_int(self):
        reg = ModeRegister(("a", "b"))
        s = FockState(reg, {(np.int64(1), np.int32(0)): 1.0})
        (occ,) = s.terms
        assert occ == (1, 0) and all(type(n) is int for n in occ)

    def test_keeps_every_nonzero_amplitude(self):
        reg = ModeRegister(("a", "b"))
        s = FockState(reg, {(1, 0): 1.0, (0, 1): 1e-16, (0, 0): 5e-324})
        assert s.amplitude((0, 1)) == 1e-16
        assert s.amplitude((0, 0)) == 5e-324
        assert len(s) == 3
        s = FockState(reg, {(1, 0): 1.0, (0, 1): 0j, (0, 0): -0.0})
        assert set(s.terms) == {(1, 0)}

    def test_constructors(self):
        reg = ModeRegister(("a", "b"))
        assert vacuum(reg).amplitude((0, 0)) == 1
        assert single_photon(reg, "b").amplitude((0, 1)) == 1
        assert basis_state(reg, (1, 1)).amplitude((1, 1)) == 1


class TestAmplitudeLimit:
    """|amplitude| past sqrt(float max) overflows its square: a ConfigError."""

    def test_norm_and_normalize(self):
        s = FockState(ModeRegister(("a", "b")), {(1, 0): 1e200})
        with pytest.raises(ConfigError, match="1.34e154"):
            s.norm_sq()
        with pytest.raises(ConfigError, match="1.34e154"):
            s.normalize()

    def test_sum_past_float_max(self):
        s = FockState(ModeRegister(("a", "b")), {(1, 0): 1e154, (0, 1): 1.3e154})
        with pytest.raises(ConfigError):
            s.norm()

    def test_partition(self):
        s = FockState(ModeRegister(("a", "b")), {(1, 0): 1e200, (0, 1): 1e-200})
        with pytest.raises(ConfigError):
            s.partition(lambda occ: occ[0])

    def test_below_the_limit(self):
        s = FockState(ModeRegister(("a", "b")), {(1, 0): 1e154})
        assert s.normalize().amplitude((1, 0)) == 1.0


class TestLadder:
    def test_create_normalization_factor(self):
        # a†|n> = sqrt(n+1)|n+1>
        reg = ModeRegister(("a",))
        s = vacuum(reg).create("a")
        assert s.amplitude((1,)) == pytest.approx(1.0)
        s = s.create("a")
        assert s.amplitude((2,)) == pytest.approx(math.sqrt(2))

    def test_create_guards_cutoff(self):
        reg = ModeRegister(("a",))
        two = basis_state(reg, (2,))
        with pytest.raises(CapacityError):
            two.create("a")


class TestNormalizeAndCompose:
    def test_normalize(self):
        reg = ModeRegister(("a", "b"))
        s = FockState(reg, {(1, 0): 3.0, (0, 1): 4.0}).normalize()
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert s.amplitude((1, 0)) == pytest.approx(0.6)

    def test_normalize_degenerate(self):
        reg = ModeRegister(("a",))
        with pytest.raises(DegenerateStateError):
            FockState(reg, {}).normalize()

    def test_tensor_amplitudes_multiply(self):
        left = single_photon(ModeRegister(("a",)), "a")
        right = FockState(ModeRegister(("b",)), {(0,): 0.6, (1,): 0.8})
        prod = left.tensor(right)
        assert prod.amplitude((1, 0)) == pytest.approx(0.6)
        assert prod.amplitude((1, 1)) == pytest.approx(0.8)

    def test_tensor_requires_disjoint_names(self):
        a = single_photon(ModeRegister(("a",)), "a")
        with pytest.raises(RegisterError):
            a.tensor(a)

    def test_tensor_checks_kets_before_dropping_underflowed_ones(self):
        # 1e-200 * 1e-200 underflows to an exact zero: past the cutoff it is
        # still refused, within it it is dropped
        two = FockState(ModeRegister(("a",)), {(2,): 1e-200})
        with pytest.raises(CapacityError):
            two.tensor(FockState(ModeRegister(("b",)), {(1,): 1e-200}))
        one = FockState(ModeRegister(("a",)), {(1,): 1e-200})
        prod = one.tensor(FockState(ModeRegister(("b",)), {(0,): 1.0, (1,): 1e-200}))
        assert prod.terms == {(1, 0): 1e-200}

    def test_tensor_enforces_joint_cutoff(self):
        a = basis_state(ModeRegister(("a",)), (2,))
        b = basis_state(ModeRegister(("b",)), (1,))
        with pytest.raises(CapacityError):
            a.tensor(b)

    def test_superpose_normalizes(self):
        reg = ModeRegister(("a", "b"))
        s = superpose([(1.0, single_photon(reg, "a")), (1.0, single_photon(reg, "b"))])
        assert s.amplitude((1, 0)) == pytest.approx(1 / math.sqrt(2))

    def test_superpose_needs_an_addend(self):
        with pytest.raises(ConfigError, match="superpose needs at least one addend"):
            superpose([])

    def test_superpose_cancellation_is_degenerate(self):
        reg = ModeRegister(("a",))
        one = single_photon(reg, "a")
        with pytest.raises(DegenerateStateError):
            superpose([(1.0, one), (-1.0, one)])

    def test_superpose_numerical_cancellation_is_degenerate(self):
        # a nonzero remainder below NORM_TOL is refused like an exact zero
        one = single_photon(ModeRegister(("a",)), "a")
        with pytest.raises(DegenerateStateError):
            superpose([(1.0, one), (-(1.0 - 2.0**-50), one)])


class TestProjection:
    def test_project_partitions_probability(self, rng):
        reg = ModeRegister(("a", "b", "c"))
        for _ in range(50):
            s = random_state(rng, reg)
            pred = lambda occ: occ[0] == 1
            p_yes, _ = s.project(pred)
            p_no, _ = s.project(lambda occ: not pred(occ))
            assert p_yes + p_no == pytest.approx(1.0, abs=1e-12)

    def test_project_zero_probability_returns_none(self):
        reg = ModeRegister(("a",))
        prob, post = vacuum(reg).project(lambda occ: occ[0] == 2)
        assert prob == 0.0 and post is None

    def test_project_count(self):
        reg = ModeRegister(("a", "b"))
        s = FockState(reg, {(1, 0): 1.0, (0, 1): 1.0}).normalize()
        prob, post = s.partition(lambda occ: occ[0] == 1)[True]
        assert prob == pytest.approx(0.5)
        assert post.amplitude((1, 0)) == pytest.approx(1.0)

    def test_project_count_class(self):
        reg = ModeRegister(("a", "b"))
        s = FockState(reg, {(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0}).normalize()
        prob, post = s.partition(lambda occ: occ[0] in (0, 2))[True]
        assert prob == pytest.approx(2 / 3)
        assert post.amplitude((1, 0)) == 0

    def test_partition_leaves_out_zero_probability_groups(self):
        reg = ModeRegister(("a", "b"))
        s = FockState(reg, {(1, 0): 1.0, (0, 1): 1e-200})
        assert list(s.partition(lambda occ: occ[1])) == [0]


class TestRegisterSurgery:
    def test_align_to_permutes(self):
        s = FockState(ModeRegister(("a", "b")), {(1, 0): 1.0})
        t = s.align_to(ModeRegister(("b", "a")))
        assert t.amplitude((0, 1)) == 1.0

    def test_align_to_a_lower_cutoff_checks_it(self):
        s = FockState(ModeRegister(("a", "b"), cutoff=3), {(2, 0): 0.6, (0, 1): 0.8})
        with pytest.raises(CapacityError):
            s.align_to(ModeRegister(("b", "a"), cutoff=1))
        t = s.align_to(ModeRegister(("b", "a"), cutoff=2))
        assert t.register.cutoff == 2 and t.amplitude((0, 2)) == 0.6

    def test_align_to_requires_same_names(self):
        s = vacuum(ModeRegister(("a", "b")))
        with pytest.raises(RegisterError):
            s.align_to(ModeRegister(("a", "c")))

    def test_align_to_refuses_a_subset_or_superset_of_names(self):
        s = vacuum(ModeRegister(("a", "b")))
        for names in (("a",), ("b", "a", "c")):
            with pytest.raises(RegisterError, match="register mismatch"):
                s.align_to(ModeRegister(names))

    def test_align_to_its_own_register_is_the_state_itself(self):
        s = FockState(ModeRegister(("a", "b")), {(1, 0): 0.6, (0, 1): 0.8j})
        assert s.align_to(ModeRegister(("a", "b"))) is s

    def test_without_modes_drops_definite_mode(self):
        reg = ModeRegister(("a", "b"))
        s = FockState(reg, {(1, 1): 1.0})
        t = s.without_modes(("b",))
        assert t.register.names == ("a",)
        assert t.amplitude((1,)) == 1.0

    def test_without_modes_rejects_entangled_mode(self):
        reg = ModeRegister(("a", "b"))
        s = FockState(reg, {(1, 0): 1.0, (0, 1): 1.0}).normalize()
        with pytest.raises(RegisterError):
            s.without_modes(("b",))

    def test_without_modes_keeps_at_least_one(self):
        s = vacuum(ModeRegister(("a",)))
        with pytest.raises(ConfigError):
            s.without_modes(("a",))


class TestOverlap:
    def test_fidelity_symmetry(self, rng):
        reg = ModeRegister(("a", "b"))
        for _ in range(200):
            x = random_state(rng, reg)
            y = random_state(rng, reg)
            assert x.fidelity(y) == pytest.approx(y.fidelity(x), abs=1e-12)
            assert 0.0 <= x.fidelity(y) <= 1.0 + 1e-12

    def test_overlap_is_sesquilinear(self):
        # s.overlap(t) = <t|s>
        reg = ModeRegister(("a",))
        s = FockState(reg, {(1,): 1j})
        t = FockState(reg, {(1,): 1.0})
        assert s.overlap(t) == pytest.approx(1j)
        assert t.overlap(s) == pytest.approx(-1j)

    def test_overlap_reads_the_other_state_in_this_mode_order(self):
        s = FockState(ModeRegister(("a", "b")), {(1, 0): 0.6, (0, 1): 0.8j})
        t = FockState(ModeRegister(("b", "a")), {(0, 1): 0.6, (1, 0): 0.8j})
        assert s.overlap(t) == pytest.approx(1.0)
        assert s.fidelity(t) == pytest.approx(1.0)
        with pytest.raises(RegisterError, match="register mismatch"):
            s.overlap(vacuum(ModeRegister(("a", "c"))))

    def test_global_phase_is_preserved_not_canonicalized(self):
        reg = ModeRegister(("a",))
        s = FockState(reg, {(1,): -1.0})
        assert s.amplitude((1,)) == -1.0


def test_serialize_is_sorted_and_stable(rng):
    reg = ModeRegister(("a", "b", "c"))
    s = random_state(rng, reg)
    ser = s.serialize()
    assert ser == sorted(ser, key=lambda row: row[0])
    assert ser == FockState(reg, dict(s.terms)).serialize()


def test_occupation_enumeration_count():
    # 3 modes, cutoff 2: C(3,0)+C(3,1)+multisets = 1 + 3 + 6 = 10
    assert len(all_occupations(3, 2)) == 10


def test_random_states_normalized(rng):
    reg = ModeRegister(("a", "b", "c", "d"))
    for _ in range(100):
        s = random_state(rng, reg)
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)
