"""The optics layer against an independent dense model.

The model works on the full cutoff-2 Fock basis of up to six modes
(dimension at most 28) with numpy and shares no code with ``singlerail``
beyond reading a state's amplitudes.  A balanced splitter is the unitary
whose matrix elements are permanents of the mode transformation,
<m|U|n> = perm(S[m, n]) / sqrt(prod m! prod n!), with S[m, n] repeating
row j m_j times and column k n_k times; a QND reading and a detector
pattern are projectors onto occupation sets, after which detected modes
are dropped.  Every branch of ``apply_beam_splitter``, ``qnd_measure``,
``detect_single_photon``, ``swap`` and ``concentration_round`` must match
the model in probability and in post-state fidelity within 1e-12, also
for two-photon kets on both splitter inputs and for amplitudes whose
squares underflow.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from singlerail import (
    BeamSplitter,
    FockState,
    ModeRegister,
    QndConfig,
    Tag,
    apply_beam_splitter,
    concentration_round,
    detect_single_photon,
    qnd_measure,
    swap,
)
from conftest import make_pair

TOL = 1e-12
CUTOFF = 2
R = 1.0 / np.sqrt(2.0)
#: amplitude scales mixed into a drawn state: their squares are normal,
#: subnormal (1e-160 squared) or underflow to zero (1e-200 squared)
TINY = (1.0, 1e-160, 1e-200)
#: photon-count classes the homodyne readout resolves at each probe angle
CLASSES = {
    math.pi: ({0, 2}, {1}),
    0.7: ({0}, {1}, {2}),
    2 * math.pi: ({0, 1, 2},),
}
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def basis(n_modes):
    return [o for o in itertools.product(range(CUTOFF + 1), repeat=n_modes) if sum(o) <= CUTOFF]


def dense(state):
    return np.array([state.amplitude(o) for o in basis(len(state.register))], dtype=complex)


def permanent(m):
    k = len(m)
    return sum(
        math.prod(m[i][p[i]] for i in range(k)) for p in itertools.permutations(range(k))
    )


def splitter_unitary(n_modes, i0, i1, minus_slot):
    """Dense unitary of a balanced splitter whose input in slot ``k`` maps
    to (out_i0 +/- out_i1)/sqrt(2), '-' for ``minus_slot``."""
    s = np.eye(n_modes, dtype=complex)
    for k in (i0, i1):
        s[i0, k] = R
        s[i1, k] = -R if k == minus_slot else R
    states = basis(n_modes)
    u = np.zeros((len(states), len(states)), dtype=complex)
    for a, m in enumerate(states):
        rows = [j for j in range(n_modes) for _ in range(m[j])]
        for b, n in enumerate(states):
            if sum(m) != sum(n):
                continue
            cols = [k for k in range(n_modes) for _ in range(n[k])]
            norm = math.prod(map(math.factorial, m)) * math.prod(map(math.factorial, n))
            u[a, b] = permanent(s[np.ix_(rows, cols)]) / math.sqrt(norm)
    return u


def project(vec, n_modes, keep):
    """``vec`` restricted to the kets ``keep`` accepts: (probability, normalized vector)."""
    mask = np.array([bool(keep(o)) for o in basis(n_modes)])
    out = np.where(mask, vec, 0)
    prob = float(np.sum(np.abs(out) ** 2))
    return prob, (out / np.sqrt(prob) if prob > 0 else out)


def drop(vec, n_modes, slots):
    """A vector whose ``slots`` sit in one level, with those modes removed."""
    keep = [i for i in range(n_modes) if i not in slots]
    index = {o: i for i, o in enumerate(basis(len(keep)))}
    out = np.zeros(len(index), dtype=complex)
    for amp, o in zip(vec, basis(n_modes)):
        if amp:
            out[index[tuple(o[i] for i in keep)]] += amp
    return out


def unit(vec):
    """``vec`` scaled to unit norm; scaled by its largest entry first, so
    that a subnormal branch's imprecise renormalization does not count."""
    vec = vec / np.max(np.abs(vec))
    return vec / np.linalg.norm(vec)


def assert_branch(prob, state, ref_prob, ref_vec):
    assert abs(prob - ref_prob) <= TOL
    fidelity = abs(np.vdot(unit(ref_vec), unit(dense(state)))) ** 2
    assert abs(fidelity - 1.0) <= TOL


def assert_same_branches(found, model):
    """``found`` maps branch keys to (probability, state); ``model`` to
    (probability, vector).  A model branch may be missing only if its
    probability underflows."""
    for key, (prob, vec) in model.items():
        if key in found:
            assert_branch(*found[key], prob, vec)
        else:
            assert prob <= 1e-300, key
    assert set(found) <= set(model)


@st.composite
def states(draw, min_modes=2):
    """A normalized state over the full basis of 2..6 modes, some of its
    amplitudes scaled down so that their squares are subnormal or zero."""
    n_modes = draw(st.integers(min_value=min_modes, max_value=6))
    occs = basis(n_modes)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scales = rng.choice(TINY, size=len(occs), p=(0.6, 0.2, 0.2))
    amps = (rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))) * scales
    amps /= np.linalg.norm(amps)
    reg = ModeRegister(tuple(f"m{i}" for i in range(n_modes)))
    return FockState(reg, dict(zip(occs, amps.tolist())))


alpha_sq = st.one_of(
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
    st.sampled_from((1e-300, 1e-320, 0.5, 1 - 2**-52)),
)


class TestPrimitives:
    @EXAMPLES
    @given(states(), st.data())
    def test_beam_splitter_is_the_permanent_unitary(self, s, data):
        n = len(s.register)
        i0, i1 = data.draw(st.permutations(range(n)))[:2]
        minus = data.draw(st.sampled_from((i0, i1)))
        names = s.register.names
        bs = BeamSplitter((names[i0], names[i1]), ("o0", "o1"), names[minus])
        out = apply_beam_splitter(s, bs)
        expected = splitter_unitary(n, i0, i1, minus) @ dense(s)
        assert out.register.names == tuple(
            {i0: "o0", i1: "o1"}.get(i, name) for i, name in enumerate(names)
        )
        assert np.max(np.abs(dense(out) - expected)) <= TOL

    @EXAMPLES
    @given(states(), st.data(), st.sampled_from(sorted(CLASSES)))
    def test_qnd_is_a_projector_per_class(self, s, data, theta):
        n = len(s.register)
        slots = data.draw(st.lists(st.sampled_from(range(n)), min_size=1, max_size=3, unique=True))
        probe = QndConfig(tuple(s.register.names[i] for i in slots), theta)
        found = {o.outcome_class: (o.probability, o.post_state) for o in qnd_measure(s, probe)}
        vec = dense(s)
        model = {
            frozenset(cls): project(vec, n, lambda o: sum(o[i] for i in slots) in cls)
            for cls in CLASSES[theta]
        }
        assert_same_branches(found, model)
        for o in found.values():
            assert o[1].register == s.register

    @EXAMPLES
    @given(states(min_modes=3), st.data())
    def test_detection_projects_and_drops_the_detectors(self, s, data):
        n = len(s.register)
        slots = data.draw(st.lists(st.sampled_from(range(n)), min_size=1, max_size=n - 1, unique=True))
        det = tuple(s.register.names[i] for i in slots)
        outcomes = detect_single_photon(s, det)
        vec = dense(s)
        model = {}
        for pattern in itertools.product(range(CUTOFF + 1), repeat=len(slots)):
            match = lambda o: tuple(o[i] for i in slots) == pattern  # noqa: E731
            prob, post = project(vec, n, match)
            model[pattern] = prob, drop(post, n, slots)
        assert_same_branches({o.pattern: (o.probability, o.post_state) for o in outcomes}, model)
        for o in outcomes:
            fired = [det[k] for k, c in enumerate(o.pattern) if c == 1]
            assert o.fired == (fired[0] if sum(o.pattern) == 1 else None)
            assert o.flagged == (sum(o.pattern) >= 2)
            assert o.post_state.register.names == tuple(
                name for i, name in enumerate(s.register.names) if i not in slots
            )


def pair_vector(p, q):
    """Dense joint state of two pairs over (p.a, p.b, q.a, q.b)."""
    index = {o: i for i, o in enumerate(basis(4))}
    vec = np.zeros(len(index), dtype=complex)
    for (x, cx), (y, cy) in itertools.product(
        (((1, 0), p.alpha), ((0, 1), p.beta)), (((1, 0), q.alpha), ((0, 1), q.beta))
    ):
        vec[index[x + y]] = complex(cx) * complex(cy)
    return vec


def click_branches(vec, detectors):
    """Detector patterns on slots ``detectors`` of a four-mode vector."""
    out = {}
    for pattern in itertools.product(range(CUTOFF + 1), repeat=2):
        match = lambda o: (o[detectors[0]], o[detectors[1]]) == pattern  # noqa: E731
        prob, post = project(vec, 4, match)
        out[pattern] = prob, drop(post, 4, detectors)
    return out


class TestProtocols:
    @EXAMPLES
    @given(alpha_sq, st.floats(min_value=-math.pi, max_value=math.pi), alpha_sq)
    def test_swap_branches(self, x, theta, y):
        p = make_pair(x, theta, "a", "b")
        q = make_pair(y, -theta / 3, "c", "d")
        # b and c meet, c on the minus input; D1 replaces b, D2 replaces c
        mixed = splitter_unitary(4, 1, 2, 2) @ pair_vector(p, q)
        labels = {(1, 0): "D1", (0, 1): "D2", (0, 0): "no-click"}
        model = {
            labels.get(k, "multi-click:%d,%d" % k): v
            for k, v in click_branches(mixed, (1, 2)).items()
        }
        found = {r.herald.events[0].outcome: (r.probability, r.state) for r in swap(p, q)}
        assert_same_branches(found, model)

    @EXAMPLES
    @given(alpha_sq, st.floats(min_value=-math.pi, max_value=math.pi), st.sampled_from(sorted(CLASSES)))
    def test_concentration_branches(self, x, theta, qnd_theta):
        p1, p2 = make_pair(x, theta, "a1", "b1"), make_pair(x, theta, "a2", "b2")
        vec = pair_vector(p1, p2)
        model = {}
        for cls in CLASSES[qnd_theta]:
            prob, post = project(vec, 4, lambda o: o[1] + o[3] in cls)
            label = "|".join(map(str, sorted(cls)))
            if cls != {1}:
                model[(label,)] = prob, post
                continue
            # a2 and b2 meet, a2 on the minus input; D1 is a2's port, D2 b2's
            mixed = splitter_unitary(4, 2, 3, 2) @ post
            for pattern, detector in (((1, 0), "D1"), ((0, 1), "D2")):
                click, after = click_branches(mixed, (2, 3))[pattern]
                if detector == "D2":  # the recorded sign flip on b1
                    after = after * np.array([(-1) ** o[1] for o in basis(2)])
                model[(label, detector)] = prob * click, after
        found = {}
        for r in concentration_round(p1, p2, qnd_theta):
            key = tuple(e.outcome for e in r.herald.events)
            found[key] = r.probability, r.corrected_state()
            assert (r.tag is Tag.SUCCESS) == (len(key) == 2)
        assert_same_branches(found, model)
