"""Sparse state-vector algebra for a handful of bosonic modes.

Every state handled by this package lives in the low-excitation sector of
a small multimode Fock space: at most a couple of photons spread over a
dozen modes or fewer.  A state is therefore stored as a sparse map from
occupation vectors to complex amplitudes rather than as a dense tensor.

Conventions enforced here:

* the register fixes mode order, names and the total photon-number cutoff
  (default 2, at most ``MAX_CUTOFF`` = 32); pushing a state past the
  cutoff raises ``CapacityError`` instead of truncating, which catches
  protocol wiring bugs early;
* states are immutable, every operation returns a new ``FockState``;
* creation operators follow the usual ladder normalization,
  ``a^dag |n> = sqrt(n+1) |n+1>``, and do not renormalize the state;
* global phase is never canonicalized automatically, comparisons go
  through ``fidelity`` which is phase-insensitive;
* only exact zeros are dropped, so a walk follows the exact weights down
  to underflow; a QND or projective readout is one ``partition`` pass;
* public input is validated once: ``FockState(register, terms)`` checks
  every ket, ``create``'s and ``tensor``'s too; other results come from
  the trusted ``FockState._of``: finite amplitudes, exact zeros dropped.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import operator
from collections.abc import Callable, Hashable, Iterable, Mapping

from .errors import CapacityError, ConfigError, DegenerateStateError, RegisterError

#: absolute tolerance for "this vector has unit norm"
NORM_TOL = 1e-12
#: total photon number allowed in a register unless configured otherwise
DEFAULT_CUTOFF = 2
#: entries per plan cache; a swap chain or a sweep reuses one register per cache
PLAN_CACHE_SIZE = 128

# -- limits: the cap of every public count, read through ``_count(most=...)``
#: photon cutoff: the beam splitter keeps every ket of up to 32 photons
#: within 1e-14 of unit norm, and passes NORM_TOL from 71 photons on
MAX_CUTOFF = 32
#: rounds of the closed form and of the walk: past 1024 the closed form's
#: divisor 2.0 ** (n - 1) overflows
MAX_ROUNDS = 1024
#: rounds of the exact oracle (a ``CapacityError``): 2**n source pairs feed round n
MAX_ORACLE_ROUNDS = 16
#: bits of the ``Fraction`` oracle's numbers, its start weight's times 2**n:
#: alpha_sq 1e-300 over 10 rounds, the largest, takes about 5.5 s (2-vCPU Xeon)
MAX_ORACLE_BITS = 1103 * 2**10
#: swap-chain depth: every swap adds a table row; 10**5 swaps take about
#: 1.5 s per alpha_sq point, JSON table and reference included (2-vCPU Xeon)
MAX_SWAP_DEPTH = 10**5
#: Monte Carlo trials: 2**30 draws take seconds, and larger counts
#: overflow numpy's samplers or run for hours
MAX_TRIALS = 2**30

#: modes are addressed by name; the register maps names to vector slots
ModeId = str

Occupation = tuple[int, ...]
Grouping = Callable[[Occupation], Hashable]


def _count(value: object, what: str, least: int = 1, most: int | None = None) -> int:
    """An exact integer in ``[least, most]`` read through ``operator.index``;
    bools are refused."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ConfigError(f"{what} must be an integer, got {_shown(value)}")
    n = operator.index(value)
    if n < least or most is not None and n > most:
        bound = f">= {least}" if n < least else f"<= {most}"
        raise ConfigError(f"{what} must be {bound}, got {_shown(n)}")
    return n


def _real(value: object, what: str, low=None, high=None) -> float:
    """A finite ``float`` read from a ``numbers.Real``; bools are refused.
    With ``low`` and ``high`` it must lie in the open interval (low, high)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an integer past the float range
        x = math.inf
    if low is not None and not low < x < high:
        rule = f"lie in ({low}, {high})"
    elif low is None and not math.isfinite(x):
        rule = "be finite" if real else "be a real number"
    else:
        return x
    raise ConfigError(f"{what} must {rule}, got {_shown(value)}")


def _amplitude(value: object, what: str) -> complex:
    """A ``complex`` read from a ``numbers.Complex``; bools, strings and
    values past the float range are refused.  Finiteness is left to the
    rule that owns it."""
    if type(value) is complex:
        return value
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        try:
            return complex(value)
        except OverflowError:
            pass
    raise ConfigError(f"{what} must be a complex float, got {_shown(value)}")


def _names(value: object, what: str) -> tuple:
    """A tuple of mode names, each a ``str``, read from an iterable; a bare
    ``str``, which would read as one name per character, is refused."""
    if isinstance(value, str) or not hasattr(type(value), "__iter__"):
        raise ConfigError(
            f"{what} must be a sequence of mode names, got {_shown(value)}"
        )
    names = tuple(value)
    for name in names:
        if not isinstance(name, str):
            raise ConfigError(f"{what} must be str mode names, got {_shown(name)}")
    return names


def _occupation(value: object) -> Occupation:
    """An occupation read from an iterable of counts, each through ``_count``."""
    if not hasattr(type(value), "__iter__"):
        raise ConfigError(
            f"occupation must be a sequence of counts, got {_shown(value)}"
        )
    return tuple(_count(n, "occupation", 0) for n in value)


def _shown(value: object) -> str:
    """``repr(value)``; an integer ``str`` refuses shows its sign and rough
    length instead, also inside a tuple, and another such value its type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, tuple):
            return f"({', '.join(map(_shown, value))}{',' * (len(value) == 1)})"
        if not isinstance(value, int):
            return f"a {type(value).__name__} too long to show"
        sign, digits = "negative" if value < 0 else "positive", value.bit_length()
        return f"a {sign} integer of ~{round(digits * math.log10(2))} digits"


def _weight(amps: Iterable[complex]) -> float:
    """``math.fsum`` of |a|**2; an overflowing square is a ``ConfigError``."""
    try:
        return math.fsum(abs(a) ** 2 for a in amps)
    except OverflowError:
        raise ConfigError("|amplitude| past ~1.34e154: its square overflows") from None


def _unit(amps: Iterable[complex]) -> tuple[float, list]:
    """The weight of ``amps`` and, when it is positive, ``amps`` at unit
    norm; a non-finite amplitude is a ``ConfigError``."""
    prob = _weight(amps)
    if not math.isfinite(prob):
        raise ConfigError(f"non-finite amplitude: the weight reads {prob!r}")
    if prob > 0.0:
        scale = 1.0 / math.sqrt(prob)
        amps = [a * scale for a in amps]
    return prob, amps


def _nonzero(keys, amps) -> tuple:
    """Kets held as keys and amplitudes (tuples, or a dict's views), exact
    zeros dropped; a non-finite amplitude is a ``ConfigError``."""
    if not all(amps):
        keys = tuple(k for k, a in zip(keys, amps) if a)
        amps = tuple(filter(None, amps))
    if not all(map(cmath.isfinite, amps)):
        occ, amp = next((o, a) for o, a in zip(keys, amps) if not cmath.isfinite(a))
        raise ConfigError(f"non-finite amplitude for {occ!r}: {amp!r}")
    return keys, amps


class ModeRegister:
    """Ordered set of named modes sharing a total photon-number cutoff.

    The position of a name in ``names`` is its slot in every occupation
    vector of states built on this register; the name/index mapping is a
    bijection and never changes after construction.
    """

    __slots__ = ("names", "cutoff", "_index", "_hash")

    def __init__(self, names: Iterable[ModeId], cutoff: int = DEFAULT_CUTOFF):
        names = _names(names, "register modes")
        if not names:
            raise ConfigError("a mode register needs at least one mode")
        if len(set(names)) != len(names):
            raise RegisterError(f"duplicate mode names in {names!r}")
        cutoff = _count(cutoff, "photon cutoff", most=MAX_CUTOFF)
        self.names = names
        self.cutoff = cutoff
        self._index = {name: i for i, name in enumerate(names)}
        self._hash = hash((names, cutoff))

    def index(self, name: ModeId) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RegisterError(
                f"mode {name!r} is not in register {self.names!r}"
            ) from None

    def indices(self, names: Iterable[ModeId]) -> tuple[int, ...]:
        return tuple(self.index(n) for n in _names(names, "indexed modes"))

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModeRegister):
            return NotImplemented
        return self.names == other.names and self.cutoff == other.cutoff

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ModeRegister({', '.join(self.names)}; cutoff={self.cutoff})"


class FockState:
    """Immutable sparse superposition of occupation-number kets.

    ``terms`` maps occupation vectors (one entry per register mode) to
    complex amplitudes.  Construction validates shape, cutoff and
    finiteness and drops exact zeros only; it does not normalize, since
    intermediate vectors (e.g. after a creation operator) are
    legitimately unnormalized.  Occupations are read with
    ``operator.index`` (no bools, no two keys naming one occupation);
    most operation results skip these checks through ``_of``.  Norms and
    readouts square amplitudes: past |amplitude| ~ 1.34e154, whose square
    is the largest float, they raise ``ConfigError``.
    """

    __slots__ = ("register", "terms")

    def __init__(self, register: ModeRegister, terms: Mapping[Occupation, complex]):
        if not isinstance(terms, Mapping):
            raise ConfigError(f"terms must be a Mapping, got {_shown(terms)}")
        width = len(register)
        checked: dict[Occupation, complex] = {}
        for occ, amp in terms.items():
            occ = _occupation(occ)
            if len(occ) != width:
                raise RegisterError(
                    f"occupation {_shown(occ)} does not fit register {register!r}"
                )
            if sum(occ) > register.cutoff:
                raise CapacityError(
                    f"occupation {_shown(occ)} exceeds cutoff {register.cutoff}"
                )
            if occ in checked:
                raise ConfigError(f"two keys name occupation {_shown(occ)}")
            checked[occ] = _amplitude(amp, "amplitude")
        self.register = register
        self.terms = dict(zip(*_nonzero(checked.keys(), checked.values())))

    @classmethod
    def _of(cls, register: ModeRegister, terms: Mapping[Occupation, complex]):
        """Trusted constructor for operation results: occupations unchecked;
        ``terms`` becomes the state's own dict when it holds no zero."""
        state = object.__new__(cls)
        keys, amps = _nonzero(terms.keys(), terms.values())
        state.register = register
        state.terms = terms if len(keys) == len(terms) else dict(zip(keys, amps))
        return state

    # -- elementary queries ------------------------------------------------

    def amplitude(self, occupation: Occupation) -> complex:
        return self.terms.get(_occupation(occupation), 0j)

    def norm_sq(self) -> float:
        return _weight(self.terms.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def __len__(self) -> int:
        return len(self.terms)

    def serialize(self) -> list[tuple[Occupation, float, float]]:
        """Debug form: (occupation, re, im) triples in lexicographic order."""
        return [
            (occ, amp.real, amp.imag)
            for occ, amp in sorted(self.terms.items(), key=lambda kv: kv[0])
        ]

    def __repr__(self) -> str:
        # keep repr compact: show up to four leading terms
        shown = self.serialize()[:4]
        parts = [f"({re:+.4g}{im:+.4g}j)|{','.join(map(str, occ))}>" for occ, re, im in shown]
        more = "" if len(self.terms) <= 4 else f" ... ({len(self.terms)} terms)"
        return f"FockState[{' + '.join(parts) or '0'}{more}]"

    # -- ladder operators --------------------------------------------------

    def create(self, mode: ModeId) -> "FockState":
        """Apply the creation operator of ``mode``; not renormalized."""
        i = self.register.index(mode)
        out: dict[Occupation, complex] = {}
        for occ, amp in self.terms.items():
            lifted = occ[:i] + (occ[i] + 1,) + occ[i + 1:]
            out[lifted] = amp * math.sqrt(occ[i] + 1)
        return FockState(self.register, out)

    # -- normalization and composition --------------------------------------

    def normalize(self) -> "FockState":
        n = self.norm()
        if n < NORM_TOL:
            raise DegenerateStateError("cannot normalize a (numerically) zero vector")
        return FockState._of(self.register, {o: a / n for o, a in self.terms.items()})

    def tensor(self, other: "FockState") -> "FockState":
        """Product state on the concatenated register.

        Mode names must be disjoint; the combined cutoff is the larger of
        the two operands' cutoffs, which the validating constructor enforces.
        """
        cutoff = max(self.register.cutoff, other.register.cutoff)
        reg = ModeRegister(self.register.names + other.register.names, cutoff)
        pairs = itertools.product(self.terms.items(), other.terms.items())
        return FockState(reg, {o1 + o2: a1 * a2 for (o1, a1), (o2, a2) in pairs})

    # -- measurement-style operations ---------------------------------------

    def partition(self, key: Grouping) -> dict[Hashable, tuple[float, "FockState"]]:
        """Group kets by ``key(occupation)`` in one pass, one readout, each
        group renormalized by ``_unit``: ``{key: (probability, renormalized
        state)}`` in order of first appearance, zero-probability groups left
        out since impossible outcomes are data, not errors.  Post-states keep
        every mode.
        """
        groups: dict[Hashable, dict[Occupation, complex]] = {}
        for occ, amp in self.terms.items():
            groups.setdefault(key(occ), {})[occ] = amp
        seen = {}
        for k, kets in groups.items():
            prob, amps = _unit(kets.values())
            if prob > 0.0:
                seen[k] = prob, FockState._of(self.register, dict(zip(kets, amps)))
        return seen

    def project(
        self, predicate: Callable[[Occupation], bool]
    ) -> tuple[float, "FockState | None"]:
        """Project onto the kets whose occupation satisfies ``predicate``.

        Returns ``(probability, renormalized state)``, or ``(0.0, None)``
        for a zero-probability projection.
        """
        return self.partition(lambda occ: bool(predicate(occ))).get(True, (0.0, None))

    # -- comparisons ---------------------------------------------------------

    def align_to(self, register: ModeRegister) -> "FockState":
        """Express this state over ``register``'s mode order (same name set)."""
        if register == self.register:
            return self
        if set(self.register.names) != set(register.names):
            raise RegisterError(
                f"register mismatch: {self.register!r} vs {register!r}"
            )
        perm = self.register.indices(register.names)
        out = {
            tuple(occ[p] for p in perm): amp for occ, amp in self.terms.items()
        }
        trusted = register.cutoff >= self.register.cutoff  # a lower one may not hold
        return (FockState._of if trusted else FockState)(register, out)

    def overlap(self, other: "FockState") -> complex:
        """Inner product <other|self>; registers must hold the same modes."""
        aligned = other.align_to(self.register)
        return sum(
            amp * aligned.terms[occ].conjugate()
            for occ, amp in self.terms.items()
            if occ in aligned.terms
        )

    def fidelity(self, target: "FockState") -> float:
        """|<target|self>|^2, symmetric and insensitive to global phase."""
        return abs(self.overlap(target)) ** 2

    # -- register surgery -----------------------------------------------------

    def without_modes(self, modes: Iterable[ModeId]) -> "FockState":
        """Drop modes that sit in one definite Fock level across all terms.

        Used after a projective measurement left those modes in a product
        state; amplitudes carry over unchanged.
        """
        drop = _names(modes, "dropped modes")
        register, level, kept = _readout_plan(self.register, drop)
        levels = set(map(level, self.terms))
        if len(levels) > 1:
            raise RegisterError(
                "modes are entangled with the rest of the register; "
                f"occupations seen: {sorted(levels)!r}"
            )
        return FockState._of(register, {kept(o): a for o, a in self.terms.items()})


def _slots(idxs: tuple[int, ...]) -> Callable[[Occupation], Occupation]:
    """C-level getter of the slots ``idxs`` of an occupation, always a
    tuple; a contiguous run (one slot, or none) is read as a slice."""
    start = idxs[0] if idxs else 0
    if idxs == tuple(range(start, start + len(idxs))):
        return operator.itemgetter(slice(start, start + len(idxs)))
    return operator.itemgetter(*idxs)


def _readout_plan(register: ModeRegister, drop: tuple[ModeId, ...]) -> tuple:
    """The register without ``drop`` and slot getters of the dropped and
    of the kept modes."""
    dropped = register.indices(drop)
    if len(set(dropped)) >= len(register):
        raise ConfigError("cannot drop every mode of a register")
    keep = tuple(i for i in range(len(register)) if i not in dropped)
    kept_register = ModeRegister([register.names[i] for i in keep], register.cutoff)
    return kept_register, _slots(dropped), _slots(keep)


# -- constructors ------------------------------------------------------------


def vacuum(register: ModeRegister) -> FockState:
    """The zero-photon state |0...0> of ``register``."""
    return FockState(register, {(0,) * len(register): 1.0 + 0j})


def basis_state(register: ModeRegister, occupation: Occupation) -> FockState:
    """A single occupation-number ket with unit amplitude."""
    return FockState(register, {_occupation(occupation): 1.0 + 0j})


def single_photon(register: ModeRegister, mode: ModeId) -> FockState:
    """One photon in ``mode``, vacuum elsewhere."""
    return vacuum(register).create(mode)


def superpose(addends: Iterable[tuple[complex, FockState]]) -> FockState:
    """Normalized linear combination ``sum(c_i |s_i>)``.

    All states must share one mode-name set (orders may differ); an
    all-cancelling combination raises ``DegenerateStateError``.
    """
    addends = list(addends)
    if not addends:
        raise ConfigError("superpose needs at least one addend")
    base = addends[0][1].register
    combined: dict[Occupation, complex] = {}
    for coeff, state in addends:
        coeff = _amplitude(coeff, "superpose coefficient")
        for occ, amp in state.align_to(base).terms.items():
            combined[occ] = combined.get(occ, 0j) + coeff * amp
    return FockState(base, combined).normalize()
