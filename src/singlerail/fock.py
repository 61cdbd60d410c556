"""Sparse state-vector algebra for a handful of bosonic modes.

Every state handled by this package lives in the low-excitation sector of
a small multimode Fock space: at most a couple of photons spread over a
dozen modes or fewer.  A state is therefore stored as a sparse map from
occupation vectors to complex amplitudes rather than as a dense tensor.

Conventions enforced here:

* the register fixes mode order, names and the total photon-number cutoff
  (default 2); pushing a state past the cutoff raises ``CapacityError``
  instead of truncating, which catches protocol wiring bugs early;
* states are immutable, every operation returns a new ``FockState``;
* creation operators follow the usual ladder normalization,
  ``a^dag |n> = sqrt(n+1) |n+1>``, and do not renormalize the state;
* global phase is never canonicalized automatically, comparisons go
  through ``fidelity`` which is phase-insensitive.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

from .errors import CapacityError, ConfigError, DegenerateStateError, RegisterError

#: absolute tolerance for "this vector has unit norm"
NORM_TOL = 1e-12
#: amplitudes below this modulus are round-off dust and are dropped
DEFAULT_PRUNE_TOL = 1e-15
#: total photon number allowed in a register unless configured otherwise
DEFAULT_CUTOFF = 2

#: modes are addressed by name; the register maps names to vector slots
ModeId = str

Occupation = tuple[int, ...]


class ModeRegister:
    """Ordered set of named modes sharing a total photon-number cutoff.

    The position of a name in ``names`` is its slot in every occupation
    vector of states built on this register; the name/index mapping is a
    bijection and never changes after construction.
    """

    __slots__ = ("names", "cutoff", "_index")

    def __init__(self, names: Iterable[ModeId], cutoff: int = DEFAULT_CUTOFF):
        names = tuple(names)
        if not names:
            raise ConfigError("a mode register needs at least one mode")
        if len(set(names)) != len(names):
            raise RegisterError(f"duplicate mode names in {names!r}")
        if int(cutoff) < 1:
            raise ConfigError(f"photon cutoff must be positive, got {cutoff}")
        self.names = names
        self.cutoff = int(cutoff)
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name: ModeId) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RegisterError(
                f"mode {name!r} is not in register {self.names!r}"
            ) from None

    def indices(self, names: Iterable[ModeId]) -> tuple[int, ...]:
        return tuple(self.index(n) for n in names)

    def same_modes(self, other: "ModeRegister") -> bool:
        """True when both registers hold the same mode names (any order)."""
        return set(self.names) == set(other.names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModeRegister):
            return NotImplemented
        return self.names == other.names and self.cutoff == other.cutoff

    def __hash__(self) -> int:
        return hash((self.names, self.cutoff))

    def __repr__(self) -> str:
        return f"ModeRegister({', '.join(self.names)}; cutoff={self.cutoff})"


class FockState:
    """Immutable sparse superposition of occupation-number kets.

    ``terms`` maps occupation vectors (one entry per register mode) to
    complex amplitudes.  Construction validates shape, cutoff and
    finiteness and prunes amplitudes below ``DEFAULT_PRUNE_TOL``; it does
    not normalize, since intermediate vectors (e.g. after a creation
    operator) are legitimately unnormalized.
    """

    __slots__ = ("register", "terms")

    def __init__(self, register: ModeRegister, terms: Mapping[Occupation, complex]):
        width = len(register)
        kept: dict[Occupation, complex] = {}
        for occ, amp in terms.items():
            occ = tuple(int(n) for n in occ)
            if len(occ) != width:
                raise RegisterError(
                    f"occupation {occ!r} does not fit register {register!r}"
                )
            if any(n < 0 for n in occ):
                raise ConfigError(f"negative occupation in {occ!r}")
            if sum(occ) > register.cutoff:
                raise CapacityError(
                    f"occupation {occ!r} exceeds cutoff {register.cutoff}"
                )
            amp = complex(amp)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ConfigError(f"non-finite amplitude for {occ!r}: {amp!r}")
            if abs(amp) >= DEFAULT_PRUNE_TOL:
                kept[occ] = amp
        self.register = register
        self.terms = kept

    # -- elementary queries ------------------------------------------------

    def amplitude(self, occupation: Occupation) -> complex:
        return self.terms.get(tuple(occupation), 0j)

    def norm_sq(self) -> float:
        return math.fsum(abs(a) ** 2 for a in self.terms.values())

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
            if sum(occ) + 1 > self.register.cutoff:
                raise CapacityError(
                    f"creation on {mode!r} would exceed cutoff "
                    f"{self.register.cutoff} from {occ!r}"
                )
            lifted = occ[:i] + (occ[i] + 1,) + occ[i + 1:]
            out[lifted] = amp * math.sqrt(occ[i] + 1)
        return FockState(self.register, out)

    # -- normalization and composition --------------------------------------

    def normalize(self) -> "FockState":
        n = self.norm()
        if n < NORM_TOL:
            raise DegenerateStateError("cannot normalize a (numerically) zero vector")
        return FockState(
            self.register, {occ: amp / n for occ, amp in self.terms.items()}
        )

    def tensor(self, other: "FockState") -> "FockState":
        """Product state on the concatenated register.

        Mode names must be disjoint; the combined cutoff is the larger of
        the two operands' cutoffs.
        """
        overlap = set(self.register.names) & set(other.register.names)
        if overlap:
            raise RegisterError(f"tensor operands share mode names {sorted(overlap)!r}")
        cutoff = max(self.register.cutoff, other.register.cutoff)
        reg = ModeRegister(self.register.names + other.register.names, cutoff)
        out: dict[Occupation, complex] = {}
        for occ_l, amp_l in self.terms.items():
            for occ_r, amp_r in other.terms.items():
                out[occ_l + occ_r] = amp_l * amp_r
        return FockState(reg, out)

    # -- measurement-style operations ---------------------------------------

    def project(
        self, predicate: Callable[[Occupation], bool]
    ) -> tuple[float, "FockState | None"]:
        """Project onto the span of kets whose occupation satisfies ``predicate``.

        Returns ``(probability, renormalized state)``.  A zero-probability
        projection returns ``(0.0, None)`` rather than raising: impossible
        outcomes are data, not errors.
        """
        selected = {occ: amp for occ, amp in self.terms.items() if predicate(occ)}
        prob = math.fsum(abs(a) ** 2 for a in selected.values())
        if prob <= 0.0 or not selected:
            return 0.0, None
        scale = 1.0 / math.sqrt(prob)
        post = FockState(
            self.register, {occ: amp * scale for occ, amp in selected.items()}
        )
        return prob, post

    def project_count(
        self, modes: Iterable[ModeId], counts: int | Iterable[int]
    ) -> tuple[float, "FockState | None"]:
        """Project on 'total photons over ``modes`` lies in ``counts``'."""
        idxs = self.register.indices(modes)
        allowed = {counts} if isinstance(counts, int) else set(counts)
        return self.project(lambda occ: sum(occ[i] for i in idxs) in allowed)

    # -- comparisons ---------------------------------------------------------

    def align_to(self, register: ModeRegister) -> "FockState":
        """Express this state over ``register``'s mode order (same name set)."""
        if register == self.register:
            return self
        if not self.register.same_modes(register):
            raise RegisterError(
                f"register mismatch: {self.register!r} vs {register!r}"
            )
        perm = self.register.indices(register.names)
        out = {
            tuple(occ[p] for p in perm): amp for occ, amp in self.terms.items()
        }
        return FockState(register, out)

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

    def relabel(self, mapping: Mapping[ModeId, ModeId]) -> "FockState":
        """Rename modes in place; ``mapping`` must stay a bijection.

        Keys not present in the register are rejected; names missing from
        the mapping keep their old label.  Amplitudes are untouched.
        """
        for old in mapping:
            self.register.index(old)  # raises RegisterError on unknown names
        new_names = tuple(mapping.get(n, n) for n in self.register.names)
        if len(set(new_names)) != len(new_names):
            raise RegisterError(f"relabeling {mapping!r} is not a bijection")
        reg = ModeRegister(new_names, self.register.cutoff)
        return FockState(reg, dict(self.terms))

    def without_modes(self, modes: Iterable[ModeId]) -> "FockState":
        """Drop modes that sit in one definite Fock level across all terms.

        Used after a projective measurement left those modes in a product
        state; amplitudes carry over unchanged.
        """
        drop = set(self.register.indices(modes))
        if len(drop) >= len(self.register):
            raise ConfigError("cannot drop every mode of a register")
        levels = {
            tuple(occ[i] for i in sorted(drop)) for occ in self.terms
        }
        if len(levels) > 1:
            raise RegisterError(
                "modes are entangled with the rest of the register; "
                f"occupations seen: {sorted(levels)!r}"
            )
        keep = [i for i in range(len(self.register)) if i not in drop]
        reg = ModeRegister(
            tuple(self.register.names[i] for i in keep), self.register.cutoff
        )
        out = {
            tuple(occ[i] for i in keep): amp for occ, amp in self.terms.items()
        }
        return FockState(reg, out)


# -- constructors ------------------------------------------------------------


def vacuum(register: ModeRegister) -> FockState:
    """The zero-photon state |0...0> of ``register``."""
    return FockState(register, {(0,) * len(register): 1.0 + 0j})


def basis_state(register: ModeRegister, occupation: Occupation) -> FockState:
    """A single occupation-number ket with unit amplitude."""
    return FockState(register, {tuple(occupation): 1.0 + 0j})


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
        aligned = state.align_to(base)
        for occ, amp in aligned.terms.items():
            combined[occ] = combined.get(occ, 0j) + complex(coeff) * amp
    raw = FockState(base, combined)
    if raw.norm() < NORM_TOL:
        raise DegenerateStateError("superposition cancelled to (numerical) zero")
    return raw.normalize()
