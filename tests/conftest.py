"""Shared helpers: random state generation within the photon-number budget."""

import itertools
import math

import numpy as np
import pytest

from singlerail import FockState, ModeRegister, SingleRailPair

#: scales applied to a normalized random state: none, unnormalized,
#: subnormal amplitudes (their squares underflow to 0), and the smallest
#: subnormal, where products and interference underflow to exact zeros
SCALES = (1.0, 37.5, 3e-310, 5e-324)


def all_occupations(n_modes: int, cutoff: int):
    """Every occupation vector with total photon number <= cutoff."""
    return [
        occ
        for occ in itertools.product(range(cutoff + 1), repeat=n_modes)
        if sum(occ) <= cutoff
    ]


def random_state(rng: np.random.Generator, register: ModeRegister) -> FockState:
    """Dense random complex amplitudes over the allowed occupations, normalized."""
    occs = all_occupations(len(register), register.cutoff)
    amps = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
    return FockState(register, dict(zip(occs, amps))).normalize()


def make_pair(alpha_sq: float, theta: float = 0.0, mode_a: str = "a", mode_b: str = "b") -> SingleRailPair:
    alpha = math.sqrt(alpha_sq)
    beta = math.sqrt(1.0 - alpha_sq) * complex(math.cos(theta), math.sin(theta))
    return SingleRailPair.from_coefficients(alpha, beta, mode_a=mode_a, mode_b=mode_b)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
