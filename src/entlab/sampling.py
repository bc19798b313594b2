"""Seeded random instances for property suites and experiments.

All samplers take a numpy Generator so suites are reproducible from one seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .qmath import DensityMatrix, PureBipartiteState


def _complex_gaussian(gen: np.random.Generator, *shape) -> np.ndarray:
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def random_spectrum(gen: np.random.Generator, dim: int) -> np.ndarray:
    """Normalized squared row norms of a Gaussian matrix, sorted nonincreasing.

    Full rank with probability 1 and reproducible, which is all the suites need.
    """
    g = _complex_gaussian(gen, dim, dim)
    lam = (np.abs(g) ** 2).sum(axis=1)
    lam = np.sort(lam)[::-1]
    return lam / lam.sum()


def random_density(gen: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    r = dim if rank is None else rank
    if not 1 <= r <= dim:
        raise ValidationError("rank out of range")
    g = _complex_gaussian(gen, dim, r)
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_pure(gen: np.random.Generator, dim: int) -> np.ndarray:
    v = _complex_gaussian(gen, dim)
    return v / np.linalg.norm(v)


def random_bipartite_pure(gen: np.random.Generator, dim_a: int, dim_b: int) -> PureBipartiteState:
    return PureBipartiteState(dim_a, dim_b, random_pure(gen, dim_a * dim_b))


def random_unitary(gen: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_gaussian(gen, dim, dim))
    # fix the QR phase ambiguity so the distribution is Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_near_product(gen: np.random.Generator, dim_a: int, dim_b: int, t: float):
    """A state sqrt(1-t^2) (phi x gamma0) + t * (orthogonal term), plus phi."""
    if not 0.0 <= t < 1.0:
        raise ValidationError("t must be in [0, 1)")
    phi = random_pure(gen, dim_a)
    gamma0 = random_pure(gen, dim_b)
    base = np.kron(phi, gamma0)
    chi = random_pure(gen, dim_a * dim_b)
    chi = chi - np.vdot(base, chi) * base
    nrm = np.linalg.norm(chi)
    if nrm < 1e-9:
        # astronomically unlikely; resample deterministically
        chi = random_pure(gen, dim_a * dim_b)
        chi = chi - np.vdot(base, chi) * base
        nrm = np.linalg.norm(chi)
    chi /= nrm
    amp = np.sqrt(1.0 - t * t) * base + t * chi
    amp /= np.linalg.norm(amp)
    return PureBipartiteState(dim_a, dim_b, amp), phi
