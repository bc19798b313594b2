"""Seeded random states and unitaries for random protocol programs.

All samplers take a numpy Generator so programs are reproducible from one seed.
"""

from __future__ import annotations

import numpy as np


def _complex_gaussian(gen: np.random.Generator, *shape) -> np.ndarray:
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def random_pure(gen: np.random.Generator, dim: int) -> np.ndarray:
    v = _complex_gaussian(gen, dim)
    return v / np.linalg.norm(v)


def random_unitary(gen: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_gaussian(gen, dim, dim))
    # fix the QR phase ambiguity so the distribution is Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))
