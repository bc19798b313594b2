"""Dense finite-dimensional state calculus.

Distances, fidelity, Schmidt profiles, partial traces, and the
nearest-product-extension construction for almost-pure reduced states.
Pure states stay amplitude vectors until an operation needs a density matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tolerances import EQUALITY_TOL, PROFILE_SUM_TOL, RANK_REL_TOL, VALIDITY_TOL


def _sym(a: np.ndarray) -> np.ndarray:
    # eigensolves get a symmetrized input to suppress roundoff asymmetry
    return (a + a.conj().T) / 2.0


def _as_complex(a) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValidationError("non-finite entries")
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator."""

    mat: np.ndarray

    def __post_init__(self):
        m = _as_complex(self.mat)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("density matrix must be square")
        mh = m.conj().T
        if np.abs(m - mh).max() > VALIDITY_TOL:
            raise ValidationError("density matrix not Hermitian within tolerance")
        m = (m + mh) / 2.0  # _sym(m), reusing mh
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > VALIDITY_TOL:
            raise ValidationError(f"trace {tr} not 1 within tolerance")
        # m + (tol/2) I factors only if every eigenvalue exceeds -tol/2 up to
        # roundoff far below tol/2, which the eigenvalue rule accepts too; only
        # a failed factorization needs the eigenvalues to decide
        shifted = m.copy()
        shifted.flat[:: m.shape[0] + 1] += VALIDITY_TOL / 2.0
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            w = np.linalg.eigvalsh(m)
            if w.min() < -VALIDITY_TOL:
                raise ValidationError(f"negative eigenvalue {w.min()}") from None
        object.__setattr__(self, "mat", m)
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sorted nonincreasing, clamped at 0."""
        w = np.linalg.eigvalsh(self.mat)[::-1]
        return np.clip(w, 0.0, None)


@dataclass(frozen=True)
class PureBipartiteState:
    """Amplitude vector on H_A x H_B, unit norm, row-major (A index major)."""

    dim_a: int
    dim_b: int
    amp: np.ndarray

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValidationError("dimensions must be positive")
        v = _as_complex(self.amp).reshape(-1)
        if v.size != self.dim_a * self.dim_b:
            raise ValidationError("amplitude length does not match dim_a*dim_b")
        n2 = float(np.vdot(v, v).real)
        if abs(n2 - 1.0) > VALIDITY_TOL:
            raise ValidationError(f"squared norm {n2} not 1 within tolerance")
        object.__setattr__(self, "amp", v)
        v.setflags(write=False)

    def as_matrix(self) -> np.ndarray:
        """dim_a x dim_b coefficient matrix F with amp = vec(F)."""
        return self.amp.reshape(self.dim_a, self.dim_b)


@dataclass(frozen=True)
class SchmidtProfile:
    """Nonincreasing squared Schmidt coefficients summing to 1."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size == 0:
            raise ValidationError("empty profile")
        if p.min() < -PROFILE_SUM_TOL:
            raise ValidationError("negative probability")
        if np.any(np.diff(p) > PROFILE_SUM_TOL):
            raise ValidationError("profile must be nonincreasing")
        s = float(p.sum())
        if abs(s - 1.0) > PROFILE_SUM_TOL * max(1, p.size):
            raise ValidationError(f"profile sums to {s}")
        p = np.clip(p, 0.0, None)
        object.__setattr__(self, "probs", p)
        p.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.probs.size)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr|rho - sigma|, in [0, 2]."""
    if rho.dim != sigma.dim:
        raise ValidationError("dimension mismatch")
    # stored matrices are exactly Hermitian, and so is their difference
    w = np.linalg.eigvalsh(rho.mat - sigma.mat)
    return float(np.abs(w).sum())


def marginal_trace_distance(psi: PureBipartiteState, phi: PureBipartiteState) -> float:
    """Tr|Tr_B psi - Tr_B phi| from one QR [F_psi, F_phi] = Q [R_psi, R_phi]: the
    difference is Q (R_psi R_psi^dagger - R_phi R_phi^dagger) Q^dagger."""
    if psi.dim_a != phi.dim_a:
        raise ValidationError("dimension mismatch")
    fa, fb = psi.as_matrix(), phi.as_matrix()
    if np.array_equal(fa, fb):
        return 0.0
    r = np.linalg.qr(np.concatenate((fa, fb), axis=1), mode="r")
    ra, rb = r[:, : psi.dim_b], r[:, psi.dim_b :]
    # eigvalsh reads one triangle, so roundoff asymmetry needs no _sym
    return float(np.abs(np.linalg.eigvalsh(ra @ ra.conj().T - rb @ rb.conj().T)).sum())


def operator_norm(a) -> float:
    """Largest singular value; of a stack of matrices, the largest of any."""
    arr = _as_complex(a)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False).max())


def partial_trace(state, traced: str, dims: tuple[int, int] | None = None) -> DensityMatrix:
    """Trace out subsystem "A" or "B"."""
    if traced not in ("A", "B"):
        raise ValidationError('traced must be "A" or "B"')
    if isinstance(state, PureBipartiteState):
        f = state.as_matrix()
        if traced == "B":
            red = f @ f.conj().T
        else:
            red = f.T @ f.conj()
        return DensityMatrix(red)
    if isinstance(state, DensityMatrix):
        if dims is None:
            raise ValidationError("dims required for a DensityMatrix input")
        da, db = dims
        if da * db != state.dim:
            raise ValidationError("dims do not factor the total dimension")
        t = state.mat.reshape(da, db, da, db)
        if traced == "B":
            red = np.einsum("ijkj->ik", t)
        else:
            red = np.einsum("ijil->jl", t)
        return DensityMatrix(red)
    raise ValidationError("unsupported state type")


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(_sym(mat))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho0: DensityMatrix, rho1: DensityMatrix) -> float:
    """Tr sqrt(sqrt(rho0) rho1 sqrt(rho0)), eigenvalues clamped at 0."""
    if rho0.dim != rho1.dim:
        raise ValidationError("dimension mismatch")
    r = psd_sqrt(rho0.mat)
    w = np.linalg.eigvalsh(_sym(r @ rho1.mat @ r))
    w = np.clip(w, 0.0, None)
    return float(np.sqrt(w).sum())


def epsilon_rank(rho: DensityMatrix, tol: float = RANK_REL_TOL) -> int:
    """Count of eigenvalues above tol times the largest eigenvalue."""
    if tol < 0:
        raise ValidationError("tol must be nonnegative")
    w = rho.eigenvalues()
    if w.size == 0 or w[0] == 0.0:
        return 0
    return int(np.count_nonzero(w > tol * w[0]))


@dataclass(frozen=True)
class ProductExtension:
    """Best product approximation phi x gamma of psi, given phi on A.

    eps_in is the trace distance between psi's A-marginal and phi.
    Two candidate bounds on the product distance are recorded: the linear
    2*eps_in, and 2*sqrt(eps_in - eps_in^2/4) which follows from the
    fidelity-distance inequality plus purification matching.
    """

    gamma: np.ndarray
    distance: float
    eps_in: float
    overlap: float
    bound_linear: float
    holds_linear: bool
    bound_sqrt: float
    holds_sqrt: bool


def nearest_product_extension(psi: PureBipartiteState, phi) -> ProductExtension:
    """gamma maximizing |<psi|(phi x gamma)>| and the resulting distance.

    gamma is the normalized partial inner product <phi|psi>. Raises when the
    hypothesis is vacuous (eps_in >= 2) or the partial inner product vanishes.
    """
    phi_v = _as_complex(phi).reshape(-1)
    if phi_v.size != psi.dim_a:
        raise ValidationError("phi dimension mismatch")
    n2 = float(np.vdot(phi_v, phi_v).real)
    if abs(n2 - 1.0) > VALIDITY_TOL:
        raise ValidationError("phi must be a unit vector")

    rho_a = partial_trace(psi, "B")
    eps_in = trace_distance(rho_a, DensityMatrix(np.outer(phi_v, phi_v.conj())))
    if eps_in >= 2.0 - 1e-12:
        raise ValidationError("hypothesis vacuous: marginal orthogonal to phi")

    f = psi.as_matrix()
    gamma_raw = f.T @ phi_v.conj()
    overlap = float(np.linalg.norm(gamma_raw))
    if overlap < 1e-12:
        raise ValidationError("zero partial inner product")
    gamma = gamma_raw / overlap

    # pure-pure distance 2 sqrt(1 - |<psi|phi gamma>|^2); the overlap above
    # is exactly |<psi|(phi x gamma)>| by construction
    distance = 2.0 * math.sqrt(max(0.0, 1.0 - overlap * overlap))
    bound_linear = 2.0 * eps_in
    bound_sqrt = 2.0 * math.sqrt(max(0.0, eps_in - eps_in * eps_in / 4.0))
    return ProductExtension(
        gamma=gamma,
        distance=distance,
        eps_in=eps_in,
        overlap=overlap,
        bound_linear=bound_linear,
        holds_linear=distance < bound_linear + EQUALITY_TOL,
        bound_sqrt=bound_sqrt,
        holds_sqrt=distance <= bound_sqrt + EQUALITY_TOL,
    )
