"""Finite-dimensional geometric quantum mechanics, used as a cross-check model.

A complex state space C^n is treated as a real symplectic/Riemannian space
via the decomposition of the Hermitian inner product (conjugate-linear in
the first slot, a convention fixed here once):

    <Phi, Psi> = G(Phi, Psi) / (2 hbar) + i * Omega(Phi, Psi) / (2 hbar).

Observable operators induce vector fields Y_F(Psi) = -(i/hbar) F Psi and
expectation functions F(Psi) = <Psi, F Psi>; the Schrodinger flow is the
Hamiltonian flow of the energy expectation, and the symplectic bracket of
two expectation functions is the expectation of the scaled commutator.  The
proportionality constant KAPPA_QM is measured (it is exactly 1 under the
conventions above) and frozen.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import _step_count

KAPPA_QM = 1.0

HERMITIAN_TOL = 1e-13


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes plus the scale constant hbar."""

    amplitudes: np.ndarray
    hbar: float = 1.0

    def __init__(self, amplitudes, hbar=1.0):
        amplitudes = np.ascontiguousarray(amplitudes, dtype=complex)
        if amplitudes.ndim != 1:
            raise ValueError("state amplitudes must be a 1D array")
        if not (np.all(np.isfinite(amplitudes.real)) and np.all(np.isfinite(amplitudes.imag))):
            raise ValueError("state amplitudes must be finite")
        if not 0.0 < hbar < np.inf:
            raise ValueError("hbar must be finite and positive")
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "hbar", float(hbar))

    @property
    def n(self):
        return self.amplitudes.shape[0]

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class HermitianObservable:
    """Self-adjoint operator; hermiticity is validated entrywise."""

    matrix: np.ndarray

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("observable must be a square matrix")
        if np.max(np.abs(matrix - matrix.conj().T)) > HERMITIAN_TOL:
            raise ValueError("matrix is not hermitian to 1e-13")
        object.__setattr__(self, "matrix", matrix)

    @property
    def n(self):
        return self.matrix.shape[0]


def _inner(phi, psi):
    return np.vdot(phi, psi)


def decompose_inner(phi, psi):
    """Split the Hermitian inner product into (G, Omega) real parts."""
    if phi.n != psi.n:
        raise ValueError("state dimensions differ")
    if phi.hbar != psi.hbar:
        raise ValueError("states carry different hbar")
    val = _inner(phi.amplitudes, psi.amplitudes)
    return 2.0 * phi.hbar * val.real, 2.0 * phi.hbar * val.imag


def symplectic_pairing(a, b, hbar=1.0):
    """Omega(a, b) = 2 hbar Im<a, b> on raw complex vectors."""
    return 2.0 * hbar * _inner(a, b).imag


def schrodinger_field(op, psi):
    """Y_F(Psi) = -(i/hbar) F Psi, the generator of the Schrodinger flow."""
    return -1j / psi.hbar * (op.matrix @ psi.amplitudes)


def expectation(op, psi):
    """<Psi, F Psi>, a real number for hermitian F."""
    return float(_inner(psi.amplitudes, op.matrix @ psi.amplitudes).real)


def hamilton_identity_residual(op, psi, probe, fd_step=1e-5):
    """Omega(Y_F(Psi), probe) minus the central difference of the expectation.

    The expectation is quadratic, so the central difference is exact up to
    roundoff; the residual sits at the floor for any reasonable step.
    """
    probe = np.asarray(probe, dtype=complex)
    lhs = symplectic_pairing(schrodinger_field(op, psi), probe, psi.hbar)
    fplus = _inner(psi.amplitudes + fd_step * probe, op.matrix @ (psi.amplitudes + fd_step * probe)).real
    fminus = _inner(psi.amplitudes - fd_step * probe, op.matrix @ (psi.amplitudes - fd_step * probe)).real
    return lhs - (fplus - fminus) / (2.0 * fd_step)


def projective_critical_check(op, eigvec, eigval):
    """Criticality residual of the expectation at a putative eigenpair.

    Returns the norm of the gradient component tangent to the unit sphere
    and orthogonal to the phase direction i*Psi, plus the deviation of the
    expectation from the claimed eigenvalue.
    """
    vec = np.asarray(eigvec, dtype=complex)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise ValueError("eigvec must be normalized to the constraint sphere")
    grad = 2.0 * (op.matrix @ vec)

    def real_dot(a, b):
        return _inner(a, b).real

    residual = grad - real_dot(vec, grad) * vec - real_dot(1j * vec, grad) * (1j * vec)
    psi = StateVector(vec)
    return float(np.linalg.norm(residual)), abs(expectation(op, psi) - float(eigval))


def bracket_commutator_check(op_f, op_k, psi):
    """Symplectic bracket of two expectation functions vs the commutator route.

    lhs = Omega(Y_F(Psi), Y_K(Psi)); rhs = expectation of (FK - KF)/(i hbar).
    The two agree up to the measured constant KAPPA_QM.
    """
    yf = schrodinger_field(op_f, psi)
    yk = schrodinger_field(op_k, psi)
    lhs = symplectic_pairing(yf, yk, psi.hbar)
    comm = (op_f.matrix @ op_k.matrix - op_k.matrix @ op_f.matrix) / (1j * psi.hbar)
    rhs = float(_inner(psi.amplitudes, comm @ psi.amplitudes).real)
    return lhs, rhs


def measure_kappa(n=4, instances=100, seed=0, hbar=1.0):
    """Ratio lhs/rhs over random instances; returns (mean, max deviation).

    Needs n >= 2, as observables of dimension 1 commute and give no ratio,
    and at least one instance.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    rng = np.random.default_rng(seed)
    ratios = []
    while len(ratios) < instances:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        op_f = HermitianObservable((a + a.conj().T) / 2)
        op_k = HermitianObservable((b + b.conj().T) / 2)
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi = StateVector(raw / np.linalg.norm(raw), hbar=hbar)
        lhs, rhs = bracket_commutator_check(op_f, op_k, psi)
        if abs(rhs) < 1e-6:
            continue
        ratios.append(lhs / rhs)
    ratios = np.array(ratios)
    mean = float(np.mean(ratios))
    return mean, float(np.max(np.abs(ratios - mean)))


def schrodinger_flow_rk4(op, psi, t_final, h):
    """Classical RK4 integration of the Schrodinger field; negative h integrates backwards.

    The step count is the flows' rule: steps of length |h| to reach |t_final|.
    """
    state = psi.amplitudes.copy()
    steps = _step_count(t_final, h)
    mat = -1j / psi.hbar * op.matrix

    def rhs(v):
        return mat @ v

    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return StateVector(state, hbar=psi.hbar)


def exact_flow(op, psi, t_final):
    """Exact propagation exp(-i F t / hbar) Psi in the eigenbasis F = V diag(lam) V^H."""
    lam, vecs = np.linalg.eigh(op.matrix)
    phases = np.exp(-1j * t_final / psi.hbar * lam)
    return StateVector(vecs @ (phases * (vecs.conj().T @ psi.amplitudes)), hbar=psi.hbar)
