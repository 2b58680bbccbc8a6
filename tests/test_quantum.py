import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from bsmoduli import (
    KAPPA_QM,
    HermitianObservable,
    StateVector,
    bracket_commutator_check,
    decompose_inner,
    exact_flow,
    expectation,
    hamilton_identity_residual,
    measure_kappa,
    projective_critical_check,
    schrodinger_field,
    schrodinger_flow_rk4,
)


def random_hermitian(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianObservable((raw + raw.conj().T) / 2)


def random_state(rng, n, hbar=1.0):
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StateVector(raw / np.linalg.norm(raw), hbar=hbar)


class TestDecomposition:
    def test_basis_vector(self):
        e1 = StateVector([1, 0])
        assert decompose_inner(e1, e1) == pytest.approx((2.0, 0.0))

    def test_phase_rotated(self):
        e1 = StateVector([1, 0])
        ie1 = StateVector([1j, 0])
        assert decompose_inner(e1, ie1) == pytest.approx((0.0, 2.0))

    def test_symmetry_structure(self, rng):
        for _ in range(10):
            a = random_state(rng, 5)
            b = random_state(rng, 5)
            g_ab, om_ab = decompose_inner(a, b)
            g_ba, om_ba = decompose_inner(b, a)
            assert g_ab == pytest.approx(g_ba, abs=1e-13)
            assert om_ab == pytest.approx(-om_ba, abs=1e-13)

    def test_reconstructs_inner_product(self, rng):
        hbar = 0.5
        a = random_state(rng, 4, hbar)
        b = random_state(rng, 4, hbar)
        g, om = decompose_inner(a, b)
        reconstructed = g / (2 * hbar) + 1j * om / (2 * hbar)
        assert reconstructed == pytest.approx(np.vdot(a.amplitudes, b.amplitudes), abs=1e-15)

    def test_positive_metric(self, rng):
        psi = random_state(rng, 6)
        g, om = decompose_inner(psi, psi)
        assert g > 0
        assert om == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decompose_inner(StateVector([1, 0]), StateVector([1, 0, 0]))


class TestSchrodingerField:
    def test_identity_operator(self):
        op = HermitianObservable(np.eye(2))
        psi = StateVector([1, 0])
        assert np.allclose(schrodinger_field(op, psi), [-1j, 0])

    def test_zero_operator(self):
        op = HermitianObservable(np.zeros((3, 3)))
        psi = StateVector([1, 0, 0])
        assert np.allclose(schrodinger_field(op, psi), 0)

    def test_hbar_scaling(self, rng):
        op = random_hermitian(rng, 3)
        vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y1 = schrodinger_field(op, StateVector(vec, hbar=1.0))
        y2 = schrodinger_field(op, StateVector(vec, hbar=2.0))
        assert np.allclose(y1, 2 * y2, atol=1e-14)

    def test_flow_matches_matrix_exponential(self, rng):
        op = HermitianObservable(np.diag([1.0, -0.5, 2.5, 0.25]))
        psi = random_state(rng, 4)
        approx = schrodinger_flow_rk4(op, psi, 1.0, 1e-3)
        exact = exact_flow(op, psi, 1.0)
        assert np.max(np.abs(approx.amplitudes - exact.amplitudes)) < 1e-8

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    @pytest.mark.parametrize("hbar", [1.0, 0.3])
    def test_exact_flow_matches_expm_oracle(self, rng, n, hbar):
        op = random_hermitian(rng, n)
        psi = random_state(rng, n, hbar=hbar)
        for t in (0.1, 1.0, 2.7):
            oracle = scipy.linalg.expm(-1j * t / hbar * op.matrix) @ psi.amplitudes
            exact = exact_flow(op, psi, t)
            assert np.max(np.abs(exact.amplitudes - oracle)) <= 1e-13
            assert exact.hbar == hbar

    def test_norm_conservation(self, rng):
        op = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        out = schrodinger_flow_rk4(op, psi, 1.0, 1e-3)
        assert abs(out.norm() - 1.0) < 1e-9

    def test_energy_conservation(self, rng):
        op = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        out = schrodinger_flow_rk4(op, psi, 1.0, 1e-3)
        assert abs(expectation(op, out) - expectation(op, psi)) < 1e-9


class TestExpectation:
    def test_identity(self, rng):
        psi = random_state(rng, 4)
        assert expectation(HermitianObservable(np.eye(4)), psi) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_on_basis_vector(self):
        op = HermitianObservable(np.diag([3.0, 5.0]))
        assert expectation(op, StateVector([0, 1])) == pytest.approx(5.0)

    def test_real_valued(self, rng):
        op = random_hermitian(rng, 5)
        psi = random_state(rng, 5)
        raw = np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes)
        assert abs(raw.imag) < 1e-13

    def test_metric_expression_agrees(self, rng):
        # <Psi, F Psi> equals G(Psi, F Psi) / (2 hbar) for any hbar
        hbar = 1.7
        op = random_hermitian(rng, 4)
        psi = random_state(rng, 4, hbar)
        fpsi = StateVector(op.matrix @ psi.amplitudes, hbar=hbar)
        g, _ = decompose_inner(psi, fpsi)
        assert expectation(op, psi) == pytest.approx(g / (2 * hbar), abs=1e-13)


class TestHamiltonIdentity:
    def test_zero_probe(self, rng):
        op = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        assert hamilton_identity_residual(op, psi, np.zeros(4, dtype=complex)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_identity_operator(self, rng):
        op = HermitianObservable(np.eye(4))
        psi = random_state(rng, 4)
        probe = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert hamilton_identity_residual(op, psi, probe) == pytest.approx(0.0, abs=1e-10)

    def test_random_instance_below_floor(self, rng):
        # expectation is quadratic: the central difference is exact, so the
        # residual is at the roundoff floor for every step; halving cannot
        # increase it above the floor
        op = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        probe = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        residuals = [
            abs(hamilton_identity_residual(op, psi, probe, fd_step=step))
            for step in (1e-4, 5e-5)
        ]
        floor = 1e-9
        ratio_ok = residuals[0] >= (1.9**2) * residuals[1]
        assert ratio_ok or all(r < floor for r in residuals)


class TestProjectiveCriticalPoints:
    def test_diagonal_eigenvector(self):
        op = HermitianObservable(np.diag([1.0, 2.0]))
        res, verr = projective_critical_check(op, np.array([1.0, 0.0], dtype=complex), 1.0)
        assert res < 1e-12
        assert verr < 1e-12

    def test_numerical_eigenpairs(self, rng):
        op = random_hermitian(rng, 6)
        vals, vecs = np.linalg.eigh(op.matrix)
        for k in range(6):
            res, verr = projective_critical_check(op, vecs[:, k], vals[k])
            assert res < 1e-10
            assert verr < 1e-10

    def test_generic_vector_not_critical(self, rng):
        op = random_hermitian(rng, 5)
        psi = random_state(rng, 5)
        res, _ = projective_critical_check(op, psi.amplitudes, 0.0)
        assert res > 1e-3

    def test_phase_direction_ignored(self, rng):
        op = random_hermitian(rng, 4)
        vals, vecs = np.linalg.eigh(op.matrix)
        rotated = np.exp(1j * 0.7) * vecs[:, 2]
        res, verr = projective_critical_check(op, rotated, vals[2])
        assert res < 1e-10
        assert verr < 1e-10

    def test_non_unit_rejected(self, rng):
        op = random_hermitian(rng, 3)
        with pytest.raises(ValueError):
            projective_critical_check(op, np.array([2.0, 0, 0], dtype=complex), 1.0)


class TestBracketCommutator:
    def test_commuting_diagonals(self, rng):
        a = HermitianObservable(np.diag([1.0, 2.0, 3.0]))
        b = HermitianObservable(np.diag([-1.0, 0.5, 2.0]))
        psi = random_state(rng, 3)
        lhs, rhs = bracket_commutator_check(a, b, psi)
        assert lhs == pytest.approx(0.0, abs=1e-13)
        assert rhs == pytest.approx(0.0, abs=1e-13)

    def test_self_bracket(self, rng):
        op = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        lhs, rhs = bracket_commutator_check(op, op, psi)
        assert lhs == pytest.approx(0.0, abs=1e-13)
        assert rhs == pytest.approx(0.0, abs=1e-13)

    def test_pauli_algebra_oracle(self, rng):
        # [sx, sy] = 2i sz, so the commutator route gives 2<sz> at hbar = 1
        sx = HermitianObservable([[0, 1], [1, 0]])
        sy = HermitianObservable([[0, -1j], [1j, 0]])
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        psi = random_state(rng, 2)
        lhs, rhs = bracket_commutator_check(sx, sy, psi)
        oracle = 2.0 * float(np.vdot(psi.amplitudes, sz @ psi.amplitudes).real)
        assert rhs == pytest.approx(oracle, abs=1e-13)
        assert lhs == pytest.approx(KAPPA_QM * rhs, abs=1e-12)

    def test_proportionality_constant_stable(self):
        mean, deviation = measure_kappa(n=4, instances=100, seed=11)
        assert mean == pytest.approx(KAPPA_QM, abs=1e-12)
        assert deviation / abs(mean) < 1e-10

    def test_constant_independent_of_hbar(self):
        mean_1, _ = measure_kappa(n=3, instances=20, seed=2, hbar=1.0)
        mean_2, _ = measure_kappa(n=3, instances=20, seed=2, hbar=0.25)
        assert mean_1 == pytest.approx(mean_2, abs=1e-12)


class TestValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            HermitianObservable([[0.0, 1.0], [0.0, 0.0]])

    def test_non_finite_state_rejected(self):
        with pytest.raises(ValueError):
            StateVector([np.nan, 0.0])

    def test_bad_hbar_rejected(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 0.0], hbar=0.0)


def test_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import bsmoduli, sys; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
