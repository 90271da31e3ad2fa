import numpy as np
import pytest

from qutrit_parity.core import (
    ENTRY_TOL,
    DensityMatrix,
    NonUnitaryError,
    NormalizationError,
    Operator3,
    QutritState,
    apply_unitary,
    check_density,
    check_unitary,
    dagger,
    equal_up_to_global_phase,
    rotate,
    state_to_row,
)
from qutrit_parity.permutations import NAMED_MAPS, fourier, unitary_of

W = np.exp(2j * np.pi / 3)


def haar_unitary(rng):
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng):
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    return QutritState(a / np.linalg.norm(a))


class TestApplyUnitary:
    def test_identity_on_minus1(self):
        s = apply_unitary(QutritState.ket(-1), Operator3(np.eye(3)))
        assert np.allclose(s.amplitudes, [0, 0, 1])
        with pytest.raises(TypeError, match="cannot apply a unitary to object"):
            apply_unitary(object(), np.eye(3))

    def test_fourier_on_minus1_gives_superposition(self):
        s = apply_unitary(QutritState.ket(-1), fourier(3))
        expected = np.array([1, W.conjugate(), W]) / np.sqrt(3)
        assert np.allclose(s.amplitudes, expected, atol=1e-12)

    def test_u2_roundtrip_on_random_states(self):
        rng = np.random.default_rng(7)
        u2 = unitary_of(NAMED_MAPS["f2"]).entries
        for _ in range(20):
            s = random_state(rng)
            back = apply_unitary(apply_unitary(s, u2), u2.conj().T)
            assert np.allclose(back.amplitudes, s.amplitudes, atol=1e-12)

    def test_nonunitary_rejected_with_deviation(self):
        bad = np.eye(3) * 1.5
        with pytest.raises(NonUnitaryError) as exc:
            apply_unitary(QutritState.ket(0), bad)
        assert exc.value.max_deviation == pytest.approx(1.25)
        assert "1.25" in str(exc.value)

    def test_density_matrix_conjugation(self):
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
        u4 = unitary_of(NAMED_MAPS["f4"]).entries
        out = apply_unitary(rho, u4)
        assert np.allclose(out.populations(), [0, 1, 0])
        assert out.kind == "true-state"
        # rotate takes a stack row by row, bit for bit, with one u or a u per row
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 3, 3)) + 1j * rng.normal(size=(8, 3, 3))
        h = a + dagger(a)
        rhos = h - np.trace(h, axis1=1, axis2=2)[:, None, None] / 3 * np.eye(3)
        us = np.array([haar_unitary(rng) for _ in rhos])
        for u in (us[0], us):
            out = rotate(u, rhos)
            for r, m in enumerate(rhos):
                row_u = u if u.ndim == 2 else u[r]
                want = apply_unitary(DensityMatrix(m, "deviation"), row_u).entries
                assert np.array_equal(out[r], want)


class TestEqualUpToGlobalPhase:
    def test_phase_tagged_ket(self):
        a = QutritState.ket(0)
        b = QutritState(np.exp(-2j * np.pi / 3) * a.amplitudes)
        same, phase = equal_up_to_global_phase(a, b)
        assert same
        assert phase == pytest.approx(-2 * np.pi / 3, abs=1e-12)

    def test_orthogonal_states_differ(self):
        same, phase = equal_up_to_global_phase(QutritState.ket(0), QutritState.ket(-1))
        assert not same and phase is None

    def test_fourier_column_with_scalar(self):
        # oracle: the phase of c*psi against psi is arg(c), by direct inner product
        psi = QutritState(fourier(3) @ QutritState.ket(-1).amplitudes)
        scaled = QutritState(np.exp(-2j * np.pi / 3) * psi.amplitudes)
        same, phase = equal_up_to_global_phase(psi, scaled)
        assert same
        assert phase == pytest.approx(-2 * np.pi / 3, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            QutritState([1.0, 1.0, 0.0])

    def test_reflexive_symmetric_scalar_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = random_state(rng), random_state(rng)
            sa, _ = equal_up_to_global_phase(a, a)
            assert sa
            ab, _ = equal_up_to_global_phase(a, b)
            ba, _ = equal_up_to_global_phase(b, a)
            assert ab == ba
            c = QutritState(np.exp(1j * rng.uniform(0, 2 * np.pi)) * b.amplitudes)
            ac, _ = equal_up_to_global_phase(a, c)
            assert ab == ac


class TestDagger:
    def test_identity(self):
        assert np.array_equal(dagger(np.eye(3)), np.eye(3))

    def test_fourier_is_symmetric(self):
        f = fourier(3)
        assert np.allclose(dagger(f), f.conj(), atol=0)  # F symmetric, so F^dag = F*

    def test_u4_self_adjoint(self):
        u4 = unitary_of(NAMED_MAPS["f4"]).entries
        assert np.array_equal(dagger(u4), u4)

    def test_involution(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(dagger(dagger(m)), m)

    def test_stack_is_taken_matrix_by_matrix(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        assert np.array_equal(dagger(m), np.array([row.conj().T for row in m]))


class TestInvariants:
    def test_printed_unitaries_and_fourier_are_unitary(self):
        for name, p in NAMED_MAPS.items():
            u = unitary_of(p).entries
            assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-10, name
        f = fourier(3)
        assert np.max(np.abs(f @ f.conj().T - np.eye(3))) < 1e-10

    def test_norm_preserved_on_1000_haar_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            s = apply_unitary(random_state(rng), haar_unitary(rng))
            assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1) < 1e-12

    def test_fourier_inverse_restores_random_states(self):
        rng = np.random.default_rng(5)
        f = fourier(3)
        for _ in range(50):
            s = random_state(rng)
            back = f.conj().T @ (f @ s.amplitudes)
            assert np.allclose(back, s.amplitudes, atol=1e-12)


class TestDensityMatrix:
    def test_true_state_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.0, 1.0, 0.0]))

    def test_deviation_trace_zero_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.0, 0.0, 0.0]), "deviation")
        DensityMatrix(np.diag([1.0, 0.0, -1.0]), "deviation")  # ok
        with pytest.raises(ValueError, match="deviation trace is"):
            DensityMatrix(np.diag([2 * ENTRY_TOL, 0.0, 0.0]), "deviation")
        DensityMatrix(np.diag([0.5 * ENTRY_TOL, 0.0, 0.0]), "deviation")  # within the tolerance
        with pytest.raises(ValueError, match="kind must be one of"):
            DensityMatrix(np.diag([1.0, 0.0, -1.0]), "bogus")

    def test_negative_eigenvalue_rejected_for_true_state(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, 0.0, -0.5]))

    def test_hermiticity_enforced(self):
        m = np.zeros((3, 3), complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            DensityMatrix(m, "deviation")


class TestStackChecks:
    """check_density and check_unitary reject a stack if any matrix fails."""

    def test_one_bad_row_fails_the_stack(self):
        good = np.tile(np.diag([1.0, 0.0, -1.0]).astype(complex), (5, 1, 1))
        check_density(good, "deviation")
        bad = good.copy()
        bad[3, 0, 0] = 2.0
        with pytest.raises(ValueError, match=r"deviation trace is \(1\+0j\)"):
            check_density(bad, "deviation")
        bad = good.copy()
        bad[4, 0, 1] = 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density(bad, "deviation")

    def test_unitary_stack(self):
        rng = np.random.default_rng(5)
        us = np.array([haar_unitary(rng) for _ in range(4)])
        check_unitary(us)
        us[2] *= 1.0 + 1e-6
        with pytest.raises(NonUnitaryError):
            check_unitary(us)


class TestNaNRejected:
    """Every check is written "not dev <= tol", so NaN fails it."""

    NAN = np.full((3, 3), np.nan)

    def test_density_matrix(self):
        for kind in DensityMatrix.KINDS:
            with pytest.raises(ValueError, match="not Hermitian"):
                DensityMatrix(self.NAN, kind)

    def test_operator_unitary_and_hermitian(self):
        with pytest.raises(NonUnitaryError):
            Operator3(self.NAN)

    def test_apply_unitary(self):
        with pytest.raises(NonUnitaryError):
            apply_unitary(QutritState.ket(1), self.NAN)

    def test_state_norm(self):
        with pytest.raises(NormalizationError):
            QutritState([np.nan, 0.0, 0.0])


class TestSerialization:
    def test_state_roundtrip(self):
        rng = np.random.default_rng(9)
        s = random_state(rng)
        back = QutritState([complex(re, im) for re, im in state_to_row(s)])
        assert np.array_equal(back.amplitudes, s.amplitudes)
