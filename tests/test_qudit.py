import warnings

import numpy as np
import pytest

from oamtomo.qudit import (
    KrausChannel,
    apply_channel_kraus,
    canonical_input_states,
    depolarizing_channel,
    gell_mann_basis,
    identity_channel,
    matrix_sqrt_psd,
    phase_rotation_channel,
    process_fidelity,
    projector_of,
    pure_fidelity,
    state_fidelity,
    state_vector,
)
from oracles import apply_channel_chi, chi_from_kraus, random_cptp_channel, random_density_matrix

RT2 = np.sqrt(2.0)


def _random_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestGellMannBasis:
    def test_d3_matches_printed_operators(self):
        lam = gell_mann_basis(3)
        assert np.array_equal(lam[0], np.eye(3))
        assert np.array_equal(lam[1], [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert np.array_equal(lam[2], [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
        assert np.array_equal(lam[3], np.diag([1, -1, 0]))
        assert np.array_equal(lam[4], [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        assert np.array_equal(lam[5], [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]])
        assert np.array_equal(lam[6], [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert np.array_equal(lam[7], [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
        np.testing.assert_allclose(lam[8], np.diag([1, 1, -2]) / np.sqrt(3), atol=1e-15)

    def test_d2_is_identity_plus_paulis(self):
        lam = gell_mann_basis(2)
        assert np.array_equal(lam[0], np.eye(2))
        assert np.array_equal(lam[1], [[0, 1], [1, 0]])
        assert np.array_equal(lam[2], [[0, -1j], [1j, 0]])
        assert np.array_equal(lam[3], [[1, 0], [0, -1]])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthogonality_table(self, d):
        lam = gell_mann_basis(d)
        gram = np.einsum("mab,nba->mn", lam, lam)
        expected = np.diag([float(d)] + [2.0] * (d * d - 1))
        np.testing.assert_allclose(gram, expected, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hermitian(self, d):
        for op in gell_mann_basis(d):
            np.testing.assert_allclose(op, op.conj().T, atol=1e-15)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            gell_mann_basis(1)


class TestCanonicalStates:
    def test_printed_vectors(self):
        states = canonical_input_states()
        np.testing.assert_allclose(states[0], [1, 0, 0])
        np.testing.assert_allclose(states[3], np.array([1, 1, 0]) / RT2)
        np.testing.assert_allclose(states[5], np.array([1j, 1, 0]) / RT2)
        np.testing.assert_allclose(states[6], np.array([0, 1, 1j]) / RT2)
        np.testing.assert_allclose(states[8], np.array([1, 0, 1j]) / RT2)

    def test_all_normalized(self):
        states = canonical_input_states()
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-15)

    def test_overlap(self):
        states = canonical_input_states()
        assert abs(np.vdot(states[0], states[3])) ** 2 == pytest.approx(0.5, abs=1e-15)


class TestProjector:
    def test_basis_state(self):
        np.testing.assert_allclose(projector_of([1, 0, 0]), np.diag([1, 0, 0]))

    def test_balanced_superposition(self):
        proj = projector_of(np.array([1, 1, 0]) / RT2)
        np.testing.assert_allclose(
            proj, [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]], atol=1e-15
        )

    def test_phase_superposition(self):
        proj = projector_of(np.array([1, 0, 1j]) / RT2)
        assert proj[0, 2] == pytest.approx(-0.5j, abs=1e-15)
        assert proj[2, 0] == pytest.approx(0.5j, abs=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            projector_of([1, 1, 0])


class TestStateVector:
    def test_normalize_option(self):
        psi = state_vector([1, 1, 1], normalize=True)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("scale", [1e308, 1e-320])
    def test_normalizes_amplitudes_at_the_float_limits(self, scale):
        # the norm is taken after scaling by the largest modulus: no overflow
        # to an all-zero vector, no underflow to a division by a subnormal
        with np.errstate(all="raise"):
            psi = state_vector([scale, scale, 0], normalize=True)
        np.testing.assert_allclose(psi, np.array([1, 1, 0]) / np.sqrt(2), rtol=0, atol=1e-15)

    def test_rejects_qubit_of_one(self):
        with pytest.raises(ValueError):
            state_vector([1.0])


class TestKrausChannels:
    def test_identity_preserves(self):
        rho = random_density_matrix(3, np.random.default_rng(0))
        np.testing.assert_allclose(apply_channel_kraus(identity_channel(), rho), rho)

    def test_transfer_operator(self):
        transfer = np.zeros((3, 3), dtype=complex)
        transfer[1, 0] = 1.0  # |G><L|
        out = apply_channel_kraus(KrausChannel((transfer,)), projector_of([1, 0, 0]))
        np.testing.assert_allclose(out, np.diag([0, 1, 0]), atol=1e-15)

    def test_fully_depolarizing(self):
        out = apply_channel_kraus(depolarizing_channel(1.0), projector_of([1, 0, 0]))
        np.testing.assert_allclose(out, np.eye(3) / 3, atol=1e-14)

    def test_depolarizing_closed_form(self):
        # oracle: E(rho) = (1 - p) rho + p I/3
        rng = np.random.default_rng(11)
        rho = random_density_matrix(3, rng)
        for p in (0.0, 0.3, 0.8):
            out = apply_channel_kraus(depolarizing_channel(p), rho)
            np.testing.assert_allclose(out, (1 - p) * rho + p * np.eye(3) / 3, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel_kraus(identity_channel(), np.eye(2))

    # a channel is a qutrit channel: a scalar or a qubit operator is refused
    @pytest.mark.parametrize("op", [5, np.eye(2), np.eye(4), np.ones(3)])
    def test_rejects_operators_on_no_qutrit(self, op):
        with pytest.raises(ValueError, match="^expected 3 x 3 Kraus operators$"):
            KrausChannel((op,))
        with pytest.raises(ValueError, match="^expected 3 x 3 Kraus operators$"):
            KrausChannel((np.eye(3) / 2, op))

    def test_rejects_trace_increasing(self):
        with pytest.raises(ValueError):
            KrausChannel((np.eye(3) * 1.1,))

    # refused before numpy sees them: no RuntimeWarning, no LinAlgError
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build, message", [
        (lambda v: state_vector([v, 1, 0], normalize=True), "amplitudes must be finite"),
        (lambda v: state_vector([1, 0, 1j * v]), "amplitudes must be finite"),
        (lambda v: KrausChannel((np.diag([1, v, 0]),)), "kraus operators must be finite"),
        (lambda v: KrausChannel((np.eye(3) / 2, np.full((3, 3), v) / 2)),
         "kraus operators must be finite"),
        (phase_rotation_channel, "theta must be finite"),
    ])
    def test_rejects_non_finite(self, build, message, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}"):
                build(bad)

    # numpy's float conversion raises OverflowError for these, naming no argument
    @pytest.mark.parametrize("bad", [10**400, -10**400], ids=["1e400", "-1e400"])
    @pytest.mark.parametrize("build, message", [
        (lambda v: state_vector([v, 1, 0], normalize=True), "amplitudes must be finite"),
        (lambda v: state_vector([1, 0, v]), "amplitudes must be finite"),
        (lambda v: KrausChannel((np.diag([1, v, 0]),)), "kraus operators must be finite"),
        (lambda v: KrausChannel((np.eye(3) / 2, np.full((3, 3), v, dtype=object))),
         "kraus operators must be finite"),
        (phase_rotation_channel, "theta must be finite"),
    ])
    def test_rejects_ints_beyond_floats(self, build, message, bad):
        self.test_rejects_non_finite(build, message, bad)

    # complex, str, bool or None: refused naming theta, not by float() or np.exp
    @pytest.mark.parametrize("bad", [1j, 1 + 0j, "0.5", True, np.True_, None])
    def test_rejects_a_theta_that_is_no_real_number(self, bad):
        self.test_rejects_non_finite(phase_rotation_channel, "theta must be a real number", bad)

    @pytest.mark.parametrize("theta", [np.float32(0.5), np.float16(0.5), np.int64(1), 2])
    def test_accepts_numpy_real_scalars(self, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = phase_rotation_channel(theta).kraus[0]
        assert u[2, 2] == pytest.approx(np.exp(1j * float(theta)), abs=1e-6)

    def test_trace_preserved_for_cptp(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ch = random_cptp_channel(3, 3, rng)
            rho = random_density_matrix(3, rng)
            out = apply_channel_kraus(ch, rho)
            assert np.trace(out).real == pytest.approx(np.trace(rho).real, abs=1e-10)


class TestChiRepresentation:
    def setup_method(self):
        self.basis = gell_mann_basis(3)

    def test_identity_chi(self):
        chi = chi_from_kraus(identity_channel(), self.basis)
        expected = np.zeros((9, 9))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(chi, expected, atol=1e-15)

    def test_single_generator_chi(self):
        chi = chi_from_kraus(KrausChannel((self.basis[1],)), self.basis)
        expected = np.zeros((9, 9))
        expected[1, 1] = 1.0
        np.testing.assert_allclose(chi, expected, atol=1e-15)

    def test_chi_reproduces_kraus_action(self):
        # oracle: the Kraus form itself
        rng = np.random.default_rng(42)
        ch = random_cptp_channel(3, 3, rng)
        chi = chi_from_kraus(ch, self.basis)
        for _ in range(20):
            rho = random_density_matrix(3, rng)
            np.testing.assert_allclose(
                apply_channel_chi(chi, self.basis, rho),
                apply_channel_kraus(ch, rho),
                atol=1e-10,
            )

    def test_equivalence_over_random_channels(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            ch = random_cptp_channel(3, rng.integers(1, 5), rng)
            chi = chi_from_kraus(ch, self.basis)
            rho = random_density_matrix(3, rng)
            np.testing.assert_allclose(
                apply_channel_chi(chi, self.basis, rho),
                apply_channel_kraus(ch, rho),
                atol=1e-10,
            )

    def test_chi_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            chi = chi_from_kraus(random_cptp_channel(3, 4, rng), self.basis)
            assert np.linalg.eigvalsh(chi).min() >= -1e-10

    def test_chi_invariant_under_kraus_remixing(self):
        rng = np.random.default_rng(8)
        ch = random_cptp_channel(3, 3, rng)
        u = _random_unitary(3, rng)
        remixed = KrausChannel(
            tuple(sum(u[j, k] * ch.kraus[k] for k in range(3)) for j in range(3))
        )
        np.testing.assert_allclose(
            chi_from_kraus(ch, self.basis), chi_from_kraus(remixed, self.basis), atol=1e-10
        )

    def test_apply_chi_examples(self):
        e11 = np.zeros((9, 9))
        e11[0, 0] = 1.0
        rho = random_density_matrix(3, np.random.default_rng(1))
        np.testing.assert_allclose(apply_channel_chi(e11, self.basis, rho), rho, atol=1e-14)
        e22 = np.zeros((9, 9))
        e22[1, 1] = 1.0
        out = apply_channel_chi(e22, self.basis, projector_of([1, 0, 0]))
        np.testing.assert_allclose(out, np.diag([0, 1, 0]), atol=1e-15)

    def test_phase_flip_damps_coherence(self):
        # oracle: brute force from the Kraus form {sqrt(1-p) I, sqrt(p) diag(1,-1,0)}
        p = 0.3
        flip = KrausChannel(
            (np.sqrt(1 - p) * np.eye(3), np.sqrt(p) * np.diag([1.0, -1.0, 0.0]))
        )
        chi = chi_from_kraus(flip, self.basis)
        rho = projector_of(np.array([1, 1, 0]) / RT2)
        out = apply_channel_chi(chi, self.basis, rho)
        assert out[0, 1] == pytest.approx((1 - 2 * p) * 0.5, abs=1e-12)
        np.testing.assert_allclose(out, apply_channel_kraus(flip, rho), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            chi_from_kraus(KrausChannel((np.eye(2),)), self.basis)
        with pytest.raises(ValueError):
            apply_channel_chi(np.eye(4), self.basis, np.eye(3) / 3)


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            matrix_sqrt_psd(np.diag([4.0, 9.0, 16.0])), np.diag([2.0, 3.0, 4.0]), atol=1e-14
        )

    def test_square_returns_input(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = g @ g.conj().T
        s = matrix_sqrt_psd(h)
        np.testing.assert_allclose(s @ s, h, atol=1e-10)

    def test_idempotent_consistency(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = matrix_sqrt_psd(g @ g.conj().T)
        np.testing.assert_allclose(matrix_sqrt_psd(s @ s), s, atol=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.diag([1.0, -0.5]))


class TestStateFidelity:
    def test_self_fidelity(self):
        rho = random_density_matrix(3, np.random.default_rng(9))
        assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = projector_of([1, 0, 0])
        b = projector_of([0, 1, 0])
        assert state_fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        # Uhlmann reduces to <psi|rho|psi> when one argument is pure
        pure = projector_of(np.array([1, 1, 1]) / np.sqrt(3))
        assert state_fidelity(pure, np.eye(3) / 3) == pytest.approx(1 / 3, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = random_density_matrix(3, rng)
            b = random_density_matrix(3, rng)
            f_ab = state_fidelity(a, b)
            f_ba = state_fidelity(b, a)
            assert abs(f_ab - f_ba) < 1e-9
            assert -1e-9 <= f_ab <= 1 + 1e-9

    def test_rejects_far_from_unit_trace(self):
        with pytest.raises(ValueError):
            state_fidelity(np.eye(3), np.eye(3) / 3)

    def test_rejects_non_psd_second_argument(self):
        with pytest.raises(ValueError):
            state_fidelity(np.eye(3) / 3, np.diag([1.0, 0.5, -0.5]))


class TestProcessFidelity:
    def setup_method(self):
        self.basis = gell_mann_basis(3)
        self.ideal = np.zeros((9, 9), dtype=complex)
        self.ideal[0, 0] = 1.0

    def test_self_fidelity(self):
        assert process_fidelity(self.ideal, self.ideal) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_rank_one(self):
        other = np.zeros((9, 9))
        other[1, 1] = 1.0
        assert process_fidelity(self.ideal, other) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_eigendecomposition(self):
        # independent oracle: dense eigendecomposition of the fidelity formula
        def oracle(a, b):
            a = a / np.trace(a).real
            b = b / np.trace(b).real
            wa, va = np.linalg.eigh(a)
            sa = (va * np.sqrt(np.clip(wa, 0, None))) @ va.conj().T
            w = np.linalg.eigvalsh(sa @ b @ sa)
            return float(np.sqrt(np.clip(w, 0, None)).sum() ** 2)

        for p in (0.1, 0.25, 0.6):
            chi = chi_from_kraus(depolarizing_channel(p), self.basis)
            assert process_fidelity(chi, self.ideal) == pytest.approx(
                oracle(chi, self.ideal), abs=1e-10
            )

    def test_symmetric(self):
        chi = chi_from_kraus(depolarizing_channel(0.3), self.basis)
        f1 = process_fidelity(chi, self.ideal)
        f2 = process_fidelity(self.ideal, chi)
        assert abs(f1 - f2) < 1e-9

    def test_rejects_zero_trace(self):
        with pytest.raises(ValueError):
            process_fidelity(np.zeros((9, 9)), self.ideal)

    # process_fidelity against ideal storage is chi_00 / Tr chi in the
    # identity-plus-Gell-Mann basis (Tr I^2 = 3, Tr lambda^2 = 2).  For a
    # trace-preserving channel, Tr chi = (3 - F_e) / 2 with the entanglement
    # fidelity F_e = sum_k |Tr K_k|^2 / 9, so the fidelity is 2 F_e / (3 - F_e).
    @staticmethod
    def _entanglement_fidelity(channel):
        return sum(abs(np.trace(k)) ** 2 for k in channel.kraus) / 9

    def test_relation_to_entanglement_fidelity(self):
        rng = np.random.default_rng(31)
        for n_kraus in (1, 2, 3, 5, 9):
            for _ in range(4):
                ch = random_cptp_channel(3, n_kraus, rng)
                fe = self._entanglement_fidelity(ch)
                got = process_fidelity(chi_from_kraus(ch, self.basis), self.ideal)
                assert got == pytest.approx(2 * fe / (3 - fe), abs=1e-12)

    def test_demo_channel_conventions(self):
        ch = depolarizing_channel(0.1159305993690852)
        fe = self._entanglement_fidelity(ch)
        got = process_fidelity(chi_from_kraus(ch, self.basis), self.ideal)
        assert got == pytest.approx(2 * fe / (3 - fe), abs=1e-12)
        assert round(got, 3) == 0.853
        assert round(fe, 3) == 0.897
        assert round((3 * fe + 1) / 4, 3) == 0.923


def _random_rank_deficient_chi(rng, basis):
    """chi of a random channel with some eigenvalues below the largest squashed by 1e-10."""
    chi = chi_from_kraus(random_cptp_channel(3, int(rng.integers(1, 10)), rng), basis)
    w, v = np.linalg.eigh(chi)
    w = w * np.where((rng.random(9) < 0.5) & (np.arange(9) < 8), 1e-10, 1.0)
    return (v * w) @ v.conj().T


class TestExactFidelity:
    """Fidelities against a pure target or the rank-1 ideal chi are exact to rounding."""

    def test_pure_target_state_fidelity_is_expectation(self):
        rng = np.random.default_rng(41)
        for k in range(120):
            rho = random_density_matrix(3, rng) * rng.uniform(0.95, 1.05)
            if k % 2:  # rank-deficient: drop the smallest eigenvalue
                w, v = np.linalg.eigh(rho)
                rho = (v * np.where(np.arange(3) == 0, 0.0, w)) @ v.conj().T
                rho /= np.trace(rho).real
            t = state_vector(rng.standard_normal(3) + 1j * rng.standard_normal(3), True)
            expected = (t.conj() @ rho @ t).real / np.trace(rho).real
            assert state_fidelity(rho, projector_of(t)) == pytest.approx(expected, abs=1e-12)
            assert state_fidelity(projector_of(t), rho) == pytest.approx(expected, abs=1e-12)

    def test_ideal_process_fidelity_is_chi00_over_trace(self):
        rng = np.random.default_rng(42)
        basis = gell_mann_basis(3)
        ideal = np.zeros((9, 9), dtype=complex)
        ideal[0, 0] = 1.0
        for k in range(120):
            chi = (_random_rank_deficient_chi(rng, basis) if k % 2
                   else chi_from_kraus(random_cptp_channel(3, 1 + k % 9, rng), basis))
            expected = chi[0, 0].real / np.trace(chi).real
            assert process_fidelity(chi, ideal) == pytest.approx(expected, abs=1e-12)


class TestBatchedFidelity:
    def test_state_batch_equals_per_matrix_calls(self):
        rng = np.random.default_rng(43)
        rhos = np.stack([random_density_matrix(3, rng) for _ in range(20)])
        target = projector_of(canonical_input_states()[4])
        mixed = random_density_matrix(3, rng)
        for other in (target, mixed):
            got = state_fidelity(rhos, other)
            assert got.shape == (20,)
            expected = [state_fidelity(r, other) for r in rhos]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
            np.testing.assert_allclose(state_fidelity(other, rhos), expected, rtol=0, atol=1e-14)
        assert isinstance(state_fidelity(rhos[0], mixed), float)

    def test_process_batch_equals_per_matrix_calls(self):
        rng = np.random.default_rng(44)
        basis = gell_mann_basis(3)
        chis = np.stack([_random_rank_deficient_chi(rng, basis) for _ in range(20)])
        ideal = np.zeros((9, 9), dtype=complex)
        ideal[0, 0] = 1.0
        for other in (ideal, chis[0]):
            got = process_fidelity(chis, other)
            assert got.shape == (20,)
            expected = [process_fidelity(c, other) for c in chis]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    def test_matrix_sqrt_batch(self):
        rng = np.random.default_rng(45)
        hs = np.stack([random_density_matrix(3, rng) for _ in range(5)])
        s = matrix_sqrt_psd(hs)
        np.testing.assert_allclose(s, [matrix_sqrt_psd(h) for h in hs], rtol=0, atol=1e-14)
        np.testing.assert_allclose(s @ s, hs, atol=1e-12)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda r: r + np.diag([0.0, 0.0, 0.5]), "sample 3: density matrix trace"),
        (lambda r: r + np.triu(np.ones((3, 3)), 1) * 1e-3, "sample 3: matrix is not Hermitian"),
        (lambda r: np.diag([0.6, 0.6, -0.2]), "sample 3: matrix is not PSD"),
    ])
    def test_bad_sample_is_named(self, corrupt, message):
        rng = np.random.default_rng(46)
        rhos = np.stack([random_density_matrix(3, rng) for _ in range(4)])
        rhos[2] = corrupt(rhos[2])
        rhos[3] = corrupt(rhos[3])
        with pytest.raises(ValueError, match=message):
            state_fidelity(rhos, np.eye(3) / 3)

    def test_bad_process_sample_is_named(self):
        chis = np.stack([np.eye(9) / 9] * 3)
        chis[1] = 0.0
        with pytest.raises(ValueError, match="^sample 2: process matrix has non-positive trace$"):
            process_fidelity(chis, np.eye(9))

    def test_single_matrix_messages_unchanged(self):
        with pytest.raises(ValueError, match="^matrix is not PSD: min eigenvalue"):
            matrix_sqrt_psd(np.diag([1.0, -0.5]))
        with pytest.raises(ValueError, match="^density matrix trace .* by more than 10%$"):
            state_fidelity(np.eye(3), np.eye(3) / 3)
        with pytest.raises(ValueError, match="^process matrix has non-positive trace$"):
            process_fidelity(np.zeros((9, 9)), np.eye(9))


def _ideal_chi():
    ideal = np.zeros((9, 9), dtype=complex)
    ideal[0, 0] = 1.0
    return ideal


class TestPureFidelity:
    """The closed form against a pure reference equals the Uhlmann fidelity."""

    @staticmethod
    def _states(rng, n):
        # every other one rank-deficient, traces off by up to 5%
        out = []
        for k in range(n):
            rho = random_density_matrix(3, rng)
            if k % 2:
                w, v = np.linalg.eigh(rho)
                rho = (v * np.where(np.arange(3) < 1 + (k // 2) % 2, 0.0, w)) @ v.conj().T  # rank 2 or 1
                rho /= np.trace(rho).real
            out.append(rho * rng.uniform(0.95, 1.05))
        return np.stack(out)

    @staticmethod
    def _processes(rng, n, basis):
        return np.stack([
            (_random_rank_deficient_chi(rng, basis) if k % 2
             else chi_from_kraus(random_cptp_channel(3, 1 + k % 9, rng), basis))
            * rng.uniform(0.95, 1.05) for k in range(n)])

    def test_state_equals_uhlmann(self):
        rng = np.random.default_rng(51)
        rhos = self._states(rng, 20)
        for _ in range(3):
            t = state_vector(rng.standard_normal(3) + 1j * rng.standard_normal(3), True)
            expected = state_fidelity(rhos, projector_of(t))
            got = pure_fidelity(rhos, t)
            assert got.shape == (20,)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            for rho, f in zip(rhos, expected):
                single = pure_fidelity(rho, t)
                assert isinstance(single, float)
                assert single == pytest.approx(f, abs=1e-12)

    def test_process_equals_uhlmann(self):
        rng = np.random.default_rng(52)
        basis = gell_mann_basis(3)
        chis = self._processes(rng, 20, basis)
        e0 = np.eye(9)[0]
        psi = state_vector(rng.standard_normal(9) + 1j * rng.standard_normal(9), True)
        for reference, pure in ((_ideal_chi(), e0), (projector_of(psi), psi)):
            expected = process_fidelity(chis, reference)
            got = pure_fidelity(chis, pure, process=True)
            assert got.shape == (20,)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            for chi, f in zip(chis, expected):
                single = pure_fidelity(chi, pure, process=True)
                assert isinstance(single, float)
                assert single == pytest.approx(f, abs=1e-12)

    def test_state_trace_rule(self):
        t = canonical_input_states()[3]
        assert pure_fidelity(np.eye(3) / 3 * 1.09, t) == pytest.approx(1 / 3, abs=1e-15)
        for bad in (np.eye(3) / 3 * 1.11, np.eye(3) / 3 * 0.89, np.zeros((3, 3))):
            with pytest.raises(ValueError) as uhlmann:
                state_fidelity(bad, projector_of(t))
            with pytest.raises(ValueError, match="^density matrix trace .* by more than 10%$") as exc:
                pure_fidelity(bad, t)
            assert str(exc.value) == str(uhlmann.value)
        rhos = np.stack([np.eye(3) / 3] * 3)
        rhos[1] *= 2.0
        with pytest.raises(ValueError, match=r"^sample 2: density matrix trace \S*2\.0\b"):
            pure_fidelity(rhos, t)

    def test_process_trace_rule(self):
        e0 = np.eye(9)[0]
        assert pure_fidelity(np.eye(9) * 1e-11, e0, process=True) == pytest.approx(1 / 9)
        for bad in (np.zeros((9, 9)), -np.eye(9), np.eye(9) * 1e-14):
            with pytest.raises(ValueError) as uhlmann:
                process_fidelity(bad, _ideal_chi())
            with pytest.raises(ValueError, match="^process matrix has non-positive trace$") as exc:
                pure_fidelity(bad, e0, process=True)
            assert str(exc.value) == str(uhlmann.value)
        chis = np.stack([np.eye(9) / 9] * 3)
        chis[1] = 0.0
        with pytest.raises(ValueError, match="^sample 2: process matrix has non-positive trace$"):
            pure_fidelity(chis, e0, process=True)

    def test_reference_must_be_a_normalized_state(self):
        rho = np.eye(3) / 3
        for psi in ([1, 1, 0], [1.0, 1e-5, 0.0], [0, 0, 0], [1]):
            with pytest.raises(ValueError) as expected:
                projector_of(psi)
            with pytest.raises(ValueError) as exc:
                pure_fidelity(rho, psi)
            assert str(exc.value) == str(expected.value)
