import numpy as np
import pytest

from oamtomo.counts import SourceConfig, simulate_counts
from oamtomo.qudit import (
    depolarizing_channel,
    identity_channel,
    phase_rotation_channel,
    process_fidelity,
    projector_of,
)
from oamtomo.tomography import (
    DegenerateDataError,
    canonical_settings,
    hermitian_basis,
    predict_probabilities,
    probabilities_from_counts,
    project_to_physical_process,
    project_to_physical_state,
    qpt_linear_inversion,
    qst_linear_inversion,
)
from oracles import chi_from_kraus, ideal_storage_chi, random_cptp_channel, random_density_matrix


@pytest.fixture(scope="module")
def settings():
    return canonical_settings()


def _counts_from_table(corrected):
    # raw = corrected + 5 over a background of 5
    return np.stack([corrected + 5, np.full_like(corrected, 5)], axis=-1).astype(np.int64)


class TestSettings:
    def test_basis_projectors_resolve_identity(self, settings):
        total = settings.projectors[:3].sum(axis=0)
        np.testing.assert_allclose(total, np.eye(3), atol=1e-12)

    def test_projectors_linearly_independent(self, settings):
        gram = np.einsum("iab,jba->ij", settings.projectors, settings.projectors).real
        assert np.linalg.matrix_rank(gram) == 9

    def test_design_matrix_well_conditioned(self, settings):
        lam = settings.basis
        rho_in = np.stack([projector_of(s) for s in settings.inputs])
        transfer = np.einsum(
            "iab,mbc,jcd,nad->jimn", settings.projectors, lam, rho_in, lam.conj()
        )
        design = np.einsum("jimn,Kmn->jiK", transfer, hermitian_basis(9)).real.reshape(81, 81)
        assert np.linalg.cond(design) < 1e3
        # the map sends each design column to its flattened Hermitian basis element
        np.testing.assert_allclose(settings.qpt_map @ design,
                                   hermitian_basis(9).reshape(81, 81).T, atol=1e-12)

    def test_designs_full_rank_with_pinned_conditioning(self, settings):
        # constants of the scheme: the maps are built without a rank check
        qst = np.einsum("iab,Kba->iK", settings.projectors, hermitian_basis(3)).real
        lam = settings.basis
        transfer = np.einsum("iab,mbc,jcd,nad->jimn", settings.projectors, lam,
                             settings.projectors, lam.conj())
        qpt = np.einsum("jimn,Kmn->jiK", transfer, hermitian_basis(9)).real.reshape(81, 81)
        for design, cond in ((qst, 4.74), (qpt, 23.8)):
            assert np.linalg.matrix_rank(design) == design.shape[1]
            assert float(f"{np.linalg.cond(design):.3g}") == cond

    def test_one_read_only_instance(self, settings):
        assert canonical_settings() is settings
        for array in (settings.inputs, settings.projectors, settings.qst_map, settings.qpt_map):
            with pytest.raises(ValueError):
                array[0] = 0


class TestPredictProbabilities:
    def test_identity_channel(self):
        p = predict_probabilities(identity_channel())
        assert p[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert p[0, 2] == pytest.approx(0.0, abs=1e-12)
        # input 4 onto projector 8 (1-based): |<psi8|psi4>|^2 = 1/4
        assert p[3, 7] == pytest.approx(0.25, abs=1e-12)

    def test_fully_depolarizing(self):
        p = predict_probabilities(depolarizing_channel(1.0))
        np.testing.assert_allclose(p, np.full((9, 9), 1 / 3), atol=1e-12)

    def test_rows_sum_to_one_for_tp_channels(self):
        rng = np.random.default_rng(2)
        p = predict_probabilities(random_cptp_channel(3, 4, rng))
        np.testing.assert_allclose(p[:, :3].sum(axis=1), np.ones(9), atol=1e-9)
        assert p.min() >= -1e-9 and p.max() <= 1 + 1e-9


class TestProbabilitiesFromCounts:
    def test_basic_normalization(self):
        corrected = np.zeros((9, 9))
        corrected[:, 0] = 100.0
        corrected[:, 3] = 50.0
        p = probabilities_from_counts(_counts_from_table(corrected))
        assert p[0, 0] == pytest.approx(1.0)
        assert p[0, 3] == pytest.approx(0.5)

    def test_degenerate_row(self):
        corrected = np.ones((9, 9)) * 10
        corrected[4, :3] = 0.0
        with pytest.raises(DegenerateDataError):
            probabilities_from_counts(_counts_from_table(corrected))

    def test_poisson_counts_match_prediction(self):
        # statistical closeness at N = 1e6, fixed seed
        p_true = predict_probabilities(identity_channel())
        cfg = SourceConfig(counts_per_setting=1e6, seed=2024)
        p_hat = probabilities_from_counts(simulate_counts(p_true, cfg))
        assert np.abs(p_hat - p_true).max() < 0.005

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        corrected = rng.integers(10, 1000, size=(9, 9)).astype(float)
        p1 = probabilities_from_counts(_counts_from_table(corrected))
        scaled = corrected.copy()
        scaled[4] *= 7
        p2 = probabilities_from_counts(_counts_from_table(scaled))
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_state_mode_row(self):
        counts = _counts_from_table(np.array([[100, 0, 0, 50, 50, 50, 50, 0, 0]]))
        p = probabilities_from_counts(counts)
        np.testing.assert_allclose(p, [[1, 0, 0, 0.5, 0.5, 0.5, 0.5, 0, 0]])


class TestBatchAxis:
    """Leading batch axes give the same numbers as one call per sample."""

    @pytest.fixture(scope="class")
    def batch(self):
        p_true = predict_probabilities(depolarizing_channel(0.3))
        cfg = SourceConfig(counts_per_setting=300, background=20, seed=8)
        rng = np.random.default_rng(9)
        return rng.poisson(simulate_counts(p_true, cfg), size=(6, 9, 9, 2))

    def test_process_pipeline(self, settings, batch):
        chis = project_to_physical_process(
            qpt_linear_inversion(probabilities_from_counts(batch)))
        assert chis.shape == (6, 9, 9)
        for counts, chi in zip(batch, chis):
            one = qpt_linear_inversion(probabilities_from_counts(counts))
            np.testing.assert_allclose(chi, project_to_physical_process(one), atol=1e-14)

    def test_state_pipeline(self, settings, batch):
        rhos = project_to_physical_state(
            qst_linear_inversion(probabilities_from_counts(batch[:, 3])))
        assert rhos.shape == (6, 3, 3)
        for counts, rho in zip(batch[:, 3], rhos):
            one = qst_linear_inversion(probabilities_from_counts(counts))
            np.testing.assert_allclose(rho, project_to_physical_state(one), atol=1e-14)

    @pytest.mark.parametrize("invert, shape, message", [
        (qst_linear_inversion, (8,), r"^expected 9 probabilities per state, got shape \(8,\)$"),
        (qpt_linear_inversion, (9, 8),
         r"^expected a 9 x 9 probability table, got shape \(9, 8\)$"),
    ], ids=["qst", "qpt"])
    def test_refuses_a_table_of_another_shape(self, invert, shape, message):
        with pytest.raises(ValueError, match=message):
            invert(np.full(shape, 1 / 3))

    def test_degenerate_sample_is_named(self, batch):
        bad = batch.copy()
        bad[4, 2, :3] = 0
        with pytest.raises(DegenerateDataError, match="sample 5, input 3") as raised:
            probabilities_from_counts(bad)
        # the index is data, which a caller can offset, and the message follows it
        assert (raised.value.sample, raised.value.message[:8]) == (5, "input 3:")
        with pytest.raises(DegenerateDataError, match="^input 3: ") as raised:
            probabilities_from_counts(bad[4])
        assert raised.value.sample is None

    def test_vanished_trace_sample_is_named(self, batch):
        chis = qpt_linear_inversion(probabilities_from_counts(batch))
        chis[2] *= -1
        with pytest.raises(DegenerateDataError, match=r"^sample 3, process matrix trace "
                                                      r"vanished .*: raw trace -") as raised:
            project_to_physical_process(chis)
        assert raised.value.sample == 3
        with pytest.raises(DegenerateDataError, match=r"^process matrix trace ") as raised:
            project_to_physical_process(chis[2])
        assert raised.value.sample is None


class TestQstInversion:
    def test_basis_state(self, settings):
        rho = projector_of([0, 1, 0])
        p = np.einsum("iab,ba->i", settings.projectors, rho).real
        np.testing.assert_allclose(p, [0, 1, 0, 0.5, 0.5, 0.5, 0.5, 0, 0], atol=1e-14)
        np.testing.assert_allclose(qst_linear_inversion(p), rho, atol=1e-12)

    def test_maximally_mixed(self):
        p = np.full(9, 1 / 3)
        np.testing.assert_allclose(qst_linear_inversion(p), np.eye(3) / 3, atol=1e-12)

    def test_balanced_superposition_round_trip(self, settings):
        # oracle: projector of the target state
        target = projector_of(np.array([1, 1, 1]) / np.sqrt(3))
        p = np.einsum("iab,ba->i", settings.projectors, target).real
        np.testing.assert_allclose(qst_linear_inversion(p), target, atol=1e-10)

    def test_random_round_trip(self, settings):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rho = random_density_matrix(3, rng)
            p = np.einsum("iab,ba->i", settings.projectors, rho).real
            np.testing.assert_allclose(qst_linear_inversion(p), rho, atol=1e-10)


class TestQptInversion:
    def test_identity_channel(self, settings):
        p = predict_probabilities(identity_channel())
        chi = qpt_linear_inversion(p)
        expected = ideal_storage_chi(settings.basis)
        np.testing.assert_allclose(chi, expected, atol=1e-8)

    def test_phase_unitary(self, settings):
        ch = phase_rotation_channel(0.7)
        p = predict_probabilities(ch)
        np.testing.assert_allclose(
            qpt_linear_inversion(p), chi_from_kraus(ch, settings.basis), atol=1e-8
        )

    def test_random_cptp_round_trip(self, settings):
        # oracle: chi_from_kraus on the generating channel
        rng = np.random.default_rng(2718)
        for _ in range(20):
            ch = random_cptp_channel(3, 3, rng)
            p = predict_probabilities(ch)
            np.testing.assert_allclose(
                qpt_linear_inversion(p),
                chi_from_kraus(ch, settings.basis),
                atol=1e-8,
            )

    def test_output_hermitian(self):
        rng = np.random.default_rng(3)
        p = predict_probabilities(random_cptp_channel(3, 2, rng))
        p_noisy = p + rng.normal(0, 0.01, size=p.shape)
        chi = qpt_linear_inversion(p_noisy)
        np.testing.assert_allclose(chi, chi.conj().T, atol=1e-12)


    def test_output_exactly_hermitian(self):
        # the map keeps chi in real Hermitian coordinates: no rounding asymmetry,
        # for one table or a batch of them
        p = np.random.default_rng(5).random((40, 9, 9))
        for table in (p[0], p):
            chi = qpt_linear_inversion(table)
            assert np.array_equal(chi, np.swapaxes(chi, -1, -2).conj())


class TestChiFromChoi:
    def test_matches_kraus_oracle(self, settings):
        # J = sum_k vec(K_k) vec(K_k)^H, row-major vec
        rng = np.random.default_rng(1997)
        channels = [random_cptp_channel(3, n, rng) for n in (1, 2, 3, 4, 9)]
        choi = np.stack([sum(np.outer(k.ravel(), k.ravel().conj()) for k in ch.kraus)
                         for ch in channels])
        expected = np.stack([chi_from_kraus(ch, settings.basis) for ch in channels])
        np.testing.assert_allclose(settings.chi_from_choi(choi), expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(settings.chi_from_choi(choi[2]), expected[2], rtol=0, atol=1e-12)

class TestPhysicalityProjection:
    def test_state_noop_on_physical(self):
        rho = random_density_matrix(3, np.random.default_rng(4))
        np.testing.assert_allclose(project_to_physical_state(rho), rho, atol=1e-12)

    def test_state_clamp_rule(self):
        out = project_to_physical_state(np.diag([1.1, 0.2, -0.3]))
        np.testing.assert_allclose(out, np.diag([1.1, 0.2, 0.0]) / 1.3, atol=1e-12)

    def test_state_all_negative(self):
        with pytest.raises(ValueError):
            project_to_physical_state(np.diag([-1.0, -1.0, -1.0]))

    def test_state_idempotent(self):
        out = project_to_physical_state(np.diag([0.9, 0.4, -0.2]))
        np.testing.assert_allclose(project_to_physical_state(out), out, atol=1e-12)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_process_noop_on_psd(self, settings):
        chi = chi_from_kraus(depolarizing_channel(0.2), settings.basis)
        np.testing.assert_allclose(project_to_physical_process(chi), chi, atol=1e-12)

    def test_process_zeroes_negative_direction(self):
        chi = np.zeros((9, 9))
        chi[0, 0] = 1.0
        chi[4, 4] = -0.1
        out = project_to_physical_process(chi)
        assert out[4, 4] == pytest.approx(0.0, abs=1e-14)
        assert np.trace(out).real == pytest.approx(0.9, abs=1e-12)

    def test_process_psd_after_noisy_pipeline(self):
        p_true = predict_probabilities(identity_channel())
        cfg = SourceConfig(counts_per_setting=1e3, seed=77)
        p = probabilities_from_counts(simulate_counts(p_true, cfg))
        chi = project_to_physical_process(qpt_linear_inversion(p))
        assert np.linalg.eigvalsh(chi).min() >= -1e-10

    def test_process_zero_trace(self):
        with pytest.raises(DegenerateDataError, match=r": raw trace -1\.0$"):
            project_to_physical_process(np.diag([-1.0] + [0.0] * 8))

    def test_normalized_tables_give_trace_at_least_a_third(self, settings):
        # the raw trace is linear in the table; over tables with entries in [0, 1]
        # whose basis columns sum to 1 per input, as normalized counts of any
        # channel have them, its least value is 1/3, so the refusal needs other counts
        weights = np.trace(settings.qpt_map.reshape(9, 9, 9, 9))
        least = weights[:, :3].min(axis=1) + np.minimum(weights[:, 3:], 0).sum(axis=1)
        assert least.sum() == pytest.approx(1 / 3, abs=1e-12)
        np.testing.assert_allclose(np.diag(weights)[3:], -1 / 9, atol=1e-12)


class TestIdealChi:
    def test_shape_and_entry(self, settings):
        chi = ideal_storage_chi(settings.basis)
        assert chi.shape == (9, 9)
        expected = np.zeros((9, 9))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(chi, expected)

    def test_acts_as_identity(self, settings):
        from oracles import apply_channel_chi

        chi = ideal_storage_chi(settings.basis)
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = random_density_matrix(3, rng)
            np.testing.assert_allclose(
                apply_channel_chi(chi, settings.basis, rho), rho, atol=1e-14
            )

    def test_self_fidelity(self, settings):
        chi = ideal_storage_chi(settings.basis)
        assert process_fidelity(chi, chi) == pytest.approx(1.0, abs=1e-12)


class TestNoiseMonotonicity:
    def test_mean_fidelity_decreases_with_depolarization(self, settings):
        ideal = ideal_storage_chi(settings.basis)
        means = []
        for p in (0.0, 0.1, 0.2, 0.4):
            ch = depolarizing_channel(p)
            p_true = predict_probabilities(ch)
            fids = []
            for seed in range(5):
                cfg = SourceConfig(counts_per_setting=1e4, seed=seed)
                p_hat = probabilities_from_counts(simulate_counts(p_true, cfg))
                chi = project_to_physical_process(qpt_linear_inversion(p_hat))
                fids.append(process_fidelity(chi, ideal))
            means.append(np.mean(fids))
        assert all(a > b for a, b in zip(means, means[1:]))
