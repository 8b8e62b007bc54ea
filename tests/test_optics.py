import tracemalloc

import numpy as np
import pytest

from oamtomo import (
    FieldGrid,
    OpticsConfig,
    apply_phase_mask,
    canonical_input_states,
    effective_operators,
    farfield,
    fiber_overlap,
    four_f_image,
    gaussian_field,
    lens_fourier,
    oam_mode_field,
    optical_projection_probability,
    parity_flip,
    phase_mask_of,
    self_fourier_waist,
    superposition_field,
    winding_number,
)
from oamtomo.optics import _conversion_field


@pytest.fixture(scope="module")
def cfg():
    return OpticsConfig.matched(512, 1.0)


def _random_field(cfg, seed):
    rng = np.random.default_rng(seed)
    n = cfg.grid_size
    samples = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return FieldGrid(samples, cfg.extent)


class TestConfig:
    def test_matched_defaults(self, cfg):
        assert cfg.waist == pytest.approx(self_fourier_waist(512, 1.0))
        assert cfg.waist == cfg.fiber_waist

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            OpticsConfig(300, 1.0, 0.05, 0.05)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            OpticsConfig(64, 1.0, 0.05, 0.05)

    def test_aliasing_guard(self):
        with pytest.raises(ValueError):
            OpticsConfig(512, 1.0, 0.3, 0.05)

    def test_conjugate_waist_roundtrip(self, cfg):
        w = 0.08
        assert cfg.conjugate_waist(cfg.conjugate_waist(w)) == pytest.approx(w)


class TestModeFields:
    def test_gaussian_peak_at_center_and_real(self, cfg):
        f = oam_mode_field(0, cfg)
        n = cfg.grid_size
        peak = np.unravel_index(np.argmax(np.abs(f.samples)), f.samples.shape)
        assert peak == (n // 2, n // 2)
        assert np.abs(f.samples.imag).max() < 1e-15

    def test_vortex_core_is_dark(self, cfg):
        f = oam_mode_field(1, cfg)
        n = cfg.grid_size
        assert abs(f.samples[n // 2, n // 2]) == 0.0

    def test_unit_power(self, cfg):
        for l in (-2, -1, 0, 1, 2):
            assert oam_mode_field(l, cfg).power() == pytest.approx(1.0, abs=1e-9)

    def test_orthonormal_triple(self, cfg):
        modes = [oam_mode_field(l, cfg) for l in (-1, 0, 1)]
        gram = np.array(
            [
                [(a.samples.conj() * b.samples).sum() * cfg.cell_area for b in modes]
                for a in modes
            ]
        )
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-6)

    def test_rejects_large_winding(self, cfg):
        with pytest.raises(ValueError):
            oam_mode_field(6, cfg)


class TestSuperposition:
    def test_pure_state_reduces_to_mode(self, cfg):
        f = superposition_field([1, 0, 0], cfg)
        np.testing.assert_allclose(f.samples, oam_mode_field(1, cfg).samples, atol=1e-12)

    def test_two_lobe_pattern_has_nodal_line(self, cfg):
        # (|L> + |R>)/sqrt(2) carries a cos(phi) factor vanishing at x = 0
        psi = np.array([1, 0, 1]) / np.sqrt(2)
        f = superposition_field(psi, cfg)
        n = cfg.grid_size
        assert np.abs(f.samples[:, n // 2]).max() < 1e-9

    def test_balanced_superposition_normalized(self, cfg):
        f = superposition_field(np.array([1, 1, 1]) / np.sqrt(3), cfg)
        assert f.power() == pytest.approx(1.0, abs=1e-9)

    def test_balanced_superposition_off_axis_node(self, cfg):
        # (|L> + |G> + |R>)/sqrt(3) is proportional to (1 + 2 sqrt(2) x / w)
        # times the Gaussian: dark line at x = -w / (2 sqrt(2)), off center
        f = superposition_field(np.array([1, 1, 1]) / np.sqrt(3), cfg)
        n = cfg.grid_size
        x = cfg.axis()
        row = f.samples[n // 2]
        node = -cfg.waist / (2.0 * np.sqrt(2.0))
        ix = int(np.argmin(np.abs(x - node)))
        assert abs(row[ix]) < 0.05 * np.abs(row).max()
        assert row[ix - 2].real * row[ix + 2].real < 0

    def test_rejects_unnormalized(self, cfg):
        with pytest.raises(ValueError):
            superposition_field([1, 1, 0], cfg)


class TestPhaseMask:
    def test_vortex_ramp(self, cfg):
        # probe an annulus inside the beam, away from the dark core and from
        # corner samples where the envelope underflows to exactly zero
        mask = phase_mask_of(oam_mode_field(1, cfg))
        xx, yy = cfg.meshgrid()
        azimuth = np.arctan2(yy, xx)
        rr = xx**2 + yy**2
        ring = ((4 * cfg.step) ** 2 < rr) & (rr < (3 * cfg.waist) ** 2)
        np.testing.assert_allclose(mask[ring], azimuth[ring], atol=1e-12)

    def test_real_positive_gaussian_is_zero(self, cfg):
        mask = phase_mask_of(gaussian_field(cfg.waist, cfg))
        assert np.abs(mask).max() == 0.0

    def test_binary_sectors(self, cfg):
        psi = np.array([1, 0, 1]) / np.sqrt(2)
        mask = phase_mask_of(superposition_field(psi, cfg))
        xx, _ = cfg.meshgrid()
        off_axis = np.abs(xx) > 4 * cfg.step
        values = np.unique(np.round(np.abs(mask[off_axis]), 9))
        np.testing.assert_allclose(values, [0.0, np.pi], atol=1e-9)

    def test_range(self, cfg):
        mask = phase_mask_of(_random_field(cfg, 0))
        assert mask.max() <= np.pi and mask.min() > -np.pi


class TestApplyPhaseMask:
    def test_zero_mask_identity(self, cfg):
        f = _random_field(cfg, 1)
        out = apply_phase_mask(f, np.zeros_like(f.samples, dtype=float))
        np.testing.assert_allclose(out.samples, f.samples)

    def test_mask_then_conjugate_restores(self, cfg):
        f = _random_field(cfg, 2)
        mask = phase_mask_of(_random_field(cfg, 3))
        out = apply_phase_mask(apply_phase_mask(f, mask), mask, conjugate=True)
        np.testing.assert_allclose(out.samples, f.samples, atol=1e-12)

    def test_modulus_unchanged(self, cfg):
        f = _random_field(cfg, 4)
        mask = phase_mask_of(_random_field(cfg, 5))
        out = apply_phase_mask(f, mask)
        np.testing.assert_allclose(np.abs(out.samples), np.abs(f.samples), atol=1e-12)

    def test_conjugate_mask_unwinds_vortex(self, cfg):
        f = oam_mode_field(1, cfg)
        out = apply_phase_mask(f, phase_mask_of(f), conjugate=True)
        assert winding_number(out, cfg.waist) == 0
        assert winding_number(f, cfg.waist) == 1

    def test_geometry_mismatch(self, cfg):
        f = _random_field(cfg, 6)
        with pytest.raises(ValueError):
            apply_phase_mask(f, np.zeros((8, 8)))


class TestLensFourier:
    def test_self_fourier_gaussian(self, cfg):
        g = gaussian_field(cfg.waist, cfg)
        out = lens_fourier(g)
        np.testing.assert_allclose(out.samples, g.samples, atol=1e-6)

    def test_waist_scaling_law(self, cfg):
        w1 = 1.4 * cfg.waist
        out = lens_fourier(gaussian_field(w1, cfg))
        expected = gaussian_field(cfg.conjugate_waist(w1), cfg)
        np.testing.assert_allclose(out.samples, expected.samples, atol=1e-6)

    def test_parseval(self, cfg):
        for seed in range(3):
            f = _random_field(cfg, seed)
            assert abs(lens_fourier(f).power() - f.power()) < 1e-10 * f.power()

    def test_winding_preserved(self, cfg):
        for l in (-1, 1, 2):
            out = lens_fourier(oam_mode_field(l, cfg))
            assert winding_number(out, cfg.waist) == l


class TestFourF:
    def test_even_gaussian_unchanged(self, cfg):
        g = gaussian_field(cfg.waist, cfg)
        np.testing.assert_allclose(four_f_image(g).samples, g.samples, atol=1e-9)

    def test_equals_parity_flip(self, cfg):
        for seed in range(3):
            f = _random_field(cfg, 10 + seed)
            np.testing.assert_allclose(
                four_f_image(f).samples, parity_flip(f).samples, atol=1e-9
            )

    def test_vortex_parity(self, cfg):
        f = oam_mode_field(1, cfg)
        out = four_f_image(f)
        # a 2-D inversion is a rotation: winding is preserved, amplitude flips sign
        assert winding_number(out, cfg.waist) == 1
        np.testing.assert_allclose(out.samples, -f.samples, atol=1e-9)


class TestFarfield:
    def test_same_kernel_as_lens(self, cfg):
        f = _random_field(cfg, 20)
        np.testing.assert_allclose(farfield(f).samples, lens_fourier(f).samples)

    def test_gaussian_and_power(self, cfg):
        g = gaussian_field(cfg.waist, cfg)
        np.testing.assert_allclose(farfield(g).samples, g.samples, atol=1e-6)
        f = _random_field(cfg, 21)
        assert abs(farfield(f).power() - f.power()) < 1e-10 * f.power()


class TestFiberOverlap:
    def test_matched_gaussian(self, cfg):
        g = gaussian_field(cfg.fiber_waist, cfg)
        assert abs(fiber_overlap(g, cfg)) == pytest.approx(1.0, abs=1e-9)

    def test_vortex_orthogonal(self, cfg):
        for l in (-2, -1, 1, 2):
            assert abs(fiber_overlap(oam_mode_field(l, cfg), cfg)) < 1e-9

    def test_mismatched_waists_closed_form(self, cfg):
        # oracle: overlap of normalized Gaussians = 2 w1 w2 / (w1^2 + w2^2)
        w1, w2 = cfg.fiber_waist, 1.7 * cfg.fiber_waist
        got = abs(fiber_overlap(gaussian_field(w2, cfg), cfg))
        assert got == pytest.approx(2 * w1 * w2 / (w1**2 + w2**2), abs=1e-6)


class TestProjectionChain:
    def test_matched_vortex(self, cfg):
        states = canonical_input_states()
        p = optical_projection_probability(states[0], states[0], cfg)
        assert p == pytest.approx(1.0, abs=1e-3)

    def test_opposite_vortex(self, cfg):
        states = canonical_input_states()
        p = optical_projection_probability(states[0], states[2], cfg)
        assert p == pytest.approx(0.0, abs=1e-3)

    def test_half_overlap(self, cfg):
        states = canonical_input_states()
        p = optical_projection_probability(states[3], states[0], cfg)
        assert p == pytest.approx(0.5, abs=1e-2)

    def test_phase_only_exact_for_pure_settings(self, cfg):
        # both holograms are then plain vortex masks, which lose no amplitude
        states = canonical_input_states()
        for j in range(3):
            for i in range(3):
                p_po = optical_projection_probability(states[j], states[i], cfg, "phase_only")
                p_id = optical_projection_probability(states[j], states[i], cfg, "ideal")
                assert abs(p_po - p_id) < 1e-3

    def test_phase_only_degrades_superposition_settings(self, cfg):
        # a matched pair of phase-only holograms is retro-exact, so the loss
        # shows up in the cross terms instead of on the diagonal
        states = canonical_input_states()
        p_cross = optical_projection_probability(states[0], states[3], cfg, "phase_only")
        assert abs(p_cross - 0.5) > 0.1
        p_leak = optical_projection_probability(states[0], states[4], cfg, "phase_only")
        assert p_leak > 1e-3

    def test_rejects_unknown_modulation(self, cfg):
        states = canonical_input_states()
        with pytest.raises(ValueError):
            optical_projection_probability(states[0], states[0], cfg, "holographic")


class TestEffectiveOperators:
    """The 3x3 reduction against the full FFT chain it replaces."""

    @pytest.fixture(scope="class")
    def small(self):
        # waists off the self-Fourier point, so the lens changes the fiber Gaussian
        w = self_fourier_waist(128, 1.0)
        return OpticsConfig(128, 1.0, 0.7 * w, 0.9 * w)

    def test_ideal_reproduces_chain(self, small):
        states = canonical_input_states()
        rho, povm = effective_operators(states, states, small, "ideal")
        table = np.einsum("iab,jba->ji", povm, rho).real
        chain = np.array([[optical_projection_probability(a, b, small, "ideal") for b in states]
                          for a in states])
        np.testing.assert_allclose(table, chain, rtol=0, atol=1e-12)

    def test_phase_only_operators_match_fft_chain(self, small):
        states = canonical_input_states()
        modes = [oam_mode_field(l, small) for l in (1, 0, -1)]
        rho, povm = effective_operators(states, states, small, "phase_only")
        carrier = gaussian_field(small.waist, small)
        for j, psi in enumerate(states):
            field = apply_phase_mask(carrier, phase_mask_of(superposition_field(psi, small)))
            c = np.array([np.vdot(m.samples, field.samples) for m in modes]) * small.cell_area
            np.testing.assert_allclose(rho[j], np.outer(c, c.conj()), rtol=0, atol=1e-12)
        for i, psi in enumerate(states):
            # the 4-f image inverts coordinates, so l = +-1 amplitudes change sign
            mask = phase_mask_of(superposition_field(psi * np.array([-1, 1, -1]), small))
            imaged = [apply_phase_mask(four_f_image(m), mask, conjugate=True) for m in modes]
            e = np.array([fiber_overlap(farfield(f), small) for f in imaged])
            np.testing.assert_allclose(povm[i], np.outer(e.conj(), e), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("modulation", ["ideal", "phase_only"])
    def test_default_grid_matches_field_chain(self, modulation):
        # the CLI's default grid, under the floating-point checks of its optics
        # guard; underflow is left out, as the sampled Gaussian tails underflow
        cfg = OpticsConfig.matched(512, 1.0)
        states = canonical_input_states()
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            rho, povm = effective_operators(states, states, cfg, modulation)
        modes = [oam_mode_field(l, cfg) for l in (1, 0, -1)]
        imaged = [four_f_image(m) for m in modes]
        carrier = gaussian_field(cfg.waist, cfg)
        ref_rho, ref_povm = [], []
        for psi in states:
            field = superposition_field(psi, cfg)
            if modulation == "phase_only":
                field = apply_phase_mask(carrier, phase_mask_of(field))
            c = np.array([np.vdot(m.samples, field.samples) for m in modes]) * cfg.cell_area
            ref_rho.append(np.outer(c, c.conj()))
            if modulation == "ideal":
                mask = _conversion_field(psi, cfg)
                converted = [FieldGrid(f.samples * mask, cfg.extent) for f in imaged]
            else:
                mask = phase_mask_of(superposition_field(psi * np.array([-1, 1, -1]), cfg))
                converted = [apply_phase_mask(f, mask, conjugate=True) for f in imaged]
            e = np.array([fiber_overlap(farfield(f), cfg) for f in converted])
            ref_povm.append(np.outer(e.conj(), e))
        table = np.einsum("iab,jba->ji", povm, rho).real
        ref_table = np.einsum("iab,jba->ji", np.array(ref_povm), np.array(ref_rho)).real
        np.testing.assert_allclose(table, ref_table, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("modulation", ["ideal", "phase_only"])
    def test_memory_stays_flat(self, modulation):
        # grid work runs one field at a time: no stack of per-state or per-mode grids
        cfg = OpticsConfig.matched(256, 1.0)
        states = canonical_input_states()
        tracemalloc.start()
        try:
            effective_operators(states, states, cfg, modulation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * cfg.grid_size**2 * np.dtype(complex).itemsize

    def test_rejects_unknown_modulation_and_non_qutrits(self, small):
        states = canonical_input_states()
        with pytest.raises(ValueError):
            effective_operators(states, states, small, "holographic")
        with pytest.raises(ValueError):
            effective_operators([[1.0, 0.0]], states, small, "ideal")


class TestWindingNumber:
    def test_radius_validation(self, cfg):
        f = oam_mode_field(1, cfg)
        with pytest.raises(ValueError):
            winding_number(f, 2.0)

    def test_higher_order(self, cfg):
        assert winding_number(oam_mode_field(-2, cfg), cfg.waist) == -2
