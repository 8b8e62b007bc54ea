import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from oamtomo import optics
from oamtomo.optics import (
    OpticsConfig,
    _conversion_field,
    apply_phase_mask,
    effective_operators,
    fiber_overlap,
    gaussian_field,
    lens_fourier,
    oam_mode_field,
    optical_projection_probability,
    parity_flip,
    parity_index,
    phase_mask_of,
    self_fourier_waist,
    superposition_field,
)
from oamtomo.qudit import canonical_input_states
from oracles import (
    farfield,
    four_f_image,
    lg_mode_samples,
    matched_config,
    meshgrid,
    per_state_operators,
    power,
    superposition_samples,
    winding_number,
)


@pytest.fixture(scope="module")
def cfg():
    return matched_config(512, 1.0)


def _random_field(cfg, seed):
    rng = np.random.default_rng(seed)
    n = cfg.grid_size
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


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

    @hyp_settings(deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(["extent", "waist", "fiber_waist"]),
           value=st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400,
                                  True, False, np.True_, "1", "nan", b"1"]))
    def test_rejects_non_finite(self, field, value):
        # a bool or a non-number is refused as such, before its finiteness
        kwargs = {"grid_size": 128, "extent": 1.0, "waist": 0.1, "fiber_waist": 0.1, field: value}
        refusal = ("finite" if isinstance(value, (float, int)) and not isinstance(value, bool)
                   else "a number")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field}: must be {refusal}, got "):
                OpticsConfig(**kwargs)

    def test_grid_size_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"^grid_size: must be an integer, got 128\.5$"):
            OpticsConfig(128.5, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError, match=r"^grid_size: must be an integer, got True$"):
            OpticsConfig(True, 1.0, 0.1, 0.1)
        assert OpticsConfig(np.int64(256), 1.0, 0.1, 0.1).grid_size == 256

    def test_defaults(self):
        # 512 samples over [-1, 1) and the self-Fourier waists, the run config's defaults
        w = self_fourier_waist(512, 1.0)
        assert OpticsConfig() == OpticsConfig(512, 1.0, w, w)
        small = OpticsConfig(grid_size=256)
        assert small.waist == small.fiber_waist == self_fourier_waist(256, 1.0)
        given = OpticsConfig(128, 4, 1, 1)
        assert [type(v) for v in (given.extent, given.waist, given.fiber_waist)] == [float] * 3

    @pytest.mark.parametrize("waist, defaulted", [(None, "waist"), (0.1, "fiber_waist")])
    def test_extent_too_large_for_a_default_waist(self, waist, defaulted):
        with pytest.raises(ValueError, match=f"^extent: .* the default {defaulted}, ") as refused:
            OpticsConfig(128, 1e308, waist)
        assert "np." not in str(refused.value)

    def test_conjugate_waist_roundtrip(self, cfg):
        w = 0.08
        assert cfg.conjugate_waist(cfg.conjugate_waist(w)) == pytest.approx(w)


class TestModeFields:
    def test_gaussian_peak_at_center_and_real(self, cfg):
        f = oam_mode_field(0, cfg)
        n = cfg.grid_size
        peak = np.unravel_index(np.argmax(np.abs(f)), f.shape)
        assert peak == (n // 2, n // 2)
        assert np.abs(f.imag).max() < 1e-15

    def test_vortex_core_is_dark(self, cfg):
        f = oam_mode_field(1, cfg)
        n = cfg.grid_size
        assert abs(f[n // 2, n // 2]) == 0.0

    def test_unit_power(self, cfg):
        for l in (-2, -1, 0, 1, 2):
            assert power(oam_mode_field(l, cfg), cfg) == pytest.approx(1.0, abs=1e-9)

    def test_orthonormal_triple(self, cfg):
        modes = [oam_mode_field(l, cfg) for l in (-1, 0, 1)]
        gram = np.array([[(a.conj() * b).sum() * cfg.cell_area for b in modes] for a in modes])
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-6)

    def test_rejects_large_winding(self, cfg):
        with pytest.raises(ValueError):
            oam_mode_field(6, cfg)

    @pytest.mark.parametrize("build", [
        lambda cfg: oam_mode_field(0, cfg),
        lambda cfg: superposition_field(canonical_input_states()[3], cfg),
    ], ids=["mode", "psi4"])
    def test_rejects_a_geometry_with_non_finite_samples(self, build):
        # the squared waist underflows to 0, so the samples are NaN: refused where made
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="^field contains non-finite samples$"):
            build(OpticsConfig(128, 1.0, 1e-300))


class TestInPlaceBuilders:
    """The fields are built and normalized in place; the bits are those of the
    out-of-place construction, and every call returns a new array."""

    @pytest.fixture(scope="class")
    def small(self):
        return matched_config(128, 1.0)

    def test_mode_fields_match_out_of_place_construction(self, small):
        for l in range(-5, 6):
            field = oam_mode_field(l, small)
            assert field.tobytes() == lg_mode_samples(l, small.waist, small).tobytes()
            assert not np.shares_memory(field, oam_mode_field(l, small))
        w = 0.8 * small.waist
        assert gaussian_field(w, small).tobytes() == lg_mode_samples(0, w, small).tobytes()

    @pytest.mark.parametrize("state", [[1, 0, 0], [0, 0, 1], [1, -1, 1], [0.3, -0.5j, 0.8],
                                       [1e-3, 1, 1j]])
    def test_superposition_matches_out_of_place_construction(self, small, state):
        psi = np.array(state, dtype=complex) / np.linalg.norm(state)
        for cfg in (small, matched_config(512, 1.0)):
            field = superposition_field(psi, cfg)
            before = field.copy()
            assert field.tobytes() == superposition_samples(psi, cfg).tobytes()
            again = superposition_field(psi, cfg)
            assert not np.shares_memory(field, again)
            assert np.array_equal(field, before)

    @pytest.mark.parametrize("n", [128, 256, 512, 1024])
    @pytest.mark.parametrize("scale", [1.0, 1e150])
    def test_power_is_numpys_pairwise_sum(self, n, scale, monkeypatch):
        # the norm sums |s|^2 over 32 row blocks and adds the block sums pairwise:
        # numpy's pairwise sum of the whole grid, bit for bit, with subnormal and
        # huge entries too; at cell area 1 the root is taken of that sum itself
        rng = np.random.default_rng(n)
        s = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        s.flat[rng.integers(0, n * n, n)] = 1e-310 * rng.standard_normal(n)
        roots, sqrt = [], np.sqrt
        monkeypatch.setattr(np, "sqrt", lambda x: roots.append(x) or sqrt(x))
        optics._normalized(s.copy(), OpticsConfig(n, n / 2, 1.0, 1.0))
        monkeypatch.undo()
        assert np.float64(roots[0]).tobytes() == (np.abs(s) ** 2).sum().tobytes()

    def test_phase_only_operators_keep_the_mode_triple(self, small, monkeypatch):
        # the holograms scale copies of the shared LG triple, never the triple itself
        built = []

        def recording(l, cfg):
            field = oam_mode_field(l, cfg)
            built.append((field, field.copy()))
            return field

        monkeypatch.setattr(optics, "oam_mode_field", recording)
        states = canonical_input_states()
        effective_operators(states, states, small, phase_only=True)
        assert len(built) == 3
        for samples, copy in built:
            assert np.array_equal(samples, copy)


class TestSuperposition:
    def test_pure_state_reduces_to_mode(self, cfg):
        f = superposition_field([1, 0, 0], cfg)
        np.testing.assert_allclose(f, oam_mode_field(1, cfg), atol=1e-12)

    def test_two_lobe_pattern_has_nodal_line(self, cfg):
        # (|L> + |R>)/sqrt(2) carries a cos(phi) factor vanishing at x = 0
        psi = np.array([1, 0, 1]) / np.sqrt(2)
        f = superposition_field(psi, cfg)
        n = cfg.grid_size
        assert np.abs(f[:, n // 2]).max() < 1e-9

    def test_balanced_superposition_normalized(self, cfg):
        f = superposition_field(np.array([1, 1, 1]) / np.sqrt(3), cfg)
        assert power(f, cfg) == pytest.approx(1.0, abs=1e-9)

    def test_balanced_superposition_off_axis_node(self, cfg):
        # (|L> + |G> + |R>)/sqrt(3) is proportional to (1 + 2 sqrt(2) x / w)
        # times the Gaussian: dark line at x = -w / (2 sqrt(2)), off center
        f = superposition_field(np.array([1, 1, 1]) / np.sqrt(3), cfg)
        n = cfg.grid_size
        x = cfg.axis()
        row = f[n // 2]
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
        xx, yy = meshgrid(cfg)
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
        xx, _ = meshgrid(cfg)
        off_axis = np.abs(xx) > 4 * cfg.step
        values = np.unique(np.round(np.abs(mask[off_axis]), 9))
        np.testing.assert_allclose(values, [0.0, np.pi], atol=1e-9)

    def test_range(self, cfg):
        mask = phase_mask_of(_random_field(cfg, 0))
        assert mask.max() <= np.pi and mask.min() > -np.pi


class TestApplyPhaseMask:
    def test_zero_mask_identity(self, cfg):
        f = _random_field(cfg, 1)
        out = apply_phase_mask(f, np.zeros_like(f, dtype=float))
        np.testing.assert_allclose(out, f)

    def test_mask_then_conjugate_restores(self, cfg):
        f = _random_field(cfg, 2)
        mask = phase_mask_of(_random_field(cfg, 3))
        out = apply_phase_mask(apply_phase_mask(f, mask), mask, conjugate=True)
        np.testing.assert_allclose(out, f, atol=1e-12)

    def test_modulus_unchanged(self, cfg):
        f = _random_field(cfg, 4)
        mask = phase_mask_of(_random_field(cfg, 5))
        out = apply_phase_mask(f, mask)
        np.testing.assert_allclose(np.abs(out), np.abs(f), atol=1e-12)

    def test_conjugate_mask_unwinds_vortex(self, cfg):
        f = oam_mode_field(1, cfg)
        out = apply_phase_mask(f, phase_mask_of(f), conjugate=True)
        assert winding_number(out, cfg.waist, cfg) == 0
        assert winding_number(f, cfg.waist, cfg) == 1

    def test_geometry_mismatch(self, cfg):
        f = _random_field(cfg, 6)
        with pytest.raises(ValueError, match="^grid geometries do not match$"):
            apply_phase_mask(f, np.zeros((8, 8)))
        with pytest.raises(ValueError, match="^grid geometries do not match$"):
            fiber_overlap(np.zeros((8, 8), dtype=complex), cfg)


class TestLensFourier:
    def test_self_fourier_gaussian(self, cfg):
        g = gaussian_field(cfg.waist, cfg)
        out = lens_fourier(g)
        np.testing.assert_allclose(out, g, atol=1e-6)

    def test_waist_scaling_law(self, cfg):
        w1 = 1.4 * cfg.waist
        out = lens_fourier(gaussian_field(w1, cfg))
        expected = gaussian_field(cfg.conjugate_waist(w1), cfg)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_parseval(self, cfg):
        for seed in range(3):
            f = _random_field(cfg, seed)
            assert abs(power(lens_fourier(f), cfg) - power(f, cfg)) < 1e-10 * power(f, cfg)

    def test_winding_preserved(self, cfg):
        for l in (-1, 1, 2):
            out = lens_fourier(oam_mode_field(l, cfg))
            assert winding_number(out, cfg.waist, cfg) == l

    @pytest.mark.parametrize("n", [128, 5])
    def test_in_place_transform_keeps_input(self, n):
        # an even side shifts by the in-place quadrant swap, an odd one by fftshift
        rng = np.random.default_rng(n)
        before = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        f = before.copy()
        out = lens_fourier(f)
        assert np.array_equal(f, before)
        expected = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(before))) / n
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("n", [128, 5])
    def test_overwrite_transforms_the_samples_handed_over(self, n):
        rng = np.random.default_rng(n)
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expected = lens_fourier(f)
        out = lens_fourier(f, overwrite=True)
        assert out.tobytes() == expected.tobytes()
        assert np.shares_memory(out, f) == (n % 2 == 0)


class TestFourF:
    def test_even_gaussian_unchanged(self, cfg):
        g = gaussian_field(cfg.waist, cfg)
        np.testing.assert_allclose(four_f_image(g), g, atol=1e-9)

    def test_equals_parity_flip(self, cfg):
        for seed in range(3):
            f = _random_field(cfg, 10 + seed)
            np.testing.assert_allclose(four_f_image(f), parity_flip(f), atol=1e-9)

    def test_parity_flip_is_the_parity_index_on_both_axes(self, cfg):
        n = cfg.grid_size
        k = parity_index(n)
        np.testing.assert_array_equal(k, [0] + list(range(n - 1, 0, -1)))
        f = _random_field(cfg, 13)
        np.testing.assert_array_equal(parity_flip(f), f[np.ix_(k, k)])
        out = np.empty_like(f)
        assert parity_flip(f, out) is out
        np.testing.assert_array_equal(out, f[np.ix_(k, k)])

    def test_vortex_parity(self, cfg):
        f = oam_mode_field(1, cfg)
        out = four_f_image(f)
        # a 2-D inversion is a rotation: winding is preserved, amplitude flips sign
        assert winding_number(out, cfg.waist, cfg) == 1
        np.testing.assert_allclose(out, -f, atol=1e-9)


class TestFarfield:
    def test_same_kernel_as_lens(self, cfg):
        f = _random_field(cfg, 20)
        np.testing.assert_allclose(farfield(f), lens_fourier(f))

    def test_gaussian_and_power(self, cfg):
        g = gaussian_field(cfg.waist, cfg)
        np.testing.assert_allclose(farfield(g), g, atol=1e-6)
        f = _random_field(cfg, 21)
        assert abs(power(farfield(f), cfg) - power(f, cfg)) < 1e-10 * power(f, cfg)


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
                p_po = optical_projection_probability(states[j], states[i], cfg, phase_only=True)
                p_id = optical_projection_probability(states[j], states[i], cfg)
                assert abs(p_po - p_id) < 1e-3

    def test_phase_only_degrades_superposition_settings(self, cfg):
        # a matched pair of phase-only holograms is retro-exact, so the loss
        # shows up in the cross terms instead of on the diagonal
        states = canonical_input_states()
        p_cross = optical_projection_probability(states[0], states[3], cfg, phase_only=True)
        assert abs(p_cross - 0.5) > 0.1
        p_leak = optical_projection_probability(states[0], states[4], cfg, phase_only=True)
        assert p_leak > 1e-3


class TestEffectiveOperators:
    """The 3x3 reduction against the full FFT chain it replaces."""

    @pytest.fixture(scope="class")
    def small(self):
        # waists off the self-Fourier point, so the lens changes the fiber Gaussian
        w = self_fourier_waist(128, 1.0)
        return OpticsConfig(128, 1.0, 0.7 * w, 0.9 * w)

    def test_ideal_reproduces_chain(self, small):
        states = canonical_input_states()
        rho, povm = effective_operators(states, states, small)
        table = np.einsum("iab,jba->ji", povm, rho).real
        chain = np.array([[optical_projection_probability(a, b, small) for b in states]
                          for a in states])
        np.testing.assert_allclose(table, chain, rtol=0, atol=1e-12)

    def test_phase_only_operators_match_fft_chain(self, small):
        states = canonical_input_states()
        modes = [oam_mode_field(l, small) for l in (1, 0, -1)]
        rho, povm = effective_operators(states, states, small, phase_only=True)
        carrier = gaussian_field(small.waist, small)
        for j, psi in enumerate(states):
            field = apply_phase_mask(carrier, phase_mask_of(superposition_field(psi, small)))
            c = np.array([np.vdot(m, field) for m in modes]) * small.cell_area
            np.testing.assert_allclose(rho[j], np.outer(c, c.conj()), rtol=0, atol=1e-12)
        for i, psi in enumerate(states):
            # the 4-f image inverts coordinates, so l = +-1 amplitudes change sign
            mask = phase_mask_of(superposition_field(psi * np.array([-1, 1, -1]), small))
            imaged = [apply_phase_mask(four_f_image(m), mask, conjugate=True) for m in modes]
            e = np.array([fiber_overlap(farfield(f), small) for f in imaged])
            np.testing.assert_allclose(povm[i], np.outer(e.conj(), e), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("phase_only", [False, True], ids=["ideal", "phase_only"])
    def test_default_grid_matches_field_chain(self, phase_only):
        # the CLI's default grid, under the floating-point checks of its optics
        # guard; underflow is left out, as the sampled Gaussian tails underflow
        cfg = matched_config(512, 1.0)
        states = canonical_input_states()
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            rho, povm = effective_operators(states, states, cfg, phase_only)
        modes = [oam_mode_field(l, cfg) for l in (1, 0, -1)]
        imaged = [four_f_image(m) for m in modes]
        carrier = gaussian_field(cfg.waist, cfg)
        ref_rho, ref_povm = [], []
        for psi in states:
            field = superposition_field(psi, cfg)
            if phase_only:
                field = apply_phase_mask(carrier, phase_mask_of(field))
            c = np.array([np.vdot(m, field) for m in modes]) * cfg.cell_area
            ref_rho.append(np.outer(c, c.conj()))
            if phase_only:
                mask = phase_mask_of(superposition_field(psi * np.array([-1, 1, -1]), cfg))
                converted = [apply_phase_mask(f, mask, conjugate=True) for f in imaged]
            else:
                mask = _conversion_field(psi, cfg)
                converted = [f * mask for f in imaged]
            e = np.array([fiber_overlap(farfield(f), cfg) for f in converted])
            ref_povm.append(np.outer(e.conj(), e))
        table = np.einsum("iab,jba->ji", povm, rho).real
        ref_table = np.einsum("iab,jba->ji", np.array(ref_povm), np.array(ref_rho)).real
        np.testing.assert_allclose(table, ref_table, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("phase_only", [False, True], ids=["ideal", "phase_only"])
    def test_memory_stays_flat(self, phase_only):
        # grid work runs one field at a time in two grids held across the passes: no
        # stack of per-state or per-mode grids; the traced peak is 6.20 complex grids
        # (ideal) and 6.07 (phase-only).  numpy caches an FFT plan per length on first
        # use, about 0.11 grid at N = 256, so a transform of that size runs before the
        # trace: the bound then holds whichever test ran first
        cfg = matched_config(256, 1.0)
        states = canonical_input_states()
        np.fft.fft2(np.zeros((cfg.grid_size,) * 2, dtype=complex))
        tracemalloc.start()
        try:
            effective_operators(states, states, cfg, phase_only)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.25 * cfg.grid_size**2 * np.dtype(complex).itemsize

    def test_rejects_non_qutrits(self, small):
        states = canonical_input_states()
        with pytest.raises(ValueError):
            effective_operators([[1.0, 0.0]], states, small)

    @pytest.mark.parametrize("phase_only", [False, True], ids=["ideal", "phase_only"])
    @pytest.mark.parametrize("cfg", [OpticsConfig(128), OpticsConfig(256),
                                     OpticsConfig(128, 1.0, None, 0.06)],
                             ids=["default-128", "default-256", "fiber-waist-0.06"])
    def test_matches_per_state_reduction(self, cfg, phase_only):
        # one hologram per distinct state, the Gaussian flipped once and LG_0 as the fiber
        # Gaussian give the bits of a pass per state; states are inputs and measurements,
        # inputs only (the stored state) and measurements only, in different orders
        canonical = list(canonical_input_states())
        stored = np.array([0.3, -0.5j, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
        for inputs, meas in (([*canonical, stored], canonical[::-1]), ([stored], canonical)):
            got = effective_operators(inputs, meas, cfg, phase_only)
            want = per_state_operators(inputs, meas, cfg, phase_only)
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    def test_phase_only_matches_per_state_reduction_at_the_widest_waist(self):
        # at waist = extent/4 the samples of row and column 0, which the parity flip keeps
        # in place, reach the amplitudes' last bits: there a measurement takes the
        # hologram of its parity-signed state, not the flipped hologram of the state
        cfg = OpticsConfig(128, 1.0, 0.25, 0.25)
        states = canonical_input_states()
        got = effective_operators(states, states, cfg, phase_only=True)
        want = per_state_operators(states, states, cfg, phase_only=True)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    @pytest.mark.parametrize("phase_only", [False, True], ids=["ideal", "phase_only"])
    def test_builds_and_flips(self, small, phase_only, monkeypatch):
        # with equal waists the fiber Gaussian is a transformed copy of LG_0, not a
        # fourth build; the phase-only path flips the back-propagated Gaussian once
        # instead of a field per measurement, the ideal path one field per winding
        calls = {}
        for name in ("gaussian_field", "oam_mode_field", "parity_flip"):
            def counted(*args, _call=getattr(optics, name), _name=name):
                calls[_name] += 1
                return _call(*args)
            monkeypatch.setattr(optics, name, counted)
        states = canonical_input_states()
        for cfg, gaussians in ((matched_config(128, 1.0), 0), (small, 1)):
            calls.update(gaussian_field=0, oam_mode_field=0, parity_flip=0)
            effective_operators(states, states, cfg, phase_only)
            assert calls == {"gaussian_field": gaussians, "oam_mode_field": 3,
                             "parity_flip": 1 if phase_only else 3}


class TestWindingNumber:
    def test_radius_validation(self, cfg):
        f = oam_mode_field(1, cfg)
        with pytest.raises(ValueError):
            winding_number(f, 2.0, cfg)

    def test_higher_order(self, cfg):
        assert winding_number(oam_mode_field(-2, cfg), cfg.waist, cfg) == -2
