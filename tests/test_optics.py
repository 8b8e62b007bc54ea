import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from oamtomo import optics
from oamtomo.cli import _intensity
from oamtomo.optics import (
    MODE_WINDINGS,
    OpticsConfig,
    _conversion_field,
    apply_phase_mask,
    check_ideal_conversion,
    effective_operators,
    fiber_overlap,
    gaussian_field,
    lens_fourier,
    oam_mode_field,
    optical_projection_probability,
    parity_index,
    phase_mask_of,
    self_fourier_waist,
    superposition_field,
)
from oamtomo.qudit import canonical_input_states, projector_of
from oamtomo.tomography import canonical_settings
from oracles import (
    farfield,
    four_f_image,
    lg_mode_samples,
    matched_config,
    meshgrid,
    parity_flip,
    per_state_operators,
    power,
    superposition_samples,
    winding_number,
)


@pytest.fixture(scope="module")
def cfg():
    return matched_config(512)


def _random_field(cfg, seed):
    rng = np.random.default_rng(seed)
    n = cfg.grid_size
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestConfig:
    def test_matched_defaults(self, cfg):
        assert cfg.waist == pytest.approx(self_fourier_waist(512))
        assert cfg.waist == cfg.fiber_waist

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            OpticsConfig(300, 0.05, 0.05)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            OpticsConfig(64, 0.05, 0.05)

    def test_aliasing_guard(self):
        with pytest.raises(ValueError):
            OpticsConfig(512, 0.3, 0.05)

    @hyp_settings(deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(["waist", "fiber_waist"]),
           value=st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400,
                                  True, False, np.True_, "1", "nan", b"1"]))
    def test_rejects_non_finite(self, field, value):
        # a bool or a non-number is refused as such, before its finiteness
        kwargs = {"grid_size": 128, "waist": 0.1, "fiber_waist": 0.1, field: value}
        refusal = ("finite" if isinstance(value, (float, int)) and not isinstance(value, bool)
                   else "a number")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field}: must be {refusal}, got "):
                OpticsConfig(**kwargs)

    def test_first_bad_length_in_field_order_is_refused(self):
        # waist and fiber_waist are checked one at a time, each in full
        with pytest.raises(ValueError, match=r"^waist: must be positive$"):
            OpticsConfig(128, -1, math.nan)

    def test_grid_size_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"^grid_size: must be an integer, got 128\.5$"):
            OpticsConfig(128.5, 0.1, 0.1)
        with pytest.raises(ValueError, match=r"^grid_size: must be an integer, got True$"):
            OpticsConfig(True, 0.1, 0.1)
        assert OpticsConfig(np.int64(256), 0.1, 0.1).grid_size == 256

    def test_defaults(self):
        # 512 samples over [-1, 1) and the self-Fourier waists, the run config's defaults
        w = self_fourier_waist(512)
        assert OpticsConfig() == OpticsConfig(512, w, w)
        small = OpticsConfig(grid_size=256)
        assert small.waist == small.fiber_waist == self_fourier_waist(256)
        given = OpticsConfig(128, np.float64(0.25), np.float64(0.2))
        assert [type(v) for v in (given.waist, given.fiber_waist)] == [float] * 2

    @pytest.mark.parametrize("n", [128, 256, 512, 1024, 2048, 4096])
    def test_self_fourier_waist_is_a_plain_float(self, n):
        # math.sqrt gives numpy's bits, and a float that messages print as a number
        w = self_fourier_waist(n)
        assert type(w) is float and w == 2.0 / np.sqrt(np.pi * n)

    @pytest.mark.parametrize("kwargs, message", [
        ({"waist": 1e-100}, "waist: 1e-100 is below 0.046875"),
        ({"waist": 2.9 * 2 / 128}, "waist: 0.0453125 is below 0.046875"),
        ({"fiber_waist": 1e-100}, "fiber_waist: 1e-100 is below 0.046875"),
        ({"waist": 1e-300, "fiber_waist": 1e200}, "waist: 1e-300 is below 0.046875"),
        *[({"fiber_waist": value}, f"fiber_waist: {text} exceeds 0.2122065907891938, where its "
           "lens image is") for value, text in ((1e200, "1e+200"), (10, "10.0"), (0.5, "0.5"))],
    ], ids=["waist-1e-100", "waist-2.9-steps", "fiber-1e-100", "field-order", "fiber-1e200",
            "fiber-10", "fiber-0.5"])
    def test_refuses_a_width_the_grid_cannot_resolve(self, kwargs, message):
        # the waist, the fiber waist and the fiber's image through the lens must each
        # be 3 grid steps (0.046875 at N = 128) or more, checked in field order
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            OpticsConfig(128, **kwargs)

    @pytest.mark.parametrize("n", [128, 256, 512, 1024, 2048, 4096])
    def test_resolution_rule_bounds(self, n):
        # 3 grid steps is accepted, and the widest fiber waist, about 2 / (3 pi) at
        # every N, has an image through the lens of 3 grid steps
        least = 3 * 2.0 / n
        OpticsConfig(n, least, least)
        widest = OpticsConfig(n, None, least).conjugate_waist(least)
        assert widest == pytest.approx(2 / (3 * np.pi), rel=1e-15)
        cfg = OpticsConfig(n, None, widest)
        assert cfg.conjugate_waist(cfg.fiber_waist) == pytest.approx(least, rel=1e-15)
        for kwargs in ({"waist": np.nextafter(least, 0)}, {"fiber_waist": np.nextafter(least, 0)},
                       {"fiber_waist": np.nextafter(widest, 1)}):
            with pytest.raises(ValueError, match="resolution rule"):
                OpticsConfig(n, **kwargs)

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
        for l in MODE_WINDINGS:
            assert power(oam_mode_field(l, cfg), cfg) == pytest.approx(1.0, abs=1e-9)

    def test_orthonormal_triple(self, cfg):
        modes = [oam_mode_field(l, cfg) for l in (-1, 0, 1)]
        gram = np.array([[(a.conj() * b).sum() * cfg.cell_area for b in modes] for a in modes])
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-6)

    def test_rejects_large_winding(self, cfg):
        # only the triple is built; a bool or a float is no winding, even where it equals one
        for l in (6, 2, -5, 1.5, 1.0, True, False):
            with pytest.raises(ValueError, match=r"^l: must be one of \(1, 0, -1\), got "):
                oam_mode_field(l, cfg)

    def test_gaussian_refuses_a_nonpositive_waist(self, cfg):
        with pytest.raises(ValueError, match="^waist must be positive$"):
            gaussian_field(-1.0, cfg)

    def test_rejects_a_geometry_with_non_finite_samples(self):
        # gaussian_field takes a waist the OpticsConfig has not checked: its square
        # underflows to 0, so the samples are NaN, refused where made
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="^field contains non-finite samples$"):
            gaussian_field(1e-300, OpticsConfig(128))


class TestInPlaceBuilders:
    """The fields are built and normalized in place; the bits are those of the
    out-of-place construction, and every call returns a new array."""

    @pytest.fixture(scope="class")
    def small(self):
        return matched_config(128)

    def test_mode_fields_match_out_of_place_construction(self, small):
        for l in MODE_WINDINGS:
            field = oam_mode_field(l, small)
            assert field.tobytes() == lg_mode_samples(l, small.waist, small).tobytes()
            assert not np.shares_memory(field, oam_mode_field(l, small))
        w = 0.8 * small.waist
        assert gaussian_field(w, small).tobytes() == lg_mode_samples(0, w, small).tobytes()

    @pytest.mark.parametrize("state", [[1, 0, 0], [0, 0, 1], [1, -1, 1], [0.3, -0.5j, 0.8],
                                       [1e-3, 1, 1j]])
    def test_superposition_matches_out_of_place_construction(self, small, state):
        psi = np.array(state, dtype=complex) / np.linalg.norm(state)
        for cfg in (small, matched_config(512)):
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
        # huge entries too; the root is taken of that sum times the cell area
        rng = np.random.default_rng(n)
        s = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        s.flat[rng.integers(0, n * n, n)] = 1e-310 * rng.standard_normal(n)
        roots, sqrt = [], np.sqrt
        monkeypatch.setattr(np, "sqrt", lambda x: roots.append(x) or sqrt(x))
        cfg = OpticsConfig(n, 0.1, 0.1)
        optics._normalized(s.copy(), cfg)
        monkeypatch.undo()
        power = (np.abs(s) ** 2).sum() * cfg.cell_area
        assert np.float64(roots[0]).tobytes() == power.tobytes()


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
            out = lens_fourier(lg_mode_samples(l, cfg.waist, cfg))
            assert winding_number(out, cfg.waist, cfg) == l

    @pytest.mark.parametrize("n", [128, 6])
    def test_in_place_transform_keeps_input(self, n):
        # the shift is the in-place quadrant swap, for any even side
        rng = np.random.default_rng(n)
        before = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        f = before.copy()
        out = lens_fourier(f)
        assert np.array_equal(f, before)
        expected = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(before))) / n
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("n", [128, 6])
    def test_overwrite_transforms_the_samples_handed_over(self, n):
        rng = np.random.default_rng(n)
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expected = lens_fourier(f)
        out = lens_fourier(f, overwrite=True)
        assert out.tobytes() == expected.tobytes()
        assert np.shares_memory(out, f)

    def test_odd_side_is_refused(self):
        # every OpticsConfig side is even; an odd one fails in the quadrant swap
        with pytest.raises(ValueError):
            lens_fourier(np.ones((5, 5), dtype=complex))


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
            assert abs(fiber_overlap(lg_mode_samples(l, cfg.waist, cfg), cfg)) < 1e-9

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


def _corners(n):
    """The corners of the waists OpticsConfig accepts at grid size n: {3 steps, 0.25}
    x {3 steps, the widest fiber waist}."""
    least = 3 * 2.0 / n
    widest = OpticsConfig(n, None, least).conjugate_waist(least)
    return [OpticsConfig(n, w, f) for w in (least, 0.25) for f in (least, widest)]


def _ideal_refuses(cfg):
    """Whether ideal mode conversion refuses cfg: the fiber's lens image is narrower
    than the mode waist, beyond 1e-12 of it."""
    return cfg.conjugate_waist(cfg.fiber_waist) < cfg.waist * (1 - 1e-12)


class TestEffectiveOperators:
    """The 3x3 reductions against the full FFT chain they replace: the phase-only one
    of the package, and the ideal one of the per-state oracle, whose operators are the
    projectors the CLI takes in optical-ideal mode."""

    @pytest.fixture(scope="class")
    def small(self):
        # waists off the self-Fourier point, so the lens changes the fiber Gaussian
        w = self_fourier_waist(128)
        return OpticsConfig(128, 0.7 * w, 0.9 * w)

    @pytest.mark.parametrize("n", [128, 256])
    def test_corners_of_the_resolution_rule_are_clean(self, n):
        # at each corner of the accepted waists, both modes' operators (the ideal ones of
        # the per-state oracle) and the modes export's grids come with no overflow,
        # division by zero or invalid value, and p <= 1 to rounding: every rank-1 rho and
        # povm element has trace at most 1, so p <= Tr povm[i] Tr C(rho[j]) <= 1 for every
        # channel C that does not increase the trace; the one refusal left is ideal
        # mode's fiber-waist rule
        states = canonical_input_states()
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for cfg in _corners(n):
                for reduce in (per_state_operators, effective_operators):
                    if reduce is per_state_operators and _ideal_refuses(cfg):
                        with pytest.raises(ValueError, match="^fiber_waist: ideal mode "):
                            reduce(states, states, cfg)
                        continue
                    rho, povm = reduce(states, states, cfg)
                    assert np.einsum("iab,jba->ji", povm, rho).real.max() <= 1 + 1e-14
                    traces = np.einsum("...aa->...", np.concatenate([rho, povm])).real
                    assert traces.max() <= 1 + 1e-14
                grid = np.empty((cfg.grid_size,) * 2)
                for psi in states:
                    fourier = lens_fourier(superposition_field(psi, cfg), overwrite=True)
                    assert np.isfinite(_intensity(fourier, grid)).all()
                    assert np.isfinite(phase_mask_of(fourier, grid)).all()

    @pytest.mark.parametrize("n", [128, 256])
    def test_ideal_operators_are_the_projectors(self, n):
        # the identity optical-ideal mode rests on: where ideal mode accepts a corner of
        # the accepted waists, ideal conversion's inputs and POVM are the projectors of
        # the states to 1e-14, and elsewhere check_ideal_conversion refuses the corner
        states, projectors = canonical_input_states(), canonical_settings().projectors
        for cfg in _corners(n):
            if _ideal_refuses(cfg):
                with pytest.raises(ValueError, match=r"^fiber_waist: ideal mode conversion "
                                                     r"needs a back-propagated fiber waist >= "
                                                     r"mode waist; got \S+ < \S+$"):
                    check_ideal_conversion(cfg)
                continue
            check_ideal_conversion(cfg)
            rho, povm = per_state_operators(states, states, cfg)
            assert np.abs(rho - projectors).max() <= 1e-14
            assert np.abs(povm - projectors).max() <= 1e-14

    def test_ideal_reproduces_chain(self, small):
        states = canonical_input_states()
        rho, povm = per_state_operators(states, states, small)
        table = np.einsum("iab,jba->ji", povm, rho).real
        chain = np.array([[optical_projection_probability(a, b, small) for b in states]
                          for a in states])
        np.testing.assert_allclose(table, chain, rtol=0, atol=1e-12)

    def test_phase_only_operators_match_fft_chain(self, small):
        states = canonical_input_states()
        modes = [oam_mode_field(l, small) for l in (1, 0, -1)]
        rho, povm = effective_operators(states, states, small)
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
        # the CLI's default grid makes no overflow, division by zero or invalid value;
        # underflow is left out, as the sampled Gaussian tails underflow
        # (the ideal operators are the per-state oracle's)
        cfg = matched_config(512)
        states = canonical_input_states()
        reduce = effective_operators if phase_only else per_state_operators
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            rho, povm = reduce(states, states, cfg)
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

    def test_memory_stays_flat(self):
        # the back-propagated fiber Gaussian is the one whole grid, and the sums take a
        # row block at a time: the traced peak is 1.34 complex grids at N = 256 and 1.30
        # at N = 512; the bound, in grids at both sizes, leaves 0.06 grid
        # of margin.  numpy caches an FFT plan per length on first use, about 0.11 grid at
        # N = 256, so a transform of that size runs before the trace: the bound then holds
        # whichever test ran first
        states = canonical_input_states()
        for n in (256, 512):
            np.fft.fft2(np.zeros((n, n), dtype=complex))
            tracemalloc.start()
            try:
                effective_operators(states, states, matched_config(n))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.4 * n * n * np.dtype(complex).itemsize, n

    def test_rejects_non_qutrits(self, small):
        states = canonical_input_states()
        with pytest.raises(ValueError):
            effective_operators([[1.0, 0.0]], states, small)

    @pytest.mark.parametrize("phase_only", [False, True], ids=["ideal", "phase_only"])
    @pytest.mark.parametrize("cfg", [OpticsConfig(128), OpticsConfig(256),
                                     OpticsConfig(128, None, 0.06)],
                             ids=["default-128", "default-256", "fiber-waist-0.06"])
    def test_matches_per_state_reduction(self, cfg, phase_only):
        # phase-only: one hologram per distinct state, the Gaussian flipped once and LG_0
        # as the fiber Gaussian give the bits of a pass per state; ideal: a pass per state
        # gives the states' projectors to 1e-14, which the CLI takes.  States are inputs
        # and measurements, inputs only (the stored state) and measurements only, in
        # different orders
        canonical = list(canonical_input_states())
        stored = np.array([0.3, -0.5j, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
        for inputs, meas in (([*canonical, stored], canonical[::-1]), ([stored], canonical)):
            got = per_state_operators(inputs, meas, cfg, phase_only)
            if phase_only:
                want = effective_operators(inputs, meas, cfg)
                assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
            else:
                want = [np.array([projector_of(s) for s in v]) for v in (inputs, meas)]
                assert all(np.abs(g - w).max() <= 1e-14 for g, w in zip(got, want, strict=True))

    def test_phase_only_matches_per_state_reduction_at_the_widest_waist(self):
        # at waist = 0.25, the widest, the samples of row and column 0, which the parity flip keeps
        # in place, reach the amplitudes' last bits: there a measurement takes the
        # hologram of its parity-signed state, not the flipped hologram of the state
        cfg = OpticsConfig(128, 0.25, 0.2)
        states = canonical_input_states()
        got = effective_operators(states, states, cfg)
        want = per_state_operators(states, states, cfg, phase_only=True)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    def test_ideal_matches_per_state_reduction_in_dots_of_8192(self):
        # at N = 1024 a row block is 32768 samples, which the per-state oracle adds up in
        # 4 dots of 8192: its ideal operators are still the projectors to 1e-14
        cfg = OpticsConfig(1024)
        states, projectors = canonical_input_states(), canonical_settings().projectors
        rho, povm = per_state_operators(states, states, cfg)
        assert np.abs(rho - projectors).max() <= 1e-14
        assert np.abs(povm - projectors).max() <= 1e-14

    def test_phase_only_matches_per_state_reduction_in_dots_of_8192(self):
        # the package's sums over blocks of 32768 samples take the oracle's 4 dots of 8192
        cfg = OpticsConfig(1024)
        states = canonical_input_states()
        got = effective_operators(states, states, cfg)
        want = per_state_operators(states, states, cfg, phase_only=True)
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS threads a dot of over 10000 samples, and how it splits the sum among
        # threads changes the last bits; a row block is 32768 samples at N = 1024.  It
        # reads its thread count once loaded, so each count runs in a fresh interpreter
        # (on a host of one CPU both run one thread)
        script = "\n".join([
            "from oamtomo.optics import OpticsConfig, effective_operators",
            "from oamtomo.qudit import canonical_input_states",
            "states = canonical_input_states()",
            "for v in effective_operators(states, states, OpticsConfig(1024)):",
            "    print(v.tobytes().hex())",
        ])
        src = str(pathlib.Path(optics.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

    def test_builds_and_flips(self, small, monkeypatch):
        # the fiber Gaussian is the one whole grid built and transformed, equal waists or
        # not; the LG triple is made a row block at a time, in a pass for its norms and
        # one for the sums, and no whole grid is flipped
        calls, names = {}, ("gaussian_field", "oam_mode_field", "_mode_samples",
                            "_gaussian_blocks", "lens_fourier")
        for name in names:
            def counted(*args, _call=getattr(optics, name), _name=name, **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(optics, name, counted)
        states = canonical_input_states()
        for cfg in (matched_config(128), small):
            calls.update(dict.fromkeys(names, 0))
            effective_operators(states, states, cfg)
            assert calls == {"gaussian_field": 1, "oam_mode_field": 0, "_mode_samples": 1,
                             "_gaussian_blocks": 3, "lens_fourier": 1}
        assert not hasattr(optics, "parity_flip")


class TestWindingNumber:
    def test_radius_validation(self, cfg):
        f = oam_mode_field(1, cfg)
        with pytest.raises(ValueError):
            winding_number(f, 2.0, cfg)

    def test_higher_order(self, cfg):
        assert winding_number(lg_mode_samples(-2, cfg.waist, cfg), cfg.waist, cfg) == -2
