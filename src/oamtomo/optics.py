"""Sampled-field model of OAM mode preparation and the 4-f projection chain.

All lengths are dimensionless grid units; physical scalings (lens focal
lengths, wavelength, the far-field arm) only rescale coordinates and cancel
in coupling probabilities, so they are not simulated.  The mode family is
Laguerre-Gauss with radial index 0: amplitude (sqrt(2) r / w)^|l| e^{-r^2/w^2}
e^{i l phi}, the standard OAM eigenmodes with closed-form overlaps.

lens_fourier is a centered, unitary 2-D DFT: one ideal lens focal-plane
transform.  Two of them (four_f_image) reproduce the input with coordinates
inverted, which is why measurement masks are conjugated relative to the
preparation masks.  By default configurations use the grid's self-Fourier
waist, for which a fundamental Gaussian is shape-invariant under
lens_fourier and mode fields stay equally well resolved in every plane.

optical_projection_probability runs the whole sampled chain for one pure
input and one measurement state, the reference.  effective_operators reduces
it to the qutrit the memory stores: a 3x3 effective input per prepared field
and a rank-1 POVM element per measurement, on the LG triple.  4-f imaging is
the parity flip, applied to one field, and by Parseval the far-field fiber
overlap is an inner product with the fiber Gaussian traced back through the
lens: one transform in all.  Ideal modulation is linear in the state, so its
inputs follow from the triple's 3x3 Gram matrix and its POVM from a 3x3
coupling matrix, one grid pass per winding; phase-only takes one per state.

Reference hardware values from the modeled experiment (beam waist 2.5 mm,
300 mm lenses, 1920x1080 phase-only SLMs, 2.5 m far-field arm) are
documentation metadata only; see EXPERIMENT_REFERENCE.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .qudit import state_vector

EXPERIMENT_REFERENCE = {
    "beam_waist_mm": 2.5,
    "lens_focal_length_mm": 300.0,
    "slm_resolution": (1920, 1080),
    "farfield_arm_m": 2.5,
}

# winding numbers of the qutrit basis (|L>, |G>, |R>)
MODE_WINDINGS = (1, 0, -1)

# state * _PARITY holds the amplitudes of the parity-flipped field: LG_l picks up (-1)^l
_PARITY = np.array([(-1.0) ** l for l in MODE_WINDINGS])

_MAX_WINDING = 5


def self_fourier_waist(grid_size: int, extent: float) -> float:
    """Waist for which a Gaussian is invariant under the grid's unitary DFT."""
    return 2.0 * extent / np.sqrt(np.pi * grid_size)


@dataclass(frozen=True)
class OpticsConfig:
    """Grid geometry and mode waists.

    grid_size N samples per axis over [-extent, extent); waist is the
    LG-family waist, fiber_waist the far-field collection Gaussian's waist.
    """

    grid_size: int
    extent: float
    waist: float
    fiber_waist: float

    def __post_init__(self):
        n = self.grid_size
        if n < 128 or (n & (n - 1)) != 0:
            raise ValueError(f"grid_size must be a power of two >= 128, got {n}")
        if self.extent <= 0:
            raise ValueError("extent must be positive")
        if self.waist <= 0 or self.fiber_waist <= 0:
            raise ValueError("waists must be positive")
        if self.waist > self.extent / 4.0:
            raise ValueError(
                f"waist {self.waist!r} exceeds extent/4 = {self.extent / 4.0!r} (aliasing guard)"
            )

    @classmethod
    def matched(cls, grid_size: int = 512, extent: float = 1.0) -> "OpticsConfig":
        """Self-Fourier configuration: mode and fiber waists both at the DFT fixed point."""
        w = self_fourier_waist(grid_size, extent)
        return cls(grid_size, extent, w, w)

    @property
    def step(self) -> float:
        return 2.0 * self.extent / self.grid_size

    @property
    def cell_area(self) -> float:
        return self.step * self.step

    def axis(self) -> np.ndarray:
        return (np.arange(self.grid_size) - self.grid_size // 2) * self.step

    def meshgrid(self):
        """Sample coordinates (x, y) over the grid: broadcast views of one axis, not copies."""
        x = self.axis()
        return np.meshgrid(x, x, indexing="xy", copy=False)

    def conjugate_waist(self, waist: float) -> float:
        """Waist of the unitary-DFT image of a Gaussian of the given waist."""
        return self_fourier_waist(self.grid_size, self.extent) ** 2 / waist


@dataclass(frozen=True)
class FieldGrid:
    """Sampled complex transverse field over a square grid."""

    samples: np.ndarray
    extent: float

    def __post_init__(self):
        s = self.samples
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("field samples must form a square grid")
        if not np.isfinite(s).all():
            raise ValueError("field contains non-finite samples")

    @property
    def grid_size(self) -> int:
        return self.samples.shape[0]

    @property
    def cell_area(self) -> float:
        step = 2.0 * self.extent / self.grid_size
        return step * step

    def power(self) -> float:
        return float((np.abs(self.samples) ** 2).sum() * self.cell_area)


def _qutrit(state) -> np.ndarray:
    psi = state_vector(state)
    if psi.size != 3:
        raise ValueError(f"optical fields are defined for 3-component states, got {psi.size}")
    return psi


def _vortex(l: int, waist: float, cfg: OpticsConfig):
    """LG(p=0, l) vortex factor ((sqrt(2) / waist)(x + i sign(l) y))^|l|, exact at grid zeros."""
    if l == 0:
        return 1.0
    xx, yy = cfg.meshgrid()
    return ((np.sqrt(2.0) / waist) * (xx + 1j * np.sign(l) * yy)) ** abs(l)


def _lg_profile(l: int, waist: float, cfg: OpticsConfig) -> np.ndarray:
    """Unnormalized LG(p=0, l) samples of the given waist."""
    xx, yy = cfg.meshgrid()
    field = np.exp(-(xx * xx + yy * yy) / waist**2).astype(complex)
    if l != 0:
        field *= _vortex(l, waist, cfg)
    return field


def _normalized(samples: np.ndarray, cfg: OpticsConfig) -> FieldGrid:
    norm = np.sqrt((np.abs(samples) ** 2).sum() * cfg.cell_area)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero field")
    return FieldGrid(samples / norm, cfg.extent)


def oam_mode_field(l: int, cfg: OpticsConfig) -> FieldGrid:
    """Unit-power Laguerre-Gauss p=0 mode with winding number l."""
    if abs(l) > _MAX_WINDING:
        raise ValueError(f"|l| <= {_MAX_WINDING} supported, got l={l}")
    return _normalized(_lg_profile(l, cfg.waist, cfg), cfg)


def gaussian_field(waist: float, cfg: OpticsConfig) -> FieldGrid:
    """Unit-power fundamental Gaussian of the given waist."""
    if waist <= 0:
        raise ValueError("waist must be positive")
    return _normalized(_lg_profile(0, waist, cfg), cfg)


def _superposed(psi, modes, cfg: OpticsConfig) -> np.ndarray:
    """Unnormalized sum of psi_k modes[l_k] over the (l=+1, 0, -1) triple;
    modes maps l to samples and needs no entry for a zero amplitude."""
    total = np.zeros((cfg.grid_size, cfg.grid_size), dtype=complex)
    for c, l in zip(psi, MODE_WINDINGS):
        if c != 0:
            total += c * modes[l]
    return total


def superposition_field(state, cfg: OpticsConfig) -> FieldGrid:
    """Unit-power field of a qutrit state over the (l=+1, 0, -1) mode triple."""
    psi = _qutrit(state)
    modes = {l: oam_mode_field(l, cfg).samples for c, l in zip(psi, MODE_WINDINGS) if c != 0}
    return _normalized(_superposed(psi, modes, cfg), cfg)


def phase_mask_of(field: FieldGrid) -> np.ndarray:
    """Entrywise argument in (-pi, pi]; the argument of 0 is taken as 0."""
    mask = np.angle(field.samples)
    mask[mask == -np.pi] = np.pi
    return mask


def apply_phase_mask(field: FieldGrid, mask: np.ndarray, conjugate: bool = False) -> FieldGrid:
    """Multiply by e^{+i mask} (or e^{-i mask} with conjugate=True)."""
    if np.shape(mask) != field.samples.shape:
        raise ValueError("grid geometries do not match")
    sign = -1.0 if conjugate else 1.0
    return FieldGrid(field.samples * np.exp(1j * sign * mask), field.extent)


def lens_fourier(field: FieldGrid) -> FieldGrid:
    """Centered unitary 2-D DFT: one ideal lens focal-plane transform."""
    s = field.samples
    out = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(s))) / s.shape[0]
    return FieldGrid(out, field.extent)


def farfield(field: FieldGrid) -> FieldGrid:
    """Fraunhofer propagation: a single focal-plane transform.

    The residual quadratic phase of far-field diffraction is dropped; it
    cancels against the centered collection Gaussian in coupling magnitudes.
    """
    return lens_fourier(field)


def four_f_image(field: FieldGrid) -> FieldGrid:
    """Two successive lens transforms: the parity-inverted input field."""
    return lens_fourier(lens_fourier(field))


def parity_flip(field: FieldGrid) -> FieldGrid:
    """Coordinate inversion (x, y) -> (-x, -y) on the centered grid.

    Exactly the index permutation realized by a squared DFT; the row/column
    at the grid edge (whose mirror falls off the grid) maps to itself.
    """
    flipped = np.roll(np.flip(field.samples, axis=(0, 1)), 1, axis=(0, 1))
    return FieldGrid(flipped, field.extent)


def fiber_overlap(field: FieldGrid, cfg: OpticsConfig) -> complex:
    """Coupling amplitude into the collection Gaussian of waist fiber_waist."""
    if field.grid_size != cfg.grid_size or field.extent != cfg.extent:
        raise ValueError("grid geometries do not match")
    g = gaussian_field(cfg.fiber_waist, cfg)
    return complex((field.samples * g.samples.conj()).sum() * cfg.cell_area)


def winding_number(field: FieldGrid, radius: float) -> int:
    """Net phase winding around a centered circle of the given radius."""
    if radius <= 0 or radius >= field.extent:
        raise ValueError("radius must lie inside the grid")
    n = field.grid_size
    step = 2.0 * field.extent / n
    theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    ix = np.clip(np.rint(radius * np.cos(theta) / step).astype(int) + n // 2, 0, n - 1)
    iy = np.clip(np.rint(radius * np.sin(theta) / step).astype(int) + n // 2, 0, n - 1)
    phases = np.angle(field.samples[iy, ix])
    diffs = np.diff(np.concatenate([phases, phases[:1]]))
    wrapped = (diffs + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(wrapped.sum() / (2.0 * np.pi)))


def _conversion_envelope(cfg: OpticsConfig) -> np.ndarray:
    """Real ratio E of the back-propagated fiber Gaussian to the mode Gaussian,
    with the exponentials combined before evaluation; requires the
    back-propagated fiber waist to be at least the mode waist, otherwise E
    would diverge faster than the fields decay."""
    w = cfg.waist
    w_conj = cfg.conjugate_waist(cfg.fiber_waist)
    if w_conj < w * (1.0 - 1e-12):
        raise ValueError(
            "ideal mode conversion needs a back-propagated fiber waist >= mode waist; "
            f"got {w_conj!r} < {w!r}"
        )
    xx, yy = cfg.meshgrid()
    gauss_peak = np.sqrt(2.0 / np.pi) / w_conj
    return np.exp((xx * xx + yy * yy) * (1.0 / w_conj**2 - 1.0 / w**2)) / gauss_peak


def _conversion_term(l: int, cfg: OpticsConfig):
    """t_l = amp_l Q_l, the normalized vortex factor of LG_l: t_l E is conj of
    the conversion mask of the flipped basis mode (-1)^l LG_l."""
    return np.sqrt(2.0 / (np.pi * cfg.waist**2 * factorial(abs(l)))) * _vortex(l, cfg.waist, cfg)


def _conversion_field(meas_state: np.ndarray, cfg: OpticsConfig) -> np.ndarray:
    """Complex mask converting the image-plane measurement mode into the
    far-field fiber's back-propagated Gaussian: conj(flipped mode field) /
    Gaussian, built analytically from the terms of the flipped state."""
    terms = zip(meas_state * _PARITY, MODE_WINDINGS)
    return np.conj(sum(c * _conversion_term(l, cfg) for c, l in terms) * _conversion_envelope(cfg))


def optical_projection_probability(
    input_state, meas_state, cfg: OpticsConfig, modulation: str = "ideal"
) -> float:
    """Probability of the full physical projection chain.

    Pipeline: prepare the input field (exact superposition for "ideal", a
    phase-only hologram on a Gaussian carrier for "phase_only"), image it
    through the 4-f system, apply the measurement conversion for the
    parity-flipped target mode (full complex mask for "ideal", conjugate
    phase mask for "phase_only"), propagate to the far field and couple into
    the collection Gaussian.

    With ideal modulation this reproduces |<meas|input>|^2 up to grid
    discretization error.
    """
    if modulation not in ("ideal", "phase_only"):
        raise ValueError(f"modulation must be 'ideal' or 'phase_only', got {modulation!r}")
    psi_in, psi_meas = _qutrit(input_state), _qutrit(meas_state)

    if modulation == "ideal":
        field = superposition_field(psi_in, cfg)
    else:
        carrier = gaussian_field(cfg.waist, cfg)
        field = apply_phase_mask(carrier, phase_mask_of(superposition_field(psi_in, cfg)))

    field = four_f_image(field)

    if modulation == "ideal":
        field = FieldGrid(field.samples * _conversion_field(psi_meas, cfg), cfg.extent)
    else:
        flipped = superposition_field(psi_meas * _PARITY, cfg)
        field = apply_phase_mask(field, phase_mask_of(flipped), conjugate=True)

    return abs(fiber_overlap(farfield(field), cfg)) ** 2


def effective_operators(input_states, meas_states, cfg: OpticsConfig, modulation: str = "ideal"):
    """The projection chain reduced to 3x3 operators on the (l=+1, 0, -1) triple.

    Returns (rho, povm).  rho[j] = a a^H with a_k = <LG_k | prepared field of
    input j> dA; a phase-only hologram leaves power outside the triple, so its
    rho[j] is sub-normalized.  povm[i] = e e^H with e_k = <LG_k | P(conj(M) F^H
    G)> dA for the measurement mask M of meas_states[i]: 4-f imaging is the
    parity flip P, and by Parseval the far-field fiber overlap <G | F g> is
    <F^H G | g>, with F^H G = conj(F G) for the real fiber Gaussian G.  For a
    channel C on the stored qutrit, Tr(povm[i] C(rho[j])) is the probability
    of setting (j, i).

    Ideal modulation is linear in the state: a = G psi / sqrt(psi^H G psi) for
    the Gram matrix G_kl = <LG_k | LG_l> dA, and e = B c for the parity-signed
    state c, where column l of B is the e of conj(M) = t_l E (_conversion_term).
    Phase-only is not: each state costs one pass over the grid.
    """
    if modulation not in ("ideal", "phase_only"):
        raise ValueError(f"modulation must be 'ideal' or 'phase_only', got {modulation!r}")
    inputs = np.array([_qutrit(s) for s in input_states])
    signed = np.array([_qutrit(s) for s in meas_states]) * _PARITY
    back = lens_fourier(gaussian_field(cfg.fiber_waist, cfg)).samples.conj()
    modes = {l: oam_mode_field(l, cfg).samples for l in MODE_WINDINGS}

    def amplitudes(field: np.ndarray) -> np.ndarray:
        return np.array([np.vdot(m, field) for m in modes.values()]) * cfg.cell_area

    def flipped(field: np.ndarray) -> np.ndarray:
        return parity_flip(FieldGrid(field, cfg.extent)).samples

    if modulation == "ideal":
        # amplitudes(LG_l) is column l of G, so row j of a is G psi_j
        a = inputs @ np.array([amplitudes(m) for m in modes.values()])
        power = np.einsum("jk,jk->j", inputs.conj(), a).real
        if not (power > 0.0).all():
            raise ValueError("cannot normalize a zero field")
        a /= np.sqrt(power)[:, None]
        back *= _conversion_envelope(cfg)
        # likewise row l of coupling is column l of B, so row i of e is B c_i
        coupling = np.array([amplitudes(flipped(back * _conversion_term(l, cfg)))
                             for l in MODE_WINDINGS])
        e = signed @ coupling
    else:
        def hologram(psi, field: np.ndarray) -> np.ndarray:
            """field e^{i arg u}, u = sum psi_k LG_k, arg 0 = 0; Re u and Im u are divided
            by |u| as real arrays, as a complex division can overflow on subnormals."""
            u = _superposed(psi, modes, cfg)
            u[u == 0] = 1.0
            mag = np.abs(u)
            u.real /= mag
            u.imag /= mag
            u *= field
            return u

        a = np.array([amplitudes(hologram(psi, modes[0])) for psi in inputs])
        e = np.array([amplitudes(flipped(hologram(c, back))) for c in signed])
    rho, povm = (v[:, :, None] * v[:, None, :].conj() for v in (a, e))
    if not (np.isfinite(rho).all() and np.isfinite(povm).all()):
        raise ValueError("field contains non-finite samples")
    return rho, povm
