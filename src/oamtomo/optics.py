"""Sampled-field model of OAM mode preparation and the 4-f projection chain.

All lengths are dimensionless grid units; physical scalings (lens focal
lengths, wavelength, the far-field arm) only rescale coordinates and cancel
in coupling probabilities, so they are not simulated.  A field is the
(grid_size, grid_size) complex array of its samples, and the OpticsConfig
holds its geometry; the builders refuse a geometry that makes a sample
non-finite.  The mode family is Laguerre-Gauss with radial index 0:
amplitude (sqrt(2) r / w)^|l| e^{-r^2/w^2} e^{i l phi}, the standard OAM
eigenmodes with closed-form overlaps.

lens_fourier is a centered, unitary 2-D DFT: one ideal lens focal-plane
transform.  Two of them reproduce the input with coordinates inverted
(parity_flip), which is why measurement masks are conjugated relative to the
preparation masks.  By default configurations use the grid's self-Fourier
waist, for which a fundamental Gaussian is shape-invariant under
lens_fourier and mode fields stay equally well resolved in every plane.

Modulation is ideal (exact complex fields and masks) or, with phase_only=True,
phase-only holograms on a Gaussian carrier.  optical_projection_probability
runs the whole sampled chain for one pure input and one measurement state,
the reference.  effective_operators reduces it to the qutrit the memory
stores: a 3x3 effective input per prepared field and a rank-1 POVM element
per measurement, on the LG triple.  4-f imaging is the parity flip, applied
to one field, and by Parseval the far-field fiber overlap is an inner product
with the fiber Gaussian traced back through the lens: one transform in all.
Ideal modulation is linear in the state, so its inputs follow from the
triple's 3x3 Gram matrix and its POVM from a 3x3 coupling matrix, one grid
pass per winding; phase-only takes one per distinct state, its hologram, which
serves the state's inputs and measurements alike.

Fields are built and transformed in place, 1/32 of the rows at a time, with the
bits of the out-of-place expressions: a field's build holds it and a few percent
of a grid.  A superposition is summed the same way, in a pass for its modes' norms
and one for the sum, so it holds no whole mode.  Arrays that callers share, such as
the mode triple, are never written.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from math import factorial

import numpy as np

from .qudit import state_vector

# winding numbers of the qutrit basis (|L>, |G>, |R>)
MODE_WINDINGS = (1, 0, -1)

# state * _PARITY holds the amplitudes of the parity-flipped field: LG_l picks up (-1)^l
_PARITY = np.array([(-1.0) ** l for l in MODE_WINDINGS])

_MAX_WINDING = 5

# largest grid_size: one complex grid is then 268 MB, and no command holds
# more than about 6.2 of them (optical simulate; modes about 1.7)
_MAX_GRID_SIZE = 4096


def self_fourier_waist(grid_size: int, extent: float) -> float:
    """Waist for which a Gaussian is invariant under the grid's unitary DFT."""
    return 2.0 * extent / np.sqrt(np.pi * grid_size)


@dataclass(frozen=True)
class OpticsConfig:
    """Grid geometry and mode waists.

    grid_size N samples per axis over [-extent, extent); waist is the
    LG-family waist, fiber_waist the far-field collection Gaussian's waist.
    Each waist left as None becomes the grid's self-Fourier waist.  The
    lengths are stored as floats.  Each refusal starts with the name of the
    field it refuses.
    """

    grid_size: int = 512
    extent: float = 1.0
    waist: float | None = None
    fiber_waist: float | None = None

    def __post_init__(self):
        n = self.grid_size
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"grid_size: must be an integer, got {n!r}")
        if not 128 <= n <= _MAX_GRID_SIZE or (n & (n - 1)) != 0:
            raise ValueError(
                f"grid_size: must be a power of two from 128 to {_MAX_GRID_SIZE}, got {n}")
        for name in ("extent", "waist", "fiber_waist"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name}: must be a number, got {value!r}")
            if not abs(value) <= sys.float_info.max:  # NaN, inf, huge ints
                raise ValueError(f"{name}: must be finite, got {value!r}")
        if self.extent <= 0:
            raise ValueError("extent: must be positive")
        for name in ("extent", "waist", "fiber_waist"):  # stored as floats, extent first
            value = getattr(self, name)
            if value is None:
                value = self_fourier_waist(n, self.extent)
                if not value <= sys.float_info.max:
                    raise ValueError(f"extent: {self.extent!r} is too large: the default "
                                     f"{name}, the self-Fourier waist, is not finite")
            object.__setattr__(self, name, float(value))
        for name in ("waist", "fiber_waist"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive")
        if self.waist > self.extent / 4.0:
            raise ValueError(
                f"waist: {self.waist!r} exceeds extent/4 = {self.extent / 4.0!r} (aliasing guard)"
            )

    @property
    def step(self) -> float:
        return 2.0 * self.extent / self.grid_size

    @property
    def cell_area(self) -> float:
        return self.step * self.step

    def axis(self) -> np.ndarray:
        return (np.arange(self.grid_size) - self.grid_size // 2) * self.step

    def conjugate_waist(self, waist: float) -> float:
        """Waist of the unitary-DFT image of a Gaussian of the given waist."""
        return self_fourier_waist(self.grid_size, self.extent) ** 2 / waist


def _qutrit(state) -> np.ndarray:
    psi = state_vector(state)
    if psi.size != 3:
        raise ValueError(f"optical fields are defined for 3-component states, got {psi.size}")
    return psi


def _vortex(l: int, cfg: OpticsConfig, rows=np.s_[:], out=None):
    """LG(p=0, l) vortex factor ((sqrt(2) / waist)(x + i sign(l) y))^|l| of the mode
    waist over the given rows (into out, if given), exact at grid zeros."""
    if l == 0:
        return 1.0
    x = cfg.axis()
    y = np.multiply(1j * np.sign(l), x[rows, None])
    factor = np.empty((len(y), len(x)), dtype=complex) if out is None else out
    factor[...] = y  # broadcast by assignment: a broadcasting ufunc buffers each such operand
    np.add(x, factor, out=factor)
    np.multiply(np.sqrt(2.0) / cfg.waist, factor, out=factor)
    if abs(l) > 1:  # z ** 1 is z; not np.power(out=): ** squares by np.square
        factor **= abs(l)
    return factor


def _gaussian_blocks(waist: float, cfg: OpticsConfig):
    """Yield (rows, g) for each block of 1/32 of the rows: g is the real Gaussian
    e^{-r^2/waist^2} over those rows, made once for every mode built on them."""
    n, x2 = cfg.grid_size, cfg.axis() ** 2
    for rows in (np.s_[r:r + n // 32] for r in range(0, n, n // 32)):
        r2 = np.add(x2, x2[rows, None])
        r2 /= -waist**2
        yield rows, np.exp(r2, out=r2)


def _mode_block(g, l: int, cfg: OpticsConfig, rows, out: np.ndarray) -> np.ndarray:
    """Unnormalized complex samples of LG(p=0, l) over rows into out: the Gaussian g
    of _gaussian_blocks times the vortex factor of l."""
    out.real, out.imag = g, 0.0
    if l != 0:
        out *= _vortex(l, cfg, rows)
    return out


def _mode_samples(waist: float, l: int, cfg: OpticsConfig) -> np.ndarray:
    """Unnormalized samples of LG(p=0, l) with the given waist, made a row block at a time."""
    samples = np.empty((cfg.grid_size,) * 2, dtype=complex)
    for rows, g in _gaussian_blocks(waist, cfg):
        _mode_block(g, l, cfg, rows, samples[rows])
    return samples


def _power(block: np.ndarray) -> float:
    """Sum of |s|^2 over a contiguous block: numpy's pairwise sum of its samples."""
    return (np.abs(block) ** 2).sum()


def _norm(powers, cfg: OpticsConfig) -> float:
    """Root of the power of a field from the powers of its 32 row blocks, added
    pairwise: numpy's pairwise sum of the whole grid, times the cell area."""
    while len(powers) > 1:
        powers = powers[0::2] + powers[1::2]
    norm = np.sqrt(powers[0] * cfg.cell_area)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero field")
    return norm


def _normalized(samples: np.ndarray, cfg: OpticsConfig) -> np.ndarray:
    """Unit-power field of samples, which the caller hands over: divided in place."""
    samples /= _norm(np.array([_power(block) for block in samples.reshape(32, -1)]), cfg)
    if not np.isfinite(samples).all():
        raise ValueError("field contains non-finite samples")
    return samples


def oam_mode_field(l: int, cfg: OpticsConfig) -> np.ndarray:
    """Unit-power Laguerre-Gauss p=0 mode with winding number l."""
    if abs(l) > _MAX_WINDING:
        raise ValueError(f"|l| <= {_MAX_WINDING} supported, got l={l}")
    return _normalized(_mode_samples(cfg.waist, l, cfg), cfg)


def gaussian_field(waist: float, cfg: OpticsConfig) -> np.ndarray:
    """Unit-power fundamental Gaussian of the given waist."""
    if waist <= 0:
        raise ValueError("waist must be positive")
    return _normalized(_mode_samples(waist, 0, cfg), cfg)


def superposition_field(state, cfg: OpticsConfig) -> np.ndarray:
    """Unit-power field of a qutrit state over the (l=+1, 0, -1) mode triple, the sum
    of psi_k LG(l_k) over the nonzero amplitudes, made a row block at a time in two
    passes of one scratch block: the first takes each mode's block powers, the second
    rebuilds each block, normalizes and scales it and adds it into the field."""
    terms = [(c, l) for c, l in zip(_qutrit(state), MODE_WINDINGS) if c != 0]
    n = cfg.grid_size
    block = np.empty((n // 32, n), dtype=complex)
    powers = np.array([[_power(_mode_block(g, l, cfg, rows, block)) for _, l in terms]
                       for rows, g in _gaussian_blocks(cfg.waist, cfg)])
    norms = [_norm(p, cfg) for p in powers.T]
    field = np.zeros((n, n), dtype=complex)
    for rows, g in _gaussian_blocks(cfg.waist, cfg):
        for (c, l), norm in zip(terms, norms):
            _mode_block(g, l, cfg, rows, block)
            block /= norm
            block *= c
            field[rows] += block
    return _normalized(field, cfg)


def phase_mask_of(field: np.ndarray, out=None) -> np.ndarray:
    """Entrywise argument in (-pi, pi] of a field (into out, if given), np.angle's
    arctan2 with -pi taken as pi; the argument of 0 is 0."""
    mask = np.arctan2(field.imag, field.real, out=out)
    mask[mask == -np.pi] = np.pi
    return mask


def apply_phase_mask(field: np.ndarray, mask: np.ndarray, conjugate: bool = False) -> np.ndarray:
    """Multiply by e^{+i mask} (or e^{-i mask} with conjugate=True)."""
    if np.shape(mask) != field.shape:
        raise ValueError("grid geometries do not match")
    sign = -1.0 if conjugate else 1.0
    return field * np.exp(1j * sign * mask)


def lens_fourier(field: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Centered unitary 2-D DFT of a square field: one ideal lens focal-plane transform,
    done in place on a copy of the field or, with overwrite, on the field the caller
    hands over."""
    out = _shifted(field if overwrite else field.copy(), np.fft.ifftshift)
    np.fft.fft2(out, out=out)
    out /= out.shape[0]
    return _shifted(out, np.fft.fftshift)


def _shifted(a: np.ndarray, shift) -> np.ndarray:
    """shift (np.fft.fftshift or ifftshift) of a square array: for an even side,
    where the two agree, a itself with its diagonal quadrants swapped."""
    n = a.shape[0]
    if n % 2:
        return shift(a)
    h = n // 2
    for top, bottom in ((np.s_[:h, :h], np.s_[h:, h:]), (np.s_[:h, h:], np.s_[h:, :h])):
        quarter = a[top].copy()
        a[top] = a[bottom]
        a[bottom] = quarter
    return a


def parity_index(n: int) -> np.ndarray:
    """Index map k -> (-k) mod n of the coordinate inversion on a centered
    n-point axis; the edge index 0, whose mirror falls off the grid, maps to
    itself."""
    return -np.arange(n) % n


def parity_flip(field: np.ndarray, out=None) -> np.ndarray:
    """Coordinate inversion (x, y) -> (-x, -y) of a field on the centered grid (into
    out, if given): the parity index on both axes, the permutation a squared DFT
    realizes."""
    a, out = field, np.empty_like(field) if out is None else out
    out[0, 0], out[0, 1:] = a[0, 0], a[0, :0:-1]  # row and column 0 stay, the rest reverse
    out[1:, 0], out[1:, 1:] = a[:0:-1, 0], a[:0:-1, :0:-1]
    return out


def fiber_overlap(field: np.ndarray, cfg: OpticsConfig) -> complex:
    """Coupling amplitude into the collection Gaussian of waist fiber_waist."""
    if field.shape != (cfg.grid_size,) * 2:
        raise ValueError("grid geometries do not match")
    g = gaussian_field(cfg.fiber_waist, cfg)
    return complex((field * g.conj()).sum() * cfg.cell_area)


def _conversion_envelope(cfg: OpticsConfig, out=None) -> np.ndarray:
    """Real ratio E of the back-propagated fiber Gaussian to the mode Gaussian,
    with the exponentials combined before evaluation (into out, if given);
    requires the back-propagated fiber waist to be at least the mode waist,
    otherwise E would diverge faster than the fields decay."""
    w = cfg.waist
    w_conj = cfg.conjugate_waist(cfg.fiber_waist)
    if w_conj < w * (1.0 - 1e-12):
        raise ValueError(
            "ideal mode conversion needs a back-propagated fiber waist >= mode waist; "
            f"got {float(w_conj)!r} < {w!r}"
        )
    x2 = cfg.axis() ** 2
    r2 = np.add(x2, x2[:, None], out=out)
    r2 *= 1.0 / w_conj**2 - 1.0 / w**2
    return np.divide(np.exp(r2, out=r2), np.sqrt(2.0 / np.pi) / w_conj, out=r2)  # by G's peak


def _conversion_term(l: int, cfg: OpticsConfig, out=None):
    """t_l = amp_l Q_l, the normalized vortex factor of LG_l (into out, if given): t_l E
    is conj of the conversion mask of the flipped basis mode (-1)^l LG_l."""
    amp = np.sqrt(2.0 / (np.pi * cfg.waist**2 * factorial(abs(l))))
    return amp if l == 0 else np.multiply(amp, _vortex(l, cfg, out=out), out=out)


def _conversion_field(meas_state: np.ndarray, cfg: OpticsConfig) -> np.ndarray:
    """Complex mask converting the image-plane measurement mode into the
    far-field fiber's back-propagated Gaussian: conj(flipped mode field) /
    Gaussian, built analytically from the terms of the flipped state."""
    terms = zip(meas_state * _PARITY, MODE_WINDINGS)
    return np.conj(sum(c * _conversion_term(l, cfg) for c, l in terms) * _conversion_envelope(cfg))


def optical_projection_probability(
    input_state, meas_state, cfg: OpticsConfig, phase_only: bool = False
) -> float:
    """Probability of the full physical projection chain.

    Pipeline: prepare the input field (the exact superposition, or with
    phase_only a phase-only hologram on a Gaussian carrier), image it through
    the 4-f system, apply the measurement conversion for the parity-flipped
    target mode (the full complex mask, or with phase_only the conjugate
    phase mask), propagate to the far field and couple into the collection
    Gaussian.

    With ideal modulation this reproduces |<meas|input>|^2 up to grid
    discretization error.
    """
    psi_in, psi_meas = _qutrit(input_state), _qutrit(meas_state)

    if phase_only:
        carrier = gaussian_field(cfg.waist, cfg)
        field = apply_phase_mask(carrier, phase_mask_of(superposition_field(psi_in, cfg)))
    else:
        field = superposition_field(psi_in, cfg)

    field = lens_fourier(lens_fourier(field))  # the 4-f image

    if phase_only:
        flipped = superposition_field(psi_meas * _PARITY, cfg)
        field = apply_phase_mask(field, phase_mask_of(flipped), conjugate=True)
    else:
        field = field * _conversion_field(psi_meas, cfg)

    # far field: one transform; the dropped quadratic phase cancels in the coupling magnitude
    return abs(fiber_overlap(lens_fourier(field), cfg)) ** 2


def effective_operators(input_states, meas_states, cfg: OpticsConfig, phase_only: bool = False):
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
    Phase-only modulation (phase_only=True) is not: one pass over the grid, its
    hologram, per distinct state serves the state's inputs and measurements.
    """
    inputs = np.array([_qutrit(s) for s in input_states])
    meas = np.array([_qutrit(s) for s in meas_states])
    modes = {l: oam_mode_field(l, cfg) for l in MODE_WINDINGS}
    # with equal waists the fiber Gaussian is LG_0, the same build bit for bit
    fiber = modes[0] if cfg.fiber_waist == cfg.waist else gaussian_field(cfg.fiber_waist, cfg)
    back = lens_fourier(fiber, overwrite=fiber is not modes[0])
    np.conjugate(back, out=back)
    work, spare = np.empty_like(back), np.empty_like(back)  # held, also as real scratch

    def amplitudes(field: np.ndarray) -> np.ndarray:
        return np.array([np.vdot(m, field) for m in modes.values()]) * cfg.cell_area

    if not phase_only:
        # amplitudes(LG_l) is column l of G, so row j of a is G psi_j
        a = inputs @ np.array([amplitudes(m) for m in modes.values()])
        power = np.einsum("jk,jk->j", inputs.conj(), a).real
        if not (power > 0.0).all():
            raise ValueError("cannot normalize a zero field")
        a /= np.sqrt(power)[:, None]
        back *= _conversion_envelope(cfg, work.view(float)[:, :cfg.grid_size])
        # likewise row l of coupling is column l of B, so row i of e is B c_i; t_l comes
        # first, as in numpy's in-place evaluation of back * t_l: the order moves last bits
        coupling = np.array([amplitudes(parity_flip(np.multiply(
            _conversion_term(l, cfg, work), back, out=work), spare)) for l in MODE_WINDINGS])
        e = (meas * _PARITY) @ coupling
    else:
        def hologram(psi, u: np.ndarray, scratch: np.ndarray, at=...) -> np.ndarray:
            """e^{i arg u} in u over the samples at (all of them by default), u = sum psi_k LG_k,
            arg 0 = 0; Re u and Im u are divided by |u| as real arrays, as a complex division
            can overflow on subnormals."""
            u.fill(0.0)
            for c, l in zip(psi, MODE_WINDINGS):
                if c != 0:
                    u += np.multiply(c, modes[l][at], out=scratch)
            u[u == 0] = 1.0
            mag = np.abs(u, out=scratch.view(float)[..., :u.shape[-1]])
            u.real /= mag
            u.imag /= mag
            return u

        # LG_l(-r) = (-1)^l LG_l(r), so P(hologram(c) back) = hologram(psi) P(back) off
        # row and column 0, which P keeps in place: one hologram per distinct state serves
        # its inputs and its measurements, and back is flipped once, into work's grid
        back, work, p = parity_flip(back, work), back, parity_index(cfg.grid_size)
        a, e = np.empty((len(inputs), 3), complex), np.empty((len(meas), 3), complex)
        for psi in dict.fromkeys(map(tuple, (*inputs, *meas))):  # distinct, by value
            h = hologram(psi, work, spare)
            if (js := (inputs == psi).all(axis=1)).any():
                a[js] = amplitudes(np.multiply(h, modes[0], out=spare))
            if (ks := (meas == psi).all(axis=1)).any():
                field = np.multiply(h, back, out=spare)
                for cut, at in ((np.s_[0], (0, p)), (np.s_[:, 0], (p, 0))):  # P's fixed edge
                    u = hologram(psi * _PARITY, work[0], work[1], at)  # h is spent: work is free
                    np.multiply(u, back[cut], out=field[cut])
                e[ks] = amplitudes(field)
    rho, povm = (v[:, :, None] * v[:, None, :].conj() for v in (a, e))
    if not (np.isfinite(rho).all() and np.isfinite(povm).all()):
        raise ValueError("field contains non-finite samples")
    return rho, povm
