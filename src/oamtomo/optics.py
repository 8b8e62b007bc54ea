"""Sampled-field model of OAM mode preparation and the 4-f projection chain.

The grid spans [-1, 1) on each axis, and all lengths are in units of its
half-width: a length scale, like the physical scalings (lens focal lengths,
wavelength, the far-field arm), only rescales coordinates and cancels in
coupling probabilities, so it is not simulated.  A field is the
(grid_size, grid_size) complex array of its samples, and the OpticsConfig
holds its geometry, refusing waists the grid cannot resolve: every field and
operator of a geometry it holds is finite.  The modes are the Laguerre-Gauss triple
with radial index 0 and l = +1, 0, -1: amplitude (sqrt(2) r / w)^|l| e^{-r^2/w^2}
e^{i l phi}, the standard OAM eigenmodes with closed-form overlaps.

lens_fourier is a centered, unitary 2-D DFT: one ideal lens focal-plane
transform.  Two of them reproduce the input with coordinates inverted
(parity_index on both axes), which is why measurement masks are conjugated
relative to the preparation masks.  By default configurations use the grid's
self-Fourier waist, for which a fundamental Gaussian is shape-invariant under
lens_fourier and mode fields stay equally well resolved in every plane.

Modulation is ideal (exact complex fields and masks) or phase-only (holograms on a
Gaussian carrier).  optical_projection_probability runs the whole chain for one input
and one measurement state, the reference.  Ideal modulation projects onto the triple's
states, by an identity the tests check: it is the abstract model, with one rule,
check_ideal_conversion.  effective_operators reduces the phase-only chain to a 3x3
input per hologram and a rank-1 POVM element per measurement on the triple.  4-f
imaging is the parity flip, and by Parseval the far-field fiber overlap is an inner
product with the fiber Gaussian traced back through the lens: one transform.

Fields are built and transformed in place, 1/32 of the rows at a time, with the
bits of the out-of-place expressions: a field's build holds it and a few percent
of a grid.  A superposition is summed the same way, in a pass for its modes' norms
and one for the sum, so it holds no whole mode, and so are the reduction's sums.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .qudit import is_finite, state_vector

# winding numbers of the qutrit basis (|L>, |G>, |R>)
MODE_WINDINGS = (1, 0, -1)

# state * _PARITY holds the amplitudes of the parity-flipped field: LG_l picks up (-1)^l
_PARITY = np.array([(-1.0) ** l for l in MODE_WINDINGS])

# largest grid_size: one complex grid is then 268 MB, and no command holds
# more than about 1.7 of them (modes; phase-only simulate about 1.35)
_MAX_GRID_SIZE = 4096

# fewest grid steps across the waist, the fiber waist and the fiber's image through the
# lens: the ideal POVM is off its projectors by 0.115 at 1, 2e-7 at 2, 1.3e-15 at 3 steps
_MIN_WAIST_STEPS = 3


def self_fourier_waist(grid_size: int) -> float:
    """Waist for which a Gaussian is invariant under the grid's unitary DFT."""
    return 2.0 / math.sqrt(math.pi * grid_size)


@dataclass(frozen=True)
class OpticsConfig:
    """Grid geometry and mode waists.

    grid_size N samples per axis over [-1, 1); waist is the LG-family waist,
    fiber_waist the far-field collection Gaussian's waist, in units of the grid's
    half-width.  Each waist left as None becomes the grid's self-Fourier waist.  The
    waists are checked in field order, each in full, and stored as floats: the grid
    must resolve them (_MIN_WAIST_STEPS), which bounds fiber_waist by 2 / (3 pi), and
    waist is at most 0.25 (aliasing guard).  Each refusal starts with its field's name.
    """

    grid_size: int = 512
    waist: float | None = None
    fiber_waist: float | None = None

    def __post_init__(self):
        n = self.grid_size
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"grid_size: must be an integer, got {n!r}")
        if not 128 <= n <= _MAX_GRID_SIZE or (n & (n - 1)) != 0:
            raise ValueError(
                f"grid_size: must be a power of two from 128 to {_MAX_GRID_SIZE}, got {n}")
        least = _MIN_WAIST_STEPS * self.step
        rule = f"{_MIN_WAIST_STEPS} grid steps (resolution rule)"
        # the fiber's image through the lens narrows as it widens: to least at least's image
        widest = {"waist": (0.25, "a quarter of the grid's half-width (aliasing guard)"),
                  "fiber_waist": (self.conjugate_waist(least), f"where its lens image is {rule}")}
        for name in ("waist", "fiber_waist"):
            value = getattr(self, name)
            if value is None:
                value = self_fourier_waist(n)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name}: must be a number, got {value!r}")
            if not is_finite(value):
                raise ValueError(f"{name}: must be finite, got {value!r}")
            value, (most, why) = float(value), widest[name]
            if value <= 0:
                raise ValueError(f"{name}: must be positive")
            if value < least:
                raise ValueError(f"{name}: {value!r} is below {least!r}, {rule}")
            if value > most:
                raise ValueError(f"{name}: {value!r} exceeds {most!r}, {why}")
            object.__setattr__(self, name, value)

    @property
    def step(self) -> float:
        return 2.0 / self.grid_size

    @property
    def cell_area(self) -> float:
        return self.step * self.step

    def axis(self) -> np.ndarray:
        return (np.arange(self.grid_size) - self.grid_size // 2) * self.step

    def conjugate_waist(self, waist: float) -> float:
        """Waist of the unitary-DFT image of a Gaussian of the given waist."""
        return self_fourier_waist(self.grid_size) ** 2 / waist


def _qutrit(state) -> np.ndarray:
    psi = state_vector(state)
    if psi.size != 3:
        raise ValueError(f"optical fields are defined for 3-component states, got {psi.size}")
    return psi


def _vortex(l: int, cfg: OpticsConfig, rows=np.s_[:]):
    """Vortex factor (sqrt(2) / waist)(x + i l y) of LG(p=0, l) for l = +1 or -1 of the
    triple, of the mode waist over the given rows, exact at grid zeros."""
    x = cfg.axis()
    y = np.multiply(1j * l, x[rows, None])
    factor = np.empty((len(y), len(x)), dtype=complex)
    factor[...] = y  # broadcast by assignment: a broadcasting ufunc buffers each such operand
    np.add(x, factor, out=factor)
    return np.multiply(np.sqrt(2.0) / cfg.waist, factor, out=factor)


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
    return np.sqrt(powers[0] * cfg.cell_area)


def _normalized(samples: np.ndarray, cfg: OpticsConfig) -> np.ndarray:
    """Unit-power field of samples, which the caller hands over: divided in place."""
    samples /= _norm(np.array([_power(block) for block in samples.reshape(32, -1)]), cfg)
    if not np.isfinite(samples).all():
        raise ValueError("field contains non-finite samples")
    return samples


def oam_mode_field(l: int, cfg: OpticsConfig) -> np.ndarray:
    """Unit-power Laguerre-Gauss p=0 mode of the triple: winding number l in MODE_WINDINGS."""
    if isinstance(l, bool) or not isinstance(l, numbers.Integral) or l not in MODE_WINDINGS:
        raise ValueError(f"l: must be one of {MODE_WINDINGS}, got {l!r}")
    return _normalized(_mode_samples(cfg.waist, l, cfg), cfg)


def gaussian_field(waist: float, cfg: OpticsConfig) -> np.ndarray:
    """Unit-power fundamental Gaussian of the given waist."""
    if waist <= 0:
        raise ValueError("waist must be positive")
    return _normalized(_mode_samples(waist, 0, cfg), cfg)


def superposition_field(state, cfg: OpticsConfig) -> np.ndarray:
    """Unit-power field of a qutrit state, the sum of psi_k LG(l_k) over the nonzero
    amplitudes, made in two passes of one scratch block: the first takes each mode's
    block powers, the second rebuilds each block, normalizes, scales and adds it."""
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
    """Centered unitary 2-D DFT of a square field of even side, as every OpticsConfig
    grid is: one ideal lens focal-plane transform, done in place on a copy of the field
    or, with overwrite, on the field the caller hands over."""
    out = _shifted(field if overwrite else field.copy())
    np.fft.fft2(out, out=out)
    out /= out.shape[0]
    return _shifted(out)


def _shifted(a: np.ndarray) -> np.ndarray:
    """np.fft.fftshift of a square array of even side, which equals its ifftshift:
    a itself with its diagonal quadrants swapped."""
    h = a.shape[0] // 2
    quarter = np.empty_like(a[:h, :h])  # one, as a second would be made before the first goes
    for top, bottom in ((np.s_[:h, :h], np.s_[h:, h:]), (np.s_[:h, h:], np.s_[h:, :h])):
        quarter[...] = a[top]
        a[top] = a[bottom]
        a[bottom] = quarter
    return a


def parity_index(n: int) -> np.ndarray:
    """Index map k -> (-k) mod n of the coordinate inversion on a centered
    n-point axis; the edge index 0, whose mirror falls off the grid, maps to
    itself."""
    return -np.arange(n) % n


def fiber_overlap(field: np.ndarray, cfg: OpticsConfig) -> complex:
    """Coupling amplitude into the collection Gaussian of waist fiber_waist."""
    if field.shape != (cfg.grid_size,) * 2:
        raise ValueError("grid geometries do not match")
    g = gaussian_field(cfg.fiber_waist, cfg)
    return complex((field * g.conj()).sum() * cfg.cell_area)


def check_ideal_conversion(cfg: OpticsConfig) -> None:
    """Ideal mode conversion's rule: the back-propagated fiber waist is at least the mode waist."""
    w, w_conj = cfg.waist, cfg.conjugate_waist(cfg.fiber_waist)
    if w_conj < w * (1.0 - 1e-12):
        raise ValueError("fiber_waist: ideal mode conversion needs a back-propagated fiber "
                         f"waist >= mode waist; got {w_conj!r} < {w!r}")


def _conversion_envelope(cfg: OpticsConfig) -> np.ndarray:
    """Real ratio E of the back-propagated fiber Gaussian to the mode Gaussian, exponentials
    combined first; E is even, and grows faster than fields decay unless the rule holds."""
    check_ideal_conversion(cfg)
    w, w_conj = cfg.waist, cfg.conjugate_waist(cfg.fiber_waist)
    x2 = cfg.axis() ** 2
    r2 = np.add(x2, x2[:, None])
    r2 *= 1.0 / w_conj**2 - 1.0 / w**2
    return np.divide(np.exp(r2, out=r2), np.sqrt(2.0 / np.pi) / w_conj, out=r2)  # by G's peak


def _conversion_term(l: int, cfg: OpticsConfig):
    """t_l = amp Q_l, the normalized vortex factor of LG_l: t_l E is conj of the
    conversion mask of the flipped basis mode (-1)^l LG_l."""
    amp = np.sqrt(2.0 / (np.pi * cfg.waist**2))
    return amp if l == 0 else np.multiply(amp, _vortex(l, cfg))


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


def effective_operators(input_states, meas_states, cfg: OpticsConfig):
    """The phase-only projection chain reduced to 3x3 operators on the (l=+1, 0, -1) triple.

    Returns (rho, povm).  rho[j] = a a^H with a_k = <LG_k | prepared field of input j> dA,
    the state's hologram on a Gaussian carrier, which leaves power outside the triple: rho[j]
    is sub-normalized.  povm[i] = e e^H with e_k = <LG_k | P(conj(M) F^H G)> dA for the
    measurement mask M of meas_states[i]: 4-f imaging is the parity flip P, and by Parseval
    the far-field fiber overlap <G | F g> is <F^H G | g>, with F^H G = conj(F G) for the real
    fiber Gaussian G.  For a channel C on the stored qutrit, Tr(povm[i] C(rho[j])) is the
    probability of setting (j, i).  Ideal modulation needs no reduction: its operators are
    the projectors, a tested identity, where check_ideal_conversion holds.

    One hologram per distinct state serves the state's inputs and measurements.
    After a pass for the triple's norms, one pass of row blocks adds up the inner
    products: P maps a block's rows to their mirror, so F^H G is the one grid held whole.
    """
    inputs, meas = (np.array([_qutrit(s) for s in v]) for v in (input_states, meas_states))
    n, p = cfg.grid_size, parity_index(cfg.grid_size)
    back = lens_fourier(gaussian_field(cfg.fiber_waist, cfg), overwrite=True)
    np.conjugate(back, out=back)
    # the triple's norms, and its column 0 for P's fixed edge (see below)
    triple, edge = np.empty((3, n // 32, n), dtype=complex), np.empty((3, n), dtype=complex)
    powers = []
    for rows, g in _gaussian_blocks(cfg.waist, cfg):
        powers.append([_power(_mode_block(g, l, cfg, rows, m))
                       for l, m in zip(MODE_WINDINGS, triple)])
        edge[:, rows] = triple[:, :, 0]
    norms = np.array([_norm(block_powers, cfg) for block_powers in np.array(powers).T])
    edge /= norms[:, None]
    # the sums: an input's and a measurement's per distinct state (by value)
    distinct, at = np.unique(np.concatenate([inputs, meas]), axis=0, return_inverse=True)
    a, e = np.zeros((2, len(distinct), 3), complex)
    u, scratch, columns = *np.empty_like(triple[:2]), np.empty((len(distinct), n), complex)
    # dots of at most 8192 samples (one per block up to N = 512): OpenBLAS threads a dot
    # of over 10000, and how its threads split the sum changes the last bits
    parts = max(1, triple[0].size // 8192)
    split = triple.reshape(3, parts, -1)

    def amplitudes(field: np.ndarray) -> np.ndarray:
        if parts == 1:
            return np.array([np.vdot(m, field) for m in triple])
        return np.array([sum(map(np.vdot, m, field.reshape(parts, -1))) for m in split])

    for rows, g in _gaussian_blocks(cfg.waist, cfg):
        for l, m, norm in zip(MODE_WINDINGS, triple, norms):
            _mode_block(g, l, cfg, rows, m)
            m /= norm
        flipped = back[p[rows][:, None], p]  # P(back) over the block's rows
        for d, psi in enumerate(distinct):
            h = _hologram(psi, triple, u, scratch)
            a[d] += amplitudes(np.multiply(h, triple[1], out=scratch))  # on LG_0
            # LG_l(-r) = (-1)^l LG_l(r), so P(hologram(signed) back) = h P(back) but on row
            # and column 0, which P keeps in place: there the mirrored samples serve
            field = np.multiply(h, flipped, out=scratch)
            if rows.start == 0:  # h is spent: u's rows are free; each block reads the column
                field[0] = _hologram(psi * _PARITY, triple[:, 0, p], *u[:2]) * flipped[0]
                _hologram(psi * _PARITY, edge[:, p], columns[d], u[0])
            field[:, 0] = columns[d][rows] * flipped[:, 0]
            e[d] += amplitudes(field)
    a, e = a[at[:len(inputs)]] * cfg.cell_area, e[at[len(inputs):]] * cfg.cell_area
    return tuple(v[:, :, None] * v[:, None, :].conj() for v in (a, e))


def _hologram(psi, modes, u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """e^{i arg v} in u for v = sum psi_k modes[k], arg 0 = 0; Re v and Im v are divided
    by |v| as real arrays, as a complex division can overflow on subnormals."""
    terms = [(c, m) for c, m in zip(psi, modes) if c != 0]
    np.multiply(*terms[0], out=u)  # as 0 + c m would be, but for the sign of a zero
    for c, m in terms[1:]:
        u += np.multiply(c, m, out=scratch)
    u[u == 0] = 1.0
    mag = np.abs(u, out=scratch.view(float)[..., :u.shape[-1]])
    np.divide(u.real, mag, out=u.real)
    np.divide(u.imag, mag, out=u.imag)
    return u
