"""Reference code the tests check the package against.

None of this runs in the pipeline: the CLI neither converts Kraus operators
to a process matrix nor applies one, draws no random channel or state,
traces no phase winding, measures no field's power, builds no mode field out
of place, flips no whole field, reduces no optics chain one state at a time
and computes no photon-statistics ratio.  These functions give the tests
independent oracles and inputs.
"""

import numpy as np

from oamtomo.optics import (
    _PARITY,
    MODE_WINDINGS,
    OpticsConfig,
    _conversion_envelope,
    _conversion_term,
    _qutrit,
    gaussian_field,
    lens_fourier,
    oam_mode_field,
    self_fourier_waist,
)
from oamtomo.qudit import KrausChannel

# Reference hardware values from the modeled experiment; lengths are not
# simulated, since they only rescale coordinates and cancel in couplings.
EXPERIMENT_REFERENCE = {
    "beam_waist_mm": 2.5,
    "lens_focal_length_mm": 300.0,
    "slm_resolution": (1920, 1080),
    "farfield_arm_m": 2.5,
}


# --- qudit: channels as process matrices, random channels and states ---


def random_cptp_channel(d: int, n_kraus: int = 3, rng=None) -> KrausChannel:
    """Random trace-preserving channel from a Haar-random isometry."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((d * n_kraus, d)) + 1j * rng.standard_normal((d * n_kraus, d))
    q, _ = np.linalg.qr(g)
    return KrausChannel(tuple(q[i * d : (i + 1) * d] for i in range(n_kraus)))


def random_density_matrix(d: int, rng=None) -> np.ndarray:
    """Random full-rank density matrix (normalized Ginibre product)."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def chi_from_kraus(channel: KrausChannel, basis: np.ndarray) -> np.ndarray:
    """Process matrix of a Kraus channel in the given operator basis.

    Expands K_k = sum_m a_km op_m with a_km = Tr(op_m K_k) / Tr(op_m^2) and
    returns chi_mn = sum_k a_km conj(a_kn), which is Hermitian and PSD and
    reproduces the channel through apply_channel_chi.
    """
    if basis.shape[-1] != channel.kraus[0].shape[0]:
        raise ValueError("operator basis dimension does not match channel")
    norms = np.einsum("mab,mba->m", basis, basis).real
    kstack = np.stack(channel.kraus)
    a = np.einsum("mab,kba->km", basis, kstack) / norms
    return a.T @ a.conj()


def apply_channel_chi(chi, basis: np.ndarray, rho) -> np.ndarray:
    """Apply a process matrix: rho -> sum_mn chi_mn op_m rho op_n^dag."""
    chi = np.asarray(chi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    d = basis.shape[-1]
    n = d * d
    if chi.shape != (n, n):
        raise ValueError(f"process matrix shape {chi.shape} does not match basis size {n}")
    if rho.shape != (d, d):
        raise ValueError(f"density matrix shape {rho.shape} does not match dimension {d}")
    return np.einsum("mn,mab,bc,ndc->ad", chi, basis, rho, basis.conj())


def ideal_storage_chi(basis: np.ndarray) -> np.ndarray:
    """Process matrix of perfect storage: weight 1 on the identity operator."""
    n = basis.shape[-1] ** 2
    chi = np.zeros((n, n), dtype=complex)
    chi[0, 0] = 1.0
    return chi


# --- optics: the self-Fourier geometry, field power, propagation aliases and phase winding ---


def matched_config(grid_size: int = 512) -> OpticsConfig:
    """Self-Fourier configuration: mode and fiber waists both at the DFT fixed point."""
    w = self_fourier_waist(grid_size)
    return OpticsConfig(grid_size, w, w)


def power(samples: np.ndarray, cfg: OpticsConfig) -> float:
    """Total power sum |samples|^2 dA of a field sampled on the grid of cfg."""
    return float((np.abs(samples) ** 2).sum() * cfg.cell_area)


def farfield(field: np.ndarray) -> np.ndarray:
    """Fraunhofer propagation: a single focal-plane transform.

    The residual quadratic phase of far-field diffraction is dropped; it
    cancels against the centered collection Gaussian in coupling magnitudes.
    """
    return lens_fourier(field)


def parity_flip(field: np.ndarray, out=None) -> np.ndarray:
    """Coordinate inversion (x, y) -> (-x, -y) of a field on the centered grid (into
    out, if given): the parity index on both axes, the permutation a squared DFT
    realizes."""
    a, out = field, np.empty_like(field) if out is None else out
    out[0, 0], out[0, 1:] = a[0, 0], a[0, :0:-1]  # row and column 0 stay, the rest reverse
    out[1:, 0], out[1:, 1:] = a[:0:-1, 0], a[:0:-1, :0:-1]
    return out


def four_f_image(field: np.ndarray) -> np.ndarray:
    """Two successive lens transforms: the parity-inverted input field."""
    return lens_fourier(lens_fourier(field))


def meshgrid(cfg: OpticsConfig):
    """Sample coordinates (x, y) over the grid: broadcast views of one axis, not copies."""
    x = cfg.axis()
    return np.meshgrid(x, x, indexing="xy", copy=False)


def lg_mode_samples(l: int, waist: float, cfg: OpticsConfig) -> np.ndarray:
    """Unit-power LG(p=0, l) samples of the given waist, each step a new array:
    the out-of-place construction that the package builds in place."""
    xx, yy = meshgrid(cfg)
    field = np.exp(-(xx * xx + yy * yy) / waist**2).astype(complex)
    if l != 0:
        field = field * ((np.sqrt(2.0) / waist) * (xx + 1j * np.sign(l) * yy)) ** abs(l)
    return field / np.sqrt((np.abs(field) ** 2).sum() * cfg.cell_area)


def superposition_samples(psi, cfg: OpticsConfig) -> np.ndarray:
    """Unit-power sum of psi_k LG(l_k) over the (l=+1, 0, -1) triple, out of place."""
    total = np.zeros((cfg.grid_size, cfg.grid_size), dtype=complex)
    for c, l in zip(psi, MODE_WINDINGS):
        if c != 0:
            total = total + c * lg_mode_samples(l, cfg.waist, cfg)
    return total / np.sqrt((np.abs(total) ** 2).sum() * cfg.cell_area)


def winding_number(samples: np.ndarray, radius: float, cfg: OpticsConfig) -> int:
    """Net phase winding around a centered circle of the given radius of a field
    sampled on the grid of cfg."""
    if radius <= 0 or radius >= 1.0:  # the grid's half-width
        raise ValueError("radius must lie inside the grid")
    n, step = cfg.grid_size, cfg.step
    theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    ix = np.clip(np.rint(radius * np.cos(theta) / step).astype(int) + n // 2, 0, n - 1)
    iy = np.clip(np.rint(radius * np.sin(theta) / step).astype(int) + n // 2, 0, n - 1)
    phases = np.angle(samples[iy, ix])
    diffs = np.diff(np.concatenate([phases, phases[:1]]))
    wrapped = (diffs + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(wrapped.sum() / (2.0 * np.pi)))



def per_state_operators(input_states, meas_states, cfg: OpticsConfig, phase_only: bool = False):
    """The chain's 3x3 operators as one pass of whole grids per state: the LG triple
    built whole, the back-propagated fiber Gaussian and, with phase_only, a hologram for
    each input and another for each parity-signed measurement state, its product with
    the back-propagated Gaussian flipped whole in turn.  optics.effective_operators makes
    each sample a row block at a time and holds only the back-propagated Gaussian whole;
    both add the amplitudes over the same 32 row blocks in the same order, so its rho and
    povm have these bits.  Without phase_only this is the ideal reduction, linear in the
    state (the triple's Gram matrix and the conversion terms' couplings), whose operators
    the CLI takes as the projectors, the identity the tests check."""
    inputs = np.array([_qutrit(s) for s in input_states])
    signed = np.array([_qutrit(s) for s in meas_states]) * _PARITY
    back = lens_fourier(gaussian_field(cfg.fiber_waist, cfg), overwrite=True)
    np.conjugate(back, out=back)
    modes = {l: oam_mode_field(l, cfg) for l in MODE_WINDINGS}
    work, spare = np.empty_like(back), np.empty_like(back)
    n = cfg.grid_size

    def dot(a: np.ndarray, b: np.ndarray) -> complex:
        # beyond N = 512 a block takes dots of 8192 samples, which OpenBLAS runs unthreaded
        parts = max(1, a.size // 8192)
        if parts == 1:
            return np.vdot(a, b)
        return sum(map(np.vdot, a.reshape(parts, -1), b.reshape(parts, -1)))

    def amplitudes(field: np.ndarray) -> np.ndarray:
        sums = np.zeros(3, complex)
        for rows in (np.s_[r:r + n // 32] for r in range(0, n, n // 32)):
            sums += [dot(m[rows], field[rows]) for m in modes.values()]
        return sums * cfg.cell_area

    if not phase_only:
        a = inputs @ np.array([amplitudes(m) for m in modes.values()])
        a /= np.sqrt(np.einsum("jk,jk->j", inputs.conj(), a).real)[:, None]
        back *= _conversion_envelope(cfg)
        coupling = np.array([amplitudes(parity_flip(np.multiply(
            _conversion_term(l, cfg), back, out=work), spare)) for l in MODE_WINDINGS])
        e = signed @ coupling
    else:
        def hologram(psi, field: np.ndarray) -> np.ndarray:
            u = work
            u.fill(0.0)
            for c, l in zip(psi, MODE_WINDINGS):
                if c != 0:
                    u += np.multiply(c, modes[l], out=spare)
            u[u == 0] = 1.0
            mag = np.abs(u, out=spare.view(float)[:, :cfg.grid_size])
            u.real /= mag
            u.imag /= mag
            u *= field
            return u

        a = np.array([amplitudes(hologram(psi, modes[0])) for psi in inputs])
        e = np.array([amplitudes(parity_flip(hologram(c, back), spare)) for c in signed])
    return tuple(v[:, :, None] * v[:, None, :].conj() for v in (a, e))


# --- counts: single-photon diagnostics ---


def anticorrelation_alpha(n_trigger: int, n_t1: int, n_t2: int, n_t12: int) -> float:
    """Heralded anti-correlation parameter N_T N_T12 / (N_T1 N_T2).

    0 for an ideal single-photon source, 1 for coherent light, >1 for
    bunched light.
    """
    if n_t1 <= 0 or n_t2 <= 0:
        raise ValueError("heralded singles counts must be positive")
    if n_trigger <= 0:
        raise ValueError("trigger count must be positive")
    if n_t12 < 0:
        raise ValueError("triple coincidence count must be nonnegative")
    return (float(n_t12) * float(n_trigger)) / (float(n_t1) * float(n_t2))


def cross_correlation_g2(
    n_coinc: int, n_signal: int, n_trigger: int, window: float, duration: float
) -> float:
    """Normalized signal-trigger cross-correlation from windowed totals.

    g2 = (coincidence rate) / (signal rate * trigger rate * window); equals 1
    for independent streams and exceeds 2 for non-classical pair sources.
    """
    if n_signal <= 0 or n_trigger <= 0:
        raise ValueError("singles counts must be positive")
    if window <= 0 or duration <= 0:
        raise ValueError("window and duration must be positive")
    if n_coinc < 0:
        raise ValueError("coincidence count must be nonnegative")
    return (float(n_coinc) * float(duration)) / (float(n_signal) * float(n_trigger) * window)
