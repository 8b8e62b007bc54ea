"""State and process tomography over the 9-input x 9-projector scheme.

Forward direction: exact projection probabilities for a channel given as
Kraus operators.  Inverse direction: linear-inversion reconstruction of
density matrices (from 9 probabilities) and process matrices (from the full
81-entry table), followed by eigenvalue clamping to restore physicality.
Reconstruction parameterizes the unknown by real Hermitian coordinates, so
inverted matrices are Hermitian exactly.  The maps are constants of the
scheme, built once per process (MeasurementSettings): each inverts its real
square design, and design_inverse builds the QPT one from any operator set.
The scheme is not an argument: the forward model and the inversions read
canonical_settings().
Counts, probabilities and matrices may carry leading batch axes (bootstrap
samples).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .counts import subtract_background
from .qudit import (
    KrausChannel,
    apply_channel_kraus,
    canonical_input_states,
    dagger,
    gell_mann_basis,
    hermitian_part,
)


class DegenerateDataError(ValueError):
    """Corrected counts give a basis-row sum or a raw process-matrix trace that is not
    positive.  sample, which the message starts with, is the failing one's 1-based
    index in a batch (its leading axes flattened), None without one."""

    def __init__(self, message: str, sample: int | None = None):
        super().__init__(message if sample is None else f"sample {sample}, {message}")
        self.message, self.sample = message, sample


@dataclass(frozen=True)
class MeasurementSettings:
    """The canonical qutrit scheme and its linear-inversion maps.

    The nine canonical states serve both as inputs and as measurement
    projectors, so projectors[j] is also the projector of inputs[j].  The
    only instance is the one canonical_settings() returns, which the
    inversions and the forward model read; its arrays are read-only, each
    inversion map is built once, on first use, by inverting its full-rank
    real design, and the designs' rank and conditioning are pinned by tests.
    """

    inputs: np.ndarray      # (9, 3) state vectors, one per row
    projectors: np.ndarray  # (9, 3, 3) rank-1 projectors of the same states
    basis: np.ndarray       # (9, 3, 3) identity plus Gell-Mann, the process-matrix basis

    @functools.cached_property
    def qst_map(self) -> np.ndarray:
        """(9, 9) map from nine probabilities to the flattened 3 x 3 rho."""
        coords = hermitian_basis(3)
        design = np.einsum("iab,Kba->iK", self.projectors, coords).real
        out = coords.reshape(9, 9).T @ np.linalg.inv(design)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def qpt_map(self) -> np.ndarray:
        """(81, 81) map from the flattened 9 x 9 probability table to the flattened chi."""
        out = design_inverse(self.projectors, self.projectors, self.basis)
        out.flags.writeable = False
        return out


def design_inverse(rho_in, povm, basis) -> np.ndarray:
    """(81, 81) map from a flattened table p[j, i] = Tr(mu_i C(rho_j)) of rho_in and povm
    to the flattened chi of C(rho) = sum_mn chi_mn op_m rho op_n^H, op = basis: the inverse
    of the real design D[(j, i), K] = Re sum_mn Tr(mu_i op_m rho_j op_n^H) H_K[m, n] over
    hermitian_basis(9), square and, for an informationally complete operator set, of full
    rank.  The map keeps chi's real Hermitian coordinates, so chi is Hermitian exactly."""
    coords = hermitian_basis(9).reshape(81, 81)
    transfer = np.einsum("imab,jnba->jimn", povm[:, None] @ basis, rho_in[:, None] @ dagger(basis))
    return coords.T @ np.linalg.inv((transfer.reshape(81, 81) @ coords.T).real)


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal real-coordinate basis of Hermitian n x n matrices.

    Order: the n diagonal units, then for each pair a < b the real and
    imaginary off-diagonal elements (E_ab + E_ba)/sqrt(2) and
    i(E_ba - E_ab)/sqrt(2).
    """
    out = np.zeros((n * n, n, n), dtype=complex)
    k = 0
    for a in range(n):
        out[k, a, a] = 1.0
        k += 1
    r = 1.0 / np.sqrt(2.0)
    for a in range(n):
        for b in range(a + 1, n):
            out[k, a, b] = r
            out[k, b, a] = r
            k += 1
            out[k, a, b] = -1.0j * r
            out[k, b, a] = 1.0j * r
            k += 1
    return out


@functools.cache
def canonical_settings() -> MeasurementSettings:
    """The qutrit scheme: nine canonical states used both as inputs and projectors.

    The first three projectors resolve the identity (the orthonormal OAM
    basis), which makes per-input count normalization exact for
    trace-preserving channels.
    """
    states = canonical_input_states()
    projectors = states[:, :, None] * states[:, None, :].conj()
    basis = gell_mann_basis(3)
    for array in (states, projectors, basis):
        array.flags.writeable = False
    return MeasurementSettings(states, projectors, basis)


def predict_probabilities(channel: KrausChannel, rho_in=None, povm=None) -> np.ndarray:
    """Probability table p[j, i] = Tr(mu_i C(rho_j)), the one forward model.

    rho_in and povm default to the scheme's input and measurement projectors;
    the optical modes pass the chain's effective operators instead.
    """
    projectors = canonical_settings().projectors
    rho_in = projectors if rho_in is None else rho_in
    povm = projectors if povm is None else povm
    return np.einsum("iab,jba->ji", povm, apply_channel_kraus(channel, rho_in)).real


def probabilities_from_counts(counts) -> np.ndarray:
    """Probabilities from counts of shape (..., n_in, 9, 2), one row per input.

    Counts are background-subtracted (clamped at zero) and each input row is
    normalized by the summed counts of the three orthonormal-basis projectors,
    which resolve the identity.  The result is insensitive to per-input flux
    drift and to any common efficiency factor.  Leading axes are batch axes.
    """
    corrected = subtract_background(counts)
    norms = corrected[..., :3].sum(axis=-1)
    if np.any(norms <= 0.0):
        rows = norms.reshape(-1, norms.shape[-1])  # one per sample
        b, j = np.argwhere(rows <= 0.0)[0]
        raise DegenerateDataError(f"input {j + 1}: corrected counts for the basis projectors "
                                  f"sum to {float(rows[b, j])!r}",
                                  int(b) + 1 if norms.ndim > 1 else None)
    return corrected / norms[..., None]


def qst_linear_inversion(probabilities) -> np.ndarray:
    """Hermitian matrices rho with Tr(mu_i rho) = p_i, for p of shape (..., 9).

    Linear inversion over the real Hermitian coordinates, with the scheme's
    precomputed qst_map; the output is not yet guaranteed physical
    (see project_to_physical_state).
    """
    p = np.asarray(probabilities, dtype=float)
    if p.shape[-1:] != (9,):
        raise ValueError(f"expected 9 probabilities per state, got shape {p.shape}")
    return (p @ canonical_settings().qst_map.T).reshape(p.shape[:-1] + (3, 3))


def qpt_linear_inversion(probabilities) -> np.ndarray:
    """Hermitian process matrices reproducing probability tables of shape (..., 9, 9).

    Solves p[j, i] = sum_mn chi_mn Tr(mu_i op_m rho_j op_n^dag), 81 real
    equations in the 81 real Hermitian coordinates of chi, with the scheme's
    precomputed qpt_map.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.shape[-2:] != (9, 9):
        raise ValueError(f"expected a 9 x 9 probability table, got shape {p.shape}")
    flat = p.reshape(p.shape[:-2] + (81,)) @ canonical_settings().qpt_map.T
    return flat.reshape(p.shape[:-2] + (9, 9))


def _clamped_eigs(matrix, label: str):
    w, v = np.linalg.eigh(hermitian_part(matrix, label))
    return np.clip(w, 0.0, None), v


def project_to_physical_state(rho) -> np.ndarray:
    """Clamp negative eigenvalues to zero, then rescale to unit trace.

    This keeps the eigenvectors and restores positivity, but it is not the
    Frobenius-nearest density matrix.  Leading axes are batch axes.
    """
    w, v = _clamped_eigs(rho, "density matrix")
    total = w.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("no positive eigenvalues; cannot form a physical state")
    return (v * (w / total)[..., None, :]) @ dagger(v)


def project_to_physical_process(chi) -> np.ndarray:
    """PSD process matrix: clamp negative eigenvalues, restore the input trace.

    Leading axes are batch axes.  A vanishing trace raises DegenerateDataError; a table
    of normalized probabilities at most 1 gives a raw trace of at least 1/3.
    """
    chi = np.asarray(chi, dtype=complex)
    trace_in = np.trace(chi, axis1=-2, axis2=-1).real[..., None]
    w, v = _clamped_eigs(chi, "process matrix")
    total = w.sum(axis=-1, keepdims=True)
    if np.any(vanished := (total <= 1e-12) | (trace_in <= 1e-12)):
        b = np.flatnonzero(vanished)[0]
        raise DegenerateDataError("process matrix trace vanished under physicality "
                                  f"projection: raw trace {float(trace_in.flat[b])!r}",
                                  int(b) + 1 if chi.ndim > 2 else None)
    return (v * (w * (trace_in / total))[..., None, :]) @ dagger(v)
