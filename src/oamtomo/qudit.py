"""Qudit states, operator bases, and quantum channels.

Dense complex linear algebra for d-level systems: state vectors and density
matrices, the identity-plus-Gell-Mann operator basis, Kraus channels, and
fidelities of states and processes (closed form for a pure reference, which
the reports use; Uhlmann for a mixed one).

For d = 3 the computational basis is the OAM triple (|L>, |G>, |R>) carrying
winding numbers +1, 0, -1.  Channels are qutrit channels, the memory's: the
named families (identity, phase rotation, depolarizing, dephasing) and every
KrausChannel; the operator basis takes any d >= 2.  Channels may be
trace-decreasing (a lossy storage step keeps the algebra valid); fidelities
normalize traces internally.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# sqrt(machine epsilon) scale; eigenvalues above -CLAMP are treated as zero
_EIG_CLAMP = 1e-8
_HERM_ATOL = 1e-8
# trace rules of the fidelities: (trace out of range, message naming it)
_STATE_TRACE = (lambda t: abs(t - 1.0) > 0.1,
                "density matrix trace {!r} deviates from 1 by more than 10%")
_PROCESS_TRACE = (lambda t: t <= 1e-12, "process matrix has non-positive trace")


class FieldError(ValueError):
    """A refused value: field names it and reason says why; the message is "field: reason"."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field, self.reason = field, reason


def is_finite(value) -> bool:
    """Whether a real number, numpy's of any width too, is finite as a float."""
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an int beyond floats
        return False


def state_vector(amplitudes, normalize: bool = False) -> np.ndarray:
    """Return a validated complex state vector.

    Args:
        amplitudes: sequence of d >= 2 complex amplitudes.
        normalize: if True, rescale to unit norm instead of requiring it.

    Raises:
        ValueError: dimension < 2, a non-finite amplitude, zero vector, or
            (with normalize=False) norm deviating from 1 by more than 1e-12.
    """
    try:
        psi = np.ascontiguousarray(amplitudes, dtype=complex).reshape(-1)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"amplitudes must be finite, got {amplitudes!r}") from None
    if psi.size < 2:
        raise ValueError("state dimension must be >= 2")
    largest = float(np.abs(psi.view(float)).max())
    if not math.isfinite(largest):
        raise ValueError(f"amplitudes must be finite, got {amplitudes!r}")
    if largest == 0.0:
        raise ValueError("zero state vector")
    # scaled by a power of two, which is exact, so that the norm neither overflows nor underflows
    exponent = math.frexp(largest)[1] - 1
    unit = np.ldexp(psi.view(float), -exponent).view(complex)
    if normalize:
        return unit / np.linalg.norm(unit)
    norm = float(np.linalg.norm(unit)) * math.ldexp(1.0, exponent)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state vector norm {norm!r} is not 1 within 1e-12")
    return psi


def projector_of(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalized state vector."""
    psi = state_vector(psi)
    return np.outer(psi, psi.conj())


def canonical_input_states() -> np.ndarray:
    """The nine canonical qutrit states used for preparation and analysis.

    Returns a (9, 3) array; row k is the state indexed k+1 in 1-based
    convention.  Rows 1-3 are the OAM basis |L>, |G>, |R>; rows 4-9 are the
    six equal-weight two-mode superpositions (two real, four with a relative
    +i phase) that complete an informationally complete projector set.
    """
    s = 1.0 / np.sqrt(2.0)
    return np.array(
        [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [s, s, 0],
            [0, s, s],
            [1j * s, s, 0],
            [0, s, 1j * s],
            [s, 0, s],
            [s, 0, 1j * s],
        ],
        dtype=complex,
    )


def gell_mann_basis(d: int) -> np.ndarray:
    """Identity plus the d**2 - 1 generalized Gell-Mann matrices, a (d**2, d, d) array.

    Slot 0 is the identity; the rest are the traceless generators, mutually
    orthogonal under the Hilbert-Schmidt inner product with Tr(op_a @ op_a) = 2.

    Ordering: for each two-level subspace size m = 2..d, the symmetric and
    antisymmetric off-diagonal pairs (j, m) for j < m, followed by the
    diagonal generator of that subspace.  For d = 2 this yields {I, X, Y, Z};
    for d = 3 the familiar eight Gell-Mann matrices in their standard order.
    """
    if d < 2:
        raise ValueError(f"operator basis requires dimension >= 2, got {d}")
    ops = [np.eye(d, dtype=complex)]
    for m in range(2, d + 1):
        for j in range(1, m):
            sym = np.zeros((d, d), dtype=complex)
            sym[j - 1, m - 1] = sym[m - 1, j - 1] = 1.0
            anti = np.zeros((d, d), dtype=complex)
            anti[j - 1, m - 1] = -1.0j
            anti[m - 1, j - 1] = 1.0j
            ops.append(sym)
            ops.append(anti)
        diag = np.zeros(d, dtype=complex)
        diag[: m - 1] = 1.0
        diag[m - 1] = -(m - 1)
        ops.append(np.sqrt(2.0 / (m * (m - 1))) * np.diag(diag))
    return np.stack(ops)


@dataclass(frozen=True)
class KrausChannel:
    """A qutrit channel as a set of 3 x 3 Kraus operators.

    Trace-decreasing channels are accepted (sum_k K_k^dag K_k <= I within
    tolerance); storage losses then show up as output traces below 1.
    """

    kraus: tuple

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise ValueError("channel needs at least one Kraus operator")
        try:
            ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        except OverflowError:  # an int beyond the float range
            raise ValueError("kraus operators must be finite") from None
        for k in ks:
            if k.shape != (3, 3):
                raise ValueError("expected 3 x 3 Kraus operators")
            if not np.isfinite(k).all():
                raise ValueError("kraus operators must be finite")
        total = sum(k.conj().T @ k for k in ks)
        top = float(np.linalg.eigvalsh(total).max())
        if top > 1.0 + 1e-10:
            raise ValueError(f"channel is trace-increasing: max eig of sum K^dag K = {top!r}")
        object.__setattr__(self, "kraus", ks)


def identity_channel() -> KrausChannel:
    """The perfect storage channel rho -> rho on a qutrit."""
    return KrausChannel((np.eye(3, dtype=complex),))


def phase_rotation_channel(theta: float) -> KrausChannel:
    """Unitary qutrit channel diag(1, 1, e^{i theta}) phasing |R>."""
    if isinstance(theta, bool) or not isinstance(theta, numbers.Real):
        raise ValueError(f"theta must be a real number, got {theta!r}")
    if not is_finite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    u = np.eye(3, dtype=complex)
    u[2, 2] = np.exp(1j * theta)
    return KrausChannel((u,))


def _weyl_operators():
    """Shift/clock unitaries X^a Z^b, the standard qutrit 'Pauli' set."""
    omega = np.exp(2j * np.pi / 3)
    shift = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        shift[(i + 1) % 3, i] = 1.0
    clock = np.diag(omega ** np.arange(3))
    out = []
    for a in range(3):
        for b in range(3):
            out.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return out


def depolarizing_channel(p: float) -> KrausChannel:
    """Qutrit channel rho -> (1 - p) rho + p I/3 with 9 Kraus operators."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {p!r}")
    weyl = _weyl_operators()
    ks = [np.sqrt(1.0 - p + p / 9) * weyl[0]]
    ks += [np.sqrt(p) / 3 * w for w in weyl[1:]]
    return KrausChannel(tuple(ks))


def dephasing_channel(p: float) -> KrausChannel:
    """Qutrit channel damping every off-diagonal element by (1 - p); diagonals kept.

    Implemented as a clock-operator mixture: rho -> (1 - p) rho
    + (p/3) sum_k Z^k rho Z^-k.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dephasing strength must be in [0, 1], got {p!r}")
    ks = [np.sqrt(1.0 - p + p / 3) * np.eye(3, dtype=complex)]
    ks += [np.sqrt(p / 3) * z for z in _weyl_operators()[1:3]]  # Z and Z^2
    return KrausChannel(tuple(ks))


def apply_channel_kraus(channel: KrausChannel, rho) -> np.ndarray:
    """sum_k K_k rho K_k^dag, with leading batch axes.  Output trace <= input trace."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (3, 3):
        raise ValueError(f"density matrix shape {rho.shape} is not that of a qutrit")
    out = np.zeros_like(rho)
    for k in channel.kraus:
        out += k @ rho @ dagger(k)
    return out


def dagger(matrix) -> np.ndarray:
    """Conjugate transpose over the last two axes; leading axes are batch axes."""
    return np.swapaxes(np.conj(matrix), -1, -2)


def _raise_first(bad, message: str, values=None) -> None:
    """Raise ValueError for the first set entry of bad, prefixed by its batch sample."""
    if np.any(bad):
        index = tuple(np.argwhere(bad)[0])
        where = "".join(f"sample {b + 1}: " for b in index)
        raise ValueError(where + message.format(None if values is None else float(values[index])))


def hermitian_part(matrix, label: str = "matrix") -> np.ndarray:
    """(m + m^dag) / 2 of complex matrices that are Hermitian within 1e-8."""
    m = np.asarray(matrix, dtype=complex)
    _raise_first(np.abs(m - dagger(m)).max(axis=(-2, -1)) > _HERM_ATOL,
                 f"{label} is not Hermitian within 1e-8")
    return 0.5 * (m + dagger(m))


def _floored(w) -> np.ndarray:
    """Ascending eigenvalues, zero at or below the eigensolver's rounding floor
    d * eps * max(w): a square root would turn ~1e-17 of noise into ~3e-9."""
    w = np.clip(w, 0.0, None)
    return np.where(w > w.shape[-1] * np.finfo(float).eps * w[..., -1:], w, 0.0)


def matrix_sqrt_psd(h, not_psd: str = "matrix is not PSD: min eigenvalue {!r}") -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition; leading axes are batch axes.

    Eigenvalues in [-1e-8, 0) and at rounding level (_floored) are taken as
    zero; anything lower raises ValueError(not_psd).
    """
    w, v = np.linalg.eigh(hermitian_part(h))
    _raise_first(w[..., 0] < -_EIG_CLAMP, not_psd, w[..., 0])
    s = (v * np.sqrt(_floored(w))[..., None, :]) @ dagger(v)
    return 0.5 * (s + dagger(s))


def _uhlmann(a, b):
    """[Tr sqrt(sqrt(a) b sqrt(a))]^2 for trace-1 Hermitian PSD inputs, per batch sample.

    The inner matrix is formed as m m^dag, m = sqrt(a) sqrt(b), so that its
    rounding scales with its own largest eigenvalue, as _floored assumes."""
    m = matrix_sqrt_psd(a) @ matrix_sqrt_psd(b, "matrix is not PSD within tolerance")
    w = _floored(np.linalg.eigvalsh(m @ dagger(m)))
    f = np.clip(np.sqrt(w).sum(axis=-1) ** 2, 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def _unit_trace(matrix, bad_trace, message: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    t = np.trace(m, axis1=-2, axis2=-1).real
    _raise_first(bad_trace(t), message, t)
    return m / t[..., None, None]


def state_fidelity(rho1, rho2):
    """Uhlmann fidelity of two density matrices, in [0, 1], exact to rounding.

    Traces are renormalized internally when within 10% of 1; larger
    deviations raise (the input is then not a near-physical state).  Leading
    axes are batch axes: a (B, d, d) stack gives a (B,) array, one matrix a float.
    """
    return _uhlmann(*(_unit_trace(r, *_STATE_TRACE) for r in (rho1, rho2)))


def process_fidelity(chi, chi_ideal):
    """Uhlmann fidelity of two process matrices after trace normalization, batched
    as state_fidelity."""
    return _uhlmann(*(_unit_trace(c, *_PROCESS_TRACE) for c in (chi, chi_ideal)))


def pure_fidelity(matrix, psi, process: bool = False):
    """Fidelity against the pure reference |psi><psi| in closed form, Re<psi|m|psi> / Tr m
    clipped to [0, 1]: state_fidelity, or process_fidelity with process=True, against
    projector_of(psi) to rounding, with their trace rules and batch axes.  psi must be
    a normalized state vector, as for projector_of; the matrix is taken to be
    Hermitian and PSD, as a projected reconstruction is."""
    psi = state_vector(psi)
    m = _unit_trace(matrix, *(_PROCESS_TRACE if process else _STATE_TRACE))
    f = np.clip(np.einsum("a,...ab,b->...", np.conj(psi), m, psi).real, 0.0, 1.0)
    return float(f) if f.ndim == 0 else f
