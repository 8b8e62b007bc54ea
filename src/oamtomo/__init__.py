"""Qutrit quantum-memory characterization pipeline.

Simulate a storage channel on OAM photonic qutrits, generate synthetic
coincidence counts (optionally through a physical-optics measurement chain),
reconstruct density and process matrices by linear-inversion tomography, and
score them against pure references.
"""

from .counts import (
    SourceConfig,
    exact_counts,
    simulate_counts,
    subtract_background,
)
from .optics import (
    FieldGrid,
    OpticsConfig,
    apply_phase_mask,
    effective_operators,
    fiber_overlap,
    gaussian_field,
    lens_fourier,
    oam_mode_field,
    optical_projection_probability,
    parity_flip,
    phase_mask_of,
    self_fourier_waist,
    superposition_field,
)
from .qudit import (
    KrausChannel,
    apply_channel_kraus,
    canonical_input_states,
    dephasing_channel,
    depolarizing_channel,
    gell_mann_basis,
    identity_channel,
    matrix_sqrt_psd,
    phase_rotation_channel,
    process_fidelity,
    projector_of,
    pure_fidelity,
    state_fidelity,
    state_vector,
)
from .tomography import (
    DegenerateDataError,
    MeasurementSettings,
    canonical_settings,
    hermitian_basis,
    predict_probabilities,
    probabilities_from_counts,
    project_to_physical_process,
    project_to_physical_state,
    qpt_linear_inversion,
    qst_linear_inversion,
)

__version__ = "0.1.0"
