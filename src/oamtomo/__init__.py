"""Qutrit quantum-memory characterization pipeline.

Simulate a storage channel on OAM photonic qutrits, generate synthetic
coincidence counts (optionally through a physical-optics measurement chain),
reconstruct density and process matrices by linear-inversion tomography, and
score them with Uhlmann fidelities.
"""

from .counts import (
    SourceConfig,
    anticorrelation_alpha,
    cross_correlation_g2,
    exact_counts,
    simulate_counts,
    subtract_background,
)
from .optics import (
    EXPERIMENT_REFERENCE,
    FieldGrid,
    OpticsConfig,
    apply_phase_mask,
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
from .qudit import (
    KrausChannel,
    OperatorBasis,
    apply_channel_chi,
    apply_channel_kraus,
    canonical_input_states,
    chi_from_kraus,
    dephasing_channel,
    depolarizing_channel,
    gell_mann_basis,
    identity_channel,
    matrix_sqrt_psd,
    phase_rotation_channel,
    process_fidelity,
    projector_of,
    pure_fidelity,
    random_cptp_channel,
    random_density_matrix,
    state_fidelity,
    state_vector,
)
from .tomography import (
    DegenerateDataError,
    MeasurementSettings,
    canonical_settings,
    hermitian_basis,
    ideal_storage_chi,
    predict_probabilities,
    probabilities_from_counts,
    project_to_physical_process,
    project_to_physical_state,
    qpt_linear_inversion,
    qst_linear_inversion,
)

__version__ = "0.1.0"
