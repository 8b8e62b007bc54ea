"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at test time.
"""

import json
import time

import numpy as np

from oamtomo.cli import main
from oamtomo.counts import SourceConfig, simulate_counts
from oamtomo.optics import (
    lens_fourier,
    oam_mode_field,
    optical_projection_probability,
    parity_flip,
)
from oamtomo.qudit import (
    canonical_input_states,
    depolarizing_channel,
    gell_mann_basis,
    identity_channel,
    process_fidelity,
    projector_of,
    state_fidelity,
)
from oamtomo.tomography import (
    canonical_settings,
    predict_probabilities,
    probabilities_from_counts,
    project_to_physical_process,
    project_to_physical_state,
    qpt_linear_inversion,
    qst_linear_inversion,
)
from oracles import (
    anticorrelation_alpha,
    chi_from_kraus,
    cross_correlation_g2,
    four_f_image,
    ideal_storage_chi,
    matched_config,
    power,
    random_cptp_channel,
)

# depolarizing strength whose process matrix scores 0.853 against ideal
# storage; the root of (1 - 8p/9) / (1 + 4p/9) = 0.853, cross-checked by the
# brute-force fidelity oracle in criterion 3
DEMO_DEPOLARIZING_P = 0.1159305993690852


def _ok(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_01_noiseless_qpt_round_trip():
    start = time.monotonic()
    settings = canonical_settings()
    rng = np.random.default_rng(20240815)
    channels = [identity_channel()] + [random_cptp_channel(3, 3, rng) for _ in range(20)]
    for ch in channels:
        truth = chi_from_kraus(ch, settings.basis)
        rec = qpt_linear_inversion(predict_probabilities(ch))
        assert np.abs(rec - truth).max() < 1e-8
        assert process_fidelity(project_to_physical_process(rec), truth) >= 1 - 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _ok(1, "noiseless QPT round trip")


def test_criterion_02_noiseless_qst_round_trip():
    start = time.monotonic()
    settings = canonical_settings()
    for amps in ([1, 1, 1], [1, -1, 1]):
        target = projector_of(np.asarray(amps) / np.sqrt(3.0))
        p = np.einsum("iab,ba->i", settings.projectors, target).real
        rho = project_to_physical_state(qst_linear_inversion(p))
        assert state_fidelity(rho, target) >= 1 - 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _ok(2, "noiseless QST round trip")


def test_criterion_03_calibrated_noise_demo():
    start = time.monotonic()
    settings = canonical_settings()
    ideal = ideal_storage_chi(settings.basis)
    channel = depolarizing_channel(DEMO_DEPOLARIZING_P)

    # brute-force eigendecomposition oracle, independent of the library path
    def oracle(a, b):
        a = a / np.trace(a).real
        b = b / np.trace(b).real
        wa, va = np.linalg.eigh(a)
        sa = (va * np.sqrt(np.clip(wa, 0, None))) @ va.conj().T
        w = np.linalg.eigvalsh(sa @ b @ sa)
        return float(np.sqrt(np.clip(w, 0, None)).sum() ** 2)

    target = oracle(chi_from_kraus(channel, settings.basis), ideal)
    assert abs(target - 0.853) < 1e-3

    p_true = predict_probabilities(channel)
    n = 1_000_000
    for seed in range(10):
        cfg = SourceConfig(counts_per_setting=n, background=0.01 * n, seed=seed)
        p_hat = probabilities_from_counts(simulate_counts(p_true, cfg))
        chi = project_to_physical_process(qpt_linear_inversion(p_hat))
        assert abs(process_fidelity(chi, ideal) - target) < 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    _ok(3, "calibrated-noise demo near 0.853")


def test_criterion_04_shot_noise_robustness():
    settings = canonical_settings()
    ideal = ideal_storage_chi(settings.basis)
    p_true = predict_probabilities(identity_channel())
    means = []
    for n in (100, 1000, 10000):
        fids = []
        for seed in range(50):
            cfg = SourceConfig(counts_per_setting=n, seed=seed)
            p_hat = probabilities_from_counts(simulate_counts(p_true, cfg))
            chi = project_to_physical_process(qpt_linear_inversion(p_hat))
            fids.append(process_fidelity(chi, ideal))
        means.append(float(np.mean(fids)))
    assert means[0] <= means[1] <= means[2], means
    assert means[2] >= 0.9, means
    _ok(4, "shot-noise robustness curve")


def test_criterion_05_optics_abstract_consistency():
    start = time.monotonic()
    cfg = matched_config(512, 1.0)
    states = canonical_input_states()
    worst, pair = 0.0, None
    for j in range(9):
        for i in range(9):
            p_opt = optical_projection_probability(states[j], states[i], cfg)
            p_abs = abs(np.vdot(states[i], states[j])) ** 2
            if abs(p_opt - p_abs) >= worst:
                worst, pair = abs(p_opt - p_abs), (j + 1, i + 1)
    assert worst < 1e-3, f"|p_opt - p_abs| = {worst} at (input, projector) = {pair}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f} s"
    _ok(5, "81-setting optics/abstract consistency")


def test_criterion_06_four_f_parity_law():
    cfg = matched_config(512, 1.0)
    rng = np.random.default_rng(606)
    for _ in range(10):
        field = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        assert np.abs(four_f_image(field) - parity_flip(field)).max() < 1e-9
        assert abs(power(lens_fourier(field), cfg) - power(field, cfg)) < 1e-10 * power(field, cfg)
    _ok(6, "4-f parity and lens unitarity")


def test_criterion_07_lg_orthonormality():
    cfg = matched_config(512, 1.0)
    modes = [oam_mode_field(l, cfg) for l in (-1, 0, 1)]
    gram = np.array([[(a.conj() * b).sum() * cfg.cell_area for b in modes] for a in modes])
    assert np.abs(gram - np.eye(3)).max() < 1e-6
    _ok(7, "LG mode orthonormality")


def test_criterion_08_operator_basis_table():
    for d in (2, 3, 4):
        lam = gell_mann_basis(d)
        gram = np.einsum("mab,nba->mn", lam, lam)
        expected = np.diag([float(d)] + [2.0] * (d * d - 1))
        assert np.abs(gram - expected).max() < 1e-12
    _ok(8, "operator-basis orthogonality table")


def test_criterion_09_photon_diagnostics():
    assert anticorrelation_alpha(10**6, 10**4, 10**4, 0) == 0.0

    rng = np.random.default_rng(909)
    windows = 200_000
    photons = rng.poisson(0.2, size=windows)
    at_d1 = rng.binomial(photons, 0.5)
    at_d2 = photons - at_d1
    alpha = anticorrelation_alpha(
        windows,
        int((at_d1 > 0).sum()),
        int((at_d2 > 0).sum()),
        int(((at_d1 > 0) & (at_d2 > 0)).sum()),
    )
    assert abs(alpha - 1.0) < 0.05, alpha

    rate_s, rate_t, duration, window = 2e5, 1e5, 10.0, 50e-9
    n_t = int(rng.poisson(rate_t * duration))
    n_s = int(rng.poisson(rate_s * duration))
    n_c = int(rng.binomial(n_t, 1.0 - np.exp(-rate_s * window)))
    g2 = cross_correlation_g2(n_c, n_s, n_t, window, duration)
    assert abs(g2 - 1.0) < 0.05, g2
    _ok(9, "photon statistics diagnostics")


def test_criterion_10_determinism(tmp_path):
    config = {
        "dimension": 3,
        "channel": f"depolarizing {DEMO_DEPOLARIZING_P}",
        "source": {"counts_per_setting": 50000, "background": 500.0, "seed": 42},
        "measurement_mode": "abstract",
        "bootstrap_samples": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for tag in ("first", "second"):
        counts = tmp_path / f"counts_{tag}.txt"
        report = tmp_path / f"report_{tag}.json"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(counts)]) == 0
        assert main(
            ["reconstruct-process", "--config", str(cfg_path), "--counts", str(counts),
             "--out", str(report)]
        ) == 0
        outputs.append((counts.read_bytes(), report.read_bytes()))
    assert outputs[0][0] == outputs[1][0], "counts files differ between runs"
    assert outputs[0][1] == outputs[1][1], "reports differ between runs"
    _ok(10, "byte-identical outputs for fixed seed")
