import contextlib
import io
import json
import os
import pathlib
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from oamtomo import (
    apply_channel_kraus,
    canonical_settings,
    chi_from_kraus,
    depolarizing_channel,
    effective_operators,
    ideal_storage_chi,
    probabilities_from_counts,
    process_fidelity,
    project_to_physical_process,
    qpt_linear_inversion,
)
from oamtomo.cli import _probability_rows, main
from oamtomo.config import load_config
from oamtomo.fileio import read_counts, round_sig


def _write_config(path, **overrides):
    doc = {
        "dimension": 3,
        "channel": "identity",
        "source": {"counts_per_setting": 10000, "background": 0.0, "seed": 7},
        "measurement_mode": "abstract",
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


def _report(path):
    return json.loads(path.read_text())


class TestSimulate:
    def test_writes_81_records(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "counts.txt"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        counts = read_counts(out)
        assert counts.shape == (9, 9, 2)
        # for the identity channel, the matched setting dominates input row 1
        assert counts[0, :, 0].argmax() == 0

    def test_header_echoes_config_and_seed(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "counts.txt"
        main(["simulate", "--config", cfg, "--out", str(out)])
        head = out.read_text().splitlines()[:3]
        assert head[0].startswith("#")
        assert '"seed": 7' in head[1].replace('"seed":7', '"seed": 7')
        assert head[2] == "# seed: 7"

    def test_null_channel_gives_pure_background(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            channel=None,
            source={"counts_per_setting": 1000, "background": 50.0, "seed": 3},
        )
        out = tmp_path / "counts.txt"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        raws = read_counts(out)[..., 0]
        assert abs(raws.mean() - 50.0) < 5 * np.sqrt(50.0 / 81)

    def test_missing_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "counts.txt"
        assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(out)]) == 2
        assert not out.exists()

    def test_invalid_parameter_exits_3_with_field_path(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path / "cfg.json", source={"counts_per_setting": 100, "efficiency": 2.0}
        )
        out = tmp_path / "counts.txt"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert "source" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"source": {"counts_per_setting": 100, "window": float("nan")}}, "source.window"),
        ({"optics": {"extent": float("nan")}}, "optics.extent"),
        ({"source": {"counts_per_setting": 100, "background": float("nan")}},
         "source.background"),
        ({"source": {"counts_per_setting": 1e19}}, "source.counts_per_setting"),
        ({"source": {"counts_per_setting": 1e30}}, "source.counts_per_setting"),
        ({"source": {"counts_per_setting": float("inf")}}, "source.counts_per_setting"),
        ({"channel": "unitary inf"}, "channel"),
        ({"state": [float("nan"), 1, 0]}, "state"),
        ({"output": {"countz": "x.txt"}}, "output.countz: unknown field"),
        ({"state": [True, 1, 0]}, "state"),
        ({"channel": {"kraus": [[[True, 0, 0], [0, 1, 0], [0, 0, 1]]]}}, "channel.kraus"),
        ({"state": [10**400, 1, 0]}, "state"),
        ({"optics": {"extent": 10**400}}, "optics.extent"),
        ({"optics": {"grid_size": 2**2000}}, "optics.grid_size"),
        # an optical geometry the chain cannot realize: a fiber waist below the
        # mode waist, or a grid too coarse to resolve the modes
        ({"measurement_mode": "optical-ideal",
          "optics": {"grid_size": 128, "extent": 1, "fiber_waist": 1}}, "optics"),
        ({"measurement_mode": "optical-ideal",
          "optics": {"grid_size": 128, "extent": 43, "waist": 1, "fiber_waist": 1}}, "optics"),
    ])
    def test_non_finite_or_oversized_exits_3(self, tmp_path, capsys, overrides, field):
        # json.dumps writes NaN and Infinity, which json.load reads back
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "counts.txt"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert f"invalid configuration: {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"source": {"counts_per_setting": True}},
         "source.counts_per_setting: expected a number, got a boolean"),
        ({"source": {"seed": 1.5}}, "source.seed: expected an integer, got 1.5"),
        ({"optics": [128]}, "optics: expected an object, got [128]"),
    ])
    def test_type_errors_name_the_kind(self, tmp_path, capsys, overrides, message):
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "counts.txt"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"oamtomo: invalid configuration: {message}\n"
        assert not out.exists()

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "c.txt")]) == 2

    def test_seed_flag_overrides(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["simulate", "--config", cfg, "--out", str(a), "--seed", "11"])
        main(["simulate", "--config", cfg, "--out", str(b), "--seed", "11"])
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.txt"
        main(["simulate", "--config", cfg, "--out", str(c), "--seed", "12"])
        assert a.read_bytes() != c.read_bytes()


class TestReconstructProcess:
    def test_noiseless_identity_reports_unit_fidelity(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            noiseless=True,
            source={"counts_per_setting": 1000000, "seed": 1},
        )
        counts = tmp_path / "counts.txt"
        report = tmp_path / "report.json"
        assert main(["simulate", "--config", cfg, "--out", str(counts)]) == 0
        assert main(
            ["reconstruct-process", "--config", cfg, "--counts", str(counts),
             "--out", str(report)]
        ) == 0
        doc = _report(report)
        assert doc["report"] == "process"
        assert doc["process_fidelity_vs_ideal"] == pytest.approx(1.0, abs=1e-6)
        chi = np.array(doc["chi"])
        assert chi.shape == (9, 9, 2)
        assert chi[0, 0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_depolarizing_matches_oracle(self, tmp_path):
        # oracle: direct fidelity between the generating chi and the ideal one
        cfg = _write_config(
            tmp_path / "cfg.json",
            channel="depolarizing 0.2",
            source={"counts_per_setting": 1000000, "seed": 5},
        )
        counts = tmp_path / "counts.txt"
        report = tmp_path / "report.json"
        main(["simulate", "--config", cfg, "--out", str(counts)])
        main(["reconstruct-process", "--config", cfg, "--counts", str(counts),
              "--out", str(report)])
        settings = canonical_settings()
        expected = process_fidelity(
            chi_from_kraus(depolarizing_channel(0.2, 3), settings.basis),
            ideal_storage_chi(settings.basis),
        )
        got = _report(report)["process_fidelity_vs_ideal"]
        assert abs(got - expected) < 0.01

    def test_simulate_then_reconstruct_identity_high_fidelity(self, tmp_path):
        # threshold sits at the shot-noise floor of the linear-inversion
        # estimator at this count level: eigenvalue clamping inflates the
        # trace by ~0.007, capping the fidelity near 0.992
        cfg = _write_config(
            tmp_path / "cfg.json", source={"counts_per_setting": 1000000, "seed": 21}
        )
        counts = tmp_path / "counts.txt"
        report = tmp_path / "report.json"
        main(["simulate", "--config", cfg, "--out", str(counts)])
        main(["reconstruct-process", "--config", cfg, "--counts", str(counts),
              "--out", str(report)])
        assert _report(report)["process_fidelity_vs_ideal"] >= 0.99

    def test_incomplete_counts_exits_4(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        counts = tmp_path / "counts.txt"
        main(["simulate", "--config", cfg, "--out", str(counts)])
        lines = counts.read_text().splitlines()
        counts.write_text("\n".join(lines[:-5]) + "\n")
        report = tmp_path / "report.json"
        assert main(
            ["reconstruct-process", "--config", cfg, "--counts", str(counts),
             "--out", str(report)]
        ) == 4
        assert not report.exists()

    @pytest.mark.parametrize("command", ["reconstruct-process", "reconstruct-state"])
    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_counts_exit_4(self, tmp_path, capsys, command, kind):
        cfg = _write_config(tmp_path / "cfg.json", state="psi4")
        counts = tmp_path / "adir"
        if kind == "directory":
            counts.mkdir()
        report = tmp_path / "report.json"
        assert main([command, "--config", cfg, "--counts", str(counts),
                     "--out", str(report)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"oamtomo: counts: {counts}: ") and err.count("\n") == 1
        assert not report.exists()

    def test_state_counts_exit_4(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", state="psi4")
        counts = tmp_path / "counts.txt"
        assert main(["simulate", "--config", cfg, "--out", str(counts)]) == 0
        report = tmp_path / "report.json"
        assert main(
            ["reconstruct-process", "--config", cfg, "--counts", str(counts),
             "--out", str(report)]
        ) == 4
        assert "expected 81 settings, found 9" in capsys.readouterr().err
        assert not report.exists()

    def test_degenerate_rows_exit_5(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        lines = ["# degenerate fixture"]
        for j in range(1, 10):
            for i in range(1, 10):
                raw = 0 if j == 4 and i <= 3 else 100
                lines.append(f"{j} {i} {raw} 0")
        counts = tmp_path / "counts.txt"
        counts.write_text("\n".join(lines) + "\n")
        report = tmp_path / "report.json"
        assert main(
            ["reconstruct-process", "--config", cfg, "--counts", str(counts),
             "--out", str(report)]
        ) == 5
        assert not report.exists()

    def test_bootstrap_block(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            bootstrap_samples=10,
            source={"counts_per_setting": 10000, "seed": 2},
        )
        counts = tmp_path / "counts.txt"
        report = tmp_path / "report.json"
        main(["simulate", "--config", cfg, "--out", str(counts)])
        main(["reconstruct-process", "--config", cfg, "--counts", str(counts),
              "--out", str(report)])
        boot = _report(report)["bootstrap"]
        assert boot["samples"] == 10
        assert 0.0 <= boot["fidelity_std"] < 0.2
        assert 0.5 < boot["fidelity_mean"] <= 1.0


    def test_bootstrap_is_one_poisson_draw(self, tmp_path):
        # oracle: the record-by-record resampling loop the batched draw replaced,
        # then one library reconstruction per resample
        cfg = _write_config(tmp_path / "cfg.json", bootstrap_samples=7,
                            source={"counts_per_setting": 10000, "background": 50.0,
                                    "seed": 4})
        counts = tmp_path / "counts.txt"
        report = tmp_path / "report.json"
        main(["simulate", "--config", cfg, "--out", str(counts)])
        assert main(["reconstruct-process", "--config", cfg, "--counts", str(counts),
                     "--out", str(report)]) == 0
        settings = canonical_settings()
        ideal = ideal_storage_chi(settings.basis)
        observed = read_counts(counts)
        rng = np.random.default_rng([4, 104729])
        fids = []
        for _ in range(7):
            resample = np.array([[[rng.poisson(raw), rng.poisson(bg)] for raw, bg in row]
                                 for row in observed])
            chi = qpt_linear_inversion(probabilities_from_counts(resample), settings)
            fids.append(process_fidelity(project_to_physical_process(chi), ideal))
        # the report carries 9 significant digits, so compare with the oracle written alike
        boot = _report(report)["bootstrap"]
        assert boot["fidelity_mean"] == pytest.approx(round_sig(np.mean(fids)), abs=1e-12)
        assert boot["fidelity_std"] == pytest.approx(round_sig(np.std(fids, ddof=1)), abs=1e-12)


class TestReconstructState:
    def test_noiseless_balanced_state(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            state=[1, -1, 1],
            noiseless=True,
            source={"counts_per_setting": 1000000, "seed": 1},
        )
        counts = tmp_path / "counts.txt"
        report = tmp_path / "report.json"
        assert main(["simulate", "--config", cfg, "--out", str(counts)]) == 0
        assert read_counts(counts).shape == (1, 9, 2)
        assert main(
            ["reconstruct-state", "--config", cfg, "--counts", str(counts),
             "--out", str(report)]
        ) == 0
        doc = _report(report)
        assert doc["report"] == "state"
        assert doc["state_fidelity_vs_target"] == pytest.approx(1.0, abs=1e-6)
        rho = np.array(doc["rho"])
        assert rho.shape == (3, 3, 2)
        np.testing.assert_allclose(rho[..., 0].diagonal(), 1 / 3, atol=1e-6)

    def test_state_required(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", state=[1, 0, 0], noiseless=True)
        counts = tmp_path / "counts.txt"
        main(["simulate", "--config", cfg, "--out", str(counts)])
        cfg2 = _write_config(tmp_path / "cfg2.json", noiseless=True)
        report = tmp_path / "report.json"
        assert main(
            ["reconstruct-state", "--config", cfg2, "--counts", str(counts),
             "--out", str(report)]
        ) == 3

    def test_process_counts_exit_4(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", state="psi4")
        counts = tmp_path / "counts.txt"
        assert main(["simulate", "--config", _write_config(tmp_path / "qpt.json"),
                     "--out", str(counts)]) == 0
        report = tmp_path / "report.json"
        assert main(["reconstruct-state", "--config", cfg, "--counts", str(counts),
                     "--out", str(report)]) == 4
        assert "expected 9 settings, found 81" in capsys.readouterr().err
        assert not report.exists()

    def test_single_input_other_than_1_exits_4(self, tmp_path, capsys):
        # state-mode counts must use input index 1
        cfg = _write_config(tmp_path / "cfg.json", state="psi4")
        counts = tmp_path / "counts.txt"
        counts.write_text("".join(f"4 {i} 100 0\n" for i in range(1, 10)))
        report = tmp_path / "report.json"
        assert main(["reconstruct-state", "--config", cfg, "--counts", str(counts),
                     "--out", str(report)]) == 4
        assert "missing record for setting (1, 1)" in capsys.readouterr().err
        assert not report.exists()

    def test_named_state(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", state="psi4", noiseless=True)
        counts = tmp_path / "counts.txt"
        report = tmp_path / "report.json"
        main(["simulate", "--config", cfg, "--out", str(counts)])
        main(["reconstruct-state", "--config", cfg, "--counts", str(counts),
              "--out", str(report)])
        assert _report(report)["state_fidelity_vs_target"] == pytest.approx(1.0, abs=1e-6)


class TestModes:
    def test_vortex_grids(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", state="L",
                            optics={"grid_size": 128, "extent": 1.0})
        out = tmp_path / "grids"
        assert main(["modes", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "fourier_intensity.txt", "fourier_phase.txt",
            "image_intensity.txt", "image_phase.txt",
            "mask_intensity.txt", "mask_phase.txt",
        ]
        header = (out / "mask_intensity.txt").read_text().splitlines()[0]
        assert header.split() == ["128", "1"]
        intensity = np.loadtxt(out / "mask_intensity.txt", skiprows=1)
        assert intensity.shape == (128, 128)
        assert intensity[64, 64] == 0.0
        phase = np.loadtxt(out / "mask_phase.txt", skiprows=1)
        # azimuthal ramp: phase at (x>0, y=0) is 0, at (x=0, y>0) is pi/2
        # (grid files carry 9 significant digits)
        assert phase[64, 96] == pytest.approx(0.0, abs=1e-7)
        assert phase[96, 64] == pytest.approx(np.pi / 2, abs=1e-7)

    def test_balanced_state_emits_six_files(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", state=[1, 1, 1],
                            optics={"grid_size": 128, "extent": 1.0})
        out = tmp_path / "grids"
        assert main(["modes", "--config", cfg, "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == 6

    def test_fourier_plane_of_gaussian_is_gaussian(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", state="G",
                            optics={"grid_size": 128, "extent": 1.0})
        out = tmp_path / "grids"
        main(["modes", "--config", cfg, "--out", str(out)])
        intensity = np.loadtxt(out / "fourier_intensity.txt", skiprows=1)
        center = intensity[64, 64:]
        assert np.all(np.diff(center) <= 1e-12)
        assert intensity[64, 64] == intensity.max()

    def test_state_flag_overrides(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", optics={"grid_size": 128, "extent": 1.0})
        out = tmp_path / "grids"
        assert main(["modes", "--config", cfg, "--out", str(out), "--state", "R"]) == 0
        assert main(["modes", "--config", cfg, "--out", str(tmp_path / "g2")]) == 3

    def test_invalid_state_exits_3(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", state="nonsense",
                            optics={"grid_size": 128, "extent": 1.0})
        assert main(["modes", "--config", cfg, "--out", str(tmp_path / "grids")]) == 3

    @pytest.mark.parametrize("command, extent", [
        ("modes", 1.34e155), ("modes", 1.4e155), ("modes", 1.4e-241), ("simulate", 1.4e-241),
    ])
    def test_unrealizable_scale_exits_3(self, tmp_path, capsys, command, extent):
        # squared coordinates or waists leave the float range: the optics guard
        # turns the first overflow or invalid value into one error line, with
        # no numpy warning before it and no output behind it
        cfg = _write_config(tmp_path / "cfg.json", state="psi4", measurement_mode="optical-ideal",
                            optics={"grid_size": 128, "extent": extent})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("oamtomo: invalid configuration: optics: ") and err.count("\n") == 1
        assert not out.exists()

    def test_failed_export_keeps_an_existing_directory(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", state="psi4",
                            optics={"grid_size": 128, "extent": 1.4e-241})
        out = tmp_path / "grids"
        out.mkdir()
        (out / "keep.txt").write_text("kept\n")
        assert main(["modes", "--config", cfg, "--out", str(out)]) == 3
        assert os.listdir(out) == ["keep.txt"]

    # one run fails for want of a state, the other in the optics guard
    @pytest.mark.parametrize("state, extent", [(None, 1.0), ("psi4", 1.4e-241)])
    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_failed_export_keeps_an_existing_path(self, tmp_path, state, extent, kind):
        cfg = _write_config(tmp_path / "cfg.json", state=state,
                            optics={"grid_size": 128, "extent": extent})
        target = tmp_path / "keep.txt"
        target.write_text("kept\n")
        out = tmp_path / "grids"
        if kind == "file":
            out = target
        else:
            grids = tmp_path / "real_grids"
            grids.mkdir()
            out.symlink_to(grids)
        assert main(["modes", "--config", cfg, "--out", str(out)]) == 3
        assert target.read_text() == "kept\n"
        assert os.path.lexists(out) and (kind == "file" or os.readlink(out) == str(grids))

    def test_out_naming_a_file_exits_3(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", state="L",
                            optics={"grid_size": 128, "extent": 1.0})
        target = tmp_path / "keep.txt"
        target.write_text("kept\n")
        assert main(["modes", "--config", cfg, "--out", str(target)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("oamtomo: invalid configuration: output.grids: ")
        assert err.count("\n") == 1
        assert target.read_text() == "kept\n"


class TestDeterminism:
    def test_counts_and_reports_byte_identical(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            channel="depolarizing 0.1",
            source={"counts_per_setting": 20000, "background": 100.0, "seed": 13},
            bootstrap_samples=5,
        )
        pairs = []
        for tag in ("one", "two"):
            counts = tmp_path / f"counts_{tag}.txt"
            report = tmp_path / f"report_{tag}.json"
            assert main(["simulate", "--config", cfg, "--out", str(counts)]) == 0
            assert main(
                ["reconstruct-process", "--config", cfg, "--counts", str(counts),
                 "--out", str(report)]
            ) == 0
            pairs.append((counts.read_bytes(), report.read_bytes()))
        assert pairs[0] == pairs[1]


class TestOpticalModes:
    def test_ideal_routing_matches_abstract(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            noiseless=True,
            measurement_mode="optical-ideal",
            source={"counts_per_setting": 1000000, "seed": 1},
            optics={"grid_size": 128, "extent": 1.0},
        )
        counts = tmp_path / "counts.txt"
        report = tmp_path / "report.json"
        assert main(["simulate", "--config", cfg, "--out", str(counts)]) == 0
        assert main(
            ["reconstruct-process", "--config", cfg, "--counts", str(counts),
             "--out", str(report)]
        ) == 0
        assert _report(report)["process_fidelity_vs_ideal"] == pytest.approx(1.0, abs=1e-6)

    def test_phase_only_routing_loses_fidelity(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            noiseless=True,
            measurement_mode="optical-phase-only",
            source={"counts_per_setting": 1000000, "seed": 1},
            optics={"grid_size": 128, "extent": 1.0},
        )
        counts = tmp_path / "counts.txt"
        report = tmp_path / "report.json"
        main(["simulate", "--config", cfg, "--out", str(counts)])
        main(["reconstruct-process", "--config", cfg, "--counts", str(counts),
              "--out", str(report)])
        fidelity = _report(report)["process_fidelity_vs_ideal"]
        assert 0.3 < fidelity < 0.99

    @pytest.mark.parametrize("state", [None, "psi4"])
    def test_ideal_counts_equal_abstract_counts(self, tmp_path, state):
        cfg = _write_config(
            tmp_path / "cfg.json",
            channel="depolarizing 0.1159305993690852",
            state=state,
            source={"counts_per_setting": 1000000, "background": 10000.0, "seed": 7},
            optics={"grid_size": 128, "extent": 1.0},
        )
        bodies = []
        for mode in ("abstract", "optical-ideal"):
            out = tmp_path / f"{mode}.txt"
            assert main(["simulate", "--config", cfg, "--out", str(out), "--mode", mode]) == 0
            bodies.append([ln for ln in out.read_bytes().splitlines() if not ln.startswith(b"#")])
        assert len(bodies[0]) == (9 if state else 81)
        assert bodies[0] == bodies[1]

    def test_phase_only_rows_are_trace_of_effective_operators(self, tmp_path):
        cfg = load_config(_write_config(
            tmp_path / "cfg.json",
            channel="depolarizing 0.1159305993690852",
            measurement_mode="optical-phase-only",
            optics={"grid_size": 128, "extent": 1.0},
        ))
        settings = canonical_settings()
        psi4 = settings.inputs[3]
        row = _probability_rows([psi4], cfg.channel, cfg, settings)[0]
        rho, povm = effective_operators([psi4], settings.inputs, cfg.optics, "phase_only")
        # one operator per side, so no eigenbasis of the channel output enters the row
        expected = np.einsum("iab,ba->i", povm, apply_channel_kraus(cfg.channel, rho[0])).real
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-14)

    def test_mode_flag_overrides_config(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            noiseless=True,
            source={"counts_per_setting": 1000000, "seed": 1},
            optics={"grid_size": 128, "extent": 1.0},
        )
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(
            ["simulate", "--config", cfg, "--out", str(b), "--mode", "optical-phase-only"]
        ) == 0
        assert a.read_bytes() != b.read_bytes()


class TestKrausConfig:
    def test_explicit_kraus_channel(self, tmp_path):
        # rho -> U rho U^dag with U = diag(1, 1, i), written as [re, im] entries
        u = [
            [[1, 0], [0, 0], [0, 0]],
            [[0, 0], [1, 0], [0, 0]],
            [[0, 0], [0, 0], [0, 1]],
        ]
        cfg = _write_config(
            tmp_path / "cfg.json",
            channel={"kraus": [u]},
            noiseless=True,
            source={"counts_per_setting": 1000000, "seed": 1},
        )
        counts = tmp_path / "counts.txt"
        report = tmp_path / "report.json"
        assert main(["simulate", "--config", cfg, "--out", str(counts)]) == 0
        assert main(
            ["reconstruct-process", "--config", cfg, "--counts", str(counts),
             "--out", str(report)]
        ) == 0
        settings = canonical_settings()
        from oamtomo import phase_rotation_channel

        expected = chi_from_kraus(phase_rotation_channel(np.pi / 2), settings.basis)
        chi_pairs = np.array(_report(report)["chi"])
        chi = chi_pairs[..., 0] + 1j * chi_pairs[..., 1]
        np.testing.assert_allclose(chi, expected, atol=1e-6)

    def test_bad_kraus_exits_3(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", channel={"kraus": [[["x"]]]})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "c.txt")]) == 3


# JSON numbers as a hand-written config may hold them: NaN, infinities,
# booleans (a bool is an int to Python), integers beyond the float range,
# huge and negative values, and ordinary ones
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.booleans(),
    st.sampled_from([0, 1, 0.1, 1000, 1e18, 1e19, 2**63, -1, 10**400, -(10**400), 1e-300]),
)
_CHANNEL_NAMES = ["identity", "depolarizing", "dephasing", "unitary", "bogus", ""]
_STATE_NAMES = ["L", "G", "R", "psi1", "psi4", "psi9", "psi0", "psi10", "nonsense"]
_AMPLITUDE = st.one_of(_NUMBERS, st.lists(_NUMBERS, min_size=2, max_size=2), st.just("x"))


# bootstrap_samples for the reconstruct commands: the generated values, with
# valid sample counts above 30 folded down so that every run stays cheap
_BOOTSTRAP = _NUMBERS.map(lambda v: v % 31 if type(v) is int and 0 <= v <= 100000 else v)


@st.composite
def _configs(draw, command):
    """A config for the command with any subset of keys, each valid or not.

    modes and reconstruct-state always carry a state key (null included),
    since they name it when it is missing.
    """
    mode = draw(st.sampled_from(["abstract", "optical-ideal", "optical-phase-only", "bogus"]))
    optics = draw(st.fixed_dictionaries({}, optional={
        "grid_size": _NUMBERS, "extent": _NUMBERS, "waist": _NUMBERS, "fiber_waist": _NUMBERS}))
    if mode.startswith("optical") or command == "modes":
        # the optics chain allocates grid_size^2 fields: keep it at the smallest valid grid
        optics["grid_size"] = 128
    required = {"measurement_mode": st.one_of(st.just(mode), _NUMBERS)}
    optional = {
        "dimension": st.one_of(st.just(3), _NUMBERS),
        "channel": st.one_of(
            st.none(),
            st.sampled_from(_CHANNEL_NAMES),
            st.builds("{} {}".format, st.sampled_from(_CHANNEL_NAMES), _NUMBERS),
            st.builds(lambda k: {"kraus": k}, st.lists(
                st.lists(st.lists(_AMPLITUDE, min_size=3, max_size=3), min_size=3, max_size=3),
                min_size=1, max_size=2)),
            _NUMBERS,
        ),
        "state": st.one_of(st.none(), st.sampled_from(_STATE_NAMES),
                           st.lists(_AMPLITUDE, min_size=2, max_size=4), _NUMBERS),
        "source": st.fixed_dictionaries({}, optional={
            "counts_per_setting": _NUMBERS, "background": _NUMBERS, "efficiency": _NUMBERS,
            "window": _NUMBERS, "seed": _NUMBERS}),
        "noiseless": st.one_of(st.booleans(), _NUMBERS),
        "bootstrap_samples": _BOOTSTRAP if command.startswith("reconstruct") else _NUMBERS,
    }
    if command in ("modes", "reconstruct-state"):
        required["state"] = optional.pop("state")
    doc = draw(st.fixed_dictionaries(required, optional=optional))
    if optics or draw(st.booleans()):
        doc["optics"] = optics
    return doc


@pytest.fixture(scope="module")
def valid_counts(tmp_path_factory):
    """Counts files every reconstruct run reads: process counts and psi4 state counts."""
    tmp = tmp_path_factory.mktemp("contract")
    paths = {}
    for command, state in (("reconstruct-process", None), ("reconstruct-state", "psi4")):
        paths[command] = str(tmp / f"{command}.txt")
        cfg = _write_config(tmp / f"{command}.json", state=state)
        assert main(["simulate", "--config", cfg, "--out", paths[command]]) == 0
    return paths


# what a successful run of each command must leave at its output path
_OUTPUT_OK = {
    "simulate": lambda out: read_counts(out).shape[1:] == (9, 2),
    "modes": lambda out: len(os.listdir(out)) == 6,
    "reconstruct-process": lambda out: _report(pathlib.Path(out))["report"] == "process",
    "reconstruct-state": lambda out: _report(pathlib.Path(out))["report"] == "state",
}


class TestConfigContract:
    """Every command either succeeds, or exits with a documented code naming a
    field of the config it was given, and leaves no output behind."""

    @staticmethod
    def _check(command, doc, *extra):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w") as fh:
                json.dump(doc, fh)
            out = os.path.join(tmp, "out")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", cfg, "--out", out, *extra])
            if code == 0:
                assert _OUTPUT_OK[command](out)
                return
            assert code in (2, 3, 4, 5)
            assert not os.path.exists(out)
            named = re.search(r"^oamtomo: invalid configuration: (\w+)", err.getvalue(), re.M)
            assert named is not None and named.group(1) in doc, err.getvalue()

    @hyp_settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(doc=_configs("simulate"))
    def test_simulate_exits_cleanly(self, doc):
        self._check("simulate", doc)

    # the explicit examples are faults the random search seldom reaches, since
    # they need every other field valid: optics scales whose squares leave the
    # float range, and a bootstrap too large to allocate
    @hyp_settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(doc=_configs("modes"))
    @example(doc={"measurement_mode": "abstract", "state": "psi4",
                  "optics": {"grid_size": 128, "extent": 1.4e155}})
    @example(doc={"measurement_mode": "abstract", "state": "psi4",
                  "optics": {"grid_size": 128, "extent": 1.4e-241}})
    def test_modes_exits_cleanly(self, doc):
        self._check("modes", doc)

    @hyp_settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(doc=_configs("reconstruct-process"))
    @example(doc={"measurement_mode": "abstract", "bootstrap_samples": 10**15})
    def test_reconstruct_process_exits_cleanly(self, valid_counts, doc):
        self._check("reconstruct-process", doc, "--counts", valid_counts["reconstruct-process"])

    @hyp_settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(doc=_configs("reconstruct-state"))
    @example(doc={"measurement_mode": "abstract", "state": "psi4", "bootstrap_samples": 10**15})
    def test_reconstruct_state_exits_cleanly(self, valid_counts, doc):
        self._check("reconstruct-state", doc, "--counts", valid_counts["reconstruct-state"])
