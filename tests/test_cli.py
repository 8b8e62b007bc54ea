import contextlib
import io
import json
import math
import os
import pathlib
import re
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings as hyp_settings, strategies as st
from hypothesis.extra import numpy as hnp

from oamtomo import cli, gridtext
from oamtomo.cli import _probability_rows, main
from oamtomo.config import ConfigError, load_config
from oamtomo.counts import SourceConfig
from oamtomo.fileio import read_counts, round_sig, write_grid
from oamtomo.optics import (
    OpticsConfig,
    effective_operators,
    lens_fourier,
    parity_index,
    phase_mask_of,
    superposition_field,
)
from oamtomo.qudit import apply_channel_kraus, depolarizing_channel, process_fidelity
from oamtomo.tomography import (
    canonical_settings,
    probabilities_from_counts,
    project_to_physical_process,
    qpt_linear_inversion,
)
from oracles import chi_from_kraus, ideal_storage_chi


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

    @pytest.mark.parametrize("overrides, flags, message", [
        ({"source": {"counts_per_setting": 0}}, [], "source.counts_per_setting: must be positive"),
        ({"source": {"background": -1}}, [], "source.background: must be nonnegative"),
        ({"source": {"efficiency": 1.5}}, [], "source.efficiency: must be in [0, 1]"),
        ({"source": {"window": 0}}, [], "source.window: must be positive"),
        ({"source": {"seed": -1}}, [], "source.seed: must be nonnegative"),
        ({}, ["--seed", "-1"], "source.seed: must be nonnegative"),
        *[({"optics": {"grid_size": n}}, [],
           f"optics.grid_size: must be a power of two from 128 to 4096, got {n}")
          for n in (64, 300, 8192)],
        ({"optics": {"extent": 0}}, [], "optics.extent: must be positive"),
        ({"optics": {"waist": -1}}, [], "optics.waist: must be positive"),
        ({"optics": {"fiber_waist": -1}}, [], "optics.fiber_waist: must be positive"),
        ({"optics": {"waist": 0.3}}, [],
         "optics.waist: 0.3 exceeds extent/4 = 0.25 (aliasing guard)"),
        # a defaulted waist, the self-Fourier waist, that overflows is refused as the
        # extent's fault, the one key the config gave
        ({"optics": {"extent": 1e308}}, [], "optics.extent: 1e+308 is too large: the "
         "default waist, the self-Fourier waist, is not finite"),
        ({"optics": {"extent": 1e308, "waist": 0.1}}, [], "optics.extent: 1e+308 is too "
         "large: the default fiber_waist, the self-Fourier waist, is not finite"),
    ])
    def test_range_errors_name_the_field(self, tmp_path, capsys, overrides, flags, message):
        # every rule of SourceConfig and OpticsConfig, refused before any work
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "counts.txt"
        assert main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 3
        assert capsys.readouterr().err == f"oamtomo: invalid configuration: {message}\n"
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
        # state names are exact: L, G, R and psi1..psi9, spelled no other way
        *[({"state": name}, "state: unknown state name")
          for name in ("psi04", "psi+4", "psi 4", "psi4 ", "psi\u0664")],
        # Kraus operators that act on no qutrit
        ({"channel": {"kraus": [[[1, 0], [0, 1]]]}}, "channel.kraus"),
        ({"channel": {"kraus": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]}},
         "channel.kraus"),
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

    # JSON numbers that pass the kind checks, the counts bound and its neighbours among them
    _NUMBER = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([1e18, math.nextafter(1e18, math.inf), 10**18 + 1]))

    @hyp_settings(deadline=None, derandomize=True, database=None, max_examples=300,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(source=st.fixed_dictionaries({}, optional={
               **dict.fromkeys(("counts_per_setting", "background", "efficiency", "window"),
                               _NUMBER),
               "seed": st.integers(-2, 2**64)}),
           optics=st.fixed_dictionaries({
               "grid_size": st.one_of(st.integers(-1, 9000), st.sampled_from([128, 4096])),
               **dict.fromkeys(("extent", "waist", "fiber_waist"), _NUMBER)}))
    def test_library_refuses_what_the_cli_refuses(self, tmp_path, source, optics):
        # load_config refuses a section exactly when its constructor refuses the
        # same values, with the constructor's message after the section prefix
        as_floats = {k: v if k == "grid_size" else float(v) for k, v in optics.items()}
        for name, cls, values, kwargs in (("source", SourceConfig, source, source),
                                          ("optics", OpticsConfig, optics, as_floats)):
            # a new file each time: truncating one in place is slow on some file systems
            fd, path = tempfile.mkstemp(suffix=".json", dir=tmp_path)
            with os.fdopen(fd, "w") as fh:
                json.dump({name: values}, fh)
            try:
                expected = cls(**kwargs)
            except ValueError as exc:
                with pytest.raises(ConfigError) as refused:
                    load_config(path)
                assert str(refused.value) == f"{name}.{exc}"
            else:
                assert getattr(load_config(path), name) == expected

    def test_library_defaults_are_the_empty_sections(self, tmp_path):
        run = load_config(_write_config(tmp_path / "cfg.json", source={}))
        assert run.source == SourceConfig()
        assert run.optics == OpticsConfig()

    def test_integer_lengths_echo_as_floats(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json",
                            optics={"grid_size": 128, "extent": 4, "waist": 1, "fiber_waist": 1})
        out = tmp_path / "counts.txt"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[1]
        assert '"optics":{"extent":4.0,"fiber_waist":1.0,"grid_size":128,"waist":1.0}' in header

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
            chi_from_kraus(depolarizing_channel(0.2), settings.basis),
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

    # numpy's Poisson sampler refuses means above 2^63 - 1 - 10 sqrt(2^63 - 1): the
    # largest int64 whose float64 is not above it, and the next int64 whose float64 is
    @pytest.mark.parametrize("command", ["reconstruct-process", "reconstruct-state"])
    @pytest.mark.parametrize("samples", [0, 3])
    @pytest.mark.parametrize("huge", [9223372006484770816, 9223372006484771840])
    def test_counts_beyond_poisson_range(self, tmp_path, capsys, command, samples, huge):
        # only a bootstrap resamples counts, so only it refuses them: exit 4 naming
        # the counts file and the first such setting, not numpy's "lam value too large"
        cfg = _write_config(tmp_path / "cfg.json", state="psi4", bootstrap_samples=samples)
        n_in = 9 if command == "reconstruct-process" else 1
        counts = tmp_path / "counts.txt"
        counts.write_text("".join(
            f"{j} {i} {huge if (j, i) == (1, 5) else 1000} {huge if i == 7 else 10}\n"
            for j in range(1, n_in + 1) for i in range(1, 10)))
        report = tmp_path / "report.json"
        code = main([command, "--config", cfg, "--counts", str(counts), "--out", str(report)])
        err = capsys.readouterr().err
        if samples and huge > 9223372006484770816:
            assert code == 4
            assert err == (f"oamtomo: counts: {counts}: setting (1, 5): count {huge} is above "
                           "9.2233720065e+18, the largest a bootstrap can resample\n")
            assert not report.exists()
        else:
            assert (code, err) == (0, "")

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

    def test_null_channel_exit_5_prints_a_plain_number(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", channel=None)
        counts, report = tmp_path / "counts.txt", tmp_path / "report.json"
        assert main(["simulate", "--config", cfg, "--out", str(counts)]) == 0
        capsys.readouterr()
        assert main(["reconstruct-process", "--config", cfg, "--counts", str(counts),
                     "--out", str(report)]) == 5
        err = capsys.readouterr().err
        assert "sum to 0.0" in err
        assert "np.float64" not in err

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
            chi = qpt_linear_inversion(probabilities_from_counts(resample))
            fids.append(process_fidelity(project_to_physical_process(chi), ideal))
        # the report carries 9 significant digits, so compare with the oracle written alike
        boot = _report(report)["bootstrap"]
        assert boot["fidelity_mean"] == pytest.approx(round_sig(np.mean(fids)), abs=1e-12)
        assert boot["fidelity_std"] == pytest.approx(round_sig(np.std(fids, ddof=1)), abs=1e-12)

    def test_chunked_bootstrap_continues_one_draw(self, tmp_path, monkeypatch):
        # chunks of 3, 3 and 1 draw the resamples of one draw of all 7
        cfg = _write_config(tmp_path / "cfg.json", bootstrap_samples=7,
                            source={"counts_per_setting": 10000, "background": 50.0,
                                    "seed": 4})
        counts = tmp_path / "counts.txt"
        main(["simulate", "--config", cfg, "--out", str(counts)])
        boots = []
        for chunk in (cli.BOOTSTRAP_CHUNK, 3):
            monkeypatch.setattr(cli, "BOOTSTRAP_CHUNK", chunk)
            report = tmp_path / f"report{chunk}.json"
            assert main(["reconstruct-process", "--config", cfg, "--counts", str(counts),
                         "--out", str(report)]) == 0
            boots.append(_report(report)["bootstrap"])
        for key in ("fidelity_mean", "fidelity_std"):
            assert boots[1][key] == pytest.approx(boots[0][key], abs=1e-12)

    def test_bootstrap_memory_does_not_grow_with_samples(self, tmp_path):
        # B = 10^4 is ten chunks of 1000; one chunk traces about 6.7 MB, and all
        # 10^4 resamples drawn at once traced 79 MB
        cfg = _write_config(tmp_path / "cfg.json", bootstrap_samples=10**4,
                            source={"counts_per_setting": 10000, "seed": 3})
        counts, report = tmp_path / "counts.txt", tmp_path / "report.json"
        assert main(["simulate", "--config", cfg, "--out", str(counts)]) == 0
        tracemalloc.start()
        try:
            assert main(["reconstruct-process", "--config", cfg, "--counts", str(counts),
                         "--out", str(report)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert _report(report)["bootstrap"]["samples"] == 10**4


class TestClosedFormScoring:
    def test_reconstructions_run_no_uhlmann_fidelity(self, tmp_path, monkeypatch):
        # reports and bootstraps score against pure references in closed form:
        # no eigendecomposition-based fidelity may run, under any name it was imported as
        from oamtomo import qudit

        def refuse(*args, **kwargs):
            raise AssertionError("a reconstruction ran an Uhlmann fidelity")

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "oamtomo" or name.startswith("oamtomo."))]
        for name in ("process_fidelity", "state_fidelity", "matrix_sqrt_psd"):
            func = getattr(qudit, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        monkeypatch.setattr(module, attr, refuse)
        for extra, command in (({}, "reconstruct-process"),
                               ({"state": "psi4"}, "reconstruct-state")):
            cfg = _write_config(tmp_path / "cfg.json", bootstrap_samples=20, **extra)
            counts, report = tmp_path / "counts.txt", tmp_path / "report.json"
            assert main(["simulate", "--config", cfg, "--out", str(counts)]) == 0
            assert main([command, "--config", cfg, "--counts", str(counts),
                         "--out", str(report)]) == 0
            assert _report(report)["bootstrap"]["samples"] == 20


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

    def test_null_state_flag_clears_the_state(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", state="L",
                            optics={"grid_size": 128, "extent": 1.0})
        out = tmp_path / "grids"
        assert main(["modes", "--config", cfg, "--out", str(out), "--state", "null"]) == 3
        assert not out.exists()
        assert load_config(cfg, state="null").echo["state"] is None
        run = load_config(cfg, state="[1,-1,1]")
        assert run.echo["state"] == [1, -1, 1]
        np.testing.assert_array_equal(run.state, np.array([1, -1, 1]) / np.sqrt(3))

    def test_state_flag_overrides_an_invalid_state(self, tmp_path):
        # --state replaces the config's state before it is checked, as --seed and
        # --mode replace theirs
        cfg = _write_config(tmp_path / "cfg.json", state="nonsense",
                            optics={"grid_size": 128, "extent": 1.0})
        out = tmp_path / "grids"
        assert main(["modes", "--config", cfg, "--out", str(out), "--state", "psi4"]) == 0
        assert len(os.listdir(out)) == 6

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

    @pytest.mark.parametrize("state", ["L", "psi4", [1, -1, 1], [0.3, -0.5, 0.8]])
    def test_grid_text(self, tmp_path, state):
        # mask and Fourier grids are np.savetxt's text of the fields; the image
        # grids are the mask text with coordinates inverted, k -> (-k) mod N
        cfg = _write_config(tmp_path / "cfg.json", state=state,
                            optics={"grid_size": 128, "extent": 1.0})
        out = tmp_path / "grids"
        assert main(["modes", "--config", cfg, "--out", str(out)]) == 0
        run = load_config(cfg)
        mask = superposition_field(run.state, run.optics)
        for plane, field in (("mask", mask), ("fourier", lens_fourier(mask))):
            for kind, values in (("intensity", np.abs(field) ** 2),
                                 ("phase", phase_mask_of(field))):
                expected = io.StringIO()
                np.savetxt(expected, values, fmt="%.9g", header="128 1", comments="")
                text = (out / f"{plane}_{kind}.txt").read_text()
                assert text.split("\n") == expected.getvalue().split("\n")
        for kind in ("intensity", "phase"):
            header, *rows = (out / f"mask_{kind}.txt").read_text().splitlines()
            values = np.array([row.split(" ") for row in rows])
            flipped = np.roll(np.flip(values, axis=(0, 1)), 1, axis=(0, 1))
            image = (out / f"image_{kind}.txt").read_text()
            assert image.split("\n") == [header] + [" ".join(row) for row in flipped] + [""]

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("state", ["L", "psi4", "[1,1,1]", "[1,-1,1]"])
    def test_export_memory(self, tmp_path, state, n):
        # the field summed 1/32 of the rows at a time, the mask transformed in place
        # once its grids are written, and each grid's values and text made 1/32 grid
        # at a time from the complex samples, with unbuffered takes (about 0.55 grids
        # of scratch): the traced peak is 1.71-1.72 complex grids at N = 256 and
        # 1.65-1.66 at N = 512, set while a grid is written; the field build peaks at
        # 1.15-1.16 / 1.12 and the transform at 1.53-1.54 / 1.51 (2.21 / 2.15-2.16
        # with whole modes in the build and whole value grids, 3.16-3.17 with
        # whole-grid temporaries in the field build and buffered takes, 4.03-4.04
        # with out-of-place fields and whole grids of text)
        cfg = _write_config(tmp_path / "cfg.json", optics={"grid_size": n, "extent": 1.0})
        argv = ["modes", "--config", cfg, "--out", str(tmp_path / "grids"), "--state"]
        assert main(argv + ["G"]) == 0  # first-use imports and caches stay out of the peak
        tracemalloc.start()
        try:
            assert main(argv + [state]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * n * n * np.dtype(complex).itemsize


def _savetxt(values, header: str) -> str:
    text = io.StringIO()
    np.savetxt(text, values, fmt="%.9g", header=header, comments="")
    return text.getvalue()


def _row(*values):
    return np.array([values])


def _around(values):
    """Rows of the values' lower neighbours, the values, their upper
    neighbours and their negatives."""
    return np.stack([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf), -values])


def _grid_text(values) -> str:
    return b"".join(bytes(block) for block in gridtext.grid_text(values)).decode()


def _percent_text(values) -> str:
    return "".join(" ".join("%.9g" % v for v in row) + "\n" for row in values.tolist())


def _decimal(x):
    n = x.size
    return gridtext._decimal(x, np.empty((2, n)), np.empty((2, n), np.intp), np.empty((3, n), bool))


class TestGridFile:
    VALUES = np.array([
        [0.0, -0.0, 5e-324, -5e-324],
        [1.7976931348623157e308, -1.7976931348623157e308, 1e-5, -1.23456789e-5],
        [9.99999999e-5, 1e-4, -9.9999999949e-6, 1e9],
        [123456789.5, 999999999.5, -123456789.5, -999999999.5],
    ])

    def test_text_equals_savetxt(self, tmp_path):
        path = tmp_path / "grid.txt"
        write_grid(path, self.VALUES, 0.25)
        assert path.read_text() == _savetxt(self.VALUES, "4 0.25")

    def test_order_permutes_rows_and_values(self, tmp_path):
        # line r is row order[r] with its values taken at order; the lines
        # differ in length here
        for order in (np.array([2, 0, 3, 1]), np.array([3, 2, 1, 0])):
            path = tmp_path / "grid.txt"
            write_grid(path, self.VALUES, 0.25, order=order)
            assert path.read_text() == _savetxt(self.VALUES[np.ix_(order, order)], "4 0.25")

    def test_values_made_per_block_from_complex_samples(self, tmp_path):
        # each block's |s|^2 or phase is made from that block of the samples (for the
        # image's order, from the gathered block): the text of the whole-grid values.
        # The samples hold exact zeros, whose phase is 0, and samples at angle -pi,
        # whose phase is pi
        n = 128
        rng = np.random.default_rng(21)
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s[rng.random((n, n)) < 0.05] = 0.0
        s.imag[(rng.random((n, n)) < 0.05) & (s.real < 0)] = -0.0
        angle = np.angle(s)
        assert (s == 0).any() and (angle == -np.pi).any()
        phase = np.where(angle == -np.pi, np.pi, angle)
        path = tmp_path / "grid.txt"
        for order in (None, parity_index(n)):
            for value, values in ((cli._intensity, np.abs(s) ** 2), (phase_mask_of, phase)):
                write_grid(path, s, 0.5, value, order=order)
                if order is not None:
                    values = values[np.ix_(order, order)]
                assert path.read_text() == _savetxt(values, f"{n} 0.5")

    @hyp_settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                             elements=st.floats(allow_subnormal=True)))
    # exact binary ties of the 9th digit, and values just off them
    @example(values=_row(123456789.5, -123456788.5, 999999999.5, 100000000.5, 1234567885.0,
                         0.1234567885, 12345678850.0, 9.999999995, 9.9999999949999))
    @example(values=_around(np.array([123456789.5, 123456788.5, 999999999.5])))
    # powers of ten and their neighbours, across the change of layout
    @example(values=_around(10.0 ** np.array([-5, -4, 0, 8, 9, 22, 23, 100, -100, 308])))
    # subnormals and the smallest normal numbers
    @example(values=_row(5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 2.225073858507201e-308,
                         1.23456789e-300, -9.8765432e-291))
    @example(values=_row(0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan))
    # blocks of two rows, and a shorter last block
    @example(values=np.linspace(-3.0, 3.0, 130).reshape(65, 2))
    def test_text_equals_percent_format(self, values):
        assert _grid_text(values) == _percent_text(values)

    def test_near_ties(self):
        # decimal numbers one digit past the ninth, ending in 5, at every
        # exponent: each double lies within rounding error of a tie, on one side
        rng = np.random.default_rng(11)
        digits = rng.integers(10**8, 10**9, 6300)
        exponents = np.arange(-330, 300).repeat(10)
        values = np.array([float(f"{d}5e{k}") for d, k in zip(digits, exponents)]).reshape(-1, 63)
        assert _grid_text(values) == _percent_text(values)

    def test_mantissa_without_fallback(self):
        # the vector path's mantissa and exponent are those of '%.8e' wherever it
        # does not fall back, and it falls back only in the band around ties
        rng = np.random.default_rng(12)
        x = rng.integers(0, 2**63, 100000, dtype=np.uint64).view(np.float64)
        x = np.concatenate([x, np.ldexp(rng.random(10000), -1074), 1e-300 * rng.random(10000)])
        x = x[np.isfinite(x)]
        e, m, slow = _decimal(x)
        assert slow.sum() <= 2
        for v, mantissa, exponent in zip(x[~slow], m[~slow], e[~slow]):
            digits = str(mantissa)
            assert "%.8e" % abs(v) == f"{digits[0]}.{digits[1:]}e{exponent:+03d}" or v == 0
        # just below a power of ten, log10 rounds up to it, so e is one too large
        # and s falls below 1e8: those values fall back, but for the ones whose
        # s rounds up to 1e8, which get the power's text, as '%.9g' does
        below = np.nextafter(10.0 ** np.arange(-300, 300), 0)
        e, m, slow = _decimal(below)
        power = np.log10(below)
        rounded_up = power == np.round(power)
        assert rounded_up.sum() > 500 and slow[rounded_up].sum() > 500
        assert (m[rounded_up & ~slow] == 10**8).all()
        assert (e[rounded_up & ~slow] == power[rounded_up & ~slow]).all()


class TestOutputs:
    @pytest.mark.parametrize("command, key", [
        ("simulate", "counts"), ("reconstruct-process", "report"), ("reconstruct-state", "report"),
    ])
    @pytest.mark.parametrize("kind", ["directory", "missing parent"])
    def test_unwritable_output_exits_3(self, tmp_path, capsys, command, key, kind):
        cfg = _write_config(tmp_path / "cfg.json",
                            state="psi4" if command == "reconstruct-state" else None)
        counts = tmp_path / "counts.txt"
        assert main(["simulate", "--config", cfg, "--out", str(counts)]) == 0
        capsys.readouterr()
        out = tmp_path / "adir"
        if kind == "directory":
            out.mkdir()
        else:
            out = out / "x.txt"
        argv = [command, "--config", cfg, "--out", str(out)]
        if command != "simulate":
            argv += ["--counts", str(counts)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"oamtomo: invalid configuration: output.{key}: cannot write ")
        assert err.count("\n") == 1
        assert out.is_dir() if kind == "directory" else not out.parent.exists()

    # runs that would fail (no state; the optics guard) and runs that would succeed
    @pytest.mark.parametrize("command, out, overrides", [
        ("reconstruct-state", "counts", {}),
        ("reconstruct-process", "counts", {}),
        ("simulate", "config", {"measurement_mode": "optical-ideal",
                                "optics": {"grid_size": 128, "extent": 1.4e-241}}),
        ("simulate", "config", {}),
        ("simulate", "link to config", {}),
        ("modes", "grids holding config", {"state": "L", "optics": {"grid_size": 128}}),
    ])
    def test_output_naming_an_input_exits_3(self, tmp_path, capsys, command, out, overrides):
        grids = tmp_path / "grids"
        grids.mkdir()
        name = grids / "image_phase.txt" if command == "modes" else tmp_path / "cfg.json"
        cfg = _write_config(name, **overrides)
        counts = tmp_path / "counts.txt"
        assert main(["simulate", "--config", _write_config(tmp_path / "c.json"),
                     "--out", str(counts)]) == 0
        target = {"counts": counts, "config": cfg, "link to config": tmp_path / "link",
                  "grids holding config": grids}[out]
        if out == "link to config":
            target.symlink_to(cfg)
        before = {path: pathlib.Path(path).read_bytes() for path in (cfg, counts)}
        argv = [command, "--config", cfg, "--out", str(target)]
        if command.startswith("reconstruct"):
            argv += ["--counts", str(counts)]
        capsys.readouterr()
        assert main(argv) == 3
        key = {"simulate": "counts", "modes": "grids"}.get(command, "report")
        err = capsys.readouterr().err
        assert err.startswith(f"oamtomo: invalid configuration: output.{key}: ")
        assert err.count("\n") == 1
        assert {path: pathlib.Path(path).read_bytes() for path in before} == before
        assert os.listdir(grids) == (["image_phase.txt"] if command == "modes" else [])


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

    def test_narrow_fiber_exits_3_with_plain_numbers(self, tmp_path, capsys):
        # a wide far-field fiber traces back to a Gaussian narrower than the modes
        cfg = _write_config(tmp_path / "cfg.json", measurement_mode="optical-ideal",
                            optics={"grid_size": 128, "fiber_waist": 0.5})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "c.txt")]) == 3
        err = capsys.readouterr().err
        assert re.search(r"fiber waist >= mode waist; got 0\.0198\d* < 0\.0997", err), err
        assert "np.float64" not in err

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
            state="psi4",
        ))
        settings = canonical_settings()
        row = _probability_rows(cfg)[0]
        rho, povm = effective_operators([settings.inputs[3]], settings.inputs, cfg.optics,
                                        phase_only=True)
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
        from oamtomo.qudit import phase_rotation_channel

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
                st.lists(st.lists(_AMPLITUDE, min_size=2, max_size=4), min_size=2, max_size=4),
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

    # the explicit examples are faults the random search seldom reaches, since
    # they need every other field valid: Kraus operators on no qutrit, optics
    # scales whose squares leave the float range, and a grid and a bootstrap too
    # large to allocate (the grid is refused by its bound, before any field exists)
    @hyp_settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(doc=_configs("simulate"))
    @example(doc={"measurement_mode": "abstract", "channel": {"kraus": [[[1, 0], [0, 1]]]}})
    @example(doc={"measurement_mode": "optical-ideal", "optics": {"grid_size": 2**20}})
    def test_simulate_exits_cleanly(self, doc):
        self._check("simulate", doc)

    @hyp_settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(doc=_configs("modes"))
    @example(doc={"measurement_mode": "abstract", "state": "psi4",
                  "optics": {"grid_size": 128, "extent": 1.4e155}})
    @example(doc={"measurement_mode": "abstract", "state": "psi4",
                  "optics": {"grid_size": 128, "extent": 1.4e-241}})
    @example(doc={"measurement_mode": "abstract", "state": "L", "optics": {"grid_size": 2**20}})
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
