import contextlib
import inspect
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import (HealthCheck, Phase, example, given, settings as hyp_settings,
                        strategies as st)
from hypothesis.extra import numpy as hnp

from oamtomo import cli, fileio, gridtext, optics
from oamtomo.cli import _probability_rows, main
from oamtomo.config import MEASUREMENT_MODES, ConfigError, load_config
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
from oamtomo.qudit import (
    apply_channel_kraus,
    depolarizing_channel,
    phase_rotation_channel,
    process_fidelity,
)
from oamtomo.tomography import (
    canonical_settings,
    probabilities_from_counts,
    project_to_physical_process,
    qpt_linear_inversion,
)
from oracles import chi_from_kraus, ideal_storage_chi

# the config property tests report a failing example unshrunk: shrinking one
# of them ran for over 5 minutes and grew past 700 MB
_NO_SHRINK = [Phase.explicit, Phase.generate]


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


def _echo(counts_path):
    """The configuration a counts file's header echoes."""
    return json.loads(counts_path.read_text().splitlines()[1].removeprefix("# config: "))


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
        # the seed is stated once, in the echoed source section
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "counts.txt"
        main(["simulate", "--config", cfg, "--out", str(out)])
        head = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert head[0] == "# oamtomo counts" and len(head) == 2
        assert _echo(out)["source"]["seed"] == 7

    def test_dimension_3_parses_and_is_not_echoed(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert json.loads(pathlib.Path(cfg).read_text())["dimension"] == 3
        counts, report = tmp_path / "counts.txt", tmp_path / "report.json"
        assert main(["simulate", "--config", cfg, "--out", str(counts)]) == 0
        assert main(["reconstruct-process", "--config", cfg, "--counts", str(counts),
                     "--out", str(report)]) == 0
        for echo in (_echo(counts), _report(report)["config"]):
            assert "dimension" not in echo and "window" not in echo["source"]

    def test_dimension_other_than_3_is_refused(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", dimension=4)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "counts.txt")]) == 3
        assert capsys.readouterr().err == ("oamtomo: invalid configuration: dimension: "
                                           "only dimension 3 is supported, got 4\n")
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("overrides", [
        {"channel": "depolarizing 0.1", "source": {"counts_per_setting": 20000,
                                                   "background": 30.0, "seed": 5}},
        {"measurement_mode": "optical-phase-only", "optics": {"grid_size": 128}},
        {"state": [0.3, [0, -0.5], 0.8], "channel": "unitary 0.7"},
    ], ids=["abstract", "phase-only-n128", "state"])
    def test_header_config_reproduces_the_counts(self, tmp_path, overrides):
        # the echo is a complete configuration: simulating from it writes the same bytes
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
        assert main(["simulate", "--config", cfg, "--out", str(first)]) == 0
        (tmp_path / "echo.json").write_text(json.dumps(_echo(first)))
        assert main(["simulate", "--config", str(tmp_path / "echo.json"),
                     "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()

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
            tmp_path / "cfg.json", source={"counts_per_setting": 100, "background": -2.0}
        )
        out = tmp_path / "counts.txt"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert "source" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"source": {"counts_per_setting": 0}}, "source.counts_per_setting: must be positive"),
        ({"source": {"background": -1}}, "source.background: must be nonnegative"),
        # no model reads a coincidence window, and a loss common to every setting
        # is part of counts_per_setting, so SourceConfig has neither
        ({"source": {"window": 5e-8}}, "source.window: unknown field"),
        ({"source": {"efficiency": 0.5}}, "source.efficiency: unknown field"),
        ({"source": {"seed": -1}}, "source.seed: must be nonnegative"),
        *[({"optics": {"grid_size": n}},
           f"optics.grid_size: must be a power of two from 128 to 4096, got {n}")
          for n in (64, 300, 8192)],
        # lengths are in units of the grid's half-width, so OpticsConfig has no extent
        ({"optics": {"extent": 1.0}}, "optics.extent: unknown field"),
        ({"optics": {"waist": -1}}, "optics.waist: must be positive"),
        ({"optics": {"fiber_waist": -1}}, "optics.fiber_waist: must be positive"),
        ({"optics": {"waist": 0.3}},
         "optics.waist: 0.3 exceeds 0.25, a quarter of the grid's half-width (aliasing guard)"),
        # the grid resolves every width of 3 grid steps or more, 0.046875 at N = 128: the
        # waist, the fiber waist and the fiber's image through the lens, which bounds the
        # fiber waist by 2 / (3 pi) at every N
        *[({"optics": {"grid_size": 128, field: value}},
           f"optics.{field}: {text} is below 0.046875, 3 grid steps (resolution rule)")
          for field, value, text in (("waist", 1e-100, "1e-100"),
                                     ("waist", 2.9 * 2 / 128, "0.0453125"))],
        *[({"optics": {"grid_size": 128, "fiber_waist": value}},
           f"optics.fiber_waist: {text} exceeds 0.2122065907891938, where its lens image is "
           "3 grid steps (resolution rule)")
          for value, text in ((1e200, "1e+200"), (10, "10.0"), (0.5, "0.5"))],
        ({"bootstrap_samples": -1}, "bootstrap_samples: must be nonnegative"),
        ({"channel": "depolarizing abc"}, "channel: non-numeric parameter in 'depolarizing abc'"),
        ({"channel": "depolarizing 2.0"},
         "channel: depolarizing strength must be in [0, 1], got 2.0"),
        ({"channel": "dephasing -0.5"},
         "channel: dephasing strength must be in [0, 1], got -0.5"),
    ])
    def test_range_errors_name_the_field(self, tmp_path, capsys, overrides, message):
        # every rule of SourceConfig and OpticsConfig, and of the run's other numbers,
        # refused before any work
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "counts.txt"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"oamtomo: invalid configuration: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"optics": {"extent": float("nan")}}, "optics.extent: unknown field"),
        ({"source": {"counts_per_setting": 100, "background": float("nan")}},
         "source.background"),
        ({"source": {"counts_per_setting": 1e19}}, "source.counts_per_setting"),
        ({"source": {"counts_per_setting": 1e30}}, "source.counts_per_setting"),
        ({"source": {"counts_per_setting": float("inf")}}, "source.counts_per_setting"),
        ({"channel": "unitary inf"}, "channel"),
        ({"state": [float("nan"), 1, 0]}, "state"),
        ({"output": {"counts": "x.txt"}}, "output: unknown field"),
        ({"state": [True, 1, 0]}, "state"),
        ({"channel": {"kraus": [[[True, 0, 0], [0, 1, 0], [0, 0, 1]]]}}, "channel.kraus"),
        ({"state": [10**400, 1, 0]}, "state"),
        ({"optics": {"grid_size": 2**2000}}, "optics.grid_size"),
        # an optical geometry the chain cannot realize: a fiber waist below the
        # mode waist, or a grid too coarse to resolve the modes
        ({"measurement_mode": "optical-ideal",
          "optics": {"grid_size": 128, "fiber_waist": 1}}, "optics"),
        ({"measurement_mode": "optical-ideal",
          "optics": {"grid_size": 128, "waist": 1 / 43, "fiber_waist": 1 / 43}}, "optics"),
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
         "source.counts_per_setting: must be a number, got True"),
        ({"source": {"seed": 1.5}}, "source.seed: must be an integer, got 1.5"),
        ({"optics": [128]}, "optics: expected an object, got [128]"),
    ])
    def test_type_errors_name_the_kind(self, tmp_path, capsys, overrides, message):
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "counts.txt"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"oamtomo: invalid configuration: {message}\n"
        assert not out.exists()

    # every JSON kind: finite numbers, the counts bound and its neighbours among them,
    # then null, booleans, NaN, the infinities, integers beyond floats, strings, lists
    # and objects
    _NUMBER = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([1e18, math.nextafter(1e18, math.inf), 10**18 + 1]))
    _OTHER = st.one_of(st.none(), st.booleans(),
                       st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400]),
                       st.text(max_size=3), st.lists(st.integers(-3, 3), max_size=2),
                       st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=1))

    @hyp_settings(deadline=None, derandomize=True, database=None, max_examples=300,
                  phases=_NO_SHRINK, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(source=st.fixed_dictionaries({}, optional={
               **dict.fromkeys(("counts_per_setting", "background"), st.one_of(_NUMBER, _OTHER)),
               "seed": st.one_of(st.integers(-2, 2**64), _OTHER)}),
           optics=st.fixed_dictionaries({
               "grid_size": st.one_of(st.integers(-1, 9000), st.sampled_from([128, 4096]),
                                      _OTHER),
               **dict.fromkeys(("waist", "fiber_waist"), st.one_of(_NUMBER, _OTHER))}))
    @example(source={"seed": 10**400},
             optics={"grid_size": 128, "waist": None, "fiber_waist": None})
    def test_library_refuses_what_the_cli_refuses(self, tmp_path, source, optics):
        # load_config refuses a section exactly when its constructor refuses the
        # same JSON values, with the constructor's message after the section prefix
        for name, cls, values in (("source", SourceConfig, source),
                                  ("optics", OpticsConfig, optics)):
            # a new file each time: truncating one in place is slow on some file systems
            fd, path = tempfile.mkstemp(suffix=".json", dir=tmp_path)
            with os.fdopen(fd, "w") as fh:
                json.dump({name: values}, fh)
            try:
                expected = cls(**values)
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

    @pytest.mark.parametrize("kind", [np.float32, np.float16, np.int64])
    def test_numpy_scalars_are_numbers(self, kind):
        # each constructor takes a numpy scalar of any width, or refuses it naming its
        # field (a float for an integer, np.float16(1e5), which is inf, or np.int64(0.1),
        # which is 0), and no check warns of an overflowing cast
        with np.errstate(over="ignore"):
            small, large = kind(0.1), kind(1e5)
        for field, build, value in (
                ("grid_size", OpticsConfig, kind(128)),
                ("waist", lambda v: OpticsConfig(128, v), small),
                ("fiber_waist", lambda v: OpticsConfig(128, None, v), small),
                ("counts_per_setting", lambda v: SourceConfig(counts_per_setting=v), large),
                ("background", lambda v: SourceConfig(background=v), large),
                ("seed", lambda v: SourceConfig(seed=v), kind(3)),
                ("theta", phase_rotation_channel, kind(0.5))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    build(value)
                except ValueError as exc:
                    assert str(exc).startswith(field), exc

    def test_integer_lengths_echo_as_floats(self, tmp_path, capsys):
        # the resolution rule bounds both lengths below 1, so an integer length is read as
        # a number and refused as its float; a default length echoes as one too
        cfg = _write_config(tmp_path / "cfg.json",
                            optics={"grid_size": 128, "waist": 0.25, "fiber_waist": 1})
        out = tmp_path / "counts.txt"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "oamtomo: invalid configuration: optics.fiber_waist: 1.0 exceeds ")
        cfg = _write_config(tmp_path / "cfg.json", optics={"grid_size": 128, "waist": 0.25})
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[1]
        assert ('"optics":{"fiber_waist":0.09973557010035818,"grid_size":128,"waist":0.25}'
                in header)

    def test_config_that_is_no_object_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        out = tmp_path / "counts.txt"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "oamtomo: invalid configuration: <root>: configuration must be a JSON object\n")
        assert not out.exists()

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "c.txt")]) == 2

    def test_config_seed_sets_the_counts(self, tmp_path):
        # equal seeds give equal counts, another seed other counts
        outs = []
        for name, seed in (("a", 11), ("b", 11), ("c", 12)):
            cfg = _write_config(tmp_path / f"{name}.json",
                                source={"counts_per_setting": 10000, "seed": seed})
            outs.append(tmp_path / f"{name}.txt")
            assert main(["simulate", "--config", cfg, "--out", str(outs[-1])]) == 0
        a, b, c = (out.read_bytes() for out in outs)
        assert a == b and a != c


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
    @pytest.mark.parametrize("kind, after_path", [
        ("directory", ": "), ("missing", ": "),  # then the system's reason
        ("long-number", ":1: a number is too long to read\n"),  # beyond int()'s digit limit
    ], ids=["directory", "missing", "long-number"])
    def test_unreadable_counts_exit_4(self, tmp_path, capsys, command, kind, after_path):
        cfg = _write_config(tmp_path / "cfg.json", state="psi4")
        counts = tmp_path / "adir"
        if kind == "directory":
            counts.mkdir()
        elif kind == "long-number":
            counts.write_text("1 1 " + "9" * 5000 + " 0\n")
        report = tmp_path / "report.json"
        assert main([command, "--config", cfg, "--counts", str(counts),
                     "--out", str(report)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"oamtomo: counts: {counts}{after_path}") and err.count("\n") == 1
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

    @pytest.mark.parametrize("samples", [0, 5])
    def test_non_positive_raw_trace_exits_5(self, tmp_path, capsys, samples):
        # counts no channel gives: each superposition input's own projector, whose
        # weight in the raw trace is -1/9, far above the rest
        cfg = _write_config(tmp_path / "cfg.json", bootstrap_samples=samples)
        counts, report = tmp_path / "counts.txt", tmp_path / "report.json"
        counts.write_text("".join(
            f"{j} {i} {100 if i <= 3 else 100000 if i == j else 1} 0\n"
            for j in range(1, 10) for i in range(1, 10)))
        assert main(["reconstruct-process", "--config", cfg, "--counts", str(counts),
                     "--out", str(report)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("oamtomo: degenerate counts: process matrix trace vanished ")
        assert err.count("\n") == 1
        assert not report.exists()

    @pytest.mark.parametrize("chunk", [cli.BOOTSTRAP_CHUNK, 4])
    def test_degenerate_resample_is_named_among_all_samples(self, tmp_path, capsys,
                                                            monkeypatch, chunk):
        # one count per setting: the fifth resample is the first with no basis count
        # for an input; chunks of 4 draw the same resamples, the fifth in the second
        monkeypatch.setattr(cli, "BOOTSTRAP_CHUNK", chunk)
        cfg = _write_config(tmp_path / "cfg.json", source={}, bootstrap_samples=40)
        counts, report = tmp_path / "counts.txt", tmp_path / "report.json"
        counts.write_text("".join(f"{j} {i} 1 0\n" for j in range(1, 10) for i in range(1, 10)))
        assert main(["reconstruct-process", "--config", cfg, "--counts", str(counts),
                     "--out", str(report)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("oamtomo: degenerate counts: sample 5, input 5: ")
        assert err.count("\n") == 1
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
                            optics={"grid_size": 128})
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
                            optics={"grid_size": 128})
        out = tmp_path / "grids"
        assert main(["modes", "--config", cfg, "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == 6

    def test_fourier_plane_of_gaussian_is_gaussian(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", state="G",
                            optics={"grid_size": 128})
        out = tmp_path / "grids"
        main(["modes", "--config", cfg, "--out", str(out)])
        intensity = np.loadtxt(out / "fourier_intensity.txt", skiprows=1)
        center = intensity[64, 64:]
        assert np.all(np.diff(center) <= 1e-12)
        assert intensity[64, 64] == intensity.max()

    def test_invalid_state_exits_3(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", state="nonsense",
                            optics={"grid_size": 128})
        assert main(["modes", "--config", cfg, "--out", str(tmp_path / "grids")]) == 3

    @pytest.mark.parametrize("command", ["modes", "simulate"])
    @pytest.mark.parametrize("waist", [1e-100, 1e-160, 1e-200], ids=["1e-100", "1e-160", "1e-200"])
    def test_unrealizable_scale_exits_3(self, tmp_path, capsys, command, waist):
        # the vortex modes' samples would underflow to 0, or the squared waist be
        # subnormal or zero: the resolution rule refuses the waist as the config is
        # read, in one error line naming it, with no numpy warning and no output
        cfg = _write_config(tmp_path / "cfg.json", state="psi4", measurement_mode="optical-ideal",
                            optics={"grid_size": 128, "waist": waist})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"oamtomo: invalid configuration: optics.waist: {waist!r} is below 0.046875, "
            "3 grid steps (resolution rule)\n")
        assert not out.exists()

    def test_failed_export_keeps_an_existing_directory(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", state="psi4",
                            optics={"grid_size": 128, "waist": 1e-160})
        out = tmp_path / "grids"
        out.mkdir()
        (out / "keep.txt").write_text("kept\n")
        assert main(["modes", "--config", cfg, "--out", str(out)]) == 3
        assert os.listdir(out) == ["keep.txt"]

    # one run fails for want of a state, the other for a waist the grid cannot resolve
    @pytest.mark.parametrize("state, waist", [(None, None), ("psi4", 1e-160)])
    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_failed_export_keeps_an_existing_path(self, tmp_path, state, waist, kind):
        cfg = _write_config(tmp_path / "cfg.json", state=state,
                            optics={"grid_size": 128, "waist": waist})
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
                            optics={"grid_size": 128})
        target = tmp_path / "keep.txt"
        target.write_text("kept\n")
        assert main(["modes", "--config", cfg, "--out", str(target)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("oamtomo: invalid configuration: --out: cannot write ")
        assert err.count("\n") == 1
        assert target.read_text() == "kept\n"

    @pytest.mark.parametrize("state", ["L", "psi4", [1, -1, 1], [0.3, -0.5, 0.8]])
    def test_grid_text(self, tmp_path, state):
        # mask and Fourier grids are np.savetxt's text of the fields; the image
        # grids are the mask text with coordinates inverted, k -> (-k) mod N
        cfg = _write_config(tmp_path / "cfg.json", state=state,
                            optics={"grid_size": 128})
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
    @pytest.mark.parametrize("state", ["L", "psi4", pytest.param([1, 1, 1], id="[1,1,1]"),
                                       pytest.param([1, -1, 1], id="[1,-1,1]")])
    def test_export_memory(self, tmp_path, state, n):
        # the field summed 1/32 of the rows at a time, the mask transformed in place
        # once its grids are written, and each grid's values and text made 1/32 grid
        # at a time from the complex samples, with unbuffered takes (about 0.55 grids
        # of scratch): the traced peak is 1.71-1.72 complex grids at N = 256 and
        # 1.65-1.66 at N = 512, set while a grid is written; the field build peaks at
        # 1.15-1.16 / 1.12 and the transform, whose quadrant swap reuses one quarter
        # grid, 0.25 grid below its 1.53-1.54 / 1.51 with two (2.21 / 2.15-2.16
        # with whole modes in the build and whole value grids, 3.16-3.17 with
        # whole-grid temporaries in the field build and buffered takes, 4.03-4.04
        # with out-of-place fields and whole grids of text)
        cfg = tmp_path / "cfg.json"
        argv = ["modes", "--config", str(cfg), "--out", str(tmp_path / "grids")]
        _write_config(cfg, state="G", optics={"grid_size": n})
        assert main(argv) == 0  # first-use imports and caches stay out of the peak
        _write_config(cfg, state=state, optics={"grid_size": n})
        tracemalloc.start()
        try:
            assert main(argv) == 0
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
    blocks = gridtext.grid_text(values, np.positive)
    return b"".join(bytes(block) for block in blocks).decode()


def _percent_text(values) -> str:
    return "".join(" ".join("%.9g" % v for v in row) + "\n" for row in values.tolist())


def _decimal(x):
    n = x.size
    return gridtext._decimal(x, np.empty((2, n)), np.empty((2, n), np.intp), np.empty((3, n), bool))


class TestGridFile:
    # a grid of floats is written with np.positive as its value: the floats themselves
    VALUES = np.array([
        [0.0, -0.0, 5e-324, -5e-324],
        [1.7976931348623157e308, -1.7976931348623157e308, 1e-5, -1.23456789e-5],
        [9.99999999e-5, 1e-4, -9.9999999949e-6, 1e9],
        [123456789.5, 999999999.5, -123456789.5, -999999999.5],
    ])

    def test_text_equals_savetxt(self, tmp_path):
        path = tmp_path / "grid.txt"
        write_grid(path, self.VALUES, np.positive)
        assert path.read_text() == _savetxt(self.VALUES, "4 1")

    def test_order_permutes_rows_and_values(self, tmp_path):
        # line r is row order[r] with its values taken at order; the lines
        # differ in length here
        for order in (np.array([2, 0, 3, 1]), np.array([3, 2, 1, 0])):
            path = tmp_path / "grid.txt"
            write_grid(path, self.VALUES, np.positive, order)
            assert path.read_text() == _savetxt(self.VALUES[np.ix_(order, order)], "4 1")

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
                write_grid(path, s, value, order=order)
                if order is not None:
                    values = values[np.ix_(order, order)]
                assert path.read_text() == _savetxt(values, f"{n} 1")

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
    @pytest.mark.parametrize("command", ["simulate", "reconstruct-process", "reconstruct-state"])
    @pytest.mark.parametrize("kind", ["directory", "missing parent"])
    def test_unwritable_output_exits_3(self, tmp_path, capsys, command, kind):
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
        assert err.startswith("oamtomo: invalid configuration: --out: cannot write ")
        assert err.count("\n") == 1
        assert out.is_dir() if kind == "directory" else not out.parent.exists()

    # runs that would fail (no state; ideal mode's fiber-waist rule) and runs that would
    # succeed
    @pytest.mark.parametrize("command, out, overrides", [
        ("reconstruct-state", "counts", {}),
        ("reconstruct-process", "counts", {}),
        ("simulate", "config", {"measurement_mode": "optical-ideal",
                                "optics": {"grid_size": 128, "fiber_waist": 0.15}}),
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
        err = capsys.readouterr().err
        assert err.startswith("oamtomo: invalid configuration: --out: ")
        assert err.count("\n") == 1
        assert {path: pathlib.Path(path).read_bytes() for path in before} == before
        assert os.listdir(grids) == (["image_phase.txt"] if command == "modes" else [])

    @pytest.mark.parametrize("command", ["simulate", "reconstruct-process", "reconstruct-state",
                                         "modes"])
    def test_refused_output_path_exits_3(self, tmp_path, capsys, command):
        # an empty --out names no file
        overrides = {} if command in ("simulate", "reconstruct-process") else {
            "state": "L", "optics": {"grid_size": 128}}
        counts = tmp_path / "counts.txt"
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
        assert main(["simulate", "--config", cfg, "--out", str(counts)]) == 0
        argv = [command, "--config", cfg, "--out", ""]
        if command.startswith("reconstruct"):
            argv += ["--counts", str(counts)]
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "oamtomo: invalid configuration: --out: the path is empty\n"
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    # only a caller in Python can pass a NUL byte or a lone surrogate; either path is
    # refused naming its flag, and nothing is written
    @pytest.mark.parametrize("name, reason", [
        ("a\0b", "embedded null byte"),
        ("\ud800x", "'utf-8' codec can't encode character '\\ud800' in position 0: "
                    "surrogates not allowed")], ids=["nul", "surrogate"])
    @pytest.mark.parametrize("flag", ["--out", "--counts"])
    def test_path_no_file_can_have_is_refused(self, tmp_path, monkeypatch, capsys, flag, name,
                                              reason):
        monkeypatch.chdir(tmp_path)  # relative paths: the reason gives a position in the path
        _write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--config", "cfg.json", "--out", "counts.txt"]) == 0
        paths = {"--out": "report.json", "--counts": "counts.txt", flag: name}
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        code = main(["reconstruct-process", "--config", "cfg.json",
                     *itertools.chain(*paths.items())])
        err = capsys.readouterr().err
        if flag == "--out":
            assert (code, err) == (3, f"oamtomo: invalid configuration: --out: cannot use "
                                      f"{name!r} as a path: {reason}\n")
        else:
            assert (code, err) == (4, f"oamtomo: counts: {name!r}: {reason}\n")
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("overrides, field", [
        ({"output": {"counts": "counts.txt"}}, "output"),
        ({"optics": {"grid_size": 128, "extent": 1.0}}, "optics.extent")])
    def test_removed_keys_are_unknown_fields(self, tmp_path, capsys, command, overrides, field):
        # output paths are --out's, and lengths are in units of the grid's half-width:
        # a config that gives either is refused before any input is read or output written
        cfg = _write_config(tmp_path / "cfg.json", state="psi4", **overrides)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        if command.startswith("reconstruct"):
            argv += ["--counts", str(tmp_path / "counts.txt")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"oamtomo: invalid configuration: {field}: unknown field\n"
        assert os.listdir(tmp_path) == ["cfg.json"]

    # a run that fails before it writes leaves an earlier output as it was
    @pytest.mark.parametrize("command, overrides, counts, code, refusal", [
        ("reconstruct-process", {}, "missing", 4, "counts"),
        ("reconstruct-process", {"channel": None}, "background only", 5, "degenerate counts"),
        ("simulate", {"measurement_mode": "optical-ideal",
                      "optics": {"grid_size": 128, "fiber_waist": 0.2}}, None, 3,
         "invalid configuration: optics.fiber_waist"),
    ])
    def test_failed_run_keeps_an_earlier_output(self, tmp_path, capsys, command, overrides,
                                                counts, code, refusal):
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
        counts_path = tmp_path / "counts.txt"
        if counts == "background only":
            assert main(["simulate", "--config", cfg, "--out", str(counts_path)]) == 0
        out = tmp_path / ("report.json" if command.startswith("reconstruct") else "counts.txt")
        out.write_bytes(b"an earlier run's output\n")
        argv = [command, "--config", cfg, "--out", str(out)]
        if counts:
            argv += ["--counts", str(tmp_path / "nope.txt" if counts == "missing" else counts_path)]
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"oamtomo: {refusal}: ") and err.count("\n") == 1
        assert out.read_bytes() == b"an earlier run's output\n"

    def test_surrogate_escaped_output_path_is_written(self, tmp_path):
        # U+DC80 is how the file system's encoding reads the byte 0x80: a path, not a fault
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "\udc80x")]) == 0
        assert read_counts(os.path.join(os.fsencode(tmp_path), b"\x80x")).shape == (9, 9, 2)


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

    def test_report_bytes_do_not_depend_on_round_off(self, tmp_path):
        # another BLAS kernel moves a computed number by round-off: here 1e-15 on a chi
        # entry near 1e-8, the 8th of its 9 digits, and the sign of a zero imaginary part.
        # Below 1e-4 a report keeps no digit under 1e-12, so both write the same bytes;
        # the config echo keeps its 9 digits
        echo = {"optics": {"grid_size": 128, "waist": 0.123456789012}, "state": [1e-160, 1, 0]}
        chi = np.zeros((9, 9), complex)
        chi[0, 0], chi[1, 2] = 1.0 - 8.28e-20j, 6.4400644e-08
        texts = []
        for name, delta in (("one", 0.0), ("two", 1e-15 + 1.6e-19j)):
            doc = {"config": echo, "chi": fileio.complex_pairs(chi + delta),
                   "min_eigenvalue_pre_projection": -2.5e-13 + delta.real}
            fileio.write_report(tmp_path / f"{name}.json", doc)
            texts.append((tmp_path / f"{name}.json").read_text())
        assert texts[0] == texts[1]
        report = json.loads(texts[0])
        assert report["chi"][0][0] == [1.0, 0.0] and report["chi"][1][2][0] == 6.4401e-08
        assert report["min_eigenvalue_pre_projection"] == 0.0 and '-0.0' not in texts[0]
        assert report["config"] == {"optics": {"grid_size": 128, "waist": 0.123456789},
                                    "state": [1e-160, 1, 0]}


class TestOpticalModes:
    def test_ideal_routing_matches_abstract(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            noiseless=True,
            measurement_mode="optical-ideal",
            source={"counts_per_setting": 1000000, "seed": 1},
            optics={"grid_size": 128},
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
        # a wide far-field fiber, which the grid resolves, traces back to a Gaussian
        # narrower than the modes: ideal mode refuses it, naming the field
        cfg = _write_config(tmp_path / "cfg.json", measurement_mode="optical-ideal",
                            optics={"grid_size": 128, "fiber_waist": 0.15})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "c.txt")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("oamtomo: invalid configuration: optics.fiber_waist: ideal mode ")
        assert re.search(r"fiber waist >= mode waist; got 0\.0663\d* < 0\.0997\d*$", err), err
        assert "np.float64" not in err

    def test_phase_only_routing_loses_fidelity(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            noiseless=True,
            measurement_mode="optical-phase-only",
            source={"counts_per_setting": 1000000, "seed": 1},
            optics={"grid_size": 128},
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
            optics={"grid_size": 128},
        )
        bodies = []
        for mode in ("abstract", "optical-ideal"):
            out = tmp_path / f"{mode}.txt"
            assert main(["simulate", "--config", cfg, "--out", str(out), "--mode", mode]) == 0
            bodies.append([ln for ln in out.read_bytes().splitlines() if not ln.startswith(b"#")])
        assert len(bodies[0]) == (9 if state else 81)
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("state", [None, "psi4"])
    def test_ideal_builds_no_grid(self, tmp_path, monkeypatch, state):
        # optical-ideal mode takes the projectors, as abstract mode does: its simulate
        # reduces no chain, transforms no field and samples no Gaussian
        calls = dict.fromkeys(("effective_operators", "lens_fourier", "_gaussian_blocks"), 0)
        for name in calls:
            def counted(*args, _call=getattr(optics, name), _name=name, **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)
            for module in (optics, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        cfg = _write_config(tmp_path / "cfg.json", measurement_mode="optical-ideal",
                            state=state, optics={"grid_size": 128})
        ideal, abstract = tmp_path / "ideal.txt", tmp_path / "abstract.txt"
        assert main(["simulate", "--config", cfg, "--out", str(ideal)]) == 0
        assert calls == dict.fromkeys(calls, 0)
        assert main(["simulate", "--config", cfg, "--out", str(abstract),
                     "--mode", "abstract"]) == 0
        bodies = [[ln for ln in out.read_bytes().splitlines() if not ln.startswith(b"#")]
                  for out in (ideal, abstract)]
        assert bodies[0] == bodies[1]

    def test_phase_only_rows_are_trace_of_effective_operators(self, tmp_path):
        cfg = load_config(_write_config(
            tmp_path / "cfg.json",
            channel="depolarizing 0.1159305993690852",
            measurement_mode="optical-phase-only",
            optics={"grid_size": 128},
            state="psi4",
        ))
        settings = canonical_settings()
        row = _probability_rows(cfg)[0]
        rho, povm = effective_operators([settings.inputs[3]], settings.inputs, cfg.optics)
        # one operator per side, so no eigenbasis of the channel output enters the row
        expected = np.einsum("iab,ba->i", povm, apply_channel_kraus(cfg.channel, rho[0])).real
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-14)

    def test_mode_flag_overrides_config(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json",
            noiseless=True,
            source={"counts_per_setting": 1000000, "seed": 1},
            optics={"grid_size": 128},
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

    @pytest.mark.parametrize("overrides, message", [
        ({"channel": {"kraus": 5}}, "channel.kraus: 'int' object is not iterable"),
        ({"channel": {"kraus": [[[1, 0], [0, 1]]]}}, "channel.kraus: expected 3 x 3 Kraus operators"),
        ({"channel": {"kraus": [[[2, 0, 0], [0, 1, 0], [0, 0, 1]]]}},
         "channel.kraus: channel is trace-increasing: max eig of sum K^dag K = 4.0"),
        ({"channel": {"kraus": []}}, "channel.kraus: channel needs at least one Kraus operator"),
        ({"state": [1, 0]}, "state: expected 3 amplitudes, got 2"),
        ({"state": [0, 0, 0]}, "state: zero state vector"),
        ({"state": [[1, 2, 3], 0, 0]},
         "state: expected a finite number or [re, im] pair, got [1, 2, 3]"),
        # a ragged row: numpy's own wording follows the field
        ({"channel": {"kraus": [[[1, 0, 0], [0, 1], [0, 0, 1]]]}}, "channel.kraus: "),
    ])
    def test_state_and_kraus_refusal_messages(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError) as refused:
            load_config(_write_config(tmp_path / "cfg.json", **overrides))
        text = str(refused.value)
        assert text == message or (message == "channel.kraus: " and text.startswith(message))


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
        "grid_size": _NUMBERS, "waist": _NUMBERS, "fiber_waist": _NUMBERS}))
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
            "counts_per_setting": _NUMBERS, "background": _NUMBERS, "seed": _NUMBERS}),
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
    # they need every other field valid: Kraus operators on no qutrit, waists
    # whose squares leave the float range, and a grid and a bootstrap too
    # large to allocate (the grid is refused by its bound, before any field exists)
    @hyp_settings(max_examples=120, deadline=None, derandomize=True, database=None,
                  phases=_NO_SHRINK)
    @given(doc=_configs("simulate"))
    @example(doc={"measurement_mode": "abstract", "channel": {"kraus": [[[1, 0], [0, 1]]]}})
    @example(doc={"measurement_mode": "optical-ideal", "optics": {"grid_size": 2**20}})
    def test_simulate_exits_cleanly(self, doc):
        self._check("simulate", doc)

    @hyp_settings(max_examples=40, deadline=None, derandomize=True, database=None,
                  phases=_NO_SHRINK)
    @given(doc=_configs("modes"))
    @example(doc={"measurement_mode": "abstract", "state": "psi4",
                  "optics": {"grid_size": 128, "waist": 1e-160}})
    @example(doc={"measurement_mode": "abstract", "state": "psi4",
                  "optics": {"grid_size": 128, "waist": 1e-200}})
    @example(doc={"measurement_mode": "abstract", "state": "L", "optics": {"grid_size": 2**20}})
    def test_modes_exits_cleanly(self, doc):
        self._check("modes", doc)

    @hyp_settings(max_examples=60, deadline=None, derandomize=True, database=None,
                  phases=_NO_SHRINK)
    @given(doc=_configs("reconstruct-process"))
    @example(doc={"measurement_mode": "abstract", "bootstrap_samples": 10**15})
    def test_reconstruct_process_exits_cleanly(self, valid_counts, doc):
        self._check("reconstruct-process", doc, "--counts", valid_counts["reconstruct-process"])

    @hyp_settings(max_examples=60, deadline=None, derandomize=True, database=None,
                  phases=_NO_SHRINK)
    @given(doc=_configs("reconstruct-state"))
    @example(doc={"measurement_mode": "abstract", "state": "psi4", "bootstrap_samples": 10**15})
    def test_reconstruct_state_exits_cleanly(self, valid_counts, doc):
        self._check("reconstruct-state", doc, "--counts", valid_counts["reconstruct-state"])

    # input text its reader cannot decode, nest or convert: a config that is not
    # UTF-8, nested too deep or holding an integer beyond int()'s digit limit, and
    # such a counts record (line 6)
    @pytest.mark.parametrize("config, record, code, prefix", [
        (b'{"channel": "\xff"}', None, 2, "config: {cfg}: "),
        (b"[" * 100000, None, 2, "config: {cfg}: "),
        (b'{"dimension": ' + b"3" * 5000 + b"}", None, 2, "config: {cfg}: "),
        (None, b"1 3 10\xff 0", 4, "counts: {counts}:6: "),
        (None, b"1 3 " + b"9" * 5000 + b" 0", 4, "counts: {counts}:6: "),
    ], ids=["config-not-utf8", "config-nested", "config-long-int", "counts-not-utf8",
            "counts-long-int"])
    def test_undecodable_inputs_exit_cleanly(self, tmp_path, valid_counts, config, record,
                                             code, prefix):
        cfg = _write_config(tmp_path / "cfg.json", state="psi4")
        if config is not None:
            pathlib.Path(cfg).write_bytes(config)
        counts = tmp_path / "counts.txt"
        lines = pathlib.Path(valid_counts["reconstruct-process"]).read_bytes().split(b"\n")
        lines[5] = record or lines[5]
        counts.write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        command = ["reconstruct-process", "--counts", str(counts)] if record else ["simulate"]
        run = _fresh(*command, "--config", cfg, "--out", str(out))
        assert run.returncode == code, run.stderr[:300]
        assert run.stderr.startswith("oamtomo: " + prefix.format(cfg=cfg, counts=counts))
        assert "Traceback" not in run.stderr
        assert not out.exists()


# words a command line is drawn from: each command's flags, distractors argparse
# reads otherwise (help, an end of options, abbreviations, --flag=value, a word
# that is no flag) and values
_FLAG_WORDS = [f"--{flag}" for flag in cli.FLAGS] + ["-h", "--", "--conf", "--co", "--out=o",
                                                     "++out"]
_VALUE_WORDS = st.one_of(
    st.sampled_from(["-1", "-x", "", "007", " 3", "٣", "1_000", "x", "run.json", "psi4",
                     *MEASUREMENT_MODES]),
    st.text(max_size=3))
# values a flag takes more often than others: modes for --mode
_VALUES = {"--mode": st.one_of(st.sampled_from(MEASUREMENT_MODES), _VALUE_WORDS)}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from([*cli.COMMANDS] * 4 + ["-h", "simulat", ""]))
    own = ([f"--{flag}" for flag in cli.COMMANDS[command][1]] if command in cli.COMMANDS
           else ["--config"])
    required = [flag for flag in own if cli.FLAGS[flag[2:]].get("required")]
    # mostly the command's own flags, and its required ones in 3 lines of 4, so
    # that many lines parse
    flags = draw(st.lists(st.sampled_from(own * 8 + _FLAG_WORDS), max_size=5))
    flags = draw(st.permutations(flags + required * draw(st.sampled_from([0, 1, 1, 1]))))
    words = [word for flag in flags for word in (flag, draw(_VALUES.get(flag, _VALUE_WORDS)))]
    tail = draw(st.sampled_from([[]] * 7 + [["--config"], ["x"]]))  # an odd word
    return [command, *words, *tail]


def _fresh(*args, script=None):
    """Run `python -m oamtomo.cli args` in a fresh interpreter, or with script,
    `python -c script args`, a script that runs the module as -m does."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    command = ["-c", script] if script else ["-m", "oamtomo.cli"]
    return subprocess.run([sys.executable, *command, *args], env=env, capture_output=True,
                          text=True, timeout=60)


class TestCommandLine:
    @hyp_settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(argv=_argvs())
    @example(argv=["simulate", "--config", "007", "--out", "o", "--mode", "abstract",
                   "--mode", "optical-ideal"])
    @example(argv=["modes", "--out", "", "--config", "a", "--mode", "abstract"])
    @example(argv=["reconstruct-state", "--counts", "c", "--config", "simulate", "--out", "r"])
    def test_parse_is_argparse_where_it_accepts(self, argv):
        args = cli._parse(argv)
        if args is not None:
            assert vars(args) == vars(cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        [], ["bogus", "--config", "a"], ["simulate", "--config"],
        ["simulate", "--config", "a", "extra"], ["-h"], ["simulate", "-h", "x"],
        ["simulate", "--conf", "a"], ["simulate", "--config=a"], ["simulate", "--config", "-a"],
        ["simulate", "--config", "a", "--mode", "-1"], ["simulate", "--config", "a", "--", "x"],
        ["simulate", "--config", "a", "++out", "o"], ["simulate", "--config", "a", "--counts", "c"],
        ["simulate", "--out", "o"], ["reconstruct-process", "--config", "a"],
        ["simulate", "--config", "a", "--out", "o", "--seed", "1"],
        ["modes", "--config", "a", "--out", "o", "--state", "psi4"],
        ["simulate", "--config", "a", "--mode", "bogus"]])
    def test_parse_declines_what_argparse_must_read(self, argv):
        assert cli._parse(argv) is None

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_out_is_required(self, tmp_path, capsys, command):
        # the config holds no output path: without --out, argparse prints the
        # usage and exits 2, and nothing is written
        argv = [command, "--config", _write_config(tmp_path / "cfg.json", state="psi4")]
        if command.startswith("reconstruct"):
            argv += ["--counts", str(tmp_path / "cfg.json")]
        assert cli._parse(argv) is None
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: oamtomo {command} [-h] --config CONFIG --out OUT")
        assert err.endswith("error: the following arguments are required: --out\n")
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--state", "psi4")])
    def test_seed_and_state_are_no_flags(self, tmp_path, capsys, command, flag, value):
        # the config alone sets source.seed and state: either flag is a usage error
        # (exit 2), and nothing is written
        argv = [command, "--config", _write_config(tmp_path / "cfg.json", state="psi4"),
                "--out", str(tmp_path / "out"), flag, value]
        if command.startswith("reconstruct"):
            argv += ["--counts", str(tmp_path / "cfg.json")]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: oamtomo ")
        assert err.endswith(f"error: unrecognized arguments: {flag} {value}\n")
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_load_config_takes_no_seed_and_no_state(self):
        assert list(inspect.signature(load_config).parameters) == ["path", "mode"]

    def test_well_formed_commands_load_no_argparse(self, tmp_path):
        # the parse is the gain: argparse, with gettext and locale, costs a fresh
        # command about 2 ms of CPU; help and usage errors still load them
        script = ("import runpy, sys\n"
                  "try:\n"
                  "    runpy.run_module('oamtomo.cli', run_name='__main__', alter_sys=True)\n"
                  "except SystemExit as exc:\n"
                  "    loaded = {'argparse', 'gettext', 'locale'} & sys.modules.keys()\n"
                  "    print(exc.code, sorted(loaded))\n")
        cfg = _write_config(tmp_path / "cfg.json")
        counts, report = str(tmp_path / "counts.txt"), str(tmp_path / "report.json")
        for argv in (["simulate", "--config", cfg, "--out", counts],
                     ["reconstruct-process", "--config", cfg, "--counts", counts, "--out", report]):
            run = _fresh(*argv, script=script)
            assert (run.stdout, run.stderr) == ("0 []\n", "")
        assert _report(pathlib.Path(report))["report"] == "process"
        # an abbreviation: argparse reads it
        assert _fresh("simulate", "--conf", cfg, "--out", counts,
                      script=script).stdout == "0 ['argparse', 'gettext', 'locale']\n"

    def test_text_files_are_opened_with_an_encoding(self, tmp_path, monkeypatch):
        # every text file a command reads or writes names its encoding, so no
        # byte depends on the locale: an open() without one fails the run here
        monkeypatch.setenv("PYTHONWARNDEFAULTENCODING", "1")
        monkeypatch.setenv("PYTHONWARNINGS", "error::EncodingWarning")
        cfg = _write_config(tmp_path / "cfg.json", state="psi4",
                            measurement_mode="optical-ideal", optics={"grid_size": 128})
        counts = str(tmp_path / "counts.txt")
        for argv in (["simulate", "--out", counts],
                     ["reconstruct-state", "--counts", counts, "--out", str(tmp_path / "r.json")],
                     ["modes", "--out", str(tmp_path / "grids")]):
            run = _fresh(*argv, "--config", cfg)
            assert (run.returncode, run.stderr) == (0, ""), argv
        assert len(os.listdir(tmp_path / "grids")) == 6

    @pytest.mark.parametrize("argv, usage", [
        (["--help"], "usage: oamtomo [-h] {simulate,reconstruct-process,reconstruct-state,modes}"),
        (["simulate", "--help"], "usage: oamtomo simulate [-h] --config CONFIG --out OUT")])
    def test_help_is_argparse(self, argv, usage):
        run = _fresh(*argv)
        assert run.returncode == 0 and run.stderr == ""
        assert run.stdout.startswith(usage) and run.stdout[len(usage)] in " \n"
