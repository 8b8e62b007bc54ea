"""Run configuration: JSON parsing and validation for the command-line front end.

Validation failures raise ConfigError with the offending field path in the
message; an unreadable or syntactically invalid file raises ConfigReadError.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .counts import SourceConfig
from .fileio import parse_complex_entry
from .optics import OpticsConfig, self_fourier_waist
from .qudit import (
    KrausChannel,
    canonical_input_states,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    phase_rotation_channel,
    state_vector,
)

MEASUREMENT_MODES = ("abstract", "optical-ideal", "optical-phase-only")

# the documented state names, exactly: L, G, R and psi1..psi9 (1-based rows)
_STATE_NAMES = {"L": 0, "G": 1, "R": 2, **{f"psi{k}": k - 1 for k in range(1, 10)}}

# largest accepted counts_per_setting and background: every Poisson mean then
# stays below numpy's limit (about 9.2e18) and every count fits int64
_MAX_MEAN_COUNTS = 1e18

# largest accepted bootstrap_samples: the resamples are drawn and reconstructed
# in chunks of cli.BOOTSTRAP_CHUNK, so memory stays flat, but the run time grows
# with B (reconstruct-process takes about 0.3 s of CPU per 10^4 resamples)
_MAX_BOOTSTRAP = 100000


class ConfigReadError(Exception):
    """The configuration file could not be read or parsed as JSON."""


class ConfigError(ValueError):
    """A configuration value is invalid; message starts with the field path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")


@dataclass(frozen=True)
class RunConfig:
    channel: KrausChannel
    state: np.ndarray | None
    source: SourceConfig
    optics: OpticsConfig
    measurement_mode: str
    noiseless: bool
    bootstrap_samples: int
    output: dict  # "counts", "report" and "grids" paths, each optional
    echo: dict


def parse_channel(spec):
    """Channel spec: null, a named family string, or {"kraus": [...]}.

    null is the zero channel: nothing is retrieved from the memory.  Named
    families: "identity", "depolarizing p", "dephasing p", "unitary theta".
    Kraus operators are 3 x 3 nested rows of numbers or [re, im] pairs.
    """
    if spec is None:
        return KrausChannel((np.zeros((3, 3)),))
    if isinstance(spec, str):
        parts = spec.split()
        name = parts[0] if parts else ""
        if name == "identity" and len(parts) == 1:
            return identity_channel()
        if name in ("depolarizing", "dephasing", "unitary") and len(parts) == 2:
            try:
                value = float(parts[1])
            except ValueError:
                raise ConfigError("channel", f"non-numeric parameter in {spec!r}")
            if not math.isfinite(value):
                raise ConfigError("channel", f"non-finite parameter in {spec!r}")
            try:
                if name == "depolarizing":
                    return depolarizing_channel(value)
                if name == "dephasing":
                    return dephasing_channel(value)
                return phase_rotation_channel(value)
            except ValueError as exc:
                raise ConfigError("channel", str(exc))
        raise ConfigError("channel", f"unrecognized channel spec {spec!r}")
    if isinstance(spec, dict) and set(spec) == {"kraus"}:
        try:
            ks = [
                np.array([[parse_complex_entry(e) for e in row] for row in op], dtype=complex)
                for op in spec["kraus"]
            ]
        except (ValueError, TypeError) as exc:
            raise ConfigError("channel.kraus", str(exc))
        if any(k.shape != (3, 3) for k in ks):
            raise ConfigError("channel.kraus", "expected 3 x 3 Kraus operators")
        try:
            return KrausChannel(tuple(ks))
        except ValueError as exc:
            raise ConfigError("channel.kraus", str(exc))
    raise ConfigError("channel", f"expected null, a spec string, or a kraus object, got {spec!r}")


def parse_state(spec):
    """State spec: null, exactly "L"/"G"/"R" or "psi1".."psi9", or a 3-component vector.

    Vectors are normalized, so [1, 1, 1] denotes the balanced superposition.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        if spec in _STATE_NAMES:
            return canonical_input_states()[_STATE_NAMES[spec]]
        raise ConfigError("state", f"unknown state name {spec!r}")
    if isinstance(spec, (list, tuple)):
        try:
            amps = [parse_complex_entry(e) for e in spec]
        except ValueError as exc:
            raise ConfigError("state", str(exc))
        if len(amps) != 3:
            raise ConfigError("state", f"expected 3 amplitudes, got {len(amps)}")
        try:
            return state_vector(amps, normalize=True)
        except ValueError as exc:
            raise ConfigError("state", str(exc))
    raise ConfigError("state", f"expected null, a name, or an amplitude list, got {spec!r}")


# JSON value kinds that _require checks, by the name its messages give them
_KINDS = {"an integer": int, "a number": (int, float), "a boolean": bool, "a string": str,
          "an object": dict}


def _require(mapping, field: str, kind: str, default, path: str):
    value = mapping.get(field, default)
    if kind != "a boolean" and isinstance(value, bool):
        raise ConfigError(f"{path}{field}", f"expected {kind}, got a boolean")
    if not isinstance(value, _KINDS[kind]):
        raise ConfigError(f"{path}{field}", f"expected {kind}, got {value!r}")
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}{field}", f"expected a finite number, got {value!r}")
    return value


def _parse_source(raw: dict) -> SourceConfig:
    kwargs = dict(
        counts_per_setting=_require(raw, "counts_per_setting", "a number", 10000, "source."),
        background=_require(raw, "background", "a number", 0.0, "source."),
        efficiency=_require(raw, "efficiency", "a number", 1.0, "source."),
        window=_require(raw, "window", "a number", 50e-9, "source."),
        seed=_require(raw, "seed", "an integer", 0, "source."),
    )
    unknown = set(raw) - set(kwargs)
    if unknown:
        raise ConfigError(f"source.{sorted(unknown)[0]}", "unknown field")
    for name in ("counts_per_setting", "background"):
        if kwargs[name] > _MAX_MEAN_COUNTS:
            raise ConfigError(f"source.{name}", f"must be at most {_MAX_MEAN_COUNTS:g}, "
                              f"so that counts fit int64; got {kwargs[name]!r}")
    try:
        return SourceConfig(**kwargs)
    except ValueError as exc:  # the message starts with the field it refuses
        raise ConfigError(*f"source.{exc}".split(": ", 1))


def _parse_optics(raw: dict) -> OpticsConfig:
    n = _require(raw, "grid_size", "an integer", 512, "optics.")
    extent = _require(raw, "extent", "a number", 1.0, "optics.")
    default_waist = self_fourier_waist(n, extent) if n > 0 and extent > 0 else 1.0
    waist = _require(raw, "waist", "a number", default_waist, "optics.")
    fiber = _require(raw, "fiber_waist", "a number", default_waist, "optics.")
    unknown = set(raw) - {"grid_size", "extent", "waist", "fiber_waist"}
    if unknown:
        raise ConfigError(f"optics.{sorted(unknown)[0]}", "unknown field")
    try:
        return OpticsConfig(n, float(extent), float(waist), float(fiber))
    except ValueError as exc:  # the message starts with the field it refuses
        raise ConfigError(*f"optics.{exc}".split(": ", 1))


def load_config(path, seed: int | None = None, mode: str | None = None) -> RunConfig:
    """Parse and validate a JSON run configuration.

    seed and mode, when given, override source.seed and measurement_mode;
    the echoed configuration reflects the effective values.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigReadError(f"{path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")

    dimension = _require(raw, "dimension", "an integer", 3, "")
    if dimension != 3:
        raise ConfigError("dimension", f"only dimension 3 is supported, got {dimension}")

    source_raw = dict(_require(raw, "source", "an object", {}, ""))
    if seed is not None:
        source_raw["seed"] = seed
    source = _parse_source(source_raw)

    optics_raw = _require(raw, "optics", "an object", {}, "")
    optics = _parse_optics(optics_raw)

    measurement_mode = mode if mode is not None else _require(
        raw, "measurement_mode", "a string", "abstract", ""
    )
    if measurement_mode not in MEASUREMENT_MODES:
        raise ConfigError(
            "measurement_mode", f"must be one of {MEASUREMENT_MODES}, got {measurement_mode!r}"
        )

    noiseless = _require(raw, "noiseless", "a boolean", False, "")
    bootstrap = _require(raw, "bootstrap_samples", "an integer", 0, "")
    if bootstrap < 0:
        raise ConfigError("bootstrap_samples", "must be nonnegative")
    if bootstrap > _MAX_BOOTSTRAP:
        raise ConfigError("bootstrap_samples", f"must be at most {_MAX_BOOTSTRAP}, "
                          f"so that the bootstrap's run time stays bounded; got {bootstrap}")

    channel = parse_channel(raw.get("channel", "identity"))
    state = parse_state(raw.get("state"))

    output = _require(raw, "output", "an object", {}, "")
    unknown = set(output) - {"counts", "report", "grids"}
    if unknown:
        raise ConfigError(f"output.{sorted(unknown)[0]}", "unknown field")
    for key in ("counts", "report", "grids"):
        value = output.get(key)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"output.{key}", f"expected a path string, got {value!r}")

    known = {
        "dimension", "channel", "state", "source", "optics", "measurement_mode",
        "noiseless", "bootstrap_samples", "output",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field")

    echo = {
        "dimension": dimension,
        "channel": raw.get("channel", "identity"),
        "state": raw.get("state"),
        "source": asdict(source),
        "optics": asdict(optics),
        "measurement_mode": measurement_mode,
        "noiseless": noiseless,
        "bootstrap_samples": bootstrap,
    }
    return RunConfig(
        channel=channel,
        state=state,
        source=source,
        optics=optics,
        measurement_mode=measurement_mode,
        noiseless=noiseless,
        bootstrap_samples=bootstrap,
        output=output,
        echo=echo,
    )
