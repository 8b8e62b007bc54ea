"""Run configuration: the JSON layer of the command-line front end.

This module checks each value's JSON kind and unknown keys, and holds the
rules that only the CLI has: dimension, measurement_mode, bootstrap_samples
and output.  Each default, range or bound of a section is stated once, by the
constructor that owns the value (SourceConfig, OpticsConfig, state_vector,
the channels); ConfigError passes its refusal on with the field path in
front.  An unreadable or syntactically invalid file raises ConfigReadError.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .counts import SourceConfig
from .optics import OpticsConfig
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
        families = {"depolarizing": depolarizing_channel, "dephasing": dephasing_channel,
                    "unitary": phase_rotation_channel}
        if name == "identity" and len(parts) == 1:
            return identity_channel()
        if name in families and len(parts) == 2:
            try:
                value = float(parts[1])
            except ValueError:
                raise ConfigError("channel", f"non-numeric parameter in {spec!r}")
            try:  # each family refuses a parameter outside its range, NaN and infinities too
                return families[name](value)
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


def _finite_number(value) -> bool:
    """A finite JSON number: not a boolean, NaN, an infinity or an integer beyond floats."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def parse_complex_entry(entry) -> complex:
    """A finite JSON number or a [re, im] pair of them."""
    parts = entry if isinstance(entry, (list, tuple)) and len(entry) == 2 else [entry, 0]
    if all(_finite_number(v) for v in parts):
        return complex(*parts)
    raise ValueError(f"expected a finite number or [re, im] pair, got {entry!r}")


# JSON value kinds that _require checks, by the name its messages give them
_KINDS = {"an integer": int, "a number": (int, float), "a boolean": bool, "a string": str,
          "an object": dict}


def _require(mapping, field: str, kind: str, default, path: str):
    value = mapping.get(field, default)
    if kind != "a boolean" and isinstance(value, bool):
        raise ConfigError(f"{path}{field}", f"expected {kind}, got a boolean")
    if not isinstance(value, _KINDS[kind]):
        raise ConfigError(f"{path}{field}", f"expected {kind}, got {value!r}")
    if kind in ("an integer", "a number") and not _finite_number(value):
        raise ConfigError(f"{path}{field}", f"expected a finite number, got {value!r}")
    return value


def _section(cls, raw: dict, path: str):
    """cls(**raw) for the config section raw, its refusals prefixed with path: each
    given key's JSON kind follows its annotation in cls, and no other key is allowed."""
    kinds = {"int": "an integer", "float": "a number", "float | None": "a number"}
    for f in fields(cls):
        if f.name in raw:
            _require(raw, f.name, kinds[f.type], None, path)
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{path}{sorted(unknown)[0]}", "unknown field")
    try:
        return cls(**raw)
    except ValueError as exc:  # the message starts with the field it refuses
        raise ConfigError(*f"{path}{exc}".split(": ", 1))


def load_config(path, seed: int | None = None, mode: str | None = None,
                state: str | None = None) -> RunConfig:
    """Parse and validate a JSON run configuration.

    seed, mode and state, when given, override source.seed, measurement_mode
    and state; state is the text of a state spec, JSON (null, an amplitude
    list) or a bare state name.  The echoed configuration reflects the
    effective values.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigReadError(f"{path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    if state is not None:
        try:
            raw["state"] = json.loads(state)
        except json.JSONDecodeError:
            raw["state"] = state

    dimension = _require(raw, "dimension", "an integer", 3, "")
    if dimension != 3:
        raise ConfigError("dimension", f"only dimension 3 is supported, got {dimension}")

    source_raw = dict(_require(raw, "source", "an object", {}, ""))
    if seed is not None:
        source_raw["seed"] = seed
    source = _section(SourceConfig, source_raw, "source.")
    optics = _section(OpticsConfig, _require(raw, "optics", "an object", {}, ""), "optics.")

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
