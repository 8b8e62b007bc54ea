"""Command-line front end tying the pipeline together.

Commands
--------
simulate             write a counts file for the configured channel (or stored
                     state, when one is declared in the config)
reconstruct-process  counts file -> process matrix report with fidelity
reconstruct-state    counts file -> density matrix report with fidelity
modes                export intensity/phase grids of the three imaging planes

Exit codes: 0 success, 2 unreadable config, 3 invalid parameters,
4 incomplete counts, 5 degenerate count normalization.  Partial outputs are
removed on failure; identical config and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from . import fileio
from .config import (
    MEASUREMENT_MODES,
    ConfigError,
    ConfigReadError,
    RunConfig,
    load_config,
    parse_state,
)
from .counts import exact_counts, simulate_counts
from .optics import effective_operators, lens_fourier, phase_mask_of, superposition_field
from .qudit import process_fidelity, projector_of, state_fidelity
from .tomography import (
    DegenerateDataError,
    canonical_settings,
    ideal_storage_chi,
    predict_probabilities,
    probabilities_from_counts,
    project_to_physical_process,
    project_to_physical_state,
    qpt_linear_inversion,
    qst_linear_inversion,
)

EXIT_BAD_CONFIG = 2
EXIT_BAD_PARAMS = 3
EXIT_INCOMPLETE = 4
EXIT_DEGENERATE = 5


@contextlib.contextmanager
def _optics_guard():
    """Turn a failure of the sampled optics chain, floating-point overflow, division
    by zero and invalid values included, into ConfigError("optics"): the
    geometry is one the chain cannot realize."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            yield
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError("optics", str(exc))


def _probability_rows(input_states, channel, cfg: RunConfig, settings) -> np.ndarray:
    """Projection probabilities Tr(mu_i C(rho_j)) for the given inputs, one row per input.

    Abstract mode takes the input projectors and the settings' projectors.
    The optical modes take the chain's effective operators
    (optics.effective_operators): each input's prepared field reduced to the
    LG triple the memory stores, and the measurement chain as a POVM on it.
    """
    if cfg.measurement_mode == "abstract":
        rho_in, povm = np.stack([projector_of(s) for s in input_states]), settings.projectors
    else:
        modulation = "ideal" if cfg.measurement_mode == "optical-ideal" else "phase_only"
        with _optics_guard():
            rho_in, povm = effective_operators(input_states, settings.inputs, cfg.optics,
                                               modulation)
    table = predict_probabilities(channel, settings, rho_in, povm)
    if not table.max() <= 1.0 + 1e-9:  # p > 1 or NaN: only an unresolved optics grid gets here
        raise ConfigError("optics", f"the grid cannot represent the modes: p = {table.max():.9g}")
    return table


def _read_counts(path: str, n_in: int) -> np.ndarray:
    try:
        counts = fileio.read_counts(path)
    except OSError as exc:  # missing, a directory, unreadable: a counts fault, exit 4
        raise fileio.CountsFileError(f"{path}: {exc.strerror or exc}") from exc
    if counts.shape[0] != n_in:
        raise fileio.CountsFileError(f"expected {9 * n_in} settings, found {counts.size // 2}")
    return counts


def _bootstrap(counts, cfg: RunConfig, reconstruct, fidelity) -> dict | None:
    """Redo the reconstruction on B Poisson resamples of the counts, drawn at once.

    reconstruct maps counts with a leading batch axis to physical matrices;
    fidelity maps that batch to a vector of scores.
    """
    if cfg.bootstrap_samples <= 0:
        return None
    rng = np.random.default_rng([cfg.source.seed, 104729])
    resamples = rng.poisson(counts, size=(cfg.bootstrap_samples,) + counts.shape)
    fids = fidelity(reconstruct(resamples))
    return {
        "samples": cfg.bootstrap_samples,
        "fidelity_mean": float(np.mean(fids)),
        "fidelity_std": float(np.std(fids, ddof=1)) if len(fids) > 1 else 0.0,
    }


def cmd_simulate(cfg: RunConfig, args, out_path: str, written: list) -> None:
    written.append(out_path)
    settings = canonical_settings()
    inputs = settings.inputs if cfg.state is None else [cfg.state]
    table = _probability_rows(inputs, cfg.channel, cfg, settings)
    make = exact_counts if cfg.noiseless else simulate_counts
    fileio.write_counts(out_path, make(table, cfg.source), cfg.echo)


def cmd_reconstruct_process(cfg: RunConfig, args, out_path: str, written: list) -> None:
    written.append(out_path)
    counts = _read_counts(args.counts, 9)
    settings = canonical_settings()
    ideal = ideal_storage_chi(settings.basis)

    def reconstruct(c):
        return qpt_linear_inversion(probabilities_from_counts(c), settings)

    chi_raw = reconstruct(counts)
    chi_phys = project_to_physical_process(chi_raw)
    doc = {
        "report": "process",
        "config": cfg.echo,
        "chi": fileio.matrix_to_pairs(chi_phys),
        "chi_raw_trace": float(np.trace(chi_raw).real),
        "min_eigenvalue_pre_projection": float(np.linalg.eigvalsh(chi_raw).min()),
        "min_eigenvalue_post_projection": float(np.linalg.eigvalsh(chi_phys).min()),
        "process_fidelity_vs_ideal": process_fidelity(chi_phys, ideal),
    }
    boot = _bootstrap(counts, cfg, lambda c: project_to_physical_process(reconstruct(c)),
                      lambda chi: process_fidelity(chi, ideal))
    if boot is not None:
        doc["bootstrap"] = boot
    fileio.write_report(out_path, doc)


def cmd_reconstruct_state(cfg: RunConfig, args, out_path: str, written: list) -> None:
    written.append(out_path)
    if cfg.state is None:
        raise ConfigError("state", "a target state is required for state reconstruction")
    counts = _read_counts(args.counts, 1)
    settings = canonical_settings()
    target = projector_of(cfg.state)

    def reconstruct(c):
        return qst_linear_inversion(probabilities_from_counts(c)[..., 0, :], settings)

    rho_raw = reconstruct(counts)
    rho_phys = project_to_physical_state(rho_raw)
    doc = {
        "report": "state",
        "config": cfg.echo,
        "target_state": fileio.vector_to_pairs(cfg.state),
        "rho": fileio.matrix_to_pairs(rho_phys),
        "rho_raw_trace": float(np.trace(rho_raw).real),
        "min_eigenvalue_pre_projection": float(np.linalg.eigvalsh(rho_raw).min()),
        "min_eigenvalue_post_projection": float(np.linalg.eigvalsh(rho_phys).min()),
        "state_fidelity_vs_target": state_fidelity(rho_phys, target),
    }
    boot = _bootstrap(counts, cfg, lambda c: project_to_physical_state(reconstruct(c)),
                      lambda rho: state_fidelity(rho, target))
    if boot is not None:
        doc["bootstrap"] = boot
    fileio.write_report(out_path, doc)


def cmd_modes(cfg: RunConfig, args, out_dir: str, written: list) -> None:
    if cfg.state is None:
        raise ConfigError("state", "a state is required for mode export")
    with _optics_guard():
        mask = superposition_field(cfg.state, cfg.optics)
        fourier = lens_fourier(mask)
        image = lens_fourier(fourier)
    try:  # only once the fields exist: a bad geometry leaves no directory
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # e.g. a file of that name, which is left alone
        raise ConfigError("output.grids", f"cannot create directory {out_dir!r}: {exc.strerror}")
    for plane, field in (("mask", mask), ("fourier", fourier), ("image", image)):
        for kind, values in (
            ("intensity", np.abs(field.samples) ** 2),
            ("phase", phase_mask_of(field)),
        ):
            path = os.path.join(out_dir, f"{plane}_{kind}.txt")
            written.append(path)
            fileio.write_grid(path, values, cfg.optics.extent)


# command -> (handler, key of its output in the config's output section, what
# that output is).  A handler lists in `written` the files it writes to; a
# failed run removes them, so it leaves no partial or stale file there.
COMMANDS = {
    "simulate": (cmd_simulate, "counts", "path"),
    "reconstruct-process": (cmd_reconstruct_process, "report", "path"),
    "reconstruct-state": (cmd_reconstruct_state, "report", "path"),
    "modes": (cmd_modes, "grids", "directory"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamtomo",
        description="Simulate and reconstruct qutrit storage tomography experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, counts=False):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="output path (overrides config output section)")
        p.add_argument("--seed", type=int, help="override source.seed")
        p.add_argument("--mode", choices=MEASUREMENT_MODES, help="override measurement_mode")
        if counts:
            p.add_argument("--counts", required=True, help="counts file to reconstruct from")

    common(sub.add_parser("simulate", help="generate a coincidence counts file"))
    common(sub.add_parser("reconstruct-process", help="reconstruct the process matrix"),
           counts=True)
    common(sub.add_parser("reconstruct-state", help="reconstruct a stored state"), counts=True)
    modes = sub.add_parser("modes", help="export mask/Fourier/image plane grids")
    common(modes)
    modes.add_argument("--state", help="state name or JSON amplitude list (overrides config)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    written: list = []
    try:
        cfg = load_config(args.config, seed=args.seed, mode=args.mode)
        if getattr(args, "state", None) is not None:  # only modes takes --state
            try:
                spec = json.loads(args.state)
            except json.JSONDecodeError:
                spec = args.state
            cfg = dataclasses.replace(cfg, state=parse_state(spec, cfg.dimension))
        handler, key, what = COMMANDS[args.command]
        out = args.out or cfg.output.get(key)
        if not out:
            raise ConfigError(f"output.{key}", f"no output {what} given (config or --out)")
        handler(cfg, args, out, written)
        return 0
    except ConfigReadError as exc:
        _fail(written, f"config: {exc}")
        return EXIT_BAD_CONFIG
    except ConfigError as exc:
        _fail(written, f"invalid configuration: {exc}")
        return EXIT_BAD_PARAMS
    except DegenerateDataError as exc:
        _fail(written, f"degenerate counts: {exc}")
        return EXIT_DEGENERATE
    except (fileio.CountsFileError, FileNotFoundError) as exc:
        _fail(written, f"counts: {exc}")
        return EXIT_INCOMPLETE
    except ValueError as exc:
        _fail(written, f"invalid parameters: {exc}")
        return EXIT_BAD_PARAMS


def _fail(written, message: str) -> None:
    print(f"oamtomo: {message}", file=sys.stderr)
    for path in written:
        try:
            os.remove(path)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
