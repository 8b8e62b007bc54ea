"""Command-line front end tying the pipeline together.

Commands
--------
simulate             write a counts file for the configured channel (or stored
                     state, when one is declared in the config)
reconstruct-process  counts file -> process matrix report with fidelity
reconstruct-state    counts file -> density matrix report with fidelity
modes                export intensity/phase grids of the three imaging planes

Exit codes: 0 success, 2 unreadable config, 3 invalid parameters (an output
that cannot be written or that is an input file included), 4 incomplete
counts, 5 degenerate count normalization.  Partial outputs are
removed on failure; identical config and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
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
)
from .counts import exact_counts, simulate_counts
from .optics import (
    effective_operators,
    lens_fourier,
    parity_index,
    phase_mask_of,
    superposition_field,
)
from .qudit import projector_of, pure_fidelity
from .tomography import (
    DegenerateDataError,
    canonical_settings,
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

# bootstrap resamples drawn and reconstructed at once: memory stays that of
# this many, whatever bootstrap_samples is
BOOTSTRAP_CHUNK = 1000


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


def _probability_rows(cfg: RunConfig) -> np.ndarray:
    """Projection probabilities Tr(mu_i C(rho_j)) of the configured channel C, one
    row per input: the nine canonical inputs, or the stored state when one is declared.

    Abstract mode takes the input projectors and the scheme's projectors.
    The optical modes take the chain's effective operators
    (optics.effective_operators): each input's prepared field reduced to the
    LG triple the memory stores, and the measurement chain as a POVM on it.
    """
    if cfg.measurement_mode == "abstract":  # None: the scheme's projectors
        rho_in, povm = None if cfg.state is None else projector_of(cfg.state)[None], None
    else:
        inputs = canonical_settings().inputs if cfg.state is None else [cfg.state]
        with _optics_guard():
            rho_in, povm = effective_operators(inputs, canonical_settings().inputs, cfg.optics,
                                               cfg.measurement_mode == "optical-phase-only")
    table = predict_probabilities(cfg.channel, rho_in, povm)
    if not table.max() <= 1.0 + 1e-9:  # p > 1 or NaN: only an unresolved optics grid gets here
        raise ConfigError("optics", f"the grid cannot represent the modes: p = {table.max():.9g}")
    return table


def _read_counts(path: str, n_in: int, cfg: RunConfig) -> np.ndarray:
    try:
        counts = fileio.read_counts(path)
    except OSError as exc:  # missing, a directory, unreadable: a counts fault, exit 4
        raise fileio.CountsFileError(f"{path}: {exc.strerror or exc}") from exc
    if counts.shape[0] != n_in:
        raise fileio.CountsFileError(f"expected {9 * n_in} settings, found {counts.size // 2}")
    # numpy's largest Poisson mean: a bootstrap cannot resample a count above it
    lam_max = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)
    if cfg.bootstrap_samples > 0 and np.any(counts > lam_max):
        j, i, k = np.argwhere(counts > lam_max)[0]
        raise fileio.CountsFileError(
            f"{path}: setting ({j + 1}, {i + 1}): count {counts[j, i, k]} is above "
            f"{lam_max:.11g}, the largest a bootstrap can resample")
    return counts


def cmd_simulate(cfg: RunConfig, args, out_path: str, written: list) -> None:
    written.append(out_path)
    make = exact_counts if cfg.noiseless else simulate_counts
    fileio.write_counts(out_path, make(_probability_rows(cfg), cfg.source), cfg.echo)


def _report(keys, cfg: RunConfig, counts, reconstruct, project, score) -> dict:
    """Reconstruct and score the counts: the physical matrix, its raw trace, the
    least eigenvalue before and after projection, and the fidelity.

    keys names the report kind, the physical matrix, its raw trace and its
    fidelity.  reconstruct, project and score take a leading batch axis, so that a
    bootstrap of B > 0 samples redoes them all on B Poisson resamples of the
    counts, drawn and scored in chunks of at most BOOTSTRAP_CHUNK.
    """
    kind, matrix_key, trace_key, fidelity_key = keys
    raw = reconstruct(counts)
    phys = project(raw)
    doc = {
        "report": kind,
        "config": cfg.echo,
        matrix_key: fileio.complex_pairs(phys),
        trace_key: float(np.trace(raw).real),
        "min_eigenvalue_pre_projection": float(np.linalg.eigvalsh(raw).min()),
        "min_eigenvalue_post_projection": float(np.linalg.eigvalsh(phys).min()),
        fidelity_key: score(phys),
    }
    if cfg.bootstrap_samples > 0:
        # successive draws from one generator continue its stream, so the chunks
        # are the resamples of one draw of all B, held BOOTSTRAP_CHUNK at a time
        rng = np.random.default_rng([cfg.source.seed, 104729])
        fids = np.concatenate([
            score(project(reconstruct(rng.poisson(counts, size=(min(BOOTSTRAP_CHUNK, left),)
                                                  + counts.shape))))
            for left in range(cfg.bootstrap_samples, 0, -BOOTSTRAP_CHUNK)])
        doc["bootstrap"] = {
            "samples": cfg.bootstrap_samples,
            "fidelity_mean": float(np.mean(fids)),
            "fidelity_std": float(np.std(fids, ddof=1)) if len(fids) > 1 else 0.0,
        }
    return doc


def cmd_reconstruct_process(cfg: RunConfig, args, out_path: str, written: list) -> None:
    written.append(out_path)
    counts = _read_counts(args.counts, 9, cfg)
    ideal = np.eye(9)[0]  # ideal storage, chi = e0 e0^dag: weight 1 on the identity
    doc = _report(("process", "chi", "chi_raw_trace", "process_fidelity_vs_ideal"), cfg, counts,
                  lambda c: qpt_linear_inversion(probabilities_from_counts(c)),
                  project_to_physical_process, lambda chi: pure_fidelity(chi, ideal, process=True))
    fileio.write_report(out_path, doc)


def cmd_reconstruct_state(cfg: RunConfig, args, out_path: str, written: list) -> None:
    written.append(out_path)
    if cfg.state is None:
        raise ConfigError("state", "a target state is required for state reconstruction")
    counts = _read_counts(args.counts, 1, cfg)
    doc = _report(("state", "rho", "rho_raw_trace", "state_fidelity_vs_target"), cfg, counts,
                  lambda c: qst_linear_inversion(probabilities_from_counts(c)[..., 0, :]),
                  project_to_physical_state, lambda rho: pure_fidelity(rho, cfg.state))
    doc["target_state"] = fileio.complex_pairs(cfg.state)
    fileio.write_report(out_path, doc)


def cmd_modes(cfg: RunConfig, args, out_dir: str, written: list) -> None:
    if cfg.state is None:
        raise ConfigError("state", "a state is required for mode export")
    with _optics_guard():
        mask = superposition_field(cfg.state, cfg.optics)
    try:  # only once the mask field exists: a bad geometry leaves no directory
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # e.g. a file of that name, which is left alone
        raise ConfigError("output.grids", f"cannot create directory {out_dir!r}: {exc.strerror}")

    def output(plane: str, kind: str) -> str:
        path = os.path.join(out_dir, f"{plane}_{kind}.txt")
        _refuse_input(path, args, "output.grids")
        written.append(path)
        return path

    # ideal 4-f imaging is the parity flip (optics.parity_flip): the image grids
    # are the mask grids with rows and values permuted by the parity index
    flip = parity_index(cfg.optics.grid_size)
    kinds = (("intensity", _intensity), ("phase", phase_mask_of))
    for kind, value in kinds:
        fileio.write_grid(output("mask", kind), mask, cfg.optics.extent, value)
        fileio.write_grid(output("image", kind), mask, cfg.optics.extent, value, flip)
    with _optics_guard():  # transformed in place: the mask's grids are written
        fourier = lens_fourier(mask, overwrite=True)
    del mask
    for kind, value in kinds:
        fileio.write_grid(output("fourier", kind), fourier, cfg.optics.extent, value)


def _intensity(samples: np.ndarray, out=None) -> np.ndarray:
    """|samples|^2 (into out, if given), squared in place."""
    values = np.abs(samples, out=out)
    return np.square(values, out=values)


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
        cfg = load_config(args.config, seed=args.seed, mode=args.mode,
                          state=getattr(args, "state", None))  # only modes takes --state
        handler, key, what = COMMANDS[args.command]
        out = args.out or cfg.output.get(key)
        if not out:
            raise ConfigError(f"output.{key}", f"no output {what} given (config or --out)")
        _refuse_input(out, args, f"output.{key}")
        try:
            handler(cfg, args, out, written)
        except OSError as exc:  # --counts faults arrive as CountsFileError
            raise ConfigError(f"output.{key}",
                              f"cannot write {exc.filename or out!r}: {exc.strerror or exc}")
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
    except fileio.CountsFileError as exc:
        _fail(written, f"counts: {exc}")
        return EXIT_INCOMPLETE
    except ValueError as exc:
        _fail(written, f"invalid parameters: {exc}")
        return EXIT_BAD_PARAMS


def _refuse_input(path: str, args, field: str) -> None:
    """Raise ConfigError(field) if path is the file --config or --counts names:
    a finished run would overwrite that input, and a failed one delete it."""
    for flag in ("config", "counts"):
        source = getattr(args, flag, None)
        try:
            same = source is not None and os.path.samefile(path, source)
        except OSError:  # either path missing: not the same file
            same = False
        if same:
            raise ConfigError(field, f"{path!r} is the --{flag} file, an input")


def _fail(written, message: str) -> None:
    print(f"oamtomo: {message}", file=sys.stderr)
    for path in written:
        try:
            os.remove(path)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
