"""Command-line front end tying the pipeline together.

Commands
--------
simulate             write a counts file for the configured channel (or stored
                     state, when one is declared in the config)
reconstruct-process  counts file -> process matrix report with fidelity
reconstruct-state    counts file -> density matrix report with fidelity
modes                export intensity/phase grids of the three imaging planes

Exit codes: 0 success, 2 unreadable config or a usage error (argparse's, after its
usage text, a missing --out included), 3 invalid parameters (an optics geometry the
grid cannot resolve, and an --out that is empty, no path, an input file or unwritable
included), 4 incomplete counts, 5 degenerate counts.  A failed run removes the files it
wrote and no other.  The config alone sets every value but the --mode override,
source.seed and state included: identical configs and --mode give byte-identical files.
"""

from __future__ import annotations

import contextlib
import os
import sys
import types

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
    check_ideal_conversion,
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


def _probability_rows(cfg: RunConfig) -> np.ndarray:
    """Projection probabilities Tr(mu_i C(rho_j)) of the configured channel C, one
    row per input: the nine canonical inputs, or the stored state when one is declared.

    Abstract and optical-ideal modes take the input projectors and the scheme's (None),
    as ideal mode conversion projects onto the LG triple's states, a tested identity;
    ideal mode's one rule is refused here as optics.fiber_waist.  Phase-only mode takes
    the chain's effective operators: each input's hologram and each measurement
    reduced to the triple the memory stores (optics.effective_operators).
    """
    rho_in, povm = None if cfg.state is None else projector_of(cfg.state)[None], None
    try:  # the message starts with the field it refuses
        if cfg.measurement_mode == "optical-ideal":
            check_ideal_conversion(cfg.optics)
        elif cfg.measurement_mode == "optical-phase-only":
            inputs = canonical_settings().inputs if cfg.state is None else [cfg.state]
            rho_in, povm = effective_operators(inputs, canonical_settings().inputs, cfg.optics)
    except ValueError as exc:
        raise ConfigError(*f"optics.{exc}".split(": ", 1))
    return predict_probabilities(cfg.channel, rho_in, povm)


def _read_counts(path: str, n_in: int, cfg: RunConfig) -> np.ndarray:
    counts = fileio.read_counts(path)  # owns every fault of reading the file
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


def cmd_simulate(cfg: RunConfig, args, written: list) -> None:
    make = exact_counts if cfg.noiseless else simulate_counts
    counts = make(_probability_rows(cfg), cfg.source)
    written.append(args.out)
    fileio.write_counts(args.out, counts, cfg.echo)


def _report(keys, cfg: RunConfig, counts, reconstruct, project, score) -> dict:
    """Reconstruct and score the counts: the physical matrix, its raw trace, the
    least eigenvalue before and after projection, and the fidelity.

    keys names the report kind, the physical matrix, its raw trace and its
    fidelity.  reconstruct, project and score take a leading batch axis, so that a
    bootstrap of B > 0 samples redoes them all on B Poisson resamples of the
    counts, drawn and scored in chunks of at most BOOTSTRAP_CHUNK; a degenerate
    resample is named by its index among the B.
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
        fids = []
        for start in range(0, cfg.bootstrap_samples, BOOTSTRAP_CHUNK):
            size = (min(BOOTSTRAP_CHUNK, cfg.bootstrap_samples - start),) + counts.shape
            try:
                fids.append(score(project(reconstruct(rng.poisson(counts, size=size)))))
            except DegenerateDataError as exc:  # its sample counts from the chunk's start
                raise DegenerateDataError(exc.message, start + exc.sample) from exc
        fids = np.concatenate(fids)
        doc["bootstrap"] = {
            "samples": cfg.bootstrap_samples,
            "fidelity_mean": float(np.mean(fids)),
            "fidelity_std": float(np.std(fids, ddof=1)) if len(fids) > 1 else 0.0,
        }
    return doc


def cmd_reconstruct_process(cfg: RunConfig, args, written: list) -> None:
    counts = _read_counts(args.counts, 9, cfg)
    ideal = np.eye(9)[0]  # ideal storage, chi = e0 e0^dag: weight 1 on the identity
    doc = _report(("process", "chi", "chi_raw_trace", "process_fidelity_vs_ideal"), cfg, counts,
                  lambda c: qpt_linear_inversion(probabilities_from_counts(c)),
                  project_to_physical_process, lambda chi: pure_fidelity(chi, ideal, process=True))
    written.append(args.out)
    fileio.write_report(args.out, doc)


def cmd_reconstruct_state(cfg: RunConfig, args, written: list) -> None:
    if cfg.state is None:
        raise ConfigError("state", "a target state is required for state reconstruction")
    counts = _read_counts(args.counts, 1, cfg)
    doc = _report(("state", "rho", "rho_raw_trace", "state_fidelity_vs_target"), cfg, counts,
                  lambda c: qst_linear_inversion(probabilities_from_counts(c)[..., 0, :]),
                  project_to_physical_state, lambda rho: pure_fidelity(rho, cfg.state))
    doc["target_state"] = fileio.complex_pairs(cfg.state)
    written.append(args.out)
    fileio.write_report(args.out, doc)


def cmd_modes(cfg: RunConfig, args, written: list) -> None:
    if cfg.state is None:
        raise ConfigError("state", "a state is required for mode export")
    mask = superposition_field(cfg.state, cfg.optics)
    # a file of the directory's name is left alone (main names --out)
    os.makedirs(args.out, exist_ok=True)

    def output(plane: str, kind: str) -> str:
        path = os.path.join(args.out, f"{plane}_{kind}.txt")
        _refuse_input(path, args)
        written.append(path)
        return path

    # ideal 4-f imaging: the image grids are the mask grids permuted by the parity index
    flip = parity_index(cfg.optics.grid_size)
    kinds = (("intensity", _intensity), ("phase", phase_mask_of))
    for kind, value in kinds:
        fileio.write_grid(output("mask", kind), mask, value)
        fileio.write_grid(output("image", kind), mask, value, flip)
    fourier = lens_fourier(mask, overwrite=True)  # in place: the mask's grids are written
    for kind, value in kinds:
        fileio.write_grid(output("fourier", kind), fourier, value)


def _intensity(samples: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|samples|^2 into out, squared in place."""
    values = np.abs(samples, out=out)
    return np.square(values, out=values)


# flag -> its argparse keywords, which _parse obeys too
FLAGS = {
    "config": {"required": True, "help": "JSON run configuration"},
    "out": {"required": True, "help": "output path (a directory for modes)"},
    "mode": {"choices": MEASUREMENT_MODES, "help": "override measurement_mode"},
    "counts": {"required": True, "help": "counts file to reconstruct from"},
}
_COMMON = ("config", "out", "mode")

# command -> (handler, its flags in FLAGS).  handler(cfg, args, written) writes to
# args.out (modes into that directory), and lists a file in `written` just before
# writing it, its work done; a failed run removes those files and no other.
COMMANDS = {
    "simulate": (cmd_simulate, _COMMON),
    "reconstruct-process": (cmd_reconstruct_process, _COMMON + ("counts",)),
    "reconstruct-state": (cmd_reconstruct_state, _COMMON + ("counts",)),
    "modes": (cmd_modes, _COMMON),
}


def _build_parser():
    import argparse  # and with it gettext and locale: only help and usage errors need it
    parser = argparse.ArgumentParser(prog="oamtomo", description=(
        "Simulate and reconstruct qutrit storage tomography experiments."))
    sub = parser.add_subparsers(dest="command", required=True)
    helps = ("generate a coincidence counts file", "reconstruct the process matrix",
             "reconstruct a stored state", "export mask/Fourier/image plane grids")
    for (command, (_, flags)), text in zip(COMMANDS.items(), helps):  # in COMMANDS' order
        p = sub.add_parser(command, help=text)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def _parse(argv):
    """argparse's namespace for `COMMAND --flag VALUE ...` with each flag's full name,
    or None where argparse must read argv: help, an abbreviation, --flag=value, a
    value starting with '-', a missing required flag or a value argparse refuses."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    args = dict.fromkeys(COMMANDS[argv[0]][1])
    for flag, value in zip(argv[1::2], argv[2::2]):
        name = flag[2:]
        if flag[:2] != "--" or name not in args or value[:1] == "-":
            return None
        if value not in FLAGS[name].get("choices", (value,)):
            return None
        args[name] = value
    if any(v is None and FLAGS[f].get("required") for f, v in args.items()):
        return None
    return types.SimpleNamespace(command=argv[0], **args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or _build_parser().parse_args(argv)
    written: list = []
    try:
        cfg = load_config(args.config, mode=args.mode)
        handler, _ = COMMANDS[args.command]
        if not args.out:
            raise ConfigError("--out", "the path is empty")
        try:  # a NUL byte or a lone surrogate: only a caller in Python can pass either
            if b"\0" in os.fsencode(args.out):
                raise ValueError("embedded null byte")
        except ValueError as exc:
            raise ConfigError("--out", f"cannot use {args.out!r} as a path: {exc}")
        _refuse_input(args.out, args)
        try:
            handler(cfg, args, written)
        except OSError as exc:  # --counts faults arrive as CountsFileError
            raise ConfigError("--out", f"cannot write {exc.filename or args.out!r}: "
                                       f"{exc.strerror or exc}")
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


def _refuse_input(path: str, args) -> None:
    """Raise ConfigError("--out") if path, an output, is the file --config or --counts names:
    a finished run would overwrite that input, and a failed one delete it.  Its
    other faults are main's (empty, no path, unwritable)."""
    for flag in ("config", "counts"):
        source, same = getattr(args, flag, None), False
        with contextlib.suppress(OSError, ValueError):  # missing, or no file can have it
            same = source is not None and os.path.samefile(path, source)
        if same:  # raised outside: a ConfigError is a ValueError too
            raise ConfigError("--out", f"{path!r} is the --{flag} file, an input")


def _fail(written, message: str) -> None:
    print(f"oamtomo: {message}", file=sys.stderr)
    for path in written:
        try:
            os.remove(path)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
