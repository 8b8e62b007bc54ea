"""Compare the CLI outputs of the working tree's src/ with those of a git revision, byte for byte.

Usage: python3 tools/byte_matrix.py BASE_REV
       python3 tools/byte_matrix.py --write-manifest

The matrix: 3 measurement modes x 4 inputs (QPT, psi4, [1,-1,1], L) x 5
channels x (seed 1, seed 2, noiseless), at grid_size 128 and
bootstrap_samples 20, each a `simulate` then a `reconstruct-*` from the
counts it wrote; three runs that fail in `reconstruct-*`; eight `simulate`
runs refused for a bad value (a negative source.seed, a negative fiber waist,
the unknown fields `source.window`, `source.efficiency` and `optics.extent`, a
counts_per_setting above 1e18, the channel `unitary inf`, a 2 x 2 Kraus
operator); one `simulate` refused for an empty --out (exit 3); one `simulate`
of a config that carries `"dimension": 3`; one abstract QPT bootstrap of 3000 samples, more than one
chunk of cli.BOOTSTRAP_CHUNK;
optical-ideal and optical-phase-only `simulate` of QPT and psi4 (seed 1 and
noiseless) at the benchmark's N = 256; optical-ideal and optical-phase-only
QPT (seed 1) at N = 128 with fiber_waist 0.08, unequal to the mode waist,
each a `simulate` then a `reconstruct-process`; at N = 128 with fiber_waist
0.15, whose lens image is narrower than the mode waist, an optical-ideal
`simulate` (refused, exit 3), an abstract `simulate` and an optical-ideal
`reconstruct-process` of its counts, and `modes` for psi4; and `modes` for psi4, L,
[1,-1,1], psi9 and the unequal-weight complex state [0.3, [0, -0.5], 0.8] at
N = 128 and 512; and seven command-line forms at N = 128:
`simulate --seed x`, `simulate --mode bogus`, `reconstruct-process` without
--counts and `modes --state psi4` (each exit 2, its usage on stderr: the config
alone sets the seed and the state), `--conf` for --config, `--out=counts.txt`,
and `--mode optical-ideal --mode abstract` (the last wins): 223 cases.

Each case runs through oamtomo.cli.main in its own directory, so paths in
messages agree, and each command runs as `python -m oamtomo.cli` would in a
fresh interpreter and an 80-column terminal: a SystemExit gives its code
(argparse's usage goes to stderr, wrapped at 80 columns), any other exception prints its traceback and gives exit 1, and a
warning shows once per command (warnings.catch_warnings()).  The case's
log.txt holds its commands, exit codes and stderr texts.

With BASE_REV, BASE_REV's src/ (from `git archive`) and the working tree's
each run the matrix in one fresh interpreter, in a temporary directory that
is removed at the end, and every file written, exit code and stderr text is
compared.  Each difference is printed with both logs and, for a JSON file,
with how many of its numbers differ and the largest absolute difference;
the exit status is 1 if there was any difference, else 0.

With --write-manifest, the matrix runs in this interpreter with the working
tree's src/, and MANIFEST records each output file's sha256, each command's
exit code and stderr text, the Python, numpy and BLAS versions, and the kernel
OpenBLAS chose for the CPU.  Tier-1 (tests/test_byte_matrix.py) checks the
matrix against MANIFEST; a change made on purpose rewrites it in the same
commit.  Standard library and numpy only.
"""

import argparse
import contextlib
import ctypes
import filecmp
import hashlib
import io
import itertools
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
import traceback
import warnings
from unittest import mock

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
MANIFEST = os.path.join(TOOLS, "byte_matrix_manifest.json")

MODES = ("abstract", "optical-ideal", "optical-phase-only")
INPUTS = (None, "psi4", [1, -1, 1], "L")  # None: process tomography
CHANNELS = (
    "identity",
    "depolarizing 0.1159305993690852",
    "dephasing 0.3",
    "unitary 0.7",
    {"kraus": [[[0.9, 0, 0], [0, 1, 0], [0, 0, 0.8]]]},  # lossy storage, trace-decreasing
)
SOURCES = ((1, False), (2, False), (1, True))  # (seed, noiseless)
MODE_STATES = ("psi4", "L", [1, -1, 1], "psi9", [0.3, [0, -0.5], 0.8])
MODE_GRIDS = (128, 512)


def cases():
    """(name, config, commands) for every case; commands are CLI argument lists."""
    for (m, mode), (k, state), (c, channel), (seed, noiseless) in itertools.product(
            enumerate(MODES), enumerate(INPUTS), enumerate(CHANNELS), SOURCES):
        config = {"channel": channel, "measurement_mode": mode, "noiseless": noiseless,
                  "source": {"counts_per_setting": 100000, "background": 50.0, "seed": seed},
                  "optics": {"grid_size": 128}, "bootstrap_samples": 20}
        if state is not None:
            config["state"] = state
        command = "reconstruct-process" if state is None else "reconstruct-state"
        yield (f"m{m}-i{k}-c{c}-s{seed}{'n' if noiseless else ''}", config,
               [["simulate", "--config", "run.json", "--out", "counts.txt"],
                [command, "--config", "run.json", "--counts", "counts.txt",
                 "--out", "report.json"]])
    # failures: degenerate counts (exit 5), no target state (3), counts of the wrong kind (4)
    simulate = ["simulate", "--config", "run.json", "--out", "counts.txt"]
    for name, config, command in (("null-channel", {"channel": None}, "reconstruct-process"),
                                  ("no-state", {}, "reconstruct-state"),
                                  ("state-counts", {"state": "psi4"}, "reconstruct-process")):
        yield f"err-{name}", config, [simulate, [command, "--config", "run.json", "--counts",
                                                 "counts.txt", "--out", "report.json"]]
    # bad values (exit 3), each refused naming its field
    for name, config in (("seed", {"source": {"seed": -1}}),
                         ("fiber-waist", {"optics": {"fiber_waist": -1}}),
                         ("window", {"source": {"window": 0}}),
                         ("efficiency", {"source": {"efficiency": 0.5}}),
                         ("extent", {"optics": {"extent": 2.0}}),
                         ("counts-bound", {"source": {"counts_per_setting": 1e19}}),
                         ("channel-inf", {"channel": "unitary inf"}),
                         ("kraus-shape", {"channel": {"kraus": [[[1, 0], [0, 1]]]}})):
        yield f"err-{name}", config, [simulate]
    # an empty --out names no file (exit 3)
    yield "err-out-empty", {}, [
        ["simulate", "--config", "run.json", "--out", ""]]
    yield "dimension-3", {"dimension": 3}, [simulate]
    config = {"channel": CHANNELS[1], "bootstrap_samples": 3000,
              "source": {"counts_per_setting": 100000, "background": 50.0, "seed": 1}}
    yield "boot-chunked", config, [simulate, ["reconstruct-process", "--config", "run.json",
                                              "--counts", "counts.txt", "--out", "report.json"]]
    for (m, mode), (k, state), (seed, noiseless) in itertools.product(
            list(enumerate(MODES))[1:], list(enumerate(INPUTS))[:2], SOURCES[::2]):
        config = {"channel": CHANNELS[1], "measurement_mode": mode, "noiseless": noiseless,
                  "source": {"counts_per_setting": 100000, "background": 50.0, "seed": seed},
                  "optics": {"grid_size": 256}}
        if state is not None:
            config["state"] = state
        yield f"m{m}-i{k}-s{seed}{'n' if noiseless else ''}-n256", config, [simulate]
    # a fiber waist unequal to the mode waist: its own Gaussian, not LG_0
    for m, mode in list(enumerate(MODES))[1:]:
        config = {"channel": CHANNELS[1], "measurement_mode": mode,
                  "source": {"counts_per_setting": 100000, "background": 50.0, "seed": 1},
                  "optics": {"grid_size": 128, "fiber_waist": 0.08}}
        yield f"m{m}-fiber-waist", config, [simulate, [
            "reconstruct-process", "--config", "run.json", "--counts", "counts.txt",
            "--out", "report.json"]]
    # a fiber waist whose lens image is narrower than the mode waist: ideal mode conversion
    # refuses it in simulate alone, so reconstruct-process and modes take the config
    narrow = {"channel": CHANNELS[1], "optics": {"grid_size": 128, "fiber_waist": 0.15},
              "source": {"counts_per_setting": 100000, "background": 50.0, "seed": 1}}
    yield "narrow-fiber", narrow, [simulate + ["--mode", "optical-ideal"], simulate, [
        "reconstruct-process", "--config", "run.json", "--counts", "counts.txt",
        "--out", "report.json", "--mode", "optical-ideal"]]
    yield "modes-narrow-fiber", {**narrow, "state": "psi4"}, [
        ["modes", "--config", "run.json", "--out", "grids"]]
    for (k, state), n in itertools.product(enumerate(MODE_STATES), MODE_GRIDS):
        config = {"state": state, "optics": {"grid_size": n}}
        yield f"modes-i{k}-n{n}", config, [["modes", "--config", "run.json", "--out", "grids"]]
    # command-line forms: usage errors (exit 2; the command line takes no --seed and
    # no --state), an abbreviated flag, --flag=value and a repeated flag (the last wins)
    for name, command in (
            ("seed-junk", simulate + ["--seed", "x"]),
            ("mode-bogus", simulate + ["--mode", "bogus"]),
            ("no-counts", ["reconstruct-process", "--config", "run.json", "--out", "report.json"]),
            ("abbreviated", ["simulate", "--conf", "run.json", "--out", "counts.txt"]),
            ("equals", ["simulate", "--config", "run.json", "--out=counts.txt"]),
            ("flag-twice", simulate + ["--mode", "optical-ideal", "--mode", "abstract"]),
            ("modes-state", ["modes", "--config", "run.json", "--out", "grids",
                             "--state", "psi4"])):
        yield f"cli-{name}", {"optics": {"grid_size": 128}}, [command]


def files_under(top: str) -> set:
    return {os.path.relpath(os.path.join(base, name), top)
            for base, _, names in os.walk(top) for name in names}


def _json_numbers(path: str):
    """{position: number} of every number in a JSON file, where position is the
    key/index path to it; None if the file is not JSON."""
    try:
        doc = json.loads(pathlib.Path(path).read_bytes())
    except ValueError:  # not UTF-8 or not JSON
        return None
    found = {}

    def walk(value, at):
        if isinstance(value, (dict, list)):
            for key, item in value.items() if isinstance(value, dict) else enumerate(value):
                walk(item, at + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            found[at] = value

    walk(doc, ())
    return found


def json_difference(base_path: str, head_path: str) -> str | None:
    """'n of m numbers differ, largest absolute difference d' for two JSON
    files; a number present on one side only counts as differing.  None if
    either file is not JSON."""
    base, head = _json_numbers(base_path), _json_numbers(head_path)
    if base is None or head is None:
        return None
    positions = base.keys() | head.keys()
    differing = [p for p in positions if base.get(p) != head.get(p)]
    largest = max((abs(base[p] - head[p]) for p in differing if p in base and p in head),
                  default=0.0)
    return (f"{len(differing)} of {len(positions)} numbers differ, "
            f"largest absolute difference {largest:.3g}")


def versions() -> dict:
    """The Python, numpy and BLAS versions of this interpreter, its machine, and the
    kernel OpenBLAS chose for its CPU (None unless numpy bundles scipy-openblas)."""
    import numpy
    from numpy._core import _multiarray_umath

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # the symbol is looked up in numpy's core and the libraries it loaded, its BLAS among them
    corename = getattr(ctypes.CDLL(_multiarray_umath.__file__),
                       "scipy_openblas_get_corename64_", None)
    if corename is not None:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_core": corename and corename().decode(), "machine": platform.machine()}


def _exit_status(main, args) -> int:
    """main(args)'s exit status as `python -m oamtomo.cli args` gives it; what
    that would print to stderr goes to sys.stderr."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        return 1
    return code or 0  # SystemExit(None) is exit 0


# argparse wraps its usage text at the width COLUMNS gives, else at the terminal's
@mock.patch.dict(os.environ, COLUMNS="80")
def run_in_process(work: str, src: str = os.path.join(ROOT, "src")) -> dict:
    """Run every case under work through oamtomo.cli.main from src, in this
    interpreter, with COLUMNS set to 80.  Returns {"versions": versions(),
    "outputs": {case/path: sha256 of each file written but run.json and
    log.txt, case/$k command: its exit code and stderr text}}."""
    if src not in sys.path:
        sys.path.insert(0, src)
    from oamtomo import cli

    outputs = {}
    cwd = os.getcwd()
    try:
        for name, config, commands in cases():
            case_dir = os.path.join(work, name)
            os.makedirs(case_dir)
            pathlib.Path(case_dir, "run.json").write_text(json.dumps(config))
            os.chdir(case_dir)
            with open("log.txt", "w") as log:
                for k, args in enumerate(commands, start=1):
                    stderr, command = io.StringIO(), " ".join(args)
                    with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
                        # to stderr as a fresh interpreter shows it, also where pytest records it
                        warnings.showwarning = lambda m, c, f, n, file=None, line=None: (
                            sys.stderr.write(warnings.formatwarning(m, c, f, n, line)))
                        code = _exit_status(cli.main, args)
                    err = stderr.getvalue()
                    outputs[f"{name}/${k} {command}"] = f"exit {code}" + (f": {err}" if err else "")
                    log.write(f"$ {command}\nexit {code}\n{err}")
            for path in files_under(case_dir) - {"run.json", "log.txt"}:
                digest = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
                outputs[f"{name}/{path}"] = digest
    finally:
        os.chdir(cwd)
    return {"versions": versions(), "outputs": outputs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("base_rev", nargs="?", help="git revision whose src/ is the reference")
    group.add_argument("--write-manifest", action="store_true",
                       help="record the working tree's outputs in MANIFEST")
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="byte_matrix_")
    try:
        if args.write_manifest:
            with open(MANIFEST, "w") as fh:
                json.dump(run_in_process(work), fh, indent=0, sort_keys=True)
                fh.write("\n")
            return 0
        return compare(args.base_rev, work)
    finally:
        shutil.rmtree(work)


def compare(base_rev: str, work: str) -> int:
    """Run the matrix with base_rev's src/ and with the working tree's, each in
    one fresh interpreter, under work; print the differences, return the status."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", base_rev, "src"],
                             capture_output=True, check=True).stdout
    # the "data" filter, where this Python has it, refuses links and absolute paths
    extract_filter = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(work, **extract_filter)  # as work/src
    side = ("import sys; sys.path[0] = sys.argv[1]; import byte_matrix; "
            "byte_matrix.run_in_process(*sys.argv[2:])")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for tree, root in (("base", work), ("head", ROOT)):
        subprocess.run([sys.executable, "-c", side, TOOLS, os.path.join(work, tree),
                        os.path.join(root, "src")], env=env, check=True)
    return diff_trees(os.path.join(work, "base"), os.path.join(work, "head"))


def diff_trees(base: str, head: str) -> int:
    """Print each file that differs between the case directories under base and
    head, with both sizes and logs and, for JSON, the number summary; then the
    summary line.  Returns 1 if any file differs, else 0."""
    tops = {"base": base, "head": head}
    found = {tree: files_under(top) for tree, top in tops.items()}
    both = found["base"] & found["head"]
    differing = sorted(found["base"] ^ found["head"] | {
        p for p in both
        if not filecmp.cmp(os.path.join(base, p), os.path.join(head, p), shallow=False)})
    for path in differing:
        sizes = ", ".join(f"{tree} {os.path.getsize(os.path.join(top, path))} B"
                          if path in found[tree] else f"{tree} missing"
                          for tree, top in tops.items())
        print(f"DIFFERS {path}: {sizes}")
        numbers = path in both and json_difference(
            os.path.join(base, path), os.path.join(head, path))
        if numbers:
            print(f"  json: {numbers}")
        for tree, top in tops.items():
            log = pathlib.Path(top, path.split(os.sep)[0], "log.txt").read_text()
            print("\n".join(f"  {tree}| {line}" for line in log.splitlines()))
    n_cases = len({p.split(os.sep)[0] for p in found["base"] | found["head"]})
    print(f"{n_cases} cases, {len(found['base'])} base files, "
          f"{len(found['head'])} head files, {len(differing)} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
