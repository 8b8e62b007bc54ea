"""Compare the CLI outputs of the working tree's src/ with those of a git revision, byte for byte.

Usage: python3 tools/byte_matrix.py BASE_REV
       python3 tools/byte_matrix.py --write-manifest

The matrix: 3 measurement modes x 4 inputs (QPT, psi4, [1,-1,1], L) x
5 channels x (seed 1, seed 2, noiseless), at grid_size 128 and
bootstrap_samples 20, each a `simulate` then a `reconstruct-*` from the
counts it wrote; three runs that fail in `reconstruct-*`; six `simulate`
runs refused for a bad value (--seed -1, a negative fiber waist, a zero
coincidence window, a counts_per_setting above 1e18, the channel `unitary
inf`, a 2 x 2 Kraus operator); one abstract QPT bootstrap of 3000 samples,
more than one chunk of cli.BOOTSTRAP_CHUNK; and `modes` for psi4, L,
[1,-1,1] and psi9 at N = 128 and 512: 198 cases.

With BASE_REV, every command runs once with BASE_REV's src/ (from `git
archive`) and once with the working tree's, each in a fresh interpreter
whose working directory is the case's own directory, so paths in messages
agree; the cases run one after another, in a temporary directory that is
removed at the end.  Every file written, every exit code and every stderr
text is compared.  Each difference is printed with both exit codes and
stderr, and, for a file that parses as JSON on both sides, with how many of
its numbers differ and the largest absolute difference; the exit status is 1
if there was any difference, else 0.

With --write-manifest, the cases run in this interpreter through
oamtomo.cli.main with the working tree's src/, and MANIFEST records the
sha256 of every output file, each command's exit code and stderr text, and
the Python, numpy and BLAS versions they were made with.
tests/test_byte_matrix.py runs the cases the same way and compares them with
MANIFEST, so a change of any output shows in tier-1; a change made on
purpose rewrites MANIFEST in the same commit.  Uses the standard library
only, and numpy for its version.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tools", "byte_matrix_manifest.json")

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
MODE_STATES = ("psi4", "L", [1, -1, 1], "psi9")
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
    for name, config, flags in (("seed", {}, ["--seed", "-1"]),
                                ("fiber-waist", {"optics": {"fiber_waist": -1}}, []),
                                ("window", {"source": {"window": 0}}, []),
                                ("counts-bound", {"source": {"counts_per_setting": 1e19}}, []),
                                ("channel-inf", {"channel": "unitary inf"}, []),
                                ("kraus-shape", {"channel": {"kraus": [[[1, 0], [0, 1]]]}}, [])):
        yield f"err-{name}", config, [simulate + flags]
    config = {"channel": CHANNELS[1], "bootstrap_samples": 3000,
              "source": {"counts_per_setting": 100000, "background": 50.0, "seed": 1}}
    yield "boot-chunked", config, [simulate, ["reconstruct-process", "--config", "run.json",
                                              "--counts", "counts.txt", "--out", "report.json"]]
    for (k, state), n in itertools.product(enumerate(MODE_STATES), MODE_GRIDS):
        config = {"state": state, "optics": {"grid_size": n}}
        yield f"modes-i{k}-n{n}", config, [["modes", "--config", "run.json", "--out", "grids"]]


def run_case(src: str, case_dir: str, config: dict, commands) -> None:
    """Run one case's commands in case_dir with the package from src; log their
    exit codes and stderr to case_dir/log.txt."""
    os.makedirs(case_dir)
    with open(os.path.join(case_dir, "run.json"), "w") as fh:
        json.dump(config, fh)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    log = []
    for args in commands:
        done = subprocess.run([sys.executable, "-m", "oamtomo.cli", *args], cwd=case_dir,
                              env=env, capture_output=True, text=True)
        log.append(f"$ {' '.join(args)}\nexit {done.returncode}\n{done.stderr}")
    with open(os.path.join(case_dir, "log.txt"), "w") as fh:
        fh.write("".join(log))


def files_under(top: str) -> set:
    return {os.path.relpath(os.path.join(base, name), top)
            for base, _, names in os.walk(top) for name in names}


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _json_numbers(path: str):
    """{position: number} of every number in a JSON file, where position is the
    key/index path to it; None if the file is not JSON."""
    try:
        doc = json.loads(_read(path))
    except ValueError:  # not UTF-8 or not JSON
        return None
    found = {}

    def walk(value, at):
        if isinstance(value, dict):
            value = value.items()
        elif isinstance(value, list):
            value = enumerate(value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            found[at] = value
            return
        else:
            return
        for key, item in value:
            walk(item, at + (key,))

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
    """The Python, numpy and BLAS versions of this interpreter, and its machine."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas['name']} {blas['version']}", "machine": platform.machine()}


def run_in_process(work: str) -> dict:
    """Run every case under work through oamtomo.cli.main, in this interpreter,
    with the working tree's src/.  Returns {"versions": versions(), "outputs":
    {case/path: sha256 of each file written, case/$k command: its exit code
    and stderr text}}."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from oamtomo import cli

    outputs = {}
    cwd = os.getcwd()
    try:
        for name, config, commands in cases():
            case_dir = os.path.join(work, name)
            os.makedirs(case_dir)
            with open(os.path.join(case_dir, "run.json"), "w") as fh:
                json.dump(config, fh)
            os.chdir(case_dir)
            for k, args in enumerate(commands, start=1):
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    code = cli.main(args)
                err = stderr.getvalue()
                command = f"{name}/${k} {' '.join(args)}"
                outputs[command] = f"exit {code}: {err}" if err else f"exit {code}"
            for path in files_under(case_dir) - {"run.json"}:
                digest = hashlib.sha256(_read(os.path.join(case_dir, path))).hexdigest()
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
    """Run the matrix with base_rev's src/ and the working tree's under work,
    print the differences and return the exit status."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", base_rev, "src"],
                             capture_output=True, check=True).stdout
    # the "data" filter, where this Python has it, refuses links and absolute paths
    extract_filter = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(os.path.join(work, "base"), **extract_filter)
    trees = {"base": os.path.join(work, "base", "src"), "head": os.path.join(ROOT, "src")}
    all_cases = list(cases())
    for tree, src in trees.items():
        for name, config, commands in all_cases:
            run_case(src, os.path.join(work, tree, "out", name), config, commands)
    tops = {tree: os.path.join(work, tree, "out") for tree in trees}
    found = {tree: files_under(top) for tree, top in tops.items()}
    differing = sorted(
        p for p in found["base"] | found["head"]
        if not (p in found["base"] and p in found["head"]
                and filecmp.cmp(*(os.path.join(top, p) for top in tops.values()), shallow=False)))
    for path in differing:
        sizes = ", ".join(f"{tree} {os.path.getsize(os.path.join(top, path))} B"
                          if path in found[tree] else f"{tree} missing"
                          for tree, top in tops.items())
        print(f"DIFFERS {path}: {sizes}")
        if all(path in found[tree] for tree in tops):
            numbers = json_difference(*(os.path.join(top, path) for top in tops.values()))
            if numbers is not None:
                print(f"  json: {numbers}")
        for tree, top in tops.items():
            log = _read(os.path.join(top, path.split(os.sep)[0], "log.txt")).decode()
            print("\n".join(f"  {tree}| {line}" for line in log.splitlines()))
    print(f"{len(all_cases)} cases, {len(found['base'])} base files, "
          f"{len(found['head'])} head files, {len(differing)} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
