"""End-to-end and per-layer benchmark of the oamtomo command-line pipeline.

Usage (from the repository root):

    python3 bench/run.py --workload qpt-bootstrap --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: it runs the real CLI
commands of one experiment (simulate, then reconstruct-process or
reconstruct-state, then modes) one after another, each in a fresh
interpreter through bench/child.py, checks every output against an oracle,
and repeats while one more experiment fits in --seconds (at least
MIN_EXPERIMENTS times).  The package is imported from src/, as the tier-1 tests do.  The seed goes
into every generated config's source.seed; the program sees only the
generated configs.

--trace 0 reports the end-to-end metrics, measured with tracing off.  Every
time is CPU time scaled to a reference speed of the vCPU the run is pinned
to (see _spawn and scaled), because the vCPUs of a shared host change speed
on their own.
--trace 1 alternates untraced and traced runs of the same experiment and
reports the per-layer metrics, taken from spans recorded inside each
command (see bench/child.py).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it holds provenance, sample counts, exact work counts and check
failures, which also go to bench/_out/.

bench/README.md maps every layer metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# single-threaded BLAS, so timings do not depend on other load on the machine;
# set before numpy loads, so the reference loop below runs the same way
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

from child import LAYERS, SPAN_FIELDS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
CHILD = BENCH / "child.py"

# the README's calibrated storage channel
DEPOLARIZING_P = 0.1159305993690852
CHANNEL = f"depolarizing {DEPOLARIZING_P!r}"
# chi_00 / Tr chi of the depolarizing channel in the identity-plus-Gell-Mann
# basis (Tr I^2 = 3, Tr lambda^2 = 2): chi_00 = 1 - 8p/9, Tr chi = (3 - chi_00)/2
_CHI00 = 1.0 - 8.0 * DEPOLARIZING_P / 9.0
PROCESS_FIDELITY = 2.0 * _CHI00 / (3.0 - _CHI00)
# <psi| E(|psi><psi|) |psi> for any pure state
STATE_FIDELITY = 1.0 - 2.0 * DEPOLARIZING_P / 3.0
FIDELITY_TOLERANCE = 0.01
BOOTSTRAP_SAMPLES = 200
QST_STATES = [f"psi{k}" for k in range(1, 10)] + [[1, -1, 1]]
GRID_SIZE = {"qpt-bootstrap": 512, "qpt-optical": 256, "qst-modes": 512}

SETUP_REPEATS = 7
# the reconstructions of qpt-optical and qst-modes take 15-100 ms in main and
# vary by 15 % between processes, so each untraced one runs this many times
# and counts at its median (qpt-bootstrap's 1.9 s reconstruction runs once)
RECONSTRUCT_REPEATS = 3
MIN_EXPERIMENTS = 2
RUN_BUDGET_S = 170.0
# CPU seconds of each reference kernel at the speed every reported time is
# scaled to (one vCPU of a shared 2 vCPU Intel Xeon host, outside its spells
# of higher speed)
REFERENCE_S = {"interp": 0.0125, "einsum": 0.011, "grid": 0.0255}
# Kernel weights that make the reference speed up and slow down the way a
# command's own code does when the vCPU changes speed; measured at the seed
# commit, where the abstract process bootstrap spends about 2/3 of its time in
# small complex einsums and the optical chain is grid arithmetic and FFTs.
# Interpreter start and import always use "interp".
BLENDS = {
    "simulate": {"interp": 1.0},
    "simulate optical": {"grid": 1.0},
    "reconstruct-process": {"einsum": 0.65, "interp": 0.35},
    "reconstruct-state": {"interp": 1.0},
    "modes": {"interp": 1.0},
}
# how often the speed is sampled while a command runs
SPEED_SAMPLE_EVERY_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "reconstruct_s": "s",
    "experiment_s": "s",
    "peak_rss_mb": "MB",
}

# span layer -> metrics; "_s" is the layer's self time, "_calls" its span count
LAYER_METRICS = {
    "cli": ("cli.self_s",),
    "config.load": ("config.load_s",),
    "counts.sample": ("counts.sample_s", "counts.records"),
    "counts.subtract": ("counts.subtract_s", "counts.subtract_calls"),
    "tomography.inversion": ("tomography.inversion_s", "tomography.inversion_calls"),
    "tomography.normalize": ("tomography.normalize_s",),
    "tomography.projection": ("tomography.projection_s",),
    "tomography.settings": ("tomography.settings_s", "tomography.settings_calls"),
    "qudit.fidelity": ("qudit.fidelity_s", "qudit.fidelity_calls"),
    "qudit.channel": ("qudit.channel_s",),
    "optics.projection": (
        "optics.projection_s", "optics.projection_self_s", "optics.projection_calls"),
    "optics.field": ("optics.field_s", "optics.field_calls"),
    "optics.fft": ("optics.fft_s", "optics.fft_calls", "optics.fft_bytes"),
    "optics.overlap": ("optics.overlap_s",),
    "optics.mask": ("optics.mask_s",),
    "fileio.counts_write": ("fileio.counts_write_s",),
    "fileio.counts_read": ("fileio.counts_read_s",),
    "fileio.report_write": ("fileio.report_write_s",),
    "fileio.grid_write": ("fileio.grid_write_s",),
}
PER_LAYER_EXTRA = ("fileio.bytes_written", "modes_s", "trace_overhead_frac")
# units of the per-layer metrics that are neither times ("_s") nor counts
UNITS = {"optics.fft_bytes": "B", "fileio.bytes_written": "B", "trace_overhead_frac": "ratio"}
# counts that must repeat exactly between runs of the same code
EXACT_COUNTS = (
    "optics.projection_calls",
    "optics.fft_calls",
    "tomography.inversion_calls",
    "counts.records",
    "fileio.bytes_written",
)


_REF_RNG = np.random.default_rng(20131012)
_REF_MATRIX = _REF_RNG.standard_normal((81, 81))
_REF_VECTOR = _REF_RNG.standard_normal(81)
_REF_OPS = _REF_RNG.standard_normal((2, 9, 3, 3)) + 1j * _REF_RNG.standard_normal((2, 9, 3, 3))
_REF_GRID = _REF_RNG.standard_normal((512, 512))


def _interp_kernel() -> float:
    """Interpreter loop and 81x81 least squares: imports, parsing, counts, fileio."""
    total = 0.0
    for _ in range(8):
        total += np.linalg.lstsq(_REF_MATRIX, _REF_VECTOR, rcond=None)[0][0]
    for i in range(10000):
        total += i * 0.5
    return total


def _einsum_kernel() -> float:
    """Four-operand complex einsum on 3x3 operators, as in the QPT design build."""
    ops, lam = _REF_OPS
    return sum(np.einsum("iab,mbc,jcd,nad->jimn", ops, lam, ops, lam.conj())[0, 0, 0, 0].real
               for _ in range(2))


def _grid_kernel() -> float:
    """Complex elementwise math and an FFT on a 512x512 field, as in the optics chain."""
    field = np.exp(1j * _REF_GRID) * _REF_GRID
    return float((np.abs(np.fft.fft2(field)) ** 2).sum())


KERNELS = {"interp": _interp_kernel, "einsum": _einsum_kernel, "grid": _grid_kernel}


def reference_times() -> dict:
    """CPU seconds of each reference kernel: the current speed of this vCPU."""
    times = {}
    for name, kernel in KERNELS.items():
        t0 = time.thread_time()
        kernel()
        times[name] = time.thread_time() - t0
    return times


def metric_unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


class Run:
    """One benchmark run: spawns commands, records timings, counts failures."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.failures: list[str] = []
        self.missing: set[str] = set()
        self.counts_seen: dict = {}
        # (config bytes, counts path) of the run's first abstract simulate
        self.first_abstract: tuple | None = None
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        reference_times()

    def _spawn(self, argv: list, stderr_path: Path):
        """Run argv to completion.

        Returns (exit code, wall seconds, CPU seconds, speeds).  The command
        shares its vCPU with this process, which runs reference_times() before
        it, every SPEED_SAMPLE_EVERY_S while it runs, and after it.
        speeds[kernel] is REFERENCE_S[kernel] over the mean of that kernel's
        samples: see scaled().  The wall time includes the samples taken
        meanwhile.
        """
        deadline = self.started + RUN_BUDGET_S
        refs = [reference_times()]
        with open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=err, stderr=err)
            try:
                exited = os.pidfd_open(proc.pid)
                try:
                    while not select.select([exited], [], [], SPEED_SAMPLE_EVERY_S)[0]:
                        if time.perf_counter() > deadline:
                            proc.kill()
                        refs.append(reference_times())
                finally:
                    os.close(exited)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        refs.append(reference_times())
        speeds = {k: REFERENCE_S[k] / statistics.fmean(r[k] for r in refs) for k in KERNELS}
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, speeds

    def setup_time(self) -> tuple:
        """Time for a fresh interpreter to import oamtomo.cli (numpy included).

        Returns (CPU seconds at the reference speed, wall seconds as measured).
        """
        rc, wall, cpu, speeds = self._spawn([sys.executable, "-c", "import oamtomo.cli"],
                                            self.work / "setup.err")
        if rc != 0:
            raise SystemExit(f"bench: importing oamtomo.cli failed:\n"
                             f"{(self.work / 'setup.err').read_text()}")
        return cpu * speeds["interp"], wall

    def command(self, name: str, config: Path, out: Path, traced: bool = False,
                mode: str | None = None, counts: Path | None = None) -> dict | None:
        """Run one CLI command; returns its record, or None if it failed."""
        self.attempted += 1
        argv = [name, "--config", str(config), "--out", str(out)]
        if mode is not None:
            argv += ["--mode", mode]
        if counts is not None:
            argv += ["--counts", str(counts)]
        tag = f"{out.name}.{'traced' if traced else 'plain'}"
        result_path = out.parent / f"{tag}.result.json"
        stderr_path = out.parent / f"{tag}.err"
        child = [sys.executable, str(CHILD), str(result_path)] + (["--trace"] if traced else [])
        rc, wall, cpu, speeds = self._spawn(child + ["--"] + argv, stderr_path)
        if rc != 0 or not result_path.exists():
            self.failed += 1
            tail = stderr_path.read_text(errors="replace")[-600:]
            self.failures.append(f"{' '.join(argv)}: exit {rc}: {tail}")
            return None
        result = json.loads(result_path.read_text())
        self.missing.update(result["missing"])
        return {
            "command": name,
            "mode": mode,
            "wall_s": wall,
            "cpu_s": cpu,
            "run_s": result["run_s"],
            "run_cpu_s": result["run_cpu_s"],
            "speeds": speeds,
            "rss_kib": result["peak_rss_kib"],
            "spans": result["spans"],
            "out": out,
            "bytes": output_bytes(out),
        }

    def reconstruct(self, name: str, config: Path, report: Path, traced: bool,
                    mode: str | None = None, counts: Path | None = None) -> list | None:
        """Run a reconstruction RECONSTRUCT_REPEATS times (once if traced).

        Returns the records, or None if one failed.  Each repeat must write the
        same report as the first, which is records[0]["out"].
        """
        records = [self.command(name, config, report.with_name(f"{report.stem}{k}{report.suffix}"),
                                traced, mode=mode, counts=counts)
                   for k in range(1 if traced else RECONSTRUCT_REPEATS)]
        if None in records:
            return None
        for again in records[1:]:
            self.check(f"repeated {name} report is byte-identical",
                       again["out"].read_bytes() == records[0]["out"].read_bytes())
        return records

    def check(self, label: str, ok: bool, detail="") -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {label} failed {detail}".rstrip())

    @contextlib.contextmanager
    def checking(self, label: str):
        """Count an output that cannot be read or parsed as one failed check."""
        try:
            yield
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            self.check(f"{label} readable", False, repr(exc))

    def remember_first(self, config: Path, counts_path: Path) -> None:
        if self.first_abstract is None:
            kept = self.work / "first_counts.txt"
            shutil.copyfile(counts_path, kept)
            self.first_abstract = (config.read_bytes(), kept)

    def check_repeat(self, key: str, counts_path: Path) -> None:
        """Byte-compare a counts file with earlier output of the same config."""
        body = counts_path.read_bytes()
        if key in self.counts_seen:
            self.check(f"deterministic counts ({key})", self.counts_seen[key] == body)
        else:
            self.counts_seen[key] = body


def output_bytes(out: Path) -> int:
    if out.is_dir():
        return sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return out.stat().st_size if out.exists() else 0


def write_config(path: Path, seed: int, **fields) -> Path:
    doc = {
        "channel": CHANNEL,
        "source": {"counts_per_setting": 1e6, "background": 1e4, "seed": seed},
        **fields,
    }
    path.write_text(json.dumps(doc, sort_keys=True))
    return path


def counts_body(path: Path) -> bytes:
    return b"".join(ln for ln in path.read_bytes().splitlines(True) if not ln.startswith(b"#"))


def read_report(run: Run, path: Path, kind: str) -> dict | None:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        run.check(f"{path.name} is JSON", False, str(exc))
        return None
    needed = {"report", "config", "min_eigenvalue_post_projection",
              "process_fidelity_vs_ideal" if kind == "process" else "state_fidelity_vs_target",
              "chi" if kind == "process" else "rho"}
    ok = doc.get("report") == kind and needed <= set(doc)
    run.check(f"{path.name} well-formed", ok, f"keys {sorted(doc)}")
    return doc if ok else None


def pairs_to_matrix(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def check_physical(run: Run, label: str, doc: dict, matrix_key: str) -> None:
    run.check(f"{label} min eigenvalue after projection >= -1e-12",
              doc["min_eigenvalue_post_projection"] >= -1e-12,
              repr(doc["min_eigenvalue_post_projection"]))
    m = pairs_to_matrix(doc[matrix_key])
    herm = 0.5 * (m + m.conj().T)
    # entries carry 9 significant digits, so allow rounding-sized negatives
    run.check(f"{label} {matrix_key} is PSD",
              np.abs(m - herm).max() <= 1e-8 and np.linalg.eigvalsh(herm).min() >= -1e-7)


def check_fidelity(run: Run, label: str, value, expected: float | None) -> None:
    ok = isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0
    if ok and expected is not None:
        ok = abs(value - expected) <= FIDELITY_TOLERANCE
    run.check(f"{label} fidelity", ok, f"{value!r} vs {expected!r}")


def check_bootstrap(run: Run, label: str, doc: dict) -> None:
    boot = doc.get("bootstrap", {})
    std = boot.get("fidelity_std")
    run.check(f"{label} bootstrap", boot.get("samples") == BOOTSTRAP_SAMPLES
              and isinstance(std, float) and math.isfinite(std) and std > 0.0, repr(boot))


def read_grid(path: Path):
    with open(path) as fh:
        n, extent = fh.readline().split()
        values = np.array(fh.read().split(), dtype=float)
    return values.reshape(int(n), int(n)), float(extent)


def check_grids(run: Run, grids: Path) -> None:
    mask, extent = read_grid(grids / "mask_intensity.txt")
    image, _ = read_grid(grids / "image_intensity.txt")
    cell = (2.0 * extent / mask.shape[0]) ** 2
    power = mask.sum() * cell
    run.check("mask_intensity has unit power", abs(power - 1.0) <= 1e-6, repr(power))
    # two lens transforms invert coordinates: index k -> (-k) mod N on the centered grid
    flipped = np.roll(np.flip(mask, axis=(0, 1)), 1, axis=(0, 1))
    scale = np.abs(mask).max()
    run.check("image_intensity is the parity-flipped mask_intensity",
              np.allclose(image, flipped, rtol=2e-9, atol=1e-12 * scale),
              f"max diff {np.abs(image - flipped).max()!r}")


# ---------------------------------------------------------------- workloads
#
# An experiment function runs one experiment's commands in edir, checks the
# outputs, and returns the command records (None once a command failed).


def qpt_bootstrap(run: Run, edir: Path, index: int, traced: bool):
    """Abstract QPT with a 200-sample bootstrap: simulate -> reconstruct-process."""
    cfg = write_config(edir / "config.json", run.seed, measurement_mode="abstract",
                       bootstrap_samples=BOOTSTRAP_SAMPLES)
    sim = run.command("simulate", cfg, edir / "counts.txt", traced)
    if sim is None:
        return None
    run.remember_first(cfg, sim["out"])
    rec = run.command("reconstruct-process", cfg, edir / "report.json", traced,
                      counts=sim["out"])
    run.check_repeat("qpt-bootstrap abstract", sim["out"])
    if rec is None:
        return None
    with run.checking("process report"):
        doc = read_report(run, rec["out"], "process")
        if doc is not None:
            check_fidelity(run, "process", doc["process_fidelity_vs_ideal"], PROCESS_FIDELITY)
            check_physical(run, "process", doc, "chi")
            check_bootstrap(run, "process", doc)
    return [sim, rec]


def qpt_optical(run: Run, edir: Path, index: int, traced: bool):
    """QPT through the optics chain, ideal then phase-only, at N=256, no bootstrap."""
    cfg = write_config(edir / "config.json", run.seed, measurement_mode="optical-ideal",
                       bootstrap_samples=0, optics={"grid_size": GRID_SIZE[run.workload]})
    if run.first_abstract is None:
        # abstract counts for the same config and seed: optical-ideal must match them
        ref = run.command("simulate", cfg, edir / "abstract.counts.txt", mode="abstract")
        if ref is None:
            return None
        run.remember_first(cfg, ref["out"])
    records = []
    for mode in ("optical-ideal", "optical-phase-only"):
        sim = run.command("simulate", cfg, edir / f"{mode}.counts.txt", traced, mode=mode)
        if sim is None:
            return None
        recs = run.reconstruct("reconstruct-process", cfg, edir / f"{mode}.report.json", traced,
                               mode=mode, counts=sim["out"])
        run.check_repeat(f"qpt-optical {mode}", sim["out"])
        if recs is None:
            return None
        rec = recs[0]
        records += [sim] + recs
        if mode == "optical-ideal":
            run.check("optical-ideal counts equal abstract counts",
                      counts_body(sim["out"]) == counts_body(run.first_abstract[1]))
        with run.checking(f"{mode} report"):
            doc = read_report(run, rec["out"], "process")
            if doc is None:
                continue
            check_physical(run, mode, doc, "chi")
            # phase-only holograms change the numbers on purpose; only bound them
            expected = PROCESS_FIDELITY if mode == "optical-ideal" else None
            check_fidelity(run, mode, doc["process_fidelity_vs_ideal"], expected)
    return records


def qst_modes(run: Run, edir: Path, index: int, traced: bool):
    """Stored-state QST with bootstrap, then the N=512 mode-grid export."""
    state = QST_STATES[index % len(QST_STATES)]
    cfg = write_config(edir / "config.json", run.seed, measurement_mode="abstract",
                       bootstrap_samples=BOOTSTRAP_SAMPLES, state=state,
                       optics={"grid_size": GRID_SIZE[run.workload]})
    sim = run.command("simulate", cfg, edir / "counts.txt", traced)
    if sim is None:
        return None
    run.remember_first(cfg, sim["out"])
    recs = run.reconstruct("reconstruct-state", cfg, edir / "report.json", traced,
                           counts=sim["out"])
    if recs is None:
        return None
    rec = recs[0]
    modes = run.command("modes", cfg, edir / "grids", traced)
    run.check_repeat(f"qst-modes {state}", sim["out"])
    with run.checking("state report"):
        doc = read_report(run, rec["out"], "state")
        if doc is not None:
            check_fidelity(run, "state", doc["state_fidelity_vs_target"], STATE_FIDELITY)
            check_physical(run, "state", doc, "rho")
            check_bootstrap(run, "state", doc)
    if modes is None:
        return None
    with run.checking("grids"):
        check_grids(run, modes["out"])
    return [sim] + recs + [modes]


WORKLOADS = {
    "qpt-bootstrap": qpt_bootstrap,
    "qpt-optical": qpt_optical,
    "qst-modes": qst_modes,
}


# ------------------------------------------------------------------ metrics


def scaled(record) -> tuple:
    """(time in main, whole process) of a command in CPU seconds at the reference
    speed: the interpreter start and import scale with the "interp" kernel, the
    time in main with the command's blend of kernels."""
    optical = record["mode"] not in (None, "abstract") and record["command"] == "simulate"
    blend = BLENDS[f"{record['command']} optical" if optical else record["command"]]
    speeds = record["speeds"]
    run = record["run_cpu_s"] * sum(w * speeds[k] for k, w in blend.items())
    start = (record["cpu_s"] - record["run_cpu_s"]) * speeds["interp"]
    return run, start + run


def experiment_metrics(records, at_reference_speed: bool = True) -> dict:
    """Per-experiment times: CPU seconds at the reference speed, or wall seconds
    as measured.  A command repeated in one experiment counts once, at its
    median."""
    repeats = defaultdict(list)
    for r in records:
        times = scaled(r) if at_reference_speed else (r["run_s"], r["wall_s"])
        repeats[r["command"], r["mode"]].append(times)
    commands = [(command, statistics.median(t[0] for t in ts), statistics.median(t[1] for t in ts))
                for (command, _), ts in repeats.items()]
    return {
        "simulate_s": sum(run for command, run, _ in commands if command == "simulate"),
        "reconstruct_s": sum(run for command, run, _ in commands
                             if command.startswith("reconstruct")),
        "modes_s": sum(run for command, run, _ in commands if command == "modes"),
        "experiment_s": sum(whole for _, _, whole in commands),
    }


def layer_totals(records) -> dict:
    """Per-layer self times, call counts and work sizes of one traced experiment."""
    totals = defaultdict(float, dict.fromkeys(
        [name for names in LAYER_METRICS.values() for name in names], 0.0))
    for r in records:
        covered = defaultdict(float)
        for _, parent, _, _, start, end, _ in r["spans"]:
            if parent is not None:
                covered[parent] += end - start
        for span_id, _, layer, _, start, end, size in r["spans"]:
            duration = end - start
            self_time = duration - covered[span_id]
            if layer == "cli":
                totals["cli.self_s"] += self_time
            elif layer == "optics.projection":
                totals["optics.projection_s"] += duration
                totals["optics.projection_self_s"] += self_time
            else:
                totals[f"{layer}_s"] += self_time
            totals[f"{layer}_calls"] += 1
            if layer == "counts.sample" and size is not None:
                totals["counts.records"] += size
            if layer == "optics.fft" and size is not None:
                # computed: one complex128 grid read and one written per transform
                totals["optics.fft_bytes"] += 2 * size * size * 16
        totals["fileio.bytes_written"] += r["bytes"]
    return totals


def command_counts(record) -> dict:
    totals = layer_totals([record])
    return {name: int(totals[name]) for name in EXACT_COUNTS}


def median(values):
    return statistics.median(values) if values else None


def code_digest() -> str:
    """Digest of the package sources and of the benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [CHILD, Path(__file__).resolve()]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(env: dict) -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "l2_per_core": None,
        "field_bytes": {w: n * n * 16 for w, n in GRID_SIZE.items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "git_commit": None,
        "code_sha256": code_digest(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(caches.glob("index*")):
            if (index / "level").read_text().strip() == "2":
                info["l2_per_core"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            info["git_commit"] = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return info


class ExactCountStore:
    """Exact work counts per command, compared across runs of the same code.

    Kept in bench/_out/exact_counts.json, keyed by code_digest(), so only
    runs of identical code are compared.
    """

    def __init__(self, digest: str):
        self.path = OUT / "exact_counts.json"
        self.digest = digest
        try:
            doc = json.loads(self.path.read_text())
        except (OSError, ValueError):
            doc = {}
        entries = doc.get(digest) if isinstance(doc, dict) else None
        self.entries = entries if isinstance(entries, dict) else {}

    def observe(self, run: Run, key: str, counts: dict) -> None:
        if key in self.entries:
            run.check(f"exact counts repeat ({key})", self.entries[key] == counts,
                      f"{counts} vs {self.entries[key]}")
        else:
            self.entries[key] = counts

    def save(self) -> None:
        self.path.write_text(json.dumps({self.digest: self.entries}, sort_keys=True, indent=1))


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "oamtomo" / "cli.py").is_file():
        print(f"bench: no oamtomo sources under {SRC}", file=sys.stderr)
        return 2

    # The vCPUs of a shared host change speed independently of each other, so
    # the commands and the reference loop that measures the speed all run on
    # one of them; the commands inherit this affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # on SIGTERM, unwind so the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    run = Run(args.workload, args.seed, work)
    experiment = WORKLOADS[args.workload]
    traced_mode = args.trace == 1

    # a first import compiles bytecode; users pay that once, so it is untimed
    run.setup_time()
    setup = [] if traced_mode else [run.setup_time() for _ in range(SETUP_REPEATS)]
    wall = {"setup_s": [measured for _, measured in setup]}

    store = ExactCountStore(code_digest())
    plain, traced = [], []
    min_index = 1 if traced_mode else MIN_EXPERIMENTS
    loop_start = time.perf_counter()
    index = 0
    while True:
        step_start = time.perf_counter()
        for with_trace in ((False, True) if traced_mode else (False,)):
            edir = work / f"e{index}{'t' if with_trace else ''}"
            edir.mkdir()
            records = experiment(run, edir, index, with_trace)
            if records is not None:
                (traced if with_trace else plain).append(records)
                if with_trace:
                    config_id = hashlib.sha256(
                        (edir / "config.json").read_bytes()).hexdigest()[:16]
                    for r in records:
                        key = f"{args.workload} {r['command']} {r['mode'] or 'config'}"
                        counts = command_counts(r)
                        written = counts.pop("fileio.bytes_written")
                        store.observe(run, key, counts)
                        store.observe(run, f"{key} {config_id}",
                                      {"fileio.bytes_written": written})
            shutil.rmtree(edir, ignore_errors=True)
        index += 1
        elapsed = time.perf_counter() - loop_start
        # stop when one more step like the last would end after --seconds
        step = time.perf_counter() - step_start
        if (elapsed + step > args.seconds and index >= min_index) or elapsed >= RUN_BUDGET_S / 2:
            break

    # determinism probe: repeat the run's first abstract simulate
    if run.first_abstract is not None:
        config_bytes, first_counts = run.first_abstract
        cfg = work / "probe.json"
        cfg.write_bytes(config_bytes)
        probe = run.command("simulate", cfg, work / "probe_counts.txt", mode="abstract")
        if probe is not None:
            run.check("determinism probe: repeated simulate is byte-identical",
                      counts_body(probe["out"]) == counts_body(first_counts))
    store.save()

    units = per_layer_units() if traced_mode else END_TO_END
    if traced_mode:
        totals = [layer_totals(records) for records in traced]
        samples = {name: [t[name] for t in totals] for name in units
                   if name not in ("modes_s", "trace_overhead_frac")}
        samples["modes_s"] = [experiment_metrics(r)["modes_s"] for r in plain]
        plain_exp = median([experiment_metrics(r)["experiment_s"] for r in plain])
        traced_exp = median([experiment_metrics(r)["experiment_s"] for r in traced])
        samples["trace_overhead_frac"] = (
            [traced_exp / plain_exp - 1.0] if plain_exp and traced_exp else [])
        for name in absent_metrics(run.missing):
            samples.pop(name, None)
    else:
        samples = {"setup_s": [at_reference for at_reference, _ in setup]}
        for name in ("simulate_s", "reconstruct_s", "experiment_s"):
            samples[name] = [experiment_metrics(r)[name] for r in plain]
            wall[name] = [experiment_metrics(r, at_reference_speed=False)[name] for r in plain]
        samples["peak_rss_mb"] = [max(r["rss_kib"] for records in plain for r in records)
                                  / 1024.0] if plain else []

    metrics = {}
    for name, values in samples.items():
        if values:
            value = median(values)
            if units[name] in ("count", "B") and float(value).is_integer():
                value = int(value)
            metrics[name] = {"value": value, "unit": units[name]}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "experiments": len(traced if traced_mode else plain),
        "samples": samples,
        "wall_samples": wall,
        "speeds": [r["speeds"] for records in plain + traced for r in records],
        "checks": run.checks,
        "failures": run.failures,
        "missing_functions": sorted(run.missing),
        "exact_counts": {
            f"{r['command']} {r['mode'] or 'config'}": command_counts(r)
            for r in (traced[0] if traced else [])
        },
        "computed_metrics": ["optics.fft_bytes"],
        "provenance": provenance(run.env),
    }
    for name in sorted(run.missing):
        print(f"bench: warning: {name} not found; its spans are absent", file=sys.stderr)
    for failure in run.failures:
        print(f"bench: {failure}", file=sys.stderr)
    out_doc = dict(details)
    if traced_mode:
        out_doc["spans"] = [
            {"experiment": i, "command": r["command"], "mode": r["mode"],
             "fields": SPAN_FIELDS,
             "spans": r["spans"]}
            for i, records in enumerate(traced) for r in records
        ]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(out_doc))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def per_layer_units() -> dict:
    names = [n for layer in LAYER_METRICS.values() for n in layer] + list(PER_LAYER_EXTRA)
    return {name: metric_unit(name) for name in names}


def absent_metrics(missing: set) -> list:
    """Metrics whose layer lost every listed function."""
    absent = []
    for layer, (module, names) in LAYERS.items():
        if all(f"oamtomo.{module}.{n}" in missing for n in names):
            absent += LAYER_METRICS[layer]
    return absent


if __name__ == "__main__":
    sys.exit(main())
