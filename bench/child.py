"""Run one oamtomo CLI command in a fresh interpreter and report its timings.

Usage: python3 bench/child.py RESULT.json [--trace] -- <oamtomo CLI arguments>

The command runs exactly as `oamtomo <arguments>` would, through
`oamtomo.cli.main`.  RESULT.json receives the import time, the time spent
in `main` after import, the exit code and, with --trace, every span recorded
around the public functions listed in LAYERS.  The process exits with the
command's own exit code.

Tracing replaces, in every loaded `oamtomo` module, each attribute bound to
a listed function object by a wrapper that records a span: its id, the id
of the enclosing span, the layer, the function name, start and end times
and, for some functions, a work size.  `cli` imports several functions by
name, so its copies are replaced too.  Spans stay in memory until the
command ends.  A listed function that no longer exists is reported as
missing; it never stops the command.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

# layer -> (module under oamtomo, public functions whose spans form the layer)
LAYERS = {
    "config.load": ("config", ("load_config",)),
    "counts.sample": ("counts", ("simulate_counts", "exact_counts")),
    "counts.subtract": ("counts", ("subtract_background",)),
    "tomography.inversion": ("tomography", ("qpt_linear_inversion", "qst_linear_inversion")),
    "tomography.normalize": (
        "tomography", ("probabilities_from_counts", "state_probabilities_from_counts")),
    "tomography.projection": (
        "tomography", ("project_to_physical_process", "project_to_physical_state")),
    "tomography.settings": ("tomography", ("canonical_settings", "predict_probabilities")),
    "qudit.fidelity": ("qudit", ("process_fidelity", "state_fidelity")),
    "qudit.channel": ("qudit", ("apply_channel_kraus",)),
    "optics.projection": ("optics", ("optical_projection_probability",)),
    "optics.field": ("optics", ("superposition_field", "oam_mode_field", "gaussian_field")),
    "optics.fft": ("optics", ("lens_fourier",)),
    "optics.overlap": ("optics", ("fiber_overlap",)),
    "optics.mask": ("optics", ("phase_mask_of", "apply_phase_mask")),
    "fileio.counts_write": ("fileio", ("write_counts",)),
    "fileio.counts_read": ("fileio", ("read_counts",)),
    "fileio.report_write": ("fileio", ("write_report",)),
    "fileio.grid_write": ("fileio", ("write_grid",)),
}


def _grid_size(args, kwargs, result):
    return args[0].grid_size


def _record_count(args, kwargs, result):
    return len(result)


# function name -> work size recorded on its span: grid side N for a
# transform, number of records for a count table
SIZES = {
    "lens_fourier": _grid_size,
    "simulate_counts": _record_count,
    "exact_counts": _record_count,
}

SPAN_FIELDS = ("id", "parent", "layer", "function", "start", "end", "size")


class Tracer:
    """In-memory span recorder for one single-threaded command."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0

    def wrap(self, layer: str, func):
        size_of = SIZES.get(func.__name__)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            size = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = [span_id, parent, layer, func.__name__, start, end, size]
                self.spans.append(span)
            if size_of is not None:
                try:
                    span[6] = size_of(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return traced

    def install(self) -> list:
        """Wrap every listed function in every loaded oamtomo module.

        Returns the dotted names of listed functions that were not found.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "oamtomo" or name.startswith("oamtomo."))]
        missing = []
        for layer, (module_name, names) in LAYERS.items():
            home = sys.modules.get(f"oamtomo.{module_name}")
            for name in names:
                func = getattr(home, name, None)
                if not callable(func):
                    missing.append(f"oamtomo.{module_name}.{name}")
                    continue
                wrapper = self.wrap(layer, func)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            setattr(module, attr, wrapper)
        return missing


def peak_rss_kib() -> int:
    """High-water resident set of this process since it started the interpreter.

    VmHWM counts only the memory of the current program image.  ru_maxrss,
    the fallback, can also hold the launching process's size from before exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    t0 = time.perf_counter()
    result_path, rest = argv[0], argv[1:]
    trace = bool(rest) and rest[0] == "--trace"
    if trace:
        rest = rest[1:]
    if rest[:1] == ["--"]:
        rest = rest[1:]

    import oamtomo.cli

    t1 = time.perf_counter()
    tracer = Tracer() if trace else None
    missing = tracer.install() if trace else []
    cli_main = tracer.wrap("cli", oamtomo.cli.main) if trace else oamtomo.cli.main
    t2 = time.perf_counter()
    c2 = time.process_time()
    rc = 1
    try:
        rc = cli_main(rest)
    finally:
        t3 = time.perf_counter()
        c3 = time.process_time()
        doc = {
            "import_s": t1 - t0,
            "run_s": t3 - t2,
            "run_cpu_s": c3 - c2,
            "peak_rss_kib": peak_rss_kib(),
            "exit": rc,
            "missing": missing,
            "span_fields": SPAN_FIELDS,
            "spans": tracer.spans if trace else [],
        }
        with open(result_path, "w") as fh:
            json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
