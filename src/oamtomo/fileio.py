"""File formats: line-oriented counts files, JSON reports, plain-text grids.

All floating-point output is fixed to 9 significant digits so identical inputs
produce byte-identical files, whatever the BLAS kernel: a report's computed numbers
also to 1e-12.  Grid text is an 'N 1' header and np.savetxt's '%.9g', made by numpy
(oamtomo.gridtext) and written a block of rows at a time.
"""

from __future__ import annotations

import json

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max


class CountsFileError(ValueError):
    """A counts file could not be parsed, or does not hold one complete scheme."""


def round_sig(x) -> float:
    return float(f"{float(x):.9g}")


def complex_pairs(array) -> list:
    """Nested lists of [re, im] float pairs, one per entry of a complex array."""
    a = np.asarray(array)
    return np.stack([a.real, a.imag], -1).tolist()


def _resolved(x) -> float:
    """x to 9 significant digits and, below 1e-4, to 12 decimals, -0.0 read as 0.0: the
    digits under 1e-12 are round-off that another BLAS kernel moves, and even at 1e18
    counts per setting a probability's shot noise is about 1e-9."""
    x = float(x)
    return round_sig(round(x, 12) + 0.0 if abs(x) < 1e-4 else x)


def _rounded(doc, rule):
    if isinstance(doc, dict):
        return {k: _rounded(v, rule) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_rounded(v, rule) for v in doc]
    if isinstance(doc, bool) or doc is None or isinstance(doc, (int, str)):
        return doc
    return rule(doc)


def write_counts(path, counts, echo: dict) -> None:
    """One line per setting (input, projector, raw, background; indices 1-based)
    of an (n_in, 9, 2) counts array, after a comment header echoing the
    effective configuration, source.seed included."""
    lines = [
        "# oamtomo counts",
        "# config: " + json.dumps(echo, sort_keys=True, separators=(",", ":")),
    ]
    for (j, i), (raw, bg) in zip(np.ndindex(counts.shape[:2]), counts.reshape(-1, 2)):
        lines.append(f"{j + 1} {i + 1} {raw} {bg}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_counts(path) -> np.ndarray:
    """Parse a counts file into an int64 array of shape (n_in, 9, 2).

    The one reader of counts from outside the program, owning all its faults: it
    accepts what write_counts writes, in any line order, and raises
    CountsFileError naming the line or setting for anything else, or the path
    if the file cannot be read.  Input indices run over 1..n_in with n_in 1
    (state mode) or 9 (process mode), each with projectors 1..9 exactly once,
    and every count is a nonnegative integer that fits int64.  The file is
    read as UTF-8 a line at a time; header lines are skipped.
    """
    found = {}
    try:  # a byte that is not UTF-8 reads as U+FFFD, which the digit check refuses
        try:
            fh = open(path, encoding="utf-8", errors="replace")
        except ValueError as exc:  # a NUL byte or a lone surrogate: a path no file can have
            raise CountsFileError(f"{path!r}: {exc}") from exc
        with fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 4 or not all(p.isascii() and p.isdigit() for p in parts):
                    raise CountsFileError(
                        f"{path}:{ln}: expected 4 nonnegative integers, got {line!r}")
                try:
                    j, i, raw, bg = (int(p) for p in parts)
                except ValueError:  # beyond int()'s digit limit
                    raise CountsFileError(f"{path}:{ln}: a number is too long to read")
                if not (1 <= j <= 9 and 1 <= i <= 9):
                    raise CountsFileError(f"{path}:{ln}: setting ({j}, {i}) is out of range")
                if max(raw, bg) > _INT64_MAX:
                    raise CountsFileError(f"{path}:{ln}: count exceeds the int64 range")
                if (j, i) in found:
                    raise CountsFileError(
                        f"{path}:{ln}: duplicate record for setting ({j}, {i})")
                found[j, i] = raw, bg
    except OSError as exc:
        raise CountsFileError(f"{path}: {exc.strerror or exc}") from exc
    if not found:
        raise CountsFileError(f"{path}: no count records found")
    n_in = 1 if max(j for j, _ in found) == 1 else 9
    counts = np.empty((n_in, 9, 2), dtype=np.int64)
    for j, i in np.ndindex(n_in, 9):
        if (j + 1, i + 1) not in found:
            raise CountsFileError(f"{path}: missing record for setting ({j + 1}, {i + 1})")
        counts[j, i] = found[j + 1, i + 1]
    return counts


def write_report(path, doc: dict) -> None:
    """Sorted JSON: the config echo to 9 significant digits, computed numbers _resolved."""
    doc = {k: _rounded(v, round_sig if k == "config" else _resolved) for k, v in doc.items()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def write_grid(path, samples, value, order=None) -> None:
    """np.savetxt's '%.9g' text of a grid's values under an 'N 1' header line (the
    side and the half-width, the unit of lengths), made and written a block of rows
    at a time; value and order are those of gridtext.grid_text."""
    from .gridtext import grid_text  # only modes writes grids: other commands skip its import

    samples = np.asarray(samples)
    with open(path, "wb") as fh:
        fh.write(f"{len(samples)} 1\n".encode())
        for text in grid_text(samples, value, order):
            fh.write(text)
