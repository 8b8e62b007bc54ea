import importlib.util
import json
import pathlib
import warnings

from oamtomo import cli

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "byte_matrix.py"
_SPEC = importlib.util.spec_from_file_location("byte_matrix", _PATH)
byte_matrix = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(byte_matrix)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_json_difference_counts_numbers_by_position(tmp_path):
    base = _write(tmp_path / "a.json", json.dumps(
        {"chi": [[1.0, 0.0], [0.25, -2e-17]], "ok": True, "name": "a", "only_base": 3}))
    head = _write(tmp_path / "b.json", json.dumps(
        {"chi": [[1.0, 0.0], [0.25000001, 1e-17]], "ok": False, "name": "b", "only_head": 3}))
    # two changed numbers and one on each side only; booleans and strings are not numbers
    assert byte_matrix.json_difference(base, head) == (
        "4 of 6 numbers differ, largest absolute difference 1e-08")
    assert byte_matrix.json_difference(base, base) == (
        "0 of 5 numbers differ, largest absolute difference 0")


def test_json_difference_skips_other_files(tmp_path):
    report = _write(tmp_path / "a.json", "{}")
    counts = _write(tmp_path / "counts.txt", "# oamtomo counts\n1 1 5 0\n")
    assert byte_matrix.json_difference(report, counts) is None
    assert byte_matrix.json_difference(counts, report) is None


def test_outputs_match_the_manifest(tmp_path):
    # every output file, exit code and stderr text of the matrix, run in this
    # interpreter, against tools/byte_matrix_manifest.json; a digest can also
    # differ under another numpy, BLAS build or CPU than the manifest's
    with open(byte_matrix.MANIFEST) as fh:
        manifest = json.load(fh)
    run = byte_matrix.run_in_process(str(tmp_path))
    expected, found = manifest["outputs"], run["outputs"]
    differing = sorted(k for k in expected.keys() | found.keys() if expected.get(k) != found.get(k))
    assert not differing, (
        f"{len(differing)} of {len(expected)} outputs differ from the manifest "
        f"(made with {manifest['versions']}, run with {run['versions']}): {differing}")


def _run(tmp_path, monkeypatch, commands):
    monkeypatch.setattr(byte_matrix, "cases", lambda: [("case", {}, commands)])
    outputs = byte_matrix.run_in_process(str(tmp_path))["outputs"]
    return outputs, (tmp_path / "case" / "log.txt").read_text()


def test_runner_records_exits_and_tracebacks_and_goes_on(tmp_path, monkeypatch):
    # as `python -m oamtomo.cli` would: argparse's exit 2 with its usage, an
    # uncaught exception's exit 1 with its traceback; the next command still runs
    real_main = cli.main

    def main(args):
        if args == ["crash"]:
            raise RuntimeError("stored state lost")
        return real_main(args)

    monkeypatch.setattr(cli, "main", main)
    simulate = ["simulate", "--config", "run.json", "--out", "counts.txt"]
    outputs, log = _run(tmp_path, monkeypatch, [["simulate"], ["crash"], simulate])
    usage = outputs["case/$1 simulate"]
    assert usage.startswith("exit 2: usage: oamtomo simulate [-h] --config CONFIG")
    assert usage.endswith("oamtomo simulate: error: the following arguments are required: "
                          "--config\n")
    crash = outputs["case/$2 crash"]
    assert crash.startswith("exit 1: Traceback (most recent call last):\n")
    assert crash.endswith("RuntimeError: stored state lost\n")
    command = " ".join(simulate)
    assert outputs[f"case/$3 {command}"] == "exit 0"
    assert "case/counts.txt" in outputs
    # log.txt: each command, its exit code and its stderr, as the manifest gives them
    assert log == ("$ simulate\n" + usage.replace(": ", "\n", 1) + "$ crash\n"
                   + crash.replace(": ", "\n", 1) + f"$ {command}\nexit 0\n")


def test_runner_shows_a_warning_in_every_command(tmp_path, monkeypatch):
    # a fresh interpreter per command shows a warning from one line every time
    def main(args):
        warnings.warn("storage drifts", UserWarning)
        return 0

    monkeypatch.setattr(cli, "main", main)
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # once per location, as a fresh interpreter has it
        outputs, log = _run(tmp_path, monkeypatch, [["first"], ["second"]])
    shown = outputs["case/$1 first"]
    assert shown.startswith("exit 0: ") and "UserWarning: storage drifts\n" in shown
    assert outputs["case/$2 second"] == shown
    assert log.count("UserWarning: storage drifts") == 2


def test_diff_trees_reports_each_differing_file(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    for top in (base, head):
        (top / "case").mkdir(parents=True)
        _write(top / "case" / "log.txt", "$ reconstruct-state\nexit 0\n")
        _write(top / "case" / "counts.txt", "1 1 5 0\n")
    _write(base / "case" / "report.json", json.dumps({"fidelity": 0.853, "inputs": 9}))
    _write(head / "case" / "report.json", json.dumps({"fidelity": 0.854, "inputs": 9}))
    _write(head / "case" / "extra.txt", "only here\n")
    assert byte_matrix.diff_trees(str(base), str(head)) == 1
    logs = ["  base| $ reconstruct-state", "  base| exit 0",
            "  head| $ reconstruct-state", "  head| exit 0"]
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS case/extra.txt: base missing, head 10 B", *logs,
        "DIFFERS case/report.json: base 32 B, head 32 B",
        "  json: 1 of 2 numbers differ, largest absolute difference 0.001", *logs,
        "1 cases, 3 base files, 4 head files, 2 differing"]
    assert byte_matrix.diff_trees(str(base), str(base)) == 0
    assert capsys.readouterr().out == "1 cases, 3 base files, 3 head files, 0 differing\n"
