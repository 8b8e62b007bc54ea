import importlib.util
import json
import pathlib

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
