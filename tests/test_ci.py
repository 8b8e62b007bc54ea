import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_workflow_runs_the_tier1_command():
    # the CI workflow runs exactly ROADMAP.md's tier-1 command, and not the benchmark
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    runs = [step["run"] for job in workflow["jobs"].values() for step in job["steps"]
            if "run" in step]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert tier1.group(1) in runs
    assert not any("bench" in run for run in runs)


def test_workflow_pins_the_manifest_versions():
    # tools/byte_matrix_manifest.json's digests hold for the numpy and Python it
    # was made with; a manifest rewritten under others fails here, not as a
    # digest mismatch in CI
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    made_with = json.loads((ROOT / "tools" / "byte_matrix_manifest.json").read_text())["versions"]
    numpy = re.findall(r"numpy==(\S+)", " ".join(step.get("run", "") for step in steps))
    assert numpy == [made_with["numpy"]], (
        f"tier1.yml installs numpy {numpy}, the manifest was made with {made_with['numpy']}")
    python = [step["with"]["python-version"] for step in steps
              if step.get("uses", "").startswith("actions/setup-python")]
    minor = ".".join(made_with["python"].split(".")[:2])
    assert python == [minor], (
        f"tier1.yml sets up Python {python}, the manifest was made with {made_with['python']}")


def test_tier1_job_has_a_timeout():
    # a hung test stops the job instead of holding a runner for GitHub's 6 h default
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    for job in workflow["jobs"].values():
        assert 0 < job["timeout-minutes"] <= 30


def test_workflow_runs_the_traced_memory_tests_alone():
    # tracemalloc bounds count what a call allocates, numpy's first-use caches included;
    # run first in a pytest process of their own, a bound that holds only after another
    # test warmed a cache fails in CI instead of passing by the suite's order
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    runs = [step["run"] for job in workflow["jobs"].values() for step in job["steps"]
            if "run" in step]
    tests = ["tests/test_optics.py::TestEffectiveOperators::test_memory_stays_flat",
             "tests/test_cli.py::TestModes::test_export_memory"]
    memory = [run for run in runs if any(test in run for test in tests)]
    assert len(memory) == 1, runs
    assert "python -m pytest" in memory[0]
    assert re.findall(r'"(tests/[^"]+)"', memory[0]) == tests


def test_workflow_runs_the_byte_matrix_under_other_kernels():
    # a report's bytes must not depend on the OpenBLAS kernel: CI reruns the byte-matrix
    # test with the kernel forced to Haswell (AVX2) and to Prescott (SSE3)
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    runs = [step["run"] for job in workflow["jobs"].values() for step in job["steps"]
            if "run" in step]
    for kernel in ("Haswell", "Prescott"):
        forced = [run for run in runs if f"OPENBLAS_CORETYPE={kernel} " in run]
        assert len(forced) == 1, runs
        assert "python -m pytest" in forced[0]
        assert forced[0].split()[-1] == "tests/test_byte_matrix.py"
