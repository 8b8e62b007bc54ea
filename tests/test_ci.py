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
