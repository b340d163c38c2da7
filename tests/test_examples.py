"""Every example script must run cleanly end to end."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: faster examples run in CI; the heavier ones are marked slow-ish but
#: still bounded (tens of seconds).
ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_complete():
    assert set(ALL_EXAMPLES) >= {
        "quickstart.py",
        "dlrm_inference.py",
        "medical_analytics.py",
        "threat_demo.py",
        "architecture_study.py",
    }


@pytest.mark.parametrize("script", ALL_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
    )
    assert "OK" in result.stdout
