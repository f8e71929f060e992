"""Smoke tests: the example scripts run end to end."""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

# scan_pipeline / block_reduce / matrix_transpose cover larger workloads and are
# exercised by the benchmark harness tests; here we run the cheaper ones plus
# one representative heavier script.
EXAMPLES = [
    "quickstart.py",
    "safety_errors.py",
    "heterogeneous_host.py",
    "histogram_bins.py",
    "stencil_halo.py",
]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, capsys):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"


def test_examples_directory_has_at_least_three_runnable_examples():
    scripts = list(EXAMPLES_DIR.glob("*.py"))
    assert len(scripts) >= 3
