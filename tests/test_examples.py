"""Every script in ``examples/`` runs to completion.

Each runs as a fresh subprocess with a temporary working directory,
because some of them write files next to themselves.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")
EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)
#: Extra command-line arguments, to keep the slow examples small.
ARGS = {"pattern_survey.py": ["0.125"]}


def test_examples_are_discovered():
    assert "extensions_tour.py" in EXAMPLES
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)]
        + ARGS.get(name, []),
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
