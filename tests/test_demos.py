import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.S | re.M)


def run_python(args, cwd) -> str:
    # from a scratch directory, with the package found on PYTHONPATH alone
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    return proc.stdout


def test_there_are_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    run_python([str(demo)], tmp_path)


@pytest.mark.parametrize("block", README_BLOCKS, ids=["block%d" % i for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    # each block stands alone: it imports and loads all that it uses, and
    # the comment of each `print(...)` line is the line that it prints
    printed = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert run_python(["-c", block], tmp_path).splitlines() == printed
