"""README.md's Python API section stays true: its example runs, and its
re-export list names exactly the package namespace."""

import re
import subprocess
import sys
from pathlib import Path

import despeckle

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
_API = _README.split("## Python API", 1)[1].split("\n## ", 1)[0]


def test_python_api_example_runs():
    block = re.search(r"```python\n(.*?)```", _API, re.DOTALL).group(1)
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_reexport_list_matches_package_all():
    bullets = _API.split("re-exports exactly this set", 1)[1].split("\n\n", 2)[1]
    named = set(re.findall(r"`(\w+)`", bullets))
    assert named - {"__version__"} == set(despeckle.__all__) - {"__version__"}
