"""README.md stays true: its Python API example runs and its re-export list
names exactly the package namespace; its command-line examples run and it
names every long option the CLI accepts, and each command under which it
gives a "# prints" line prints that line; every test it names exists."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import despeckle
from despeckle.cli import build_parser
from despeckle.image import write_pgm

from conftest import make_phantom

_TESTS = Path(__file__).resolve().parent
_README = (_TESTS.parent / "README.md").read_text()
_API = _README.split("## Python API", 1)[1].split("\n## ", 1)[0]


def test_python_api_example_runs():
    block = re.search(r"```python\n(.*?)```", _API, re.DOTALL).group(1)
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_reexport_list_matches_package_all():
    bullets = _API.split("re-exports exactly this set", 1)[1].split("\n\n", 2)[1]
    named = set(re.findall(r"`(\w+)`", bullets))
    assert named - {"__version__"} == set(despeckle.__all__) - {"__version__"}


_CLI = _README.split("## Command line", 1)[1].split("\n## ", 1)[0]


def _subparsers():
    """Subcommand name -> its argparse parser."""
    return next(a for a in build_parser()._actions if a.dest == "command").choices


def _long_options():
    """Long options of every subcommand's parser, except ``--help``."""
    return {
        option
        for subparser in _subparsers().values()
        for action in subparser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def test_cli_flags_match_readme():
    options = _long_options()
    undocumented = {o for o in options if not re.search(rf"(?<![\w-]){o}(?![\w-])", _CLI)}
    assert not undocumented, f"flags missing from README: {sorted(undocumented)}"
    common = _CLI.split("Common flags:", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"--[\w-]+", common)) <= options


def test_cli_example_runs(tmp_path):
    (tmp_path / "clean.pgm").write_bytes(write_pgm(make_phantom(64), 255))
    block = re.search(r"```sh\n(.*?)```", _CLI, re.DOTALL).group(1)
    commands = []  # [argv, the stdout that a "# prints" line under it gives, or None]
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("despeckle "):
            commands.append([shlex.split(line), None])
        elif line.startswith("# prints "):
            commands[-1][1] = line.removeprefix("# prints ") + "\n"
    assert {argv[1] for argv, _ in commands} == set(_subparsers())
    for argv, printed in commands:
        proc = subprocess.run(
            [sys.executable, "-m", *argv], cwd=tmp_path, capture_output=True, text=True
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        assert printed in (None, proc.stdout), (argv, proc.stdout)


def test_named_tests_exist():
    defined = {
        name
        for path in _TESTS.glob("test_*.py")
        for name in re.findall(r"^def (test_\w+)\(", path.read_text(), re.M)
    }
    named = set(re.findall(r"`(test_\w+)", _README))
    assert named and not named - defined, f"README names missing tests: {sorted(named - defined)}"
