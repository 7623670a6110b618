import os
import re
import subprocess
import sys

import zprainbow
from zprainbow.cli import _COMMANDS

# runs in a fresh interpreter, so nothing the test session imported counts
SURFACE = """
import sys
import zprainbow, zprainbow.cli
exec("from zprainbow import *", {})
print(sorted(name for name in ("scipy", "hypothesis") if name in sys.modules))
"""


def test_package_needs_only_numpy():
    src = os.path.dirname(os.path.dirname(zprainbow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", SURFACE], env=env,
                         capture_output=True, text=True, timeout=120)
    # a name in __all__ that does not resolve fails the star import
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_library_example_runs():
    # the README's one python block must run as written, imports included
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_command_table_lists_each_commands_flags():
    # one row per command, naming exactly the flags it accepts beyond
    # --output and --format, which every command takes
    with open(README) as fh:
        rows = dict(re.findall(r"^\| `(\w+)` +\| (.+?) \|$", fh.read(),
                               re.M))
    assert rows.keys() == _COMMANDS.keys()
    for command, (_, flags, _) in _COMMANDS.items():
        want = sorted(set(flags) - {"--output", "--format"})
        cell = rows[command]
        assert sorted(re.findall(r"--[\w-]+", cell)) == want, command
        assert (cell == "none") == (not want), command
