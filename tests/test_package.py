import ast
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


# public src names that no src code uses, that zprainbow does not export
# and that the acceptance suite does not call: only the other tests use
# them.  The set may shrink; a new unused name fails the check.
UNUSED = {"system_matrices", "quadrature_matrix", "ratio_down", "ratio_up",
          "conjugate_leg", "up_leg"}


def _parse(path):
    """A module's syntax tree and every name it reads or imports."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return tree, names


def test_every_public_src_name_is_used():
    src = os.path.dirname(zprainbow.__file__)
    modules = [_parse(os.path.join(src, name))
               for name in sorted(os.listdir(src)) if name.endswith(".py")]
    _, acceptance = _parse(os.path.join(os.path.dirname(__file__),
                                        "test_acceptance.py"))
    used = set(zprainbow.__all__).union(acceptance,
                                        *(names for _, names in modules))
    defined = {node.name for tree, _ in modules for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    assert defined - used == UNUSED
