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


def _parse(text, modules):
    """A source's syntax tree, every name it uses and every member name it
    reads.  A name is a bare name, a name imported with `from ... import`,
    or an attribute of a package module it imported (dp.x,
    zprainbow.cli.x), so a method's name is not a use.  A member name is
    any attribute read (x.name) or any string constant, as getattr reaches
    Band.down_terms through the string "down_terms"."""
    tree = ast.parse(text)
    bound = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names
             if alias.name.rpartition(".")[2] in modules}
    names, members = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
            if ast.unparse(node.value) in bound:
                names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            members.add(node.value)
    return tree, names, members


def _read(path):
    with open(path) as fh:
        return fh.read()


def _methods(tree):
    """The public methods and properties of a module's classes: each def
    in a class body, and each `name = property(...)` there."""
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef):
                yield item.name
            elif (isinstance(item, ast.Assign)
                  and isinstance(item.value, ast.Call)
                  and ast.unparse(item.value.func) == "property"):
                yield from (target.id for target in item.targets)


def test_every_public_src_name_is_used():
    # every public module-level name of src is named by src code, the
    # acceptance suite, perfbench or the README's library example; one
    # that only the other tests use belongs in their oracle modules, and
    # exporting it from zprainbow is not a use.  Likewise every public
    # method and property of a src class is read as an attribute, or
    # named in a string, by src code or those callers
    src = os.path.dirname(zprainbow.__file__)
    files = sorted(name for name in os.listdir(src) if name.endswith(".py"))
    modules = {name[:-3] for name in files}
    parsed = [_parse(_read(os.path.join(src, name)), modules)
              for name in files]
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    callers = [_parse(_read(path), modules) for path in [
        os.path.join(root, "tests", "test_acceptance.py")] + [
        os.path.join(root, "perfbench", name)
        for name in sorted(os.listdir(os.path.join(root, "perfbench")))
        if name.endswith(".py")]]
    [example] = re.findall(r"```python\n(.*?)```", _read(README), re.S)
    callers.append(_parse(example, modules))
    used = set().union(*(names for name, (_, names, _) in zip(files, parsed)
                         if name != "__init__.py"),
                       *(names for _, names, _ in callers))
    defined = {node.name for tree, _, _ in parsed for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    assert defined - used == set()
    read = set().union(*(members for _, _, members in parsed + callers))
    methods = {name for tree, _, _ in parsed for name in _methods(tree)
               if not name.startswith("_")}
    assert methods - read == set()
