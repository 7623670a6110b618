import os
import subprocess
import sys

import zprainbow

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
