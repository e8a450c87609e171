"""pagecast needs numpy and nothing outside the standard library: an
accidental import of scipy, say, would pass wherever scipy happens to be
installed and break a numpy-only install."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys
before = set(sys.modules)
import pagecast
import pagecast.cli
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
"""


def test_imports_only_stdlib_and_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    allowed = set(sys.stdlib_module_names) | {"numpy", "pagecast"}
    assert out.split(), "the probe saw no imports"
    assert set(out.split()) - allowed == set()
