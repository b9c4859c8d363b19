"""The README's library tour runs as written, on the package's public names."""

import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import rainbowsets

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rainbowsets import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rainbowsets.__all__)
    public = {name for name, value in vars(rainbowsets).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(rainbowsets.__all__)


def test_readme_python_blocks_run():
    # in a fresh interpreter with a time limit, so an unbounded call fails
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    src = str(Path(rainbowsets.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    for block in blocks:
        done = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
