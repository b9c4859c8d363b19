"""The README's library tour and CLI commands run as written, on public names."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import rainbowsets
from rainbowsets import cli

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


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    # each `rainbowsets` command of the README's sh blocks, in order, in one directory
    text = "\n".join(re.findall(r"```sh\n(.*?)```", README.read_text(), re.S))
    commands = [shlex.split(line) for line in text.replace("\\\n", " ").splitlines()
                if line.startswith("rainbowsets ")]
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv in commands:
        if argv[1] == "bench":
            # its 10^6 grid is test_greedy_sidon_scaling's own run, about 40-63 s
            continue
        assert cli.main(argv[1:]) == 0, " ".join(argv)
        ran.append(argv[1])
    assert "oracle" in ran and "audit" in ran
