"""README's library quick start and its `cmh` examples run as written."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from cmharmonic.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", blocks[0]],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
    )
    assert res.returncode == 0, res.stderr


def _cli_fixtures_and_lines():
    """README's `cmh` lines and the JSON files they read.

    The measure spec block gives ``mu.json`` and the map spec block
    ``map.json``; any other file comes from the JSON literal that ends the
    comment of the line reading it.
    """
    measure, map_spec = (json.loads(b) for b in re.findall(r"```json\n(.*?)```", README, re.S))
    fixtures = {"mu.json": measure, "map.json": map_spec}
    sh_blocks = re.findall(r"```sh\n(.*?)```", README, re.S)
    lines = [line for block in sh_blocks for line in block.splitlines() if line.startswith("cmh ")]
    for line in lines:
        literal = re.search(r"#.*?([\[{].*[\]}])\s*$", line)
        if literal:
            name = next(tok for tok in shlex.split(line, comments=True) if tok.endswith(".json"))
            fixtures[name] = json.loads(literal.group(1))
    return fixtures, lines


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    fixtures, lines = _cli_fixtures_and_lines()
    assert len(lines) == 11
    monkeypatch.chdir(tmp_path)
    for name, payload in fixtures.items():
        (tmp_path / name).write_text(json.dumps(payload))
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == 0, line
        out, err = capsys.readouterr()
        assert err == "", (line, err)
        assert out or "--out" in argv, line
