"""The code in README.md runs as written."""

import re
import shlex
from pathlib import Path

from mmjoint import cli

ROOT = Path(__file__).resolve().parents[1]


def blocks(language: str) -> list[str]:
    """The bodies of the README's fenced blocks in ``language``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text,
                      flags=re.DOTALL | re.MULTILINE)


def test_readme_code_runs(tmp_path):
    # every Python block, each in a namespace of its own
    python = blocks("python")
    assert python
    for code in python:
        exec(compile(code, "README.md", "exec"), {})
    # every `mmjoint` command line, in-process, writing under tmp_path and
    # reading configs/ from the repository
    commands = [shlex.split(line, comments=True)[1:]
                for body in blocks("sh") for line in body.splitlines()
                if line.startswith("mmjoint ")]
    assert {args[0] for args in commands} == set(cli._COMMANDS)
    for args in commands:
        args = [str(ROOT / a) if a.startswith("configs/") else a
                for a in args]
        # the last --out given is the one argparse keeps
        assert cli.main([*args, "--out", str(tmp_path)]) == 0, args
