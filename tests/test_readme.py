"""The README's Python quick start and CLI block run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_block(section: str, language: str) -> str:
    text = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    block = re.search(rf"```{language}\n(.*?)```", text, re.DOTALL)
    assert block is not None, f"the {section} section has no {language} block"
    return block.group(1)


def test_readme_quick_start_runs():
    exec(compile(readme_block("Library quick start", "python"), f"{README}:quick start", "exec"), {})


def test_readme_cli_block_runs(tmp_path):
    # magicbch is the installed entry point; here it is the module, run from src
    script = f"set -e\nmagicbch() {{ {shlex.quote(sys.executable)} -m magicbch \"$@\"; }}\n"
    script += readme_block("CLI", "sh")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        ["bash", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "rotation.json").is_file() and (tmp_path / "pair.json").is_file()
