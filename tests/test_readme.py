"""Every python code block of README.md runs as written, and every library
name the prose mentions exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import aimcf

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
# spec fields and math symbols, not library attributes
NOT_CODE = {"n_max", "p_n", "q_n", "C_n"}


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {})
    capsys.readouterr()


def test_readme_names_resolve():
    prose = re.sub(r"^```.*?^```", "", TEXT, flags=re.M | re.S)
    names = {n for n in re.findall(r"`([A-Za-z_]\w*)`", prose) if "_" in n}
    assert names
    modules = [aimcf] + [
        importlib.import_module(f"aimcf.{m.name}")
        for m in pkgutil.iter_modules(aimcf.__path__)
    ]
    missing = sorted(n for n in names - NOT_CODE if not any(hasattr(m, n) for m in modules))
    assert missing == []
