"""The README's Python examples run as written against the top-level surface."""

import re
from pathlib import Path

import qnbench

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def test_python_blocks_run_in_order(capsys):
    blocks = _python_blocks()
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # later blocks use the names earlier ones define
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].converged
    assert capsys.readouterr().out


def test_every_exported_name_resolves():
    assert len(qnbench.__all__) == len(set(qnbench.__all__))
    for name in qnbench.__all__:
        assert getattr(qnbench, name) is not None, name
