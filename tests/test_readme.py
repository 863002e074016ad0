"""The README's Python examples run as written against the top-level surface,
and its command lines parse as written."""

import re
import shlex
from pathlib import Path

import pytest

import qnbench
from qnbench.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def test_python_blocks_run_in_order(capsys):
    blocks = _blocks("python")
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


def test_command_lines_parse(capsys):
    commands = [shlex.split(line, comments=True) for block in _blocks("bash")
                for line in block.splitlines() if line.startswith("qnbench ")]
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:  # argparse exits 2 on an option it does not know
            pytest.fail(f"README command does not parse: {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")
