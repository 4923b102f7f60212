"""The README's examples run as written."""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fiberwave
from fiberwave.cli import EXIT_NUMERIC, EXIT_OK, build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def json_block(key: str) -> str:
    """The README's JSON block with a top-level `key`."""
    (block,) = [b for b in blocks("json") if key in json.loads(b)]
    return block


def synopsis() -> list[str]:
    """The CLI synopsis lines, one per subcommand."""
    return [line for b in blocks("sh") for line in b.splitlines() if line.startswith("fiberwave ")]


def test_python_example_runs(capsys):
    (block,) = blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "check"])
def test_graph_example_solves_and_checks(tmp_path, capsys, command):
    graph = tmp_path / "g.json"
    graph.write_text(json_block("channels"))
    assert main([command, "--graph", str(graph), "--lambda", "2", "--eps", "0.1"]) == EXIT_OK, capsys.readouterr()


def test_graph_example_refuses_a_lambda_with_too_many_modes(tmp_path):
    # at lambda = 1e30 the width-pi channels would carry 1e15 modes; the
    # mode bound refuses them before enumerating more than MAX_MODES
    graph = tmp_path / "g.json"
    graph.write_text(json_block("channels"))
    src = str(Path(fiberwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "fiberwave.cli", "solve", "--graph", str(graph), "--lambda", "1e30", "--eps", "0.1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert "MAX_MODES" in proc.stderr


def test_geometry_example_is_a_junction(tmp_path, capsys):
    geometry, out = tmp_path / "cross.json", tmp_path / "tv.json"
    geometry.write_text(json_block("cores"))
    assert main(["junction", "--geometry", str(geometry), "--lambda", "2", "--out", str(out)]) == EXIT_OK, capsys.readouterr()
    ((re_im,),) = json.loads(out.read_text())["table"][0]["matrix"]
    assert abs(abs(complex(*re_im)) - 1.0) < 1e-3  # one stub: total reflection


def test_synopsis_flags_belong_to_their_subcommand():
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    lines = synopsis()
    assert sorted(line.split()[1] for line in lines) == sorted(subcommands.choices)
    for line in lines:
        argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
        sub = subcommands.choices[argv[0]]
        accepted = {s for action in sub._actions for s in action.option_strings}
        # exact names: argparse would also take an unambiguous prefix
        assert {a for a in argv if a.startswith("--")} <= accepted, line
        sub.parse_args(argv[1:])
