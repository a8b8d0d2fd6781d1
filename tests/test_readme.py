"""The README's Python sketch runs, and every flag it lists parses."""

import argparse
import re
import shlex
from pathlib import Path

from naryalg import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return parser, action.choices


def test_python_sketch_runs():
    (sketch,) = _blocks("python")
    exec(compile(sketch, "README.md", "exec"), {})


def _command_lines():
    return [line.split("#")[0].replace("[", "").replace("]", "")
            for block in _blocks("sh")
            for line in block.splitlines() if line.startswith("naryalg ")]


def test_command_lines_parse():
    parser, _ = _subparsers()
    lines = _command_lines()
    assert len(lines) >= 9
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.fn), line


def test_every_listed_flag_is_an_option():
    _, commands = _subparsers()
    # flags in inline code and on the example command lines
    flags = set(re.findall(r"`(--[a-z][a-z-]*)", README))
    for line in _command_lines():
        flags.update(re.findall(r"--[a-z][a-z-]*", line))
    assert {"--seed", "--rounds", "--threads", "--tolerance"} <= flags
    for flag in flags:
        assert any(flag in sub._option_string_actions
                   for sub in commands.values()), flag
    # the flags listed as valid after any subcommand are on every one
    shared = README[README.index("Useful flags"):]
    shared = shared[:shared.index("`classify` and `table` also accept")]
    for flag in re.findall(r"--[a-z][a-z-]*", shared):
        for name, sub in commands.items():
            assert flag in sub._option_string_actions, (flag, name)
    for name in ("classify", "table"):
        assert "--rounds" in commands[name]._option_string_actions
