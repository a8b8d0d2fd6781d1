"""The README's Python sketch runs, every flag it lists parses, and its
list of identities is the parser's."""

import argparse
import json
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
    assert {"--exhaustive", "--seed"} <= flags
    for flag in flags:
        assert any(flag in sub._option_string_actions
                   for sub in commands.values()), flag
    section = README[README.index("Useful flags"):
                     README.index("## Python API sketch")]
    # the flags valid after any subcommand are exactly these two
    shared = section[:section.index("The others")]
    assert re.findall(r"--[a-z][a-z-]*", shared) == ["--pretty", "--output"]
    for flag in ("--pretty", "--output"):
        for name, sub in commands.items():
            assert flag in sub._option_string_actions, (flag, name)
    # each other flag is on exactly the subcommands its entry names
    entries = re.findall(r"^- `(--[a-z-]+)[^`]*` on (.*?):", section,
                         flags=re.M | re.S)
    assert [flag for flag, _ in entries] == ["--exhaustive", "--seed"]
    for flag, names in entries:
        listed = set(re.findall(r"`([a-z]+)`", names))
        assert listed == {name for name, sub in commands.items()
                          if flag in sub._option_string_actions}, flag


def test_identity_list_matches_the_parser():
    _, commands = _subparsers()
    choices = commands["verify"]._option_string_actions["--identity"].choices
    section = README[README.index("`verify --identity NAME`"):
                     README.index("Useful flags")]
    entries = re.findall(r"^- `([a-z-]+)`: (.*?)(?=^- |\Z)", section,
                         flags=re.M | re.S)
    assert [name for name, _ in entries] == list(choices)
    reads = dict(entries)
    assert all("`--potential`" in text for text in reads.values())
    for name, (structure, _) in cli.IDENTITIES.items():
        assert ("`--structure`" in reads[name]) == structure, name
    assert "`--element`" in reads["derivation"]
    assert "`--structure`" in reads["quasi-frobenius"]
    assert "`--phi`" in reads["quasi-frobenius"]


def test_table_lines_run_within_the_work_budget(capsys):
    lines = [shlex.split(line)[1:] for line in _command_lines()
             if line.startswith("naryalg table ")]
    assert lines
    for argv in lines:
        assert cli.main(argv) == 0
        records = [json.loads(rec)
                   for rec in capsys.readouterr().out.splitlines()]
        assert records and all(rec["approx"] is True for rec in records)
