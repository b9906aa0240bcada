"""The README's "Command line" section names each command's flags and the
``V6READY_*`` variables; both must be the ones ``v6ready.cli`` defines, so
a flag or variable added, moved or dropped in one place and not the other
fails here."""

import argparse
import re
from pathlib import Path

from v6ready import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
COMMANDS = ("check", "scan", "simulate")
FLAG_TABLE = "\n| flag | commands | environment variable |"
VARIABLE = re.compile(r"V6READY_[A-Z0-9_]*[A-Z0-9]")


def command_line_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Command line\n")
    return text[start:text.index("\n## ", start + 1)]


def documented_flags() -> dict[str, set[str]]:
    """Each command -> the flags of the rows of the section's flag table
    that name it."""
    flags: dict[str, set[str]] = {command: set() for command in COMMANDS}
    table = command_line_section().split(FLAG_TABLE, 1)[1].split("\n\n", 1)[0]
    for line in table.splitlines()[2:]:  # after the header's separator row
        cells = re.split(r"(?<!\\)\|", line)[1:-1]
        for command in re.findall(r"`([a-z]+)`", cells[1]):
            flags[command] |= set(re.findall(r"`(--[a-z0-9-]+)", cells[0]))
    return flags


def parser_flags() -> dict[str, set[str]]:
    """Each command -> the flags ``build_parser()`` gives it, help aside."""
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {command: {flag for action in parser._actions
                      if not isinstance(action, argparse._HelpAction)
                      for flag in action.option_strings}
            for command, parser in subparsers.choices.items()}


def test_readme_names_each_commands_flags():
    assert documented_flags() == parser_flags()


def test_readme_names_the_environment_variables_cli_reads():
    read = {variable for entries in cli._parser()[1].values() for variable, _, _ in entries}
    assert set(VARIABLE.findall(command_line_section())) == read
