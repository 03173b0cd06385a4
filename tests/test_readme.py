"""The README's lists are the code's.

Each list the README states (the settings with their defaults, the exit
codes, the run-directory files, the ``trace.csv`` columns, the checks, the
subcommands and the module map) is the first table under its heading, and
each is compared with the code that defines it; a failure names every
entry that differs.  Each command of the README's command-line block is
parsed as the CLI would parse it, without a solve.
"""

import argparse
import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from inertiafb import certify, cli, trace
from inertiafb.i2piano import I2PianoConfig
from inertiafb.iista import IistaConfig
from inertiafb.ipila import IPilaConfig

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()


def section(title: str) -> str:
    """The README's text under the heading ``title``, up to the next
    ``##`` or deeper heading (a ``#`` line is a shell comment)."""
    match = re.search(rf"^##+ {re.escape(title)}\n(.*?)(?=^##+ |\Z)", README,
                      re.M | re.S)
    assert match, f"README has no heading {title!r}"
    return match.group(1)


def table(title: str) -> list:
    """The cells of each body row of the first table under ``title``, with
    the backticks around a whole cell removed."""
    lines = next(block for block in section(title).strip().split("\n\n")
                 if block.startswith("|")).splitlines()
    return [[re.sub(r"^`(.*)`$", r"\1", cell.strip())
             for cell in line.strip("|").split(" | ")] for line in lines[2:]]


def first_column(title: str) -> list:
    return [row[0] for row in table(title)]


def assert_same(readme, code):
    """Fails naming each entry of the README's list that the code lacks,
    and each of the code's that the README lacks."""
    differ = ([f"README only: {e}" for e in readme if e not in code]
              + [f"code only: {e}" for e in code if e not in readme])
    assert not differ, "\n".join(differ)


def test_settings_are_the_cli_keys():
    assert_same(first_column("Settings"), sorted(
        cli.DEFAULTS.keys() | cli.SOLVER_KEYS.keys() | {"image", "f_star"}))


def _default_matches(key: str, cell: str) -> bool:
    if key in cli.DEFAULTS:
        return cell == cli.DEFAULTS[key]
    defaults = [f.default for cls in (I2PianoConfig, IPilaConfig, IistaConfig)
                for f in dataclasses.fields(cls) if f.name == key]
    if not defaults:
        return cell == "unset"
    try:
        return all(type(d)(cell) == d for d in defaults)
    except ValueError:
        return False


def test_settings_defaults_are_the_code_defaults():
    wrong = [f"{key}: README {cell}" for key, cell, _ in table("Settings")
             if not _default_matches(key, cell)]
    assert not wrong, "\n".join(wrong)


def test_exit_codes_are_the_cli_codes():
    code = sorted(value for name, value in vars(cli).items()
                  if name.startswith("EXIT_"))
    assert_same([int(c) for c in first_column("Exit codes")], code)


def test_run_directory_files_are_the_files_written():
    assert_same(first_column("Run directory"), [*cli.RUN_FILES, "fstar.txt"])


def test_columns_are_the_trace_columns_in_order():
    readme = first_column("Columns")
    assert_same(readme, trace.CSV_COLUMNS)
    assert readme == trace.CSV_COLUMNS, [
        f"README {r}, code {c}" for r, c in zip(readme, trace.CSV_COLUMNS)
        if r != c]


def test_checks_are_the_row_checks():
    assert_same(first_column("Checks"), list(certify.ROW_CHECKS))


def test_subcommands_are_the_parsers():
    action = next(a for a in cli.make_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    assert_same(first_column("Command line"), list(action.choices))


def test_layout_is_every_module_and_tool():
    code = ([f"inertiafb.{p.stem}"
             for p in sorted((REPO / "src" / "inertiafb").glob("*.py"))
             if p.stem != "__init__"]
            + [f"tools/{p.name}" for p in sorted((REPO / "tools")
                                                 .glob("*.py"))])
    assert_same(first_column("Layout"), code)


def commands() -> list:
    """The argument lists of the README's ``python -m inertiafb.cli``
    commands, each joined across its continuation lines."""
    block = re.search(r"```sh\n(.*?)```", section("Command line"),
                      re.S).group(1)
    return [shlex.split(line)[3:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("python -m inertiafb.cli ")]


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_each_command_parses(tmp_path, monkeypatch, argv):
    # relative --out paths land under tmp_path; nothing is solved
    monkeypatch.chdir(tmp_path)
    args, extra = cli.make_parser().parse_known_args(argv)
    if args.command == "certify":
        assert not extra
    else:
        cli.build_settings(args, extra)


def test_paragraphs_and_cells_stay_short():
    words = len(README.split())
    long = [f"{len(p.split())} words: {p[:60]!r}"
            for p in re.split(r"\n\s*\n|\n(?=- )", README)
            if not p.startswith("|")
            and len(p.split()) > 200]
    long += [f"{len(cell.split())} words: {cell[:60]!r}"
             for line in README.splitlines() if line.startswith("|")
             for cell in line.strip("|").split(" | ")
             if len(cell.split()) > 60]
    assert words <= 2600 and not long, (words, long)
