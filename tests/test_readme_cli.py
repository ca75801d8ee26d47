"""README's CLI block names each command with exactly the options that its
parser defines, and the parser's defaults; `--format` is stated once for all
commands."""

import argparse
import re
from pathlib import Path

from isocenter.cli import _parser
from isocenter.numverify import DEFAULT_RADII, DEFAULT_TOL

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
FORMAT_LINE = "All commands take `--format json|text` (default `text`)."
# scan-periods leaves its options absent unless given, so that these are its defaults
SUPPRESSED = {"radii": DEFAULT_RADII, "tol": DEFAULT_TOL}
README_VALUE = {"radii": lambda v: tuple(float(r) for r in v.split(",")), "tol": float}


def readme_commands() -> dict:
    """Each `isocenter <command>` line of README's CLI block, as its tokens."""
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README, re.S).group(1)
    lines = [line.split() for line in block.splitlines() if line.startswith("isocenter ")]
    commands = {tokens[1]: tokens[2:] for tokens in lines}
    assert len(commands) == len(lines), "a command has two lines"
    return commands


def subparsers() -> dict:
    parser = _parser(None)
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_readme_names_every_command_once():
    assert set(readme_commands()) == set(subparsers())


def test_readme_options_and_defaults_match_each_parser():
    for name, tokens in readme_commands().items():
        actions = {a.option_strings[0]: a for a in subparsers()[name]._actions}
        stated = {}  # option -> (its value in README, whether README brackets it)
        for optional, option, value in re.findall(r"(\[?)(--[\w-]+)(?: ([^\s\]]+))?\]?", " ".join(tokens)):
            assert option not in stated, (name, option)
            stated[option] = value, bool(optional)
        assert set(stated) == set(actions) - {"--help", "--format"}, name
        for option, (value, optional) in stated.items():
            action = actions[option]
            assert optional == (not action.required), (name, option)
            if not optional:
                continue
            if action.default is argparse.SUPPRESS:
                assert README_VALUE[action.dest](value) == SUPPRESSED[action.dest], (name, option)
            else:
                assert action.type(value) == action.default, (name, option)
        # the line as README writes it, options bracketed or not, parses
        _parser(None).parse_args([name, *(t.strip("[]") for t in tokens)])


def test_every_command_takes_the_format_stated_once():
    assert README.count("--format json|text") == 1 and FORMAT_LINE in " ".join(README.split())
    for name, sub in subparsers().items():
        (action,) = [a for a in sub._actions if "--format" in a.option_strings]
        assert action.choices == ["json", "text"] and action.default == "text", name
