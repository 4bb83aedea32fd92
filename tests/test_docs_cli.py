"""The CLI docs name exactly the subcommands ``python -m repro`` has.

``docs/api.md``'s ``### CLI`` block and README's command list are the
maps of ``repro.cli``; a command added without a line, or a line left
behind after its command is deleted, is drift this test stops.
"""

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def parser_commands() -> set[str]:
    (action,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return set(action.choices)


def test_api_cli_block_names_every_command():
    api = (ROOT / "docs" / "api.md").read_text()
    block = re.search(r"### CLI\n+```\n(.*?)```", api, re.S)
    assert block, "docs/api.md has no ### CLI code block"
    named = set(re.findall(r"^python -m repro ([\w-]+)", block[1], re.M))
    commands = parser_commands()
    assert named == commands, (
        f"docs/api.md names {sorted(named - commands)} that the parser "
        f"lacks and omits {sorted(commands - named)}"
    )


def test_readme_command_list_names_every_command():
    readme = (ROOT / "README.md").read_text()
    listing = re.search(
        r"`python -m repro ((?:[\w-]+\s*\|\s*)+[\w-]+)`", readme
    )
    assert listing, "README.md has no `python -m repro a | b` list"
    named = {name.strip() for name in listing[1].split("|")}
    commands = parser_commands()
    assert named == commands, (
        f"README.md names {sorted(named - commands)} that the parser "
        f"lacks and omits {sorted(commands - named)}"
    )
