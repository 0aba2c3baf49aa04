"""README.md names only what the package has.

Every backticked token in README resolves against the code: a module
imports, a name in a module's row of the module table is a public attribute
of that module, any other name is an attribute of a package module or a
field or attribute of a package class, a config key is a field of its
section's dataclass or a root key ``load_config`` accepts, a subcommand or
flag is one ``build_parser`` accepts, and a literal (a separator, a message,
a token set) is written by the package. Every ``mmqlab`` line in a fenced
block parses. A rename then fails here instead of misleading a reader.
"""

import argparse
import ast
import dataclasses
import enum
import importlib
import json
import pkgutil
import re
import shlex
import tempfile
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

import mmqlab
from mmqlab.cli import Config, ConfigError, build_parser, load_config
from mmqlab.experiments import CSV_HEADER, _plan
from mmqlab.importance import CONSENSUS_CSV_HEADER
from mmqlab.pipeline import build_model
from mmqlab.quantizers import Method

REPO = Path(__file__).resolve().parents[1]
README = (REPO / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
PROSE = FENCED.sub("", README)

# Tokens that are not the package's: notation and the environment.
ALLOWED = {
    "k",  # bpw accounting: bits per weight of a quantized layer
    "32/group_size",  # bpw accounting: grid overhead per weight
    "(lo, hi)",  # AWQ storage: one grid pair per channel
    "[BOS, text]",  # decoder inputs in the bound table
    "[prefix, BOS, text]",
    "[prefix, BOS, question]",
    "PYTHONHASHSEED",  # environment variables in the determinism paragraph
    "OPENBLAS_CORETYPE=Haswell",
}

MODULES = {
    f"mmqlab.{info.name}": importlib.import_module(f"mmqlab.{info.name}")
    for info in pkgutil.iter_modules(mmqlab.__path__)
}
CLASSES = {
    obj
    for module in MODULES.values()
    for obj in vars(module).values()
    if isinstance(obj, type) and obj.__module__.startswith("mmqlab.")
}
FIELDS = {f.name for cls in CLASSES if dataclasses.is_dataclass(cls) for f in dataclasses.fields(cls)}
# every string the package writes, f-string fragments included
STRINGS = {
    node.value
    for path in Path(mmqlab.__file__).parent.glob("*.py")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    if isinstance(node, ast.Constant) and isinstance(node.value, str)
}
ENUM_VALUES = {member.value for cls in CLASSES if issubclass(cls, enum.Enum) for member in cls}
# config section -> its dataclass, as Config declares them
SECTIONS = {
    name: next(k for k in (*get_args(kind), kind) if dataclasses.is_dataclass(k))
    for name, kind in get_type_hints(Config).items()
}
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
CONFIG_KEY = re.compile(r"(?:config error at )?(?P<section>[a-z_]+\.|\.)?(?P<key>[a-z_]+)(?:\[\d+\])*(?:: .*)?")
PLACEHOLDER = re.compile(r"<[^>]*>|\.\.\.")


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


SUBCOMMANDS = _subcommands()


def _flags(parser: argparse.ArgumentParser) -> set[str]:
    return {flag for action in parser._actions for flag in action.option_strings}


def _attr_path(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _root_key(key: str) -> bool:
    """``load_config`` accepts ``key`` at the root: any error it gives is not "unknown key"."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "config.json"
        path.write_text(json.dumps({key: None}))
        try:
            load_config(str(path))
        except ConfigError as exc:
            return "unknown key" not in str(exc)
    return True


def _is_module(token, section):
    return token in MODULES


def _is_name(token, section):
    head, _, rest = token.partition(".")
    if not NAME.fullmatch(token):
        return False
    owners = [m for m in MODULES.values() if hasattr(m, head)]
    if any(not rest or _attr_path(getattr(m, head), rest) for m in owners):
        return True
    return not rest and (token in FIELDS or any(hasattr(cls, token) for cls in CLASSES))


def _is_config_key(token, section):
    """``section.key`` (with list indices, a ``: value`` or a config error's
    prefix), ``.key`` in the section of the last full key, or a root key."""
    match = CONFIG_KEY.fullmatch(token)
    if match is None:
        return False
    key, prefix = match["key"], match["section"]
    if prefix is None:
        return _root_key(key)
    cls = SECTIONS.get(section if prefix == "." else prefix[:-1])
    return cls is not None and key in {f.name for f in dataclasses.fields(cls)}


def _is_command(token, section):
    """A subcommand, a ``--flag`` of any subcommand, or ``subcommand --flag``."""
    words = token.split()
    if words[0] in SUBCOMMANDS:
        return all(flag in _flags(SUBCOMMANDS[words[0]]) for flag in words[1:])
    return len(words) == 1 and any(token in _flags(p) for p in SUBCOMMANDS.values())


def _is_csv(token, section):
    return token in (CSV_HEADER, CONSENSUS_CSV_HEADER) or token in CSV_HEADER.split(",")


def _is_path(token, section):
    return "/" in token and (REPO / token).exists()


def _is_enum_values(token, section):
    """Enum values as a config's JSON (``got`` before it in a message) or a ``+``-joined token set."""
    text = token.removeprefix("got ")
    if re.fullmatch(r"\w+(\+\w+)+", text):
        values = text.split("+")
    else:
        try:
            values = json.loads(text)
        except json.JSONDecodeError:
            return False
        while values and all(isinstance(v, list) for v in values):
            values = [item for v in values for item in v]
    return bool(values) and all(isinstance(v, str) and v in ENUM_VALUES for v in values)


def _is_literal(token, section):
    """A string the package writes; with placeholders, each fixed fragment of
    one; a ``{...}`` schema, each word one (its JSON keys)."""
    if token.startswith("{"):
        return all(word in STRINGS for word in re.findall(r"\w+", token))
    fragments = [f.strip() for f in PLACEHOLDER.split(token) if f.strip()]
    if len(fragments) == 1 and fragments[0] == token:
        return token in STRINGS
    return all(any(fragment in s for s in STRINGS) for fragment in fragments)


RULES = (_is_module, _is_name, _is_config_key, _is_command, _is_csv, _is_path, _is_enum_values, _is_literal)


# the module table: (row, module, contents cell)
ROWS = re.findall(r"^(\| `(mmqlab\.\w+)` +\| (.*) \|)$", README, re.M)


def _tokens(text: str) -> list[str]:
    return [" ".join(token.split()) for token in re.findall(r"`([^`]+)`", text)]


def test_every_module_has_one_short_row():
    assert sorted(module for _, module, _ in ROWS) == sorted(MODULES)
    assert [module for row, module, _ in ROWS if len(row) > 300] == []


def test_module_row_names_are_public_attributes_of_their_module():
    unresolved = [
        (module, token)
        for _, module, cells in ROWS
        for token in _tokens(cells)
        if not (NAME.fullmatch(token) and not token.startswith("_") and _attr_path(MODULES[module], token))
    ]
    assert unresolved == []


def test_every_backticked_token_resolves():
    prose = PROSE
    for row, _, _ in ROWS:
        prose = prose.replace(row, "")
    unresolved, section = [], None  # section: that of the last full config key, for `.key`
    for token in _tokens(prose):
        if (match := CONFIG_KEY.fullmatch(token)) and match["section"] and match["section"][:-1] in SECTIONS:
            section = match["section"][:-1]
        if token not in ALLOWED and not any(rule(token, section) for rule in RULES):
            unresolved.append(token)
    assert unresolved == []


def test_allow_list_is_in_use():
    assert ALLOWED <= set(_tokens(PROSE))


def _command_lines() -> list[list[str]]:
    return [
        shlex.split(line, comments=True)[1:]
        for block in FENCED.findall(README)
        for line in block.splitlines()
        if line.startswith("mmqlab ")
    ]


def test_quick_start_commands_parse():
    lines = _command_lines()
    assert len(lines) >= 7
    subcommands = set()
    for argv in lines:
        args = build_parser().parse_args(argv)  # a renamed flag or subcommand raises ConfigError
        subcommands.add(args.command)
    assert subcommands == set(SUBCOMMANDS)


def test_fenced_csv_header_and_default_config_match_the_code():
    blocks = FENCED.findall(README)
    assert f"{CSV_HEADER}\n" in blocks
    (config,) = [json.loads(b) for b in blocks if b.lstrip().startswith("{")]
    assert config == json.loads((REPO / "configs" / "default.json").read_text())


@pytest.mark.parametrize(
    "config, method",
    [("default.json", Method.UNIFORM), ("default.json", Method.GPTQ), ("quick.json", Method.UNIFORM)],
)
def test_cell_counts_are_the_plans(config, method):
    """README gives each checked-in grid's cells per task and rows as ``_plan`` counts them."""
    loaded = load_config(str(REPO / "configs" / config))
    cells = len(_plan(build_model(loaded.pipeline), loaded.grid, method, {}))
    rows = cells * len(loaded.grid.tasks) * len(loaded.grid.seeds)
    for count in (f"{cells:,} cells per task", f"{rows:,} rows"):
        assert count in " ".join(PROSE.split()), count


@pytest.mark.parametrize(
    "token, ok",
    [
        ("lattice_table", True),
        ("lattice_tables", False),
        ("grid.bits", True),
        ("grid.workers", False),
        ("analyze --boot", True),
        ("analyze --boots", False),
        ("plot --boot", False),
        ("front+end", True),
        ("front+edge", False),
        ("config error at <key>: <reason>", True),
        ("error: cannot read <it>", False),
    ],
)
def test_rules_reject_what_the_package_lacks(token, ok):
    assert any(rule(token, "grid") for rule in RULES) is ok
