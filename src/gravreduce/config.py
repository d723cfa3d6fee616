"""The ``--config`` reader: a file of ``key = value`` lines as new defaults
for the subcommand's parser (see ``cli``'s docstring for the rules).

``cli`` imports this module only when ``--config`` is given, so that no
other run compiles it.
"""

from __future__ import annotations

import argparse

from .errors import ConfigError

# Config keys of action="append" options: each line adds one value.  argparse
# appends command-line values onto a list default, so the file's lines become
# the default only when the command line has none.
REPEATABLE = frozenset({"grid"})
TRUE_WORDS = ("true", "yes", "on")
FALSE_WORDS = ("false", "no", "off")


def _parse(path: str) -> dict[str, list[str]]:
    """Every value of each key, in file order."""
    values: dict[str, list[str]] = {}
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values.setdefault(key.strip().replace("-", "_"), []).append(value.strip())
    return values


def _typed(action: argparse.Action, key: str, raw: str):
    """A config value converted and checked as its command-line flag would be."""
    if action.nargs == 0:      # store_true flag
        word = raw.lower()
        if word in TRUE_WORDS or word in FALSE_WORDS:
            return word in TRUE_WORDS
        raise ConfigError(f"config key {key} takes true or false, not {raw!r}")
    value = raw
    if action.type is not None:
        try:
            value = action.type(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key} takes a {action.type.__name__}, "
                              f"not {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key} takes one of {', '.join(action.choices)}, "
                          f"not {raw!r}")
    return value


def defaults(args: argparse.Namespace) -> dict:
    """The --config file's values, typed, as defaults for the subcommand's parser."""
    actions: dict[str, argparse.Action] = {}
    for action in args.parser._actions:
        actions.setdefault(action.dest, action)
    defaults = {}
    for key, raws in _parse(args.config).items():
        if key not in actions or not hasattr(args, key):
            raise ConfigError(f"unknown config key: {key}")
        if key == "config":
            raise ConfigError("config key config is refused: a config file cannot name another")
        action = actions[key]
        if key not in REPEATABLE:
            defaults[key] = _typed(action, key, raws[-1])
        elif getattr(args, key) is None:
            defaults[key] = [_typed(action, key, raw) for raw in raws]
    return defaults
