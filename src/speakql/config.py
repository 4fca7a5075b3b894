"""YAML parsing and the shape checks of the schema and model configs.

Events come from libyaml's C parser when PyYAML is built with it; they
are composed and constructed by PyYAML's own Python composer and safe
constructor, as `yaml.safe_load` does. The C composer of
`yaml.CSafeLoader` recurses without a limit and crashes the interpreter
on deeply nested input, where the Python one raises `RecursionError`.
"""

from __future__ import annotations

import yaml
from yaml.composer import Composer
from yaml.constructor import SafeConstructor
from yaml.resolver import Resolver

if yaml.__with_libyaml__:

    class _Loader(yaml.cyaml.CParser, Composer, SafeConstructor, Resolver):
        get_single_node = Composer.get_single_node

        def __init__(self, stream):
            yaml.cyaml.CParser.__init__(self, stream)
            Composer.__init__(self)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)

else:
    _Loader = yaml.SafeLoader


def load_yaml(text, error, what):
    """The document in `text`; `error(...)` naming `what` if it is not YAML,
    nests too deep to compose, holds text libyaml cannot encode
    (`UnicodeEncodeError`), or tags a scalar with a type it does not
    spell (`!!int x`, `!!bool x`, `!!timestamp x` and the like raise
    `ValueError`, `LookupError` or `AttributeError` in the constructor)."""
    try:
        return yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, RecursionError, ValueError, LookupError, AttributeError) as exc:
        raise error(f"{what} parse error: {exc}") from exc


def section(value, kind, where, error, keys=None):
    """`value` if it is a `kind` (dict or list), an empty one if absent.
    Another type, or a mapping with a key outside `keys`, raises `error`."""
    if value is None:
        return kind()
    if not isinstance(value, kind):
        shape = "mapping" if kind is dict else "list"
        raise error(f"{where} must be a {shape}, got {value!r}")
    unknown = value.keys() - keys if keys is not None else ()
    if unknown:
        # keys of mixed types do not compare, so they are sorted as text
        raise error(f"unknown field(s) {sorted(unknown, key=str)} at {where}")
    return value
