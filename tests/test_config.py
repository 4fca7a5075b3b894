"""`load_yaml` and `section`, the YAML entry point and the shape check of
the schema and model loaders."""

import copy
import random
import time

import pytest
import yaml

from speakql import config
from speakql.config import load_yaml
from speakql.decoder import load_models
from speakql.errors import ModelConfigError, SchemaConfigError
from speakql.schema import load_schema

from conftest import FIXTURES

DOCUMENTS = 200
SPOILED_CONFIGS = 250  # per fixture config

# scalars whose type PyYAML's resolver infers from the text
ODD_SCALARS = ["yes", "No", "~", "null", "0x1F", "0o17", "1e3", "-.inf", "2001-12-14",
               "1_000", "+12", "'quoted'", "a: b", "- x", "#", "", " padded ", "é", "\t"]


def _scalar(rng):
    return rng.choice([
        rng.choice(ODD_SCALARS),
        rng.randint(-10**20, 10**20),
        rng.random(),
        rng.choice([True, False, None]),
        "".join(rng.choice("abc_ XYZ09") for _ in range(rng.randint(1, 8))),
    ])


def _random_schema(rng):
    return {"tables": [
        {"name": f"t{i}", "kind": rng.choice(["entity", "relationship", _scalar(rng)]),
         "columns": [{"name": rng.choice([f"c{j}", _scalar(rng)]),
                      "type": rng.choice(["text", "integer", "real"])}
                     for j in range(rng.randint(1, 4))]}
        for i in range(rng.randint(1, 5))
    ]}


def _random_models(rng):
    alphabet = [f"p{i}" for i in range(rng.randint(1, 6))]
    words = []
    for w in range(rng.randint(1, 4)):
        n = rng.randint(1, 4)
        words.append({
            "name": f"w{w}",
            "states": [{"phoneme": rng.choice(alphabet),
                        "emissions": {rng.choice(alphabet): rng.random()}} for _ in range(n)],
            "entry": {0: rng.choice([1.0, 1, rng.random()])},
            "transitions": {i: {i + 1: rng.random()} for i in range(n - 1)},
            "exit": {n - 1: _scalar(rng)},
        })
    return {
        "phoneme_alphabet": alphabet,
        "words": words,
        "grammar": {"states": ["S0", "S1"], "start": "S0", "accepting": ["S1"],
                    "arcs": [{"from": "S0", "word": w["name"], "to": "S1"} for w in words]},
    }


def _random_text(rng):
    doc = rng.choice([_random_schema, _random_models])(rng)
    text = yaml.safe_dump(
        doc,
        default_flow_style=rng.choice([False, True, None]),
        default_style=rng.choice([None, '"', "'"]),
        indent=rng.choice([2, 4]),
        width=rng.choice([20, 80]),
        allow_unicode=rng.choice([False, True]),
    )
    if rng.random() < 0.3:
        text = "# comment\n---\n" + text.replace("\n", "  # note\n", 1)
    return text


@pytest.mark.parametrize("name", ["schema.yaml", "models.yaml"])
def test_fixture_documents_equal_safe_load(name):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    assert load_yaml(text, SchemaConfigError, "config") == yaml.safe_load(text)


def test_random_documents_equal_safe_load():
    rng = random.Random(9)
    for _ in range(DOCUMENTS):
        text = _random_text(rng)
        assert load_yaml(text, SchemaConfigError, "config") == yaml.safe_load(text), text


def test_anchors_and_merge_keys_equal_safe_load():
    text = "base: &b {x: 1, y: [2, 3]}\nuse: *b\nmerged: {<<: *b, y: 4}\n"
    assert load_yaml(text, SchemaConfigError, "config") == yaml.safe_load(text)


def test_libyaml_parser_in_use():
    # a tab after `key:` is accepted by libyaml and rejected by the
    # pure-Python scanner, so the result shows which parser ran
    if yaml.__with_libyaml__:
        assert issubclass(config._Loader, yaml.cyaml.CParser)
        assert load_yaml("a:\t1", SchemaConfigError, "config") == {"a": 1}
    else:
        assert config._Loader is yaml.SafeLoader


# PyYAML built without libyaml loads through yaml.SafeLoader alone; no time
# bound here, as its scanner takes over a second on the deep flow list
@pytest.mark.parametrize(
    "text",
    [
        "tables: " + "[" * 100_000 + "]" * 100_000,
        "- " * 100_000 + "x\n",
        'a: "\ud800"',
        "tables: !!int x\n",
        "a:\t1",
        "tables: [\n",
    ],
    ids=["deep-flow-list", "deep-block-list", "surrogate", "bad-int-tag", "tab", "unclosed"],
)
def test_pure_python_loader_rejects_with_config_error(monkeypatch, text):
    monkeypatch.setattr(config, "_Loader", yaml.SafeLoader)
    with pytest.raises(SchemaConfigError, match="parse error"):
        load_yaml(text, SchemaConfigError, "config")


@pytest.mark.parametrize("name", ["schema.yaml", "models.yaml"])
def test_pure_python_loader_fixture_documents_equal_safe_load(monkeypatch, name):
    monkeypatch.setattr(config, "_Loader", yaml.SafeLoader)
    text = (FIXTURES / name).read_text(encoding="utf-8")
    assert load_yaml(text, SchemaConfigError, "config") == yaml.safe_load(text)


@pytest.mark.parametrize(
    "load, error", [(load_schema, SchemaConfigError), (load_models, ModelConfigError)]
)
def test_text_libyaml_cannot_encode_is_config_error(load, error):
    with pytest.raises(error, match="parse error"):
        load('a: "\ud800"')


@pytest.mark.parametrize("value", ["!!int x", "!!float", "!!bool x", "!!timestamp x"])
@pytest.mark.parametrize(
    "load, error", [(load_schema, SchemaConfigError), (load_models, ModelConfigError)]
)
def test_scalar_not_of_its_tag_is_config_error(load, error, value):
    with pytest.raises(error, match="parse error"):
        load(f"tables: {value}\n")


def test_deep_nesting_rejected_quickly():
    depth = 100_000
    start = time.perf_counter()
    with pytest.raises(SchemaConfigError, match="parse error"):
        load_schema("tables: " + "[" * depth + "]" * depth)
    assert time.perf_counter() - start < 0.5


# `yaml.safe_dump`, with libyaml's emitter where PyYAML has it (about 4x faster)
SAFE_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# values put in place of a node; only the hashable ones can replace a key
ODD_KEYS = [None, True, -1, 0.7, float("inf"), float("nan"), 10**30, "", "unknown_name"]
ODD_NODES = ODD_KEYS + [[], {}, {1: "x", "b": "y"}]


def _positions(doc):
    """A list holding `doc`, and every (container, key or index) under it."""
    holder = [doc]
    positions, stack = [], [holder]
    while stack:
        node = stack.pop()
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            positions.append((node, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
    return holder, positions


def _spoil(rng, doc):
    """A copy of `doc` with one or two nodes, or mapping keys, replaced by odd values."""
    holder, positions = _positions(copy.deepcopy(doc))
    for container, key in rng.sample(positions, rng.randint(1, 2)):
        if isinstance(container, dict) and key in container and rng.random() < 0.5:
            container[rng.choice(ODD_KEYS)] = container.pop(key)
        else:
            container[key] = copy.deepcopy(rng.choice(ODD_NODES))
    return holder[0]


@pytest.mark.parametrize(
    "name, load, error, reached",
    [
        # keys of mixed types used to fail to sort into the message
        ("schema.yaml", load_schema, SchemaConfigError, "unknown field(s) [1, 'b']"),
        # a state index of .inf used to overflow in int()
        ("models.yaml", load_models, ModelConfigError, "bad state index inf"),
    ],
)
def test_spoiled_fixture_configs_load_or_raise_config_error(name, load, error, reached):
    doc = yaml.safe_load((FIXTURES / name).read_text(encoding="utf-8"))
    rng = random.Random(4)
    messages = []
    for _ in range(SPOILED_CONFIGS):
        text = yaml.dump(_spoil(rng, doc), Dumper=SAFE_DUMPER, sort_keys=False)
        try:
            load(text)
        except error as exc:
            messages.append(str(exc))
    assert any(reached in m for m in messages)
