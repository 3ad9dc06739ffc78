"""Field rules, and a seeded mutation fuzz of the input files: a config file
through ``cli.resolve_config``, a checkpoint through ``load_checkpoint`` and a
test set through ``read_dataset``."""

import json
import random
import re
import sys
import typing
from dataclasses import asdict, fields, is_dataclass, replace

import pytest

from tard.cli import build_parser, resolve_config
from tard.datagen import DomainSpec, ShiftSpec, event_to_json_dict, generate_domain, read_dataset
from tard.graphs import InvalidEventError
from tard.model import ModelDims
from tard.pipeline import TrainConfig, checkpoint_record, load_checkpoint, train_phase
from tard.presets import ExperimentConfig, shift_mid

DELETE = object()  # a mutation that removes the key or list entry


@pytest.mark.parametrize("cls", [TrainConfig, ModelDims, DomainSpec, ShiftSpec, ExperimentConfig])
def test_every_field_carries_a_rule(cls):
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if not is_dataclass(hints[f.name]):  # a nested section checks itself
            assert "rule" in f.metadata, f"{cls.__name__}.{f.name} has no rule"


@pytest.mark.parametrize(
    "valid",
    [TrainConfig(), ModelDims(d_in=3, d_hidden=4), shift_mid(0).domain, ShiftSpec(), shift_mid(0)],
    ids=lambda obj: type(obj).__name__,
)
def test_construction_applies_every_rule(valid):
    """Each field, set below every lower bound (or to no choice), is rejected
    by ``__post_init__`` in its own words."""
    for f in fields(valid):
        spec = f.metadata.get("rule")
        if spec is None:
            continue
        bad = "bogus" if spec["choices"] else -(10**400)
        with pytest.raises(ValueError, match=f"^{f.name} must "):
            replace(valid, **{f.name: (bad,) * 8 if spec["each"] else bad})


def _paths(value, path=()):
    """Every key path under ``value``: objects, lists and their leaves."""
    if path:
        yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, (*path, i))


def _mutated(record, path, value):
    out = json.loads(json.dumps(record))
    target = out
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return out


def _mutations(record, seed: int):
    """Each path of ``record`` with each fixed value, and one seeded draw of
    a huge integer and of a float across the whole float range."""
    rng = random.Random(seed)
    fixed = [-1, -2.5, 0, -0.0, 10**400, -(10**400), 1e308, -1e308, "x", True, None, [], [1], DELETE]
    for path in _paths(record):
        # uniform(-1e308, 1e308) would always give inf: its span overflows.
        drawn = [rng.choice([-1, 1]) * 10 ** rng.randint(0, 400), rng.uniform(-1.0, 1.0) * 1e308]
        for value in fixed + drawn:
            yield path, value


def _assert_named(exc: ValueError, source: str, path) -> None:
    """The message names the file, then a dotted key that holds the mutated
    one (its section) or lies within it (its first wrong entry)."""
    message = str(exc)
    assert message.startswith(f"{source}: "), message
    full = ".".join(map(str, path))
    holders = {".".join(map(str, path[:k])) for k in range(1, len(path) + 1)}
    named = re.findall(r"'([\w.]+)'", message)
    assert any(k in holders or k.startswith(f"{full}.") for k in named), f"{path}: {message}"


def _fuzz(
    record, seed: int, path_of_file, load, source: str, must_load, error=ValueError
) -> tuple[int, int]:
    """Write each mutation of ``record`` and ``load`` it; a mutation that
    ``must_load(path, value)`` may not be rejected, and a rejection raises
    ``error``."""
    loaded = rejected = 0
    for path, value in _mutations(record, seed):
        path_of_file.write_text(json.dumps(_mutated(record, path, value)))
        try:
            load()
            loaded += 1
        except error as exc:
            assert not must_load(path, value), f"{path} = {value!r} was rejected: {exc}"
            _assert_named(exc, source, path)
            rejected += 1
    return loaded, rejected


def test_config_file_mutations_load_or_name_the_key(tmp_path):
    config = tmp_path / "config.json"
    record = {"seed": 0, **asdict(shift_mid(0))}
    args = build_parser().parse_args(["gen", "--config", str(config), "--out", "unused"])

    def must_load(path, value):  # a key left out keeps its default
        return value is DELETE and isinstance(path[-1], str)

    loaded, rejected = _fuzz(
        record, 0, config, lambda: resolve_config(args), f"config file {config}", must_load
    )
    assert loaded > 50 and rejected > 200


def test_checkpoint_mutations_load_or_name_the_key(tmp_path):
    domain = replace(shift_mid(0).domain, num_events=4, feature_dim=2, size_dist=(3, 5))
    model = train_phase(generate_domain(domain), TrainConfig(epochs=1, d_hidden=2))
    ckpt = tmp_path / "model.json"

    def must_load(path, value):  # the edits test_loads_edits_that_keep_it_valid makes
        matrix_entry = path[:2] == ("params", "matrices") and path[-2] == "data"
        return (matrix_entry and type(value) in (int, float) and value == 0) or (
            path == ("training_log",) and value == []
        )

    loaded, rejected = _fuzz(
        checkpoint_record(model), 1, ckpt, lambda: load_checkpoint(ckpt), f"checkpoint {ckpt}",
        must_load,
    )
    assert loaded > 50 and rejected > 200


def test_dataset_mutations_load_or_name_the_line(tmp_path):
    """Each mutation of a one-line test set loads, or names the file, line 1
    and the key, as the config and checkpoint fuzzes do. A line nested beyond
    the JSON parser's recursion limit and one with a byte that is not UTF-8
    name the line. A finite feature, 1e308 included, loads, and so does a
    line with a key no event reads."""
    domain = replace(shift_mid(0).domain, num_events=1, feature_dim=2, size_dist=(3, 3))
    record = event_to_json_dict(generate_domain(domain)[0])
    test_set = tmp_path / "test.jsonl"

    def must_load(path, value):  # a finite feature, one edge fewer, or none
        feature = path[0] == "features" and len(path) == 3 and type(value) in (int, float)
        return (
            (feature and abs(value) <= sys.float_info.max)
            or (path[0] == "edges" and len(path) == 2 and value is DELETE)
            or (path == ("edges",) and value == [])
        )

    loaded, rejected = _fuzz(
        record, 2, test_set, lambda: read_dataset(test_set), f"{test_set}: line 1", must_load,
        InvalidEventError,
    )
    assert loaded > 30 and rejected > 200
    deep = b"[" * 100_000 + b"]" * 100_000
    invalid = f"^{re.escape(str(test_set))}: line 1: invalid JSON"
    for line in (deep, json.dumps(record).encode().replace(b"id", b"i\xffd")):
        test_set.write_bytes(line + b"\n")
        with pytest.raises(InvalidEventError, match=invalid):
            read_dataset(test_set)
    for value in (1e308, -1e308):
        test_set.write_text(json.dumps(_mutated(record, ("features", 2, 1), value)) + "\n")
        assert read_dataset(test_set)[0].features[2, 1] == value
    test_set.write_text(json.dumps({**record, "retweets": [1, "x"]}) + "\n")
    assert read_dataset(test_set)[0].edges == [tuple(edge) for edge in record["edges"]]
