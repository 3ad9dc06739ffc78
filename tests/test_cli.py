"""End-to-end command-line flows on a miniature experiment config."""

import json
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from conftest import parse_report_csv
from tard import pipeline
from tard.cli import build_parser, main, resolve_config
from tard.datagen import MAX_EVENTS, MAX_FEATURE_DIM, MAX_FEATURE_SCALE, MAX_NODES
from tard.graphs import to_prop_graph
from tard.model import LAYER_COUNTS, MAX_D_HIDDEN, MAX_LAYERS
from tard.pipeline import MAX_EPOCHS, MAX_TTT_STEPS, load_checkpoint, predict

SIZE_CEILINGS = [("d_hidden", MAX_D_HIDDEN)] + [(name, MAX_LAYERS) for name in LAYER_COUNTS]
BIG = 10**400  # an integer beyond the float range
SCALE_RANGE = f"lie in [0, {MAX_FEATURE_SCALE}]"
TRANSLATION_RANGE = f"lie in [-{MAX_FEATURE_SCALE}, {MAX_FEATURE_SCALE}]"

TINY_CONFIG = {
    "seed": 0,
    "domain": {
        "num_events": 8,
        "feature_dim": 3,
        "class_mean_separation": 4.0,
        "feature_noise_std": 0.5,
        "size_dist": [4, 8],
        "mean_translation": None,
    },
    "shift": {
        "rotation_angle": 0.3,
        "mean_translation": [0.0, 0.0, 0.0],
        "noise_scale_factor": 1.0,
        "size_scale_factor": 1.0,
    },
    "train": {"epochs": 2, "d_hidden": 4, "ttt_steps": 2},
    "val_events": 2,
    "test_events": 4,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Config file + generated data + trained checkpoint, built once."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    data = root / "data"
    assert main(["gen", "--config", str(config), "--out", str(data)]) == 0
    run = root / "run"
    assert main(["train", str(data), "--config", str(config), "--out", str(run)]) == 0
    return {"config": config, "data": data, "checkpoint": run / "model.json"}


def _file_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _inputs(workdir, command: str) -> list[str]:
    """The arguments besides --config and --out that ``command`` needs."""
    data = str(workdir["data"])
    return {
        "gen": [],
        "train": [data],
        "ablate": [data],
        "sweep": [data, "--which", "alpha2"],
        "eval": [str(workdir["checkpoint"]), str(workdir["data"] / "test.jsonl")],
    }[command]


def _transpose_theta_e0(rec: dict) -> None:
    m = rec["params"]["matrices"]["theta_e.0"]
    m["shape"] = m["shape"][::-1]


def _add_theta_s7(rec: dict) -> None:
    mats = rec["params"]["matrices"]
    mats["theta_s.7"] = mats["theta_s.0"]


def _set_theta_e0_entry(value):
    return lambda rec: rec["params"]["matrices"]["theta_e.0"]["data"].__setitem__(0, value)


def _skew_eta(rec: dict) -> None:
    rec["train_stats"]["eta"][0][1] += 1.0


class TestGen:
    def test_writes_four_files_with_configured_counts(self, workdir):
        data = workdir["data"]
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "meta.json"):
            assert (data / name).exists(), name
        assert len((data / "train.jsonl").read_text().splitlines()) == 8
        assert len((data / "val.jsonl").read_text().splitlines()) == 2
        assert len((data / "test.jsonl").read_text().splitlines()) == 4
        meta = json.loads((data / "meta.json").read_text())
        assert meta["counts"] == {"train": 8, "val": 2, "test": 4}
        assert meta["feature_dim"] == 3
        # the test split comes from the shifted domain
        assert meta["target_domain"]["mean_rotation"] == pytest.approx(0.3)
        assert meta["target_domain"]["seed"] != meta["domain"]["seed"]

    @pytest.mark.parametrize(
        "flags", [[], ["--seed", "3", "--alpha2", "0.5"]], ids=["file", "file-and-flags"]
    )
    def test_echoed_config_resolves_to_itself(self, workdir, tmp_path, capsys, flags):
        def echo(config, *flags):
            out = str(tmp_path / "o")
            assert main(["gen", "--config", str(config), *flags, "--out", out]) == 0
            err = capsys.readouterr().err
            return err.split("resolved config:\n", 1)[1].split("\nwrote ", 1)[0]

        first = echo(workdir["config"], *flags)
        echoed = tmp_path / "echoed.json"
        echoed.write_text(first.split("\nconfig_hash=", 1)[0])
        assert echo(echoed) == first  # the same config and the same config_hash

    def test_rerun_is_byte_identical_and_creates_out_dir(self, workdir, tmp_path):
        out = tmp_path / "nested" / "dirs" / "data2"
        assert (
            main(["gen", "--config", str(workdir["config"]), "--out", str(out)]) == 0
        )
        assert _file_bytes(out) == _file_bytes(workdir["data"])

    @pytest.mark.parametrize(
        "command, payload, named",
        [
            pytest.param(
                "gen",
                {"domain": {"feature_noise_std": -1.0}},
                ["bad.json", "'domain.feature_noise_std'"],
                id="gen-range",
            ),
            pytest.param(
                "eval", {"train": {"ttt_steps": -1}}, ["bad.json", "'train.ttt_steps'"],
                id="eval-range",
            ),
            *(
                pytest.param(
                    command,
                    {"domain": {"feature_dim": 3, "mean_translation": [1, 2, 3]}},
                    ["bad.json", "'shift.mean_translation'", "'domain.feature_dim' is 3"],
                    id=f"{command}-cross-section",
                )
                for command in ("gen", "train", "ablate", "sweep", "eval")
            ),
            *(
                pytest.param(
                    command,
                    {"train": {name: 10**8}},
                    ["bad.json", f"'train.{name}' is out of range: {name} must be <= {top}"],
                    id=f"{command}-{name}-ceiling",
                )
                for command in ("train", "eval")
                for name, top in SIZE_CEILINGS
            ),
            *(
                pytest.param(
                    command,
                    {"train": {name: MAX_EPOCHS + 1}},
                    ["bad.json", f"'train.{name}' is out of range: {name} must be <= {MAX_EPOCHS}"],
                    id=f"{command}-{name}-ceiling",
                )
                for command in ("train", "eval")
                for name in ("epochs", "patience")
            ),
            *(
                pytest.param(command, payload, ["bad.json", *keys], id=f"{command}-{case}")
                for command in ("gen", "eval")
                for case, payload, keys in (
                    ("count", {"test_events": 0}, ["'test_events'"]),
                    ("seed", {"seed": -2}, ["'seed'"]),
                    (
                        "feature-dim-only",
                        {"domain": {"feature_dim": 3}},
                        ["'shift.mean_translation'", "'domain.feature_dim' is 3"],
                    ),
                    ("train-key", {"train": {"bogus": 1}}, ["'train.bogus'"]),
                    ("domain-key", {"domain": {"bogus": 1}}, ["'domain.bogus'"]),
                    ("float-type", {"train": {"alpha1": "abc"}}, ["'train.alpha1'"]),
                    ("int-type", {"train": {"ttt_steps": "5"}}, ["'train.ttt_steps'"]),
                    (
                        "ttt-steps-ceiling",
                        {"train": {"ttt_steps": MAX_TTT_STEPS + 1}},
                        ["'train.ttt_steps' is out of range", f"<= {MAX_TTT_STEPS}"],
                    ),
                    ("section-type", {"domain": []}, ["'domain' is not a JSON object"]),
                    (
                        "size-dist-entry",
                        {"domain": {"size_dist": [1, "x"]}},
                        ["'domain.size_dist.1' has the wrong type: 'x'"],
                    ),
                    (
                        "optional-list-entry",
                        {
                            "domain": {"feature_dim": 3, "mean_translation": [1, "x", 3]},
                            "shift": {"mean_translation": []},
                        },
                        ["'domain.mean_translation.1' has the wrong type: 'x'"],
                    ),
                    (
                        "first-bad-key-and-its-reason",
                        {"train": {"ttt_steps": -1, "alpha1": -1}},
                        ["'train.ttt_steps' is out of range: ttt_steps must be >= 0"],
                    ),
                    *(
                        (
                            f"{section}-{name}-beyond-float",
                            {section: {name: value}},
                            [f"'{section}.{name}' is out of range: {name} must {reason}"],
                        )
                        for section, name, value, reason in (
                            ("train", "alpha1", BIG, "be finite"),
                            ("train", "ttt_lr", BIG, "be finite"),
                            ("train", "min_delta", BIG, "be finite"),
                            ("domain", "class_mean_separation", BIG, SCALE_RANGE),
                            ("domain", "mean_translation", [BIG] + [0] * 7, TRANSLATION_RANGE),
                            ("shift", "mean_translation", [0] * 7 + [-BIG], TRANSLATION_RANGE),
                        )
                    ),
                    # Finite values whose features would overflow the generator.
                    *(
                        (
                            f"{section}-{name}-feature-scale",
                            {section: {name: value}},
                            [f"'{section}.{name}' is out of range: {name} must {reason}"],
                        )
                        for section, name, value, reason in (
                            ("domain", "feature_noise_std", 1e308, f"be <= {MAX_FEATURE_SCALE}"),
                            ("domain", "class_mean_separation", 1e308, SCALE_RANGE),
                            ("domain", "mean_translation", [1e308] * 8, TRANSLATION_RANGE),
                            ("shift", "mean_translation", [-1e308] * 8, TRANSLATION_RANGE),
                        )
                    ),
                    # In range, but the preset shift's 1.25x noise and -1.5
                    # translation move the target domain past the ceiling.
                    (
                        "shifted-noise-scale",
                        {"domain": {"feature_noise_std": MAX_FEATURE_SCALE}},
                        [
                            "'shift' moves the target domain out of range",
                            f"feature_noise_std must be <= {MAX_FEATURE_SCALE}",
                        ],
                    ),
                    (
                        "shifted-translation",
                        {"domain": {"mean_translation": [-MAX_FEATURE_SCALE] * 8}},
                        [
                            "'shift' moves the target domain out of range",
                            f"mean_translation must {TRANSLATION_RANGE}",
                        ],
                    ),
                )
            ),
            # Through eval, which resolves the whole config but generates nothing.
            *(
                pytest.param(
                    "eval",
                    payload,
                    ["bad.json", f"'{key}' is out of range: {key.split('.')[-1]} must be <= {top}"],
                    id=f"eval-{key}-ceiling",
                )
                for key, payload, top in (
                    ("domain.num_events", {"domain": {"num_events": MAX_EVENTS + 1}}, MAX_EVENTS),
                    (
                        "domain.feature_dim",
                        {"domain": {"feature_dim": MAX_FEATURE_DIM + 1}},
                        MAX_FEATURE_DIM,
                    ),
                    ("domain.size_dist", {"domain": {"size_dist": [1, MAX_NODES + 1]}}, MAX_NODES),
                    (
                        "shift.size_scale_factor",
                        {"shift": {"size_scale_factor": MAX_NODES + 1}},
                        MAX_NODES,
                    ),
                    ("val_events", {"val_events": MAX_EVENTS + 1}, MAX_EVENTS),
                    ("test_events", {"test_events": MAX_EVENTS + 1}, MAX_EVENTS),
                )
            ),
            pytest.param(
                "eval",
                {"domain": {"size_dist": [1, MAX_NODES]}, "shift": {"size_scale_factor": 2}},
                [
                    "bad.json",
                    "'shift' moves the target domain out of range",
                    f"size_dist must be <= {MAX_NODES}",
                ],
                id="eval-target-size_dist-ceiling",
            ),
        ],
    )
    def test_invalid_config_value_exits_2(
        self, workdir, tmp_path, capsys, command, payload, named
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        inputs = _inputs(workdir, command)
        code = main([command, *inputs, "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        for fragment in named:
            assert fragment in err
        assert "config_hash=" not in err  # rejected before the config is echoed
        assert not (tmp_path / "o").exists()

    def test_feature_dim_without_translations_generates(self, tmp_path):
        config = tmp_path / "dim3.json"
        config.write_text(
            json.dumps({"domain": {"feature_dim": 3}, "shift": {"mean_translation": []}})
        )
        out = tmp_path / "o"
        assert main(["gen", "--config", str(config), "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["feature_dim"] == 3
        assert meta["domain"]["mean_translation"] is None

    @pytest.mark.parametrize("command", ["gen", "eval"])
    def test_bad_flag_with_valid_config_does_not_name_the_file(
        self, workdir, tmp_path, capsys, command
    ):
        inputs = _inputs(workdir, command)
        config = str(workdir["config"])
        args = [command, *inputs, "--config", config, "--alpha1", "-1", "--out", str(tmp_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "alpha1 must be finite and >= 0" in err
        assert "config.json" not in err.split("error:", 1)[1]

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["gen", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config file not found" in capsys.readouterr().err


class TestTrain:
    def test_checkpoint_reloads(self, workdir):
        model = load_checkpoint(workdir["checkpoint"])
        assert model.params.dims.d_in == 3
        assert model.config.epochs == 2
        assert len(model.training_log) >= 1

    def test_flag_overrides_config_and_is_echoed(self, workdir, tmp_path, capsys):
        out = tmp_path / "run2"
        code = main(
            [
                "train",
                str(workdir["data"]),
                "--config",
                str(workdir["config"]),
                "--alpha1",
                "0.25",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert '"alpha1": 0.25' in err
        assert "config_hash=" in err
        assert load_checkpoint(out / "model.json").config.alpha1 == 0.25

    def test_final_losses_reported_on_stderr_not_stdout(self, workdir, tmp_path, capsys):
        code = main(
            ["train", str(workdir["data"]), "--config", str(workdir["config"]),
             "--out", str(tmp_path / "run3")]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "final L_m=" in captured.err
        assert captured.out == ""


class TestEval:
    def test_stdout_row_has_four_columns(self, workdir, tmp_path, capsys):
        code = main(
            [
                "eval",
                str(workdir["checkpoint"]),
                str(workdir["data"] / "test.jsonl"),
                "--out",
                str(tmp_path / "ev"),
            ]
        )
        assert code == 0
        row = capsys.readouterr().out.strip().split("\t")
        assert len(row) == 4  # accuracy, macro_f1, f1_class0, f1_class1
        for cell in row:
            assert 0.0 <= float(cell) <= 1.0

    def test_zero_steps_matches_plain_inference(self, workdir, tmp_path, capsys):
        out = tmp_path / "ev0"
        code = main(
            [
                "eval",
                str(workdir["checkpoint"]),
                str(workdir["data"] / "test.jsonl"),
                "--ttt-steps",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in (out / "records.jsonl").read_text().splitlines()
        ]
        model = load_checkpoint(workdir["checkpoint"])
        from tard.datagen import read_dataset

        by_id = {e.id: e for e in read_dataset(workdir["data"] / "test.jsonl")}
        for rec in records:
            pred, probs = predict(to_prop_graph(by_id[rec["id"]]), model.params)
            assert rec["pred"] == pred
            assert rec["probs"] == [float(p) for p in probs]
            assert rec["steps"] == 0

    def test_metrics_json_written_with_fingerprint(self, workdir, tmp_path, capsys):
        out = tmp_path / "evj"
        main(
            [
                "eval",
                str(workdir["checkpoint"]),
                str(workdir["data"] / "test.jsonl"),
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        payload = json.loads((out / "metrics.json").read_text())
        assert len(payload["config_fingerprint"]) == 12
        assert payload["reports"][0]["num_events"] == 4

    def test_echo_is_the_checkpoint_config_under_file_and_flags(self, workdir, tmp_path, capsys):
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({**TINY_CONFIG, "train": {"alpha2": 0.5, "ttt_lr": 0.002}}))
        flags = ["--seed", "3", "--ttt-steps", "1", "--mode", "online"]
        args = ["eval", *_inputs(workdir, "eval"), "--config", str(config), *flags]
        assert main([*args, "--out", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err
        echoed = err.split("resolved eval config:\n", 1)[1].split("\nconfig_hash=", 1)[0]
        trained = load_checkpoint(workdir["checkpoint"]).config
        expected = replace(
            trained, alpha2=0.5, ttt_lr=0.002, seed=3, ttt_steps=1, adaptation_mode="online"
        )
        assert json.loads(echoed) == asdict(expected)
        parsed = build_parser().parse_args([*args, "--out", "unused"])
        assert resolve_config(parsed, train=trained).train == expected

    def test_corrupt_test_data_exits_2_naming_line(self, workdir, tmp_path, capsys):
        good = (workdir["data"] / "test.jsonl").read_text().splitlines()
        corrupted = tmp_path / "corrupt.jsonl"
        corrupted.write_text(good[0] + "\n{bad json\n")
        code = main(
            [
                "eval",
                str(workdir["checkpoint"]),
                str(corrupted),
                "--out",
                str(tmp_path / "evc"),
            ]
        )
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_feature_dim_mismatch_exits_2(self, workdir, tmp_path, capsys):
        other = tmp_path / "wide.jsonl"
        other.write_text(
            json.dumps(
                {
                    "id": "w0",
                    "label": 0,
                    "edges": [[0, 1]],
                    "features": [[0.0] * 5, [1.0] * 5],
                }
            )
            + "\n"
        )
        code = main(
            [
                "eval",
                str(workdir["checkpoint"]),
                str(other),
                "--out",
                str(tmp_path / "evw"),
            ]
        )
        assert code == 2
        assert f"{other}: feature dim mismatch: data has 5" in capsys.readouterr().err

    def test_label_outside_the_classes_exits_2_before_adapting(
        self, workdir, tmp_path, capsys
    ):
        lines = (workdir["data"] / "test.jsonl").read_text().splitlines()
        bad = json.loads(lines[1])
        bad["label"] = 5
        data = tmp_path / "label5.jsonl"
        data.write_text("\n".join([lines[0], json.dumps(bad), *lines[2:]]) + "\n")
        out = tmp_path / "evl"
        code = main(["eval", str(workdir["checkpoint"]), str(data), "--out", str(out)])
        assert code == 2
        assert f"{data}: event {bad['id']!r} has label 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "train, named",
        [
            ({"d_hidden": 64}, "'train.d_hidden' is 64, but the checkpoint has 4"),
            ({"shared_layers": 3}, "'train.shared_layers' is 3, but the checkpoint has 1"),
            ({"main_layers": 2}, "'train.main_layers' is 2, but the checkpoint has 1"),
            ({"ssl_layers": 2, "d_hidden": 4}, "'train.ssl_layers' is 2"),
            (TINY_CONFIG["train"], None),
        ],
        ids=["d_hidden", "shared_layers", "main_layers", "ssl_layers", "as-trained"],
    )
    def test_config_must_match_the_checkpoint_architecture(
        self, workdir, tmp_path, capsys, train, named
    ):
        config = tmp_path / "arch.json"
        config.write_text(json.dumps({**TINY_CONFIG, "train": train}))
        out = tmp_path / "eva"
        args = ["eval", *_inputs(workdir, "eval"), "--config", str(config), "--out", str(out)]
        code = main(args)
        err = capsys.readouterr().err
        if named is None:
            assert code == 0
            return
        assert code == 2
        assert f"config file {config}: {named}" in err
        assert "config_hash=" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "corrupt, named",
        [
            (lambda rec: rec["config"].update(bogus=1), "bogus"),
            (lambda rec: rec["params"]["dims"].update(extra_layers=2), "extra_layers"),
            (lambda rec: rec.pop("train_stats"), "train_stats"),
            (_transpose_theta_e0, "theta_e.0"),
            (lambda rec: rec["train_stats"].update(mu=[0.0], eta=[[0.0]]), "train_stats"),
            (_add_theta_s7, "theta_s.7"),
            (
                lambda rec: rec["config"].update(d_hidden=64),
                "'config.d_hidden' is 64, but 'params.dims' gives 4",
            ),
            (
                lambda rec: rec["config"].update(ttt_steps=2.5),
                "'config.ttt_steps' has the wrong type: 2.5",
            ),
            (
                lambda rec: rec["config"].update(ttt_steps=-1),
                "'config.ttt_steps' is out of range: ttt_steps must be >= 0",
            ),
            (lambda rec: rec["config"].pop("ttt_lr"), "'config.ttt_lr' is missing"),
            (lambda rec: rec["config"].pop("adjacency"), "'config.adjacency' is missing"),
            (
                lambda rec: rec["params"]["dims"].pop("ssl_layers"),
                "'params.dims.ssl_layers' is missing",
            ),
            (
                _set_theta_e0_entry(True),
                "'params.matrices.theta_e.0.data.0' has the wrong type: True",
            ),
            (
                lambda rec: rec["train_stats"]["mu"].__setitem__(0, True),
                "'train_stats.mu.0' has the wrong type: True",
            ),
            (
                lambda rec: rec["train_stats"]["eta"][1].__setitem__(0, False),
                "'train_stats.eta.1.0' has the wrong type: False",
            ),
            (
                lambda rec: rec.update(training_log={"a": 1}),
                "'training_log' has the wrong type: {'a': 1}",
            ),
            (
                _set_theta_e0_entry("x"),
                "'params.matrices.theta_e.0.data.0' has the wrong type: 'x'",
            ),
            (
                _set_theta_e0_entry([1.0]),
                "'params.matrices.theta_e.0.data.0' has the wrong type: [1.0]",
            ),
            (
                lambda rec: rec["train_stats"]["eta"][2].pop(),
                "'train_stats.eta' does not fit shape (4, 4)",
            ),
            (
                lambda rec: rec["params"]["dims"].update(d_hidden="4"),
                "'params.dims.d_hidden' has the wrong type: '4'",
            ),
            (
                lambda rec: rec["train_stats"]["mu"].pop(),
                "'train_stats.mu' has 3 entries, but 'params.dims' gives d_hidden 4",
            ),
            (_skew_eta, "'train_stats.eta' is not symmetric"),
            *(
                (
                    lambda rec, name=name: rec["config"].update({name: 10**8}),
                    f"'config.{name}' is out of range: {name} must be <= {top}",
                )
                for name, top in SIZE_CEILINGS
            ),
            (
                lambda rec: rec["params"]["dims"].update(d_hidden=10**8),
                f"'params.dims.d_hidden' is out of range: d_hidden must be <= {MAX_D_HIDDEN}",
            ),
        ],
        ids=[
            "config-key",
            "dims-key",
            "missing-key",
            "transposed-matrix",
            "stats-dim",
            "unknown-matrix",
            "config-arch",
            "config-type",
            "config-range",
            "config-missing-ttt_lr",
            "config-missing-adjacency",
            "dims-missing",
            "data-bool",
            "mu-bool",
            "eta-bool",
            "log-not-list",
            "data-string",
            "data-nested",
            "eta-ragged",
            "dims-type",
            "mu-short",
            "eta-asymmetric",
            "config-d_hidden-ceiling",
            *(f"config-{name}-ceiling" for name in LAYER_COUNTS),
            "dims-d_hidden-ceiling",
        ],
    )
    def test_malformed_checkpoint_exits_2_naming_it(
        self, workdir, tmp_path, capsys, corrupt, named
    ):
        rec = json.loads(workdir["checkpoint"].read_text())
        corrupt(rec)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(rec))
        code = main(
            [
                "eval",
                str(bad),
                str(workdir["data"] / "test.jsonl"),
                "--out",
                str(tmp_path / "evb"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"checkpoint {bad}: " in err
        assert named in err


DEEP = b"[" * 100_000 + b"]" * 100_000  # nested beyond the JSON parser's recursion limit
NOT_UTF8 = b'{"seed": 0, "\xff": 1}\n'


class TestUnreadableFile:
    """A file nested too deep to parse, or holding a byte that is not UTF-8,
    exits 2 naming the file, and for a dataset the line, not with a traceback."""

    @pytest.mark.parametrize("content", [DEEP, NOT_UTF8], ids=["deep", "not-utf8"])
    @pytest.mark.parametrize(
        "role, named",
        [
            ("gen-config", "config file {bad}: unreadable as JSON: "),
            ("eval-config", "config file {bad}: unreadable as JSON: "),
            ("checkpoint", "checkpoint {bad}: unreadable as JSON: "),
            ("test-data", "{bad}: line 2: invalid JSON ("),
        ],
        ids=["gen-config", "eval-config", "checkpoint", "test-data"],
    )
    def test_exits_2_naming_the_file(self, workdir, tmp_path, capsys, role, named, content):
        bad = tmp_path / "bad"
        test_data = workdir["data"] / "test.jsonl"
        if role == "test-data":  # after a good first line
            content = test_data.read_bytes().splitlines(keepends=True)[0] + content
        bad.write_bytes(content)
        ckpt = str(workdir["checkpoint"])
        args = {
            "gen-config": ["gen", "--config", str(bad)],
            "eval-config": ["eval", ckpt, str(test_data), "--config", str(bad)],
            "checkpoint": ["eval", str(bad), str(test_data)],
            "test-data": ["eval", ckpt, str(bad)],
        }[role]
        assert main([*args, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"error: {named.format(bad=bad)}" in err
        assert not (tmp_path / "o").exists()


class TestAblateAndSweep:
    def test_ablation_rows_and_determinism(self, workdir, tmp_path, capsys):
        out_a = tmp_path / "ab1"
        out_b = tmp_path / "ab2"
        for out in (out_a, out_b):
            code = main(
                [
                    "ablate",
                    str(workdir["data"]),
                    "--config",
                    str(workdir["config"]),
                    "--seeds",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        capsys.readouterr()
        _, rows = parse_report_csv(out_a / "ablation.csv")
        assert len(rows) == 6  # 3 variants x 2 seeds
        assert [r["variant"] for r in rows[:3]] == ["tard", "tard-constraint", "tard-ttt"]
        assert (out_a / "ablation.csv").read_bytes() == (out_b / "ablation.csv").read_bytes()
        assert (out_a / "ablation.json").exists()
        assert (out_a / "ablation.svg").exists()

    def test_ablation_is_the_same_pooled_and_serial(
        self, workdir, tmp_path, capsys, monkeypatch, pools
    ):
        files = {}
        for cpus in (1, 2):
            monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"ab{cpus}"
            args = ["ablate", *_inputs(workdir, "ablate"), "--config", str(workdir["config"])]
            assert main([*args, "--seeds", "3", "--out", str(out)]) == 0
            files[cpus] = _file_bytes(out)
        capsys.readouterr()
        assert pools == ["fork"]
        assert files[1] == files[2]

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_ablate_seeds_below_one_exits_2_at_parsing(self, workdir, tmp_path, capsys, seeds):
        out = tmp_path / "ab"
        args = ["ablate", str(workdir["data"]), "--config", str(workdir["config"])]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--seeds", seeds, "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"--seeds: must be >= 1, got {seeds}" in captured.err
        assert "config_hash=" not in captured.out
        assert not out.exists()

    def test_sweep_emits_nine_rows(self, workdir, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(
            [
                "sweep",
                str(workdir["data"]),
                "--config",
                str(workdir["config"]),
                "--which",
                "alpha2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        _, rows = parse_report_csv(out / "sweep_alpha2.csv")
        assert len(rows) == 9
        assert rows[0]["variant"] == "alpha2=0"
        assert rows[-1]["variant"] == "alpha2=10"
        assert (out / "sweep_alpha2.svg").exists()
