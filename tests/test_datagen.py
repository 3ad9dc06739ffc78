"""Synthetic cascade generator, distribution shift, and dataset files."""

import json
import math
import re
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tard.datagen import (
    ROOT_FEATURE_MARK,
    DomainSpec,
    ShiftSpec,
    apply_shift,
    derive_split_seed,
    derive_target_seed,
    event_from_json_dict,
    event_to_json_dict,
    generate_domain,
    read_dataset,
    write_dataset,
)
from tard.graphs import InvalidEventError, to_prop_graph
from tard.pipeline import TrainConfig, predict, train_phase


def _spec(**overrides):
    base = dict(
        num_events=20,
        feature_dim=4,
        class_mean_separation=2.0,
        feature_noise_std=1.0,
        size_dist=(3, 9),
        branching_bias=0.4,
        structure_signal_strength=0.2,
        seed=0,
    )
    base.update(overrides)
    return DomainSpec(**base)


def _dataset_bytes(events):
    return "\n".join(
        json.dumps(event_to_json_dict(e), separators=(",", ":")) for e in events
    ).encode()


class TestDomainSpec:
    def test_rejects_bad_class_balance(self):
        with pytest.raises(ValueError):
            _spec(class_balance=1.5)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            _spec(feature_noise_std=0.0)

    def test_rejects_inverted_size_dist(self):
        with pytest.raises(ValueError):
            _spec(size_dist=(9, 3))

    def test_rejects_branching_outside_unit_interval(self):
        with pytest.raises(ValueError):
            _spec(branching_bias=1.2)

    def test_rejects_rotation_in_one_dimension(self):
        with pytest.raises(ValueError):
            _spec(feature_dim=1, mean_rotation=0.5)

    def test_rejects_translation_length_mismatch(self):
        with pytest.raises(ValueError):
            _spec(mean_translation=(1.0, 2.0))

    def test_json_arrays_become_tuples(self):
        spec = _spec(size_dist=[4, 8], mean_translation=[1, 2, 3, 4])
        assert spec.size_dist == (4, 8)
        assert spec.mean_translation == (1.0, 2.0, 3.0, 4.0)
        hash(spec)

    def test_no_translation_stays_none_and_means_no_offset(self):
        spec = _spec()
        assert spec.mean_translation is None
        zero = _spec(mean_translation=(0.0,) * 4)
        for a, b in zip(spec.class_means(), zero.class_means()):
            assert a.tobytes() == b.tobytes()

    def test_class_means_antipodal(self):
        spec = _spec(class_mean_separation=2.0)
        m0, m1 = spec.class_means()
        npt.assert_allclose(m0, [-1.0, 0.0, 0.0, 0.0], atol=1e-15)
        npt.assert_allclose(m1, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_class_means_rotation_and_translation(self):
        spec = _spec(
            class_mean_separation=2.0,
            mean_rotation=math.pi / 2,
            mean_translation=(5.0, 0.0, 0.0, 0.0),
        )
        m0, m1 = spec.class_means()
        npt.assert_allclose(m0, [5.0, -1.0, 0.0, 0.0], atol=1e-12)
        npt.assert_allclose(m1, [5.0, 1.0, 0.0, 0.0], atol=1e-12)


class TestGenerateDomain:
    def test_same_spec_gives_byte_identical_dataset(self):
        a = generate_domain(_spec())
        b = generate_domain(_spec())
        assert _dataset_bytes(a) == _dataset_bytes(b)

    def test_event_ids_unique(self):
        events = generate_domain(_spec(num_events=50))
        assert len({e.id for e in events}) == 50

    def test_node_counts_respect_size_dist(self):
        events = generate_domain(_spec(num_events=60, size_dist=(3, 9)))
        counts = [e.num_nodes for e in events]
        assert min(counts) >= 3 and max(counts) <= 9

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_events_are_trees_rooted_at_zero(self, seed):
        for e in generate_domain(_spec(num_events=4, seed=seed)):
            assert len(e.edges) == e.num_nodes - 1
            children = sorted(t for _, t in e.edges)
            assert children == list(range(1, e.num_nodes))
            assert all(s < t for s, t in e.edges)  # parents precede children

    def test_class_counts_near_balance(self):
        events = generate_domain(_spec(num_events=400, seed=5))
        ones = sum(e.label for e in events)
        assert 160 <= ones <= 240
        assert 160 <= 400 - ones <= 240

    def test_root_feature_mark(self):
        spec = _spec(
            class_mean_separation=0.0,
            feature_noise_std=1e-12,
            structure_signal_strength=0.0,
        )
        for e in generate_domain(spec):
            npt.assert_allclose(e.features[0, -1], ROOT_FEATURE_MARK, atol=1e-9)
            npt.assert_allclose(e.features[1:, -1], 0.0, atol=1e-9)

    def test_branching_extremes_shape_trees(self):
        chains = generate_domain(
            _spec(branching_bias=0.0, structure_signal_strength=0.0, size_dist=(6, 6))
        )
        stars = generate_domain(
            _spec(branching_bias=1.0, structure_signal_strength=0.0, size_dist=(6, 6))
        )
        assert all(e.edges == [(k - 1, k) for k in range(1, 6)] for e in chains)
        assert all(e.edges == [(0, k) for k in range(1, 6)] for e in stars)


class TestApplyShift:
    def test_identity_shift_changes_only_seed(self):
        src = _spec()
        tgt = apply_shift(src, ShiftSpec())
        assert tgt.seed == derive_target_seed(src.seed)
        assert tgt.seed != src.seed
        for name in (
            "num_events",
            "feature_dim",
            "class_mean_separation",
            "feature_noise_std",
            "size_dist",
            "branching_bias",
            "structure_signal_strength",
            "mean_rotation",
            "mean_translation",
        ):
            assert getattr(tgt, name) == getattr(src, name), name

    def test_fields_transform(self):
        tgt = apply_shift(
            _spec(),
            ShiftSpec(
                rotation_angle=0.5,
                mean_translation=(1.0, 0.0, 0.0, -1.0),
                noise_scale_factor=2.0,
                size_scale_factor=3.0,
                branching_shift=0.9,
            ),
        )
        assert tgt.mean_rotation == 0.5
        assert tgt.mean_translation == (1.0, 0.0, 0.0, -1.0)
        assert tgt.feature_noise_std == 2.0
        assert tgt.size_dist == (9, 27)
        assert tgt.branching_bias == 1.0  # clamped from 0.4 + 0.9

    def test_shifts_compose_additively(self):
        once = apply_shift(_spec(), ShiftSpec(rotation_angle=0.3))
        twice = apply_shift(once, ShiftSpec(rotation_angle=0.2))
        npt.assert_allclose(twice.mean_rotation, 0.5, atol=1e-15)

    def test_rejects_rotation_for_1d_features(self):
        with pytest.raises(ValueError):
            apply_shift(_spec(feature_dim=1), ShiftSpec(rotation_angle=0.1))

    def test_size_scale_doubles_mean_node_count(self):
        src = _spec(num_events=200, size_dist=(10, 60), seed=3)
        tgt = apply_shift(src, ShiftSpec(size_scale_factor=2.0))
        mean_src = np.mean([e.num_nodes for e in generate_domain(src)])
        mean_tgt = np.mean([e.num_nodes for e in generate_domain(tgt)])
        assert abs(mean_tgt / mean_src - 2.0) < 0.2

    def test_derived_seeds_distinct_per_name(self):
        assert derive_split_seed(0, "val") != derive_split_seed(0, "shift")
        assert derive_split_seed(0, "val") != derive_split_seed(1, "val")
        assert derive_split_seed(5, "val") == derive_split_seed(5, "val")


def _frozen_accuracy(events, params):
    hits = sum(predict(to_prop_graph(e), params)[0] == e.label for e in events)
    return hits / len(events)


class TestShiftEffectOnModels:
    """Train small models on generated domains and check that the knobs
    move accuracy the way their construction dictates."""

    def test_label_independent_domain_scores_at_majority_rate(self):
        # Zero mean separation and zero structure signal leave the labels
        # carrying no information, so held-out accuracy can only hover
        # around the majority rate (0.5 at balanced classes). Averaged over
        # seeds to tame the binomial noise of 100-event test sets.
        accs = []
        for seed in range(5):
            spec = _spec(
                num_events=100,
                size_dist=(5, 15),
                class_mean_separation=0.0,
                structure_signal_strength=0.0,
                seed=seed,
            )
            model = train_phase(
                generate_domain(spec), TrainConfig(epochs=10, d_hidden=8, seed=seed)
            )
            held_out = generate_domain(
                replace(spec, seed=derive_split_seed(seed, "val"))
            )
            accs.append(_frozen_accuracy(held_out, model.params))
        assert abs(np.mean(accs) - 0.5) <= 0.08

    def test_half_turn_rotation_inverts_a_frozen_classifier(self):
        # A half-turn rotation in a 2-d feature space swaps the two
        # antipodal class means, so without adaptation a source-trained
        # model scores the complement of its source accuracy.
        for seed in range(3):
            spec = _spec(
                num_events=80,
                feature_dim=2,
                class_mean_separation=4.0,
                feature_noise_std=0.5,
                size_dist=(5, 12),
                structure_signal_strength=0.0,
                seed=seed,
            )
            train_set = generate_domain(spec)
            model = train_phase(
                train_set, TrainConfig(epochs=10, d_hidden=8, seed=seed)
            )
            src_acc = _frozen_accuracy(train_set, model.params)
            flipped = generate_domain(
                apply_shift(spec, ShiftSpec(rotation_angle=math.pi))
            )
            tgt_acc = _frozen_accuracy(flipped, model.params)
            assert src_acc >= 0.9
            assert abs(tgt_acc - (1.0 - src_acc)) <= 0.1

    def test_rotation_knob_degrades_frozen_accuracy(self):
        # Mean target accuracy over seeds should fall as the rotation angle
        # grows from 0 to a quarter turn; one inversion between adjacent
        # grid points is tolerated.
        grid = (0.0, math.pi / 6, math.pi / 3, math.pi / 2)
        sums = [0.0] * len(grid)
        for seed in range(5):
            spec = _spec(
                num_events=100,
                class_mean_separation=3.0,
                size_dist=(5, 15),
                structure_signal_strength=0.3,
                seed=seed,
            )
            model = train_phase(
                generate_domain(spec), TrainConfig(epochs=10, d_hidden=8, seed=seed)
            )
            for i, theta in enumerate(grid):
                shifted = generate_domain(
                    apply_shift(spec, ShiftSpec(rotation_angle=theta))
                )
                sums[i] += _frozen_accuracy(shifted, model.params)
        means = [s / 5 for s in sums]
        inversions = sum(means[i + 1] > means[i] for i in range(len(grid) - 1))
        assert inversions <= 1
        assert means[-1] < means[0]


class TestDatasetFiles:
    def test_write_read_structural_equality(self, tmp_path):
        events = generate_domain(_spec(num_events=12))
        path = tmp_path / "d.jsonl"
        write_dataset(events, path)
        back = read_dataset(path)
        assert len(back) == 12
        for orig, re in zip(events, back):
            assert re.id == orig.id
            assert re.label == orig.label
            assert re.edges == orig.edges
            assert re.features.tobytes() == orig.features.tobytes()

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_streamed_file_equals_the_joined_string(self, tmp_path, count):
        events = generate_domain(_spec(num_events=3))[:count]
        joined = "".join(
            json.dumps(event_to_json_dict(e), separators=(",", ":")) + "\n" for e in events
        )
        path = tmp_path / "d.jsonl"
        write_dataset(events, path)
        assert path.read_bytes() == joined.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]

    def test_unserializable_event_leaves_the_old_file(self, tmp_path):
        events = generate_domain(_spec(num_events=3))
        path = tmp_path / "d.jsonl"
        write_dataset(events[:1], path)
        before = path.read_bytes()
        # json cannot encode an np.int64, so the last line fails after two
        # lines have been written.
        bad = replace(events[2], label=np.int64(events[2].label))
        with pytest.raises(TypeError):
            write_dataset([events[0], events[1], bad], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]

    def test_empty_dataset_round_trips(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset([], path)
        assert path.read_bytes() == b""
        assert read_dataset(path) == []

    def test_invalid_json_names_line(self, tmp_path):
        events = generate_domain(_spec(num_events=3))
        path = tmp_path / "d.jsonl"
        lines = [json.dumps(event_to_json_dict(e)) for e in events]
        lines[1] = '{"truncated": '
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidEventError, match="line 2"):
            read_dataset(path)

    def test_blank_line_names_line(self, tmp_path):
        events = generate_domain(_spec(num_events=2))
        path = tmp_path / "d.jsonl"
        lines = [json.dumps(event_to_json_dict(e)) for e in events]
        path.write_text(lines[0] + "\n\n" + lines[1] + "\n")
        with pytest.raises(InvalidEventError, match="line 2"):
            read_dataset(path)

    def test_missing_field_names_line(self, tmp_path):
        events = generate_domain(_spec(num_events=2))
        path = tmp_path / "d.jsonl"
        recs = [event_to_json_dict(e) for e in events]
        del recs[1]["label"]
        path.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        with pytest.raises(InvalidEventError, match="line 2"):
            read_dataset(path)

    def test_feature_dim_inconsistency_names_line(self, tmp_path):
        a = generate_domain(_spec(num_events=1, feature_dim=4))
        b = generate_domain(_spec(num_events=1, feature_dim=3, seed=1))
        path = tmp_path / "d.jsonl"
        recs = [event_to_json_dict(a[0]), event_to_json_dict(b[0])]
        path.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        with pytest.raises(InvalidEventError, match="line 2"):
            read_dataset(path)

    def test_ragged_feature_rows_rejected(self):
        rec = {
            "id": "x",
            "label": 0,
            "edges": [[0, 1]],
            "features": [[1.0, 2.0], [3.0]],
        }
        with pytest.raises(InvalidEventError):
            event_from_json_dict(rec)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("label", 0.9, "'label' is 0.9"),
            ("label", True, "'label' is True"),
            ("label", "1", "'label' is '1'"),
            ("label", 2**63, "'label' does not fit a 64-bit integer$"),
            ("label", -(10**400), "'label' does not fit a 64-bit integer$"),
            ("edges", [[0, 1.7]], r"'edges' entry \[0, 1.7\]"),
            ("edges", [[0, 1], [True, 2]], r"'edges' entry \[True, 2\]"),
            ("edges", [["0", "1"]], r"'edges' entry \['0', '1'\]"),
            ("edges", 5, r"'edges' is not a list of \[source, target\] pairs"),
            ("edges", {}, r"'edges' is not a list of \[source, target\] pairs"),
            ("edges", [[0, 1, 2]], r"'edges' is not a list of \[source, target\] pairs"),
            ("features", [[0.5, True]], "'features' must hold only JSON numbers"),
            ("features", [[0.5, "0.5"]], "'features' must hold only JSON numbers"),
        ],
        ids=[
            "label-float",
            "label-bool",
            "label-string",
            "label-beyond-int64",
            "label-huge-negative",
            "edge-float",
            "edge-bool",
            "edge-strings",
            "edges-number",
            "edges-object",
            "edge-triple",
            "feature-bool",
            "feature-string",
        ],
    )
    def test_non_integer_label_or_node_index_names_line(self, tmp_path, field, value, named):
        events = generate_domain(_spec(num_events=2))
        recs = [event_to_json_dict(e) for e in events]
        recs[1][field] = value
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        with pytest.raises(InvalidEventError, match=f"line 2: {named}"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "value, named",
        [
            (5, "line 2: 'id' is 5, not a JSON string"),
            (None, "line 2: 'id' is None, not a JSON string"),
            ("first", "line 2: id 'first' repeats line 1"),
        ],
        ids=["id-int", "id-null", "id-repeated"],
    )
    def test_id_not_a_unique_string_names_line(self, tmp_path, value, named):
        events = generate_domain(_spec(num_events=3))
        recs = [event_to_json_dict(e) for e in events]
        recs[0]["id"] = "first"
        recs[1]["id"] = value
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        with pytest.raises(InvalidEventError, match=f"^{re.escape(str(path))}: {named}$"):
            read_dataset(path)

    def test_event_without_edges_is_valid(self):
        rec = {"id": "x", "label": 1, "edges": [], "features": [[1.0], [2.0]]}
        event = event_from_json_dict(rec)
        assert (event.label, event.edges, event.num_nodes) == (1, [], 2)

    def test_400_event_round_trip_under_one_second(self, tmp_path):
        events = generate_domain(_spec(num_events=400, size_dist=(10, 60), seed=2))
        path = tmp_path / "big.jsonl"
        start = time.perf_counter()
        write_dataset(events, path)
        back = read_dataset(path)
        elapsed = time.perf_counter() - start
        assert len(back) == 400
        assert elapsed < 1.0, f"round trip took {elapsed:.2f}s"
