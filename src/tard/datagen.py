"""Synthetic propagation-cascade generator with a controllable
source-to-target distribution shift.

Events are random trees rooted at node 0. The class signal lives in two
channels: node features are drawn around one of two antipodal class means,
and tree shape (chain-like vs star-like) is tilted per class by
``structure_signal_strength``. A shift rotates and translates the class
means, rescales feature noise and cascade sizes, and nudges the branching
behavior — so a model trained on the source domain faces a genuinely moved
test distribution.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import reprlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .graphs import InvalidEventError, PropagationEvent
from .ranges import Numbers, check, check_record, rule

ROOT_FEATURE_MARK = 1.0  # added to the last coordinate of the root's features


#: Ceilings on what generation holds in memory or loops over: events in a
#: domain or split, feature coordinates per node (room for a 768-dimensional
#: text embedding) and nodes per cascade, also after a shift (five times the
#: largest large-cascade event). The presets use 400, 8 and 90. Without them
#: 10**9 events never finished, and 10**8 features or nodes ended in a numpy
#: MemoryError. A size factor above MAX_NODES pushes any cascade past it.
MAX_EVENTS = 100_000
MAX_FEATURE_DIM = 1024
MAX_NODES = 10_000

#: Ceiling on each scale a feature value is made of: the class-mean
#: separation, the noise standard deviation and every translation entry, in
#: the source domain and after a shift. A feature is a translated class mean
#: plus scaled normal noise, so none comes near 10**8, far inside the float
#: range; the presets use 3, 1 and 1.5. Without it a noise of 1e308 passed
#: the rules and numpy's multiply overflowed to inf.
MAX_FEATURE_SCALE = 10**6


@dataclass(frozen=True)
class DomainSpec:
    """Everything needed to sample one domain's events, seed included.

    ``mean_rotation`` (radians, applied in the plane of the first two feature
    coordinates) and ``mean_translation`` position the class-mean axis; they
    start neutral for a source domain (a ``None`` translation is no offset)
    and are populated by ``apply_shift``. Each field's range is its ``rule``.
    """

    num_events: int = rule(ge=1, le=MAX_EVENTS)
    feature_dim: int = rule(ge=1, le=MAX_FEATURE_DIM)
    class_mean_separation: float = rule(ge=0, le=MAX_FEATURE_SCALE, real=True)
    feature_noise_std: float = rule(gt=0, le=MAX_FEATURE_SCALE, real=True)
    size_dist: tuple[int, int] = rule(ge=1, le=MAX_NODES, each=True)
    branching_bias: float = rule(ge=0, le=1, real=True)
    structure_signal_strength: float = rule(ge=0, real=True)
    seed: int = rule(ge=0)
    class_balance: float = rule(0.5, ge=0, le=1, real=True)
    mean_rotation: float = rule(0.0, real=True)
    mean_translation: tuple[float, ...] | None = rule(
        None, ge=-MAX_FEATURE_SCALE, le=MAX_FEATURE_SCALE, real=True, each=True
    )

    def __post_init__(self) -> None:
        check(DomainSpec, vars(self))
        object.__setattr__(self, "size_dist", tuple(self.size_dist))
        if len(self.size_dist) != 2 or self.size_dist[0] > self.size_dist[1]:
            raise ValueError("size_dist must satisfy 1 <= min <= max")
        if self.mean_rotation != 0.0 and self.feature_dim < 2:
            raise ValueError("mean_rotation needs feature_dim >= 2")
        if self.mean_translation is not None:
            translation = tuple(float(v) for v in self.mean_translation)
            if len(translation) != self.feature_dim:
                raise ValueError(
                    f"mean_translation has length {len(translation)}, expected {self.feature_dim}"
                )
            object.__setattr__(self, "mean_translation", translation)

    def class_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Antipodal means for class 0 / class 1, rotated then translated."""
        axis = np.zeros(self.feature_dim)
        axis[0] = math.cos(self.mean_rotation)
        if self.feature_dim > 1:
            axis[1] = math.sin(self.mean_rotation)
        offset = np.array(self.mean_translation or (0.0,) * self.feature_dim)
        half = 0.5 * self.class_mean_separation * axis
        return offset - half, offset + half


@dataclass(frozen=True)
class ShiftSpec:
    """Source-to-target transformation applied to a DomainSpec."""

    rotation_angle: float = rule(0.0, real=True)
    mean_translation: tuple[float, ...] = rule(
        (), ge=-MAX_FEATURE_SCALE, le=MAX_FEATURE_SCALE, real=True, each=True
    )
    noise_scale_factor: float = rule(1.0, gt=0, real=True)
    size_scale_factor: float = rule(1.0, gt=0, le=MAX_NODES, real=True)
    branching_shift: float = rule(0.0, real=True)

    def __post_init__(self) -> None:
        check(ShiftSpec, vars(self))
        object.__setattr__(
            self, "mean_translation", tuple(float(v) for v in self.mean_translation)
        )


def _domain_tag(seed: int) -> str:
    return hashlib.sha256(f"domain:{seed}".encode()).hexdigest()[:8]


def derive_split_seed(seed: int, name: str) -> int:
    """Deterministic child seed for a named split or transformation."""
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_target_seed(seed: int) -> int:
    return derive_split_seed(seed, "shift")


def _generate_event(
    spec: DomainSpec,
    means: tuple[np.ndarray, np.ndarray],
    event_id: str,
    ss: np.random.SeedSequence,
) -> PropagationEvent:
    rng = np.random.default_rng(ss)
    label = int(rng.random() < spec.class_balance)
    lo, hi = spec.size_dist
    n = int(rng.integers(lo, hi + 1))

    # Attachment rule: with probability b_eff the new node replies to the
    # root (star-like), otherwise to the latest node (chain-like). The class
    # tilts b_eff so tree shape carries label information. Node k's coin is
    # draw k - 1 of one call: the values n - 1 scalar draws give, in order.
    b_eff = spec.branching_bias + (label - 0.5) * spec.structure_signal_strength
    b_eff = min(1.0, max(0.0, b_eff))
    coins = rng.random(n - 1).tolist()
    edges = [(0 if coin < b_eff else k - 1, k) for k, coin in enumerate(coins, 1)]

    mean = means[label]
    features = mean + spec.feature_noise_std * rng.standard_normal((n, spec.feature_dim))
    features[0, -1] += ROOT_FEATURE_MARK
    return PropagationEvent(
        id=event_id, label=label, num_nodes=n, edges=edges, features=features
    )


def generate_domain(spec: DomainSpec) -> list[PropagationEvent]:
    """Sample all events of one domain, fully determined by the DomainSpec.

    Each event draws from its own child seed, so generation order is
    irrelevant and events could be produced in parallel.
    """
    tag = _domain_tag(spec.seed)
    children = np.random.SeedSequence(spec.seed).spawn(spec.num_events)
    means = spec.class_means()
    return [
        _generate_event(spec, means, f"ev-{tag}-{i:05d}", child)
        for i, child in enumerate(children)
    ]


def apply_shift(spec: DomainSpec, shift: ShiftSpec) -> DomainSpec:
    """Target-domain spec: rotated/translated means, scaled noise and sizes,
    shifted branching, and a freshly derived seed."""
    if shift.rotation_angle != 0.0 and spec.feature_dim < 2:
        raise ValueError("rotation shift needs feature_dim >= 2")
    translation = spec.mean_translation
    if shift.mean_translation:
        if len(shift.mean_translation) != spec.feature_dim:
            raise ValueError(
                f"shift translation has length {len(shift.mean_translation)}, "
                f"expected {spec.feature_dim}"
            )
        base = translation or (0.0,) * spec.feature_dim
        translation = tuple(b + t for b, t in zip(base, shift.mean_translation))
    lo, hi = spec.size_dist
    new_lo = max(1, round(lo * shift.size_scale_factor))
    new_hi = max(new_lo, round(hi * shift.size_scale_factor))
    return replace(
        spec,
        mean_rotation=spec.mean_rotation + shift.rotation_angle,
        mean_translation=translation,
        feature_noise_std=spec.feature_noise_std * shift.noise_scale_factor,
        size_dist=(new_lo, new_hi),
        branching_bias=min(1.0, max(0.0, spec.branching_bias + shift.branching_shift)),
        seed=derive_target_seed(spec.seed),
    )


# --- dataset files ----------------------------------------------------------

def event_to_json_dict(event: PropagationEvent) -> dict:
    return {
        "id": event.id,
        "label": event.label,
        "edges": [[s, t] for s, t in event.edges],
        "features": event.features.tolist(),
    }


#: The keys of a dataset line and the type of each; other keys are ignored.
#: The label's range is its rule on ``PropagationEvent``.
EVENT_LINE = {"id": str, "label": int, "edges": tuple[tuple[int, int], ...], "features": Numbers(2)}


def event_from_json_dict(rec: dict, source: str = "event") -> PropagationEvent:
    """The event of one parsed dataset line; a defect raises an
    InvalidEventError that names ``source`` and the dotted key at fault."""
    if type(rec) is dict:
        rec = {key: rec[key] for key in EVENT_LINE if key in rec}
    try:
        check_record(source, "", rec, EVENT_LINE)
        return PropagationEvent(**rec, num_nodes=len(rec["features"]))
    except InvalidEventError as exc:  # the event's own checks name no source
        raise InvalidEventError(f"{source}: {exc}") from None
    except ValueError as exc:
        raise InvalidEventError(exc) from None


def write_dataset(events: Sequence[PropagationEvent], path: str | Path) -> None:
    """JSON Lines, one event per line; floats keep full precision. No events
    write an empty file.

    Each line is written as it is made, into a temporary file beside
    ``path`` that then replaces ``path``: the whole dataset is never held as
    one string, and an event that fails to serialize leaves ``path`` as it
    was and no temporary file behind.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            for e in events:
                fh.write(json.dumps(event_to_json_dict(e), separators=(",", ":")) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_dataset(path: str | Path) -> list[PropagationEvent]:
    """Parse a JSONL dataset; errors name the offending line. Event ids are
    unique: each keys its event's adaptation randomness and its record."""
    path = Path(path)
    events: list[PropagationEvent] = []
    seen: dict[str, int] = {}  # the line of each id
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            source = f"{path}: line {line_no}"
            if not line.strip():
                raise InvalidEventError(f"{source}: blank line in dataset")
            try:
                if not line.isascii():  # bytes that are not UTF-8 came in as surrogates
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
                raise InvalidEventError(f"{source}: invalid JSON ({exc})") from exc
            event = event_from_json_dict(rec, source)
            if events and event.feature_dim != events[0].feature_dim:
                raise InvalidEventError(
                    f"{source}: 'features' has {event.feature_dim} columns, "
                    f"but line 1's has {events[0].feature_dim}"
                )
            if event.id in seen:
                shown = reprlib.repr(event.id)
                raise InvalidEventError(f"{source}: 'id' is {shown}, as on line {seen[event.id]}")
            seen[event.id] = line_no
            events.append(event)
    return events
