"""Ready-made experiment configurations.

``shift_mid`` is the calibrated default benchmark: a moderate rotation +
noise/size shift where test-time adaptation visibly helps but the task stays
solvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .datagen import MAX_EVENTS, DomainSpec, ShiftSpec, apply_shift, derive_split_seed
from .pipeline import TrainConfig
from .ranges import check, rule


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: source domain, shift, training knobs, split sizes."""

    domain: DomainSpec
    shift: ShiftSpec
    train: TrainConfig
    val_events: int = rule(100, ge=0, le=MAX_EVENTS)
    test_events: int = rule(100, ge=1, le=MAX_EVENTS)

    def __post_init__(self) -> None:
        check(ExperimentConfig, vars(self))
        width, dim = len(self.shift.mean_translation), self.domain.feature_dim
        if width not in (0, dim):
            raise ValueError(
                f"'shift.mean_translation' has length {width}, "
                f"but 'domain.feature_dim' is {dim}"
            )
        try:
            self.target_spec()
        except ValueError as exc:
            raise ValueError(f"'shift' moves the target domain out of range: {exc}") from None

    def val_spec(self) -> DomainSpec:
        return replace(
            self.domain,
            num_events=self.val_events,
            seed=derive_split_seed(self.domain.seed, "val"),
        )

    def target_spec(self) -> DomainSpec:
        return replace(apply_shift(self.domain, self.shift), num_events=self.test_events)


def shift_mid(seed: int = 0) -> ExperimentConfig:
    """Benchmark default: 400 source training events, 100 shifted test events.

    The target domain rotates the class-mean axis, translates every feature
    coordinate by -1.5 (pushing extractor units toward their inactive range),
    and inflates noise and cascade sizes. Values are calibrated so that
    test-time adaptation recovers a solid share of the accuracy the shift
    costs; treat them as a matched set.
    """
    domain = DomainSpec(
        num_events=400,
        feature_dim=8,
        class_mean_separation=3.0,
        feature_noise_std=1.0,
        size_dist=(10, 60),
        branching_bias=0.3,
        structure_signal_strength=0.4,
        seed=seed,
    )
    shift = ShiftSpec(
        rotation_angle=math.pi / 3,
        mean_translation=(-1.5,) * 8,
        noise_scale_factor=1.25,
        size_scale_factor=1.5,
    )
    train = TrainConfig(seed=seed, epochs=20, ttt_steps=30, ttt_lr=5e-3)
    return ExperimentConfig(domain=domain, shift=shift, train=train)

