"""Figure 1 -- examples of AMR working-set evolutions.

The figure shows several normalised profiles produced by the
acceleration--deceleration model: 1000 steps, values in [0, 1000], mostly
increasing, with sudden-increase regions, plateaus and noise.  The experiment
regenerates a set of profiles and reports the shape statistics that make them
comparable to the published ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..metrics.report import format_table
from ..models.amr_evolution import AmrEvolutionParameters, normalized_profile

__all__ = ["ProfileSummary", "run", "main"]


@dataclass(frozen=True)
class ProfileSummary:
    """Shape statistics of one generated profile."""

    seed: int
    peak: float
    final_value: float
    increasing_fraction: float
    plateau_fraction: float
    max_step_increase: float


def summarize_profile(seed: int, profile: Sequence[float]) -> ProfileSummary:
    """Compute the shape statistics reported for Figure 1."""
    diffs = [after - before for before, after in zip(profile, profile[1:])]
    noise_scale = 3.0  # ~ the model's noise sigma; below this a step is "flat"

    def fraction(count: int) -> float:
        return count / len(diffs) if diffs else float("nan")

    return ProfileSummary(
        seed=seed,
        peak=max(profile),
        final_value=profile[-1],
        increasing_fraction=fraction(sum(d > 0 for d in diffs)),
        plateau_fraction=fraction(sum(abs(d) < noise_scale for d in diffs)),
        max_step_increase=max(diffs, default=0.0),
    )


def run(
    seeds: Sequence[int] = tuple(range(5)),
    params: AmrEvolutionParameters = AmrEvolutionParameters(),
) -> Dict[int, List[float]]:
    """Generate one normalised profile per seed (the figure's curves)."""
    return {seed: normalized_profile(seed=seed, params=params) for seed in seeds}


def main(seeds: Sequence[int] = tuple(range(5))) -> str:
    """Render the Figure 1 reproduction as a text table."""
    profiles = run(seeds)
    summaries: List[ProfileSummary] = [
        summarize_profile(seed, profile) for seed, profile in profiles.items()
    ]
    rows = [
        (
            s.seed,
            round(s.peak, 1),
            round(s.final_value, 1),
            f"{100 * s.increasing_fraction:.0f}%",
            f"{100 * s.plateau_fraction:.0f}%",
            round(s.max_step_increase, 1),
        )
        for s in summaries
    ]
    table = format_table(
        ["seed", "peak", "final", "increasing steps", "plateau steps", "max jump"],
        rows,
    )
    return "Figure 1 -- normalised AMR working-set evolutions\n" + table


if __name__ == "__main__":  # pragma: no cover
    print(main())
