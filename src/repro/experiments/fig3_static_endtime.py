"""Figure 3 -- end-time increase of the equivalent static allocation.

For every target efficiency, the equivalent static allocation consumes the
same resource area as the dynamic allocation but distributes it differently
over the run; the figure shows that the resulting end-time increase stays
below ~2.5 % for target efficiencies up to 0.8 (beyond which the equivalent
static allocation stops existing).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..metrics.report import format_table
from ..models.amr_evolution import AmrEvolutionParameters, WorkingSetEvolution
from ..models.speedup import PAPER_SPEEDUP_MODEL, SpeedupModel, TIB_IN_MIB
from ..models.static_equivalent import equivalent_static_allocation

__all__ = ["PAPER_TARGET_EFFICIENCIES", "EndTimePoint", "run", "main"]

#: The x-axis of Figure 3.
PAPER_TARGET_EFFICIENCIES: Tuple[float, ...] = tuple(
    round(0.1 + 0.1 * i, 1) for i in range(9)
)


@dataclass(frozen=True)
class EndTimePoint:
    """Distribution of end-time increases for one target efficiency."""

    target_efficiency: float
    samples: Tuple[float, ...]
    #: Fraction of profiles for which an equivalent static allocation exists.
    feasible_fraction: float

    @property
    def median_increase(self) -> float:
        import numpy as np

        return float(np.median(self.samples)) if self.samples else float("nan")

    @property
    def max_increase(self) -> float:
        import numpy as np

        return float(np.max(self.samples)) if self.samples else float("nan")


def run(
    target_efficiencies: Sequence[float] = PAPER_TARGET_EFFICIENCIES,
    seeds: Sequence[int] = tuple(range(10)),
    num_steps: int = 1000,
    s_max_mib: float = 3.16 * TIB_IN_MIB,
    model: SpeedupModel = PAPER_SPEEDUP_MODEL,
) -> Dict[float, EndTimePoint]:
    """Compute the end-time increase distribution per target efficiency."""
    params = AmrEvolutionParameters(num_steps=num_steps)
    evolutions = [
        WorkingSetEvolution.generate(s_max_mib, seed=seed, params=params) for seed in seeds
    ]
    points: Dict[float, EndTimePoint] = {}
    for target in target_efficiencies:
        samples: List[float] = []
        feasible = 0
        for evolution in evolutions:
            result = equivalent_static_allocation(evolution, target, model)
            if result is None:
                continue
            feasible += 1
            samples.append(result.end_time_increase)
        points[target] = EndTimePoint(
            target_efficiency=target,
            samples=tuple(samples),
            feasible_fraction=feasible / len(evolutions) if evolutions else 0.0,
        )
    return points


def main(
    target_efficiencies: Sequence[float] = PAPER_TARGET_EFFICIENCIES,
    seeds: Sequence[int] = tuple(range(10)),
    num_steps: int = 1000,
) -> str:
    """Render the Figure 3 reproduction as a text table."""
    points = run(target_efficiencies, seeds, num_steps=num_steps)
    rows = []
    for target in target_efficiencies:
        p = points[target]
        rows.append(
            (
                target,
                f"{100 * p.median_increase:.2f}%" if p.samples else "n/a",
                f"{100 * p.max_increase:.2f}%" if p.samples else "n/a",
                f"{100 * p.feasible_fraction:.0f}%",
            )
        )
    table = format_table(
        ["target efficiency", "median end-time increase", "max", "n_eq exists"], rows
    )
    return "Figure 3 -- end-time increase of the equivalent static allocation\n" + table


if __name__ == "__main__":  # pragma: no cover
    print(main())
