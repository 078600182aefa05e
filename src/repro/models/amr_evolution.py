"""Working-set evolution model of an AMR application (paper Section 2.1).

The paper derives a synthetic "acceleration--deceleration" model of how the
refined-mesh size of an Adaptive Mesh Refinement computation evolves:

* the application runs a fixed number of steps (1000 in the paper);
* the data size :math:`s_i` evolves with a velocity :math:`v_i`
  (:math:`s_i = s_{i-1} + v_i`);
* the run is divided into phases of random length (uniform in [1, 200]
  steps); during *even* phases the velocity accelerates
  (:math:`v_i = v_{i-1} + 0.01`), during *odd* phases it decays
  (:math:`v_i = 0.95 \\cdot v_{i-1}`);
* Gaussian noise (:math:`\\mu = 0, \\sigma = 2`) is added to the sizes;
* the profile is normalised so that its maximum equals 1000.

The resulting profiles are mostly increasing, show regions of sudden increase
and regions of constancy, and carry some noise -- the three features the
paper extracts from published AMR studies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..sim.randomness import RandomSource

__all__ = [
    "AmrEvolutionParameters",
    "normalized_profile",
    "working_set_profile",
    "WorkingSetEvolution",
]

#: Normalised profiles peak at this value, as in the paper's Figure 1.
NORMALIZED_PEAK = 1000.0


@dataclass(frozen=True)
class AmrEvolutionParameters:
    """Parameters of the acceleration--deceleration model."""

    num_steps: int = 1000
    phase_min_steps: int = 1
    phase_max_steps: int = 200
    acceleration: float = 0.01
    deceleration_factor: float = 0.95
    noise_sigma: float = 2.0

    def __post_init__(self) -> None:
        if self.num_steps <= 0:
            raise ValueError("num_steps must be positive")
        if not 1 <= self.phase_min_steps <= self.phase_max_steps:
            raise ValueError("phase bounds must satisfy 1 <= min <= max")
        if self.acceleration <= 0:
            raise ValueError("acceleration must be positive")
        if not 0 < self.deceleration_factor < 1:
            raise ValueError("deceleration_factor must be in (0, 1)")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")

    @classmethod
    def scaled(cls, num_steps: int) -> "AmrEvolutionParameters":
        """Parameters rescaled to a shorter run while keeping the shape.

        The paper's constants are tuned for 1000 steps; with far fewer steps
        the raw sizes stay so small that the Gaussian noise dominates after
        normalisation and the profile loses its "mostly increasing" shape.
        Scaling the acceleration by ``(1000 / num_steps)**2`` keeps the raw
        magnitude comparable, and shrinking the phase lengths proportionally
        keeps several acceleration/deceleration phases per run.  At 1000
        steps these are the default (paper) parameters, so every experiment
        scale draws through this one rule.
        """
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        factor = 1000.0 / num_steps
        return cls(
            num_steps=num_steps,
            phase_min_steps=1,
            phase_max_steps=max(1, int(round(200 / factor))),
            acceleration=0.01 * factor * factor,
            deceleration_factor=0.95,
            noise_sigma=2.0,
        )


def normalized_profile(
    seed: Optional[int] = None,
    params: AmrEvolutionParameters = AmrEvolutionParameters(),
    random_source: Optional[RandomSource] = None,
) -> List[float]:
    """Generate one normalised working-set profile.

    Returns ``params.num_steps`` values in ``[0, 1000]`` whose maximum is
    exactly 1000 (the paper's normalisation).
    """
    rng = random_source if random_source is not None else RandomSource(seed)

    sizes = [0.0] * params.num_steps
    size = 0.0
    velocity = 0.0
    step = 0
    phase_index = 0
    while step < params.num_steps:
        phase_len = rng.uniform_int(params.phase_min_steps, params.phase_max_steps)
        accelerating = phase_index % 2 == 0
        for _ in range(phase_len):
            if step >= params.num_steps:
                break
            if accelerating:
                velocity = velocity + params.acceleration
            else:
                velocity = velocity * params.deceleration_factor
            size = size + velocity
            sizes[step] = size
            step += 1
        phase_index += 1

    if params.noise_sigma > 0:
        noise = rng.gaussian_array(0.0, params.noise_sigma, params.num_steps)
        sizes = [size + delta for size, delta in zip(sizes, noise)]

    # The working set cannot be negative.
    sizes = [size if size >= 0.0 else 0.0 for size in sizes]

    peak = max(sizes)
    if peak <= 0:
        # Degenerate (can only happen for tiny profiles drowned in noise):
        # return a flat profile at the peak value.
        return [NORMALIZED_PEAK] * params.num_steps
    scale = NORMALIZED_PEAK / peak
    return [size * scale for size in sizes]


def working_set_profile(
    max_size_mib: float,
    seed: Optional[int] = None,
    params: AmrEvolutionParameters = AmrEvolutionParameters(),
    random_source: Optional[RandomSource] = None,
) -> List[float]:
    """Generate an actual (non-normalised) data-size profile in MiB.

    The normalised profile is scaled so that its peak equals *max_size_mib*
    (the paper's :math:`S_i = s_i \\cdot S_{max}` with :math:`s_i` normalised
    to 1).
    """
    if max_size_mib <= 0:
        raise ValueError("max_size_mib must be positive")
    profile = normalized_profile(seed=seed, params=params, random_source=random_source)
    scale = max_size_mib / NORMALIZED_PEAK
    return [size * scale for size in profile]


class WorkingSetEvolution:
    """A concrete working-set evolution, step by step.

    This is the object the simulated AMR application consults: it exposes the
    data size of the *current* step only, because a non-predictably evolving
    application cannot look ahead (Section 2.3).  Analysis code (which is
    allowed a posteriori knowledge) can read :attr:`sizes_mib` directly.
    """

    def __init__(self, sizes_mib: Sequence[float]):
        sizes: Tuple[float, ...] = tuple(float(s) for s in sizes_mib)
        if not sizes:
            raise ValueError("sizes_mib must be a non-empty 1-D sequence")
        if any(s < 0 for s in sizes):
            raise ValueError("data sizes cannot be negative")
        self.sizes_mib = sizes

    @classmethod
    def generate(
        cls,
        max_size_mib: float,
        seed: Optional[int] = None,
        params: AmrEvolutionParameters = AmrEvolutionParameters(),
        random_source: Optional[RandomSource] = None,
    ) -> "WorkingSetEvolution":
        """Draw a random evolution with the given peak size."""
        return cls(
            working_set_profile(
                max_size_mib, seed=seed, params=params, random_source=random_source
            )
        )

    @property
    def num_steps(self) -> int:
        return len(self.sizes_mib)

    @property
    def peak_size_mib(self) -> float:
        return max(self.sizes_mib)

    def size_at(self, step: int) -> float:
        """Data size (MiB) during step *step* (0-based)."""
        if not 0 <= step < self.num_steps:
            raise IndexError(f"step {step} out of range [0, {self.num_steps})")
        return self.sizes_mib[step]

    def __len__(self) -> int:
        return self.num_steps

    def __iter__(self):
        return iter(self.sizes_mib)
