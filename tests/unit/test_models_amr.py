"""Unit tests of the AMR working-set evolution model (paper Section 2.1)."""
from __future__ import annotations

import statistics

import pytest

from repro.models import (
    AmrEvolutionParameters,
    WorkingSetEvolution,
    normalized_profile,
    working_set_profile,
)


class TestParameters:
    def test_defaults_match_the_paper(self):
        p = AmrEvolutionParameters()
        assert p.num_steps == 1000
        assert p.phase_min_steps == 1
        assert p.phase_max_steps == 200
        assert p.acceleration == pytest.approx(0.01)
        assert p.deceleration_factor == pytest.approx(0.95)
        assert p.noise_sigma == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_steps": 0},
            {"phase_min_steps": 0},
            {"phase_min_steps": 10, "phase_max_steps": 5},
            {"acceleration": 0.0},
            {"deceleration_factor": 1.5},
            {"noise_sigma": -1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AmrEvolutionParameters(**kwargs)


class TestNormalizedProfile:
    def test_length_and_normalisation(self):
        profile = normalized_profile(seed=0)
        assert len(profile) == 1000
        assert max(profile) == pytest.approx(1000.0)
        assert min(profile) >= 0.0

    def test_reproducible_from_seed(self):
        assert normalized_profile(seed=3) == normalized_profile(seed=3)
        # Not even numpy.allclose (|a - b| <= 1e-8 + 1e-5 |b| everywhere).
        pairs = zip(normalized_profile(seed=3), normalized_profile(seed=4))
        assert any(abs(a - b) > 1e-8 + 1e-5 * abs(b) for a, b in pairs)

    def test_profile_is_mostly_increasing(self):
        # The paper extracts "mostly increasing" as the first qualitative
        # feature of published AMR evolutions.
        profile = normalized_profile(seed=1)
        diffs = [b - a for a, b in zip(profile, profile[1:])]
        assert sum(d >= 0 for d in diffs) / len(diffs) > 0.5
        assert profile[-1] > 0.5 * max(profile)

    def test_profile_has_plateaus_and_jumps(self):
        profile = normalized_profile(seed=2)
        diffs = [b - a for a, b in zip(profile, profile[1:])]
        # Plateaus: a noticeable fraction of near-flat steps.
        assert sum(abs(d) < 3.0 for d in diffs) / len(diffs) > 0.05
        # Sudden increases: some steps clearly larger than the typical step.
        assert max(diffs) > 2 * max(statistics.median(map(abs, diffs)), 1e-9)

    def test_custom_step_count(self):
        profile = normalized_profile(seed=0, params=AmrEvolutionParameters(num_steps=50))
        assert len(profile) == 50
        assert max(profile) == pytest.approx(1000.0)


class TestWorkingSetProfile:
    def test_scaling_to_peak(self):
        profile = working_set_profile(2048.0, seed=5)
        assert max(profile) == pytest.approx(2048.0)
        assert min(profile) >= 0.0

    def test_requires_positive_peak(self):
        with pytest.raises(ValueError):
            working_set_profile(0.0, seed=5)


class TestWorkingSetEvolution:
    def test_generate_and_access(self):
        ev = WorkingSetEvolution.generate(1000.0, seed=7, params=AmrEvolutionParameters(num_steps=100))
        assert ev.num_steps == 100
        assert len(ev) == 100
        assert ev.peak_size_mib == pytest.approx(1000.0)
        assert ev.size_at(0) == pytest.approx(float(ev.sizes_mib[0]))
        assert list(ev)[3] == pytest.approx(ev.size_at(3))

    def test_out_of_range_step_rejected(self):
        ev = WorkingSetEvolution([1.0, 2.0])
        with pytest.raises(IndexError):
            ev.size_at(2)
        with pytest.raises(IndexError):
            ev.size_at(-1)

    def test_rejects_invalid_series(self):
        with pytest.raises(ValueError):
            WorkingSetEvolution([])
        with pytest.raises(ValueError):
            WorkingSetEvolution([1.0, -2.0])
