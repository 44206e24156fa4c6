"""Unit tests for configuration dataclasses."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.config import SchemeParams, SimParams


class TestSimParams:
    def test_defaults_valid(self):
        p = SimParams()
        assert p.bytes_per_cell > 0
        assert p.ghost_width >= 0

    def test_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            SimParams().bytes_per_cell = 1.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"bytes_per_cell": 0},
            {"ghost_width": -1},
            {"parent_child_factor": -0.5},
            {"repartition_fixed_seconds": -1},
            {"repartition_seconds_per_grid": -1},
            {"regrid_seconds_per_grid": -1},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SimParams(**kw)


class TestSchemeParams:
    def test_paper_default_gamma(self):
        """'gamma is a user-defined parameter (default is 2.0)'."""
        assert SchemeParams().gamma == 2.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"gamma": -1},
            {"imbalance_threshold": 0.9},
            {"local_tolerance": 0.0},
            {"local_tolerance": 1.0},
            {"max_local_moves": 0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SchemeParams(**kw)


class TestNaNRejected:
    """``nan <= 0`` is false, so range checks alone let NaN through and
    every comm/compute time computed from it would read NaN."""

    @pytest.mark.parametrize("cls,field", [
        *((SimParams, f.name) for f in dataclasses.fields(SimParams)),
        *((SchemeParams, f.name) for f in dataclasses.fields(SchemeParams)),
    ])
    def test_every_field_rejects_nan(self, cls, field):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            cls(**{field: math.nan})

    @pytest.mark.parametrize("kw", [
        {"gamma": math.inf},
        {"gamma": 0.0},
        {"imbalance_threshold": math.inf},
    ])
    def test_values_accepted_before_stay_accepted(self, kw):
        SchemeParams(**kw)

    def test_infinite_sim_params_stay_accepted(self):
        SimParams(bytes_per_cell=math.inf, regrid_seconds_per_grid=math.inf)
