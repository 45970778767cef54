"""Regression tests: sweeps must reject variant-label collisions.

Previously a duplicate pattern (or a label colliding with ``original``)
silently overwrote an earlier variant's trace in the sweep dictionary; the
sweep then reported numbers for the wrong trace without any error.
"""

import pytest

from repro.core import ComputationPattern
from repro.errors import AnalysisError, ConfigurationError
from repro.experiments import ExperimentSpec


class TestBandwidthSweepValidation:
    def test_duplicate_patterns_raise(self, small_bt):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ExperimentSpec(apps=(small_bt.name,), bandwidths=(100.0,),
                           patterns=("ideal", "ideal"))

    def test_original_label_collision_raises(self, small_bt):
        with pytest.raises(ConfigurationError, match="original"):
            ExperimentSpec(apps=(small_bt.name,), bandwidths=(100.0,),
                           patterns=("original",))


class TestStudyValidation:
    def test_environment_study_rejects_duplicate_patterns(self, small_bt, environment):
        with pytest.raises(AnalysisError, match="duplicate"):
            environment.study(small_bt,
                              patterns=(ComputationPattern.IDEAL,
                                        ComputationPattern.IDEAL))


class TestMechanismSweepValidation:
    def test_duplicate_mechanisms_raise(self, small_bt):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ExperimentSpec(apps=(small_bt.name,), bandwidths=(100.0,),
                           patterns=("ideal",), mechanisms=("full", "full"))
