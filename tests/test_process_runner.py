"""Tests for the process runtime of the parallel runner (real worker
processes)."""

import numpy as np
import pytest

from repro.core import largest_principal_angle
from repro.data import PlantedSubspaceModel, VectorStream
from repro.parallel import ParallelStreamingPCA


@pytest.fixture(scope="module")
def model():
    return PlantedSubspaceModel(
        dim=50, signal_variances=(25.0, 16.0, 9.0), noise_std=0.4, seed=6
    )


def _process_runner(n_components, **kwargs):
    return ParallelStreamingPCA(
        n_components, runtime="process", mp_context="fork", **kwargs
    )


class TestProcessParallelStreamingPCA:
    def test_global_solution_accurate(self, model):
        x = model.sample(6000, np.random.default_rng(2))
        runner = _process_runner(3, n_engines=3, alpha=0.995, split_seed=1)
        result = runner.run(VectorStream.from_array(x))
        assert largest_principal_angle(
            result.global_state.basis, model.basis
        ) < 0.15
        assert result.eigenvalues.shape == (3,)

    def test_every_observation_processed(self, model):
        x = model.sample(3000, np.random.default_rng(3))
        runner = _process_runner(3, n_engines=4, alpha=0.995, split_seed=2)
        result = runner.run(VectorStream.from_array(x))
        assert sum(r["n_local_rows"] for r in result.engine_reports) == 3000
        assert len(result.engine_states) == 4

    def test_sync_traffic_happens(self, model):
        x = model.sample(6000, np.random.default_rng(4))
        runner = _process_runner(
            3, n_engines=3, alpha=0.99, split_seed=3  # N=100: many syncs
        )
        result = runner.run(VectorStream.from_array(x))
        assert result.sync_stats.n_states_routed > 0
        assert result.sync_stats.n_merge_commands > 0

    def test_single_engine(self, model):
        x = model.sample(2000, np.random.default_rng(5))
        runner = _process_runner(3, n_engines=1, alpha=0.995)
        result = runner.run(VectorStream.from_array(x))
        assert result.sync_stats.n_merge_commands == 0
        assert largest_principal_angle(
            result.global_state.basis, model.basis
        ) < 0.2
