"""The parallel runner: jobs resolution and sequential/parallel parity.

Every spec seeds all of its randomness, so the process-pool path must
produce bitwise-identical TrainingRuns — and therefore identical figure
rows — to the in-process sequential path.
"""

import warnings

import numpy as np
import pytest

from repro.graphs import ring
from repro.harness.figures import fig16_iteration_speed
from repro.harness.parallel import (
    default_jobs,
    resolve_jobs,
    run_specs,
    set_default_jobs,
)
from repro.harness.spec import ExperimentSpec, RANDOM_6X
from repro.harness.workloads import by_name


@pytest.fixture(autouse=True)
def reset_jobs():
    yield
    set_default_jobs(None)


def small_specs(n_specs=2, max_iter=6):
    workload = by_name("svm", "smoke")
    return {
        f"series{i}": ExperimentSpec(
            f"series{i}",
            workload,
            ring(8),
            slowdown=RANDOM_6X,
            max_iter=max_iter,
            seed=i,
        )
        for i in range(n_specs)
    }


class TestJobsResolution:
    def test_explicit_jobs_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3, n_tasks=10) == 3

    def test_env_var_used_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert default_jobs() == 5
        assert resolve_jobs(None, n_tasks=10) == 5

    def test_configured_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        set_default_jobs(2)
        assert default_jobs() == 2

    def test_clamped_to_task_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "64")
        assert resolve_jobs(None, n_tasks=3) == 3

    def test_at_least_one(self):
        assert resolve_jobs(0, n_tasks=0) == 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            default_jobs()

    def test_negative_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ValueError):
            default_jobs()

    def test_zero_env_means_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() >= 1

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            set_default_jobs(-1)

    def test_auto_detection_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() >= 1


class TestResolveJobsTable:
    """``resolve_jobs`` is ``max(1, min(jobs, n_tasks))``, with unset or
    0 jobs falling back to ``default_jobs()``; an explicit request above
    the core count is trusted as given."""

    #: (jobs, n_tasks) -> workers on a 2-CPU machine with REPRO_JOBS unset.
    TABLE = {
        (None, 1): 1, (None, 4): 2,
        (0, 1): 1, (0, 4): 2,
        (1, 1): 1, (1, 4): 1,
        (3, 1): 1, (3, 4): 3,
        (64, 1): 1, (64, 4): 4,
    }

    @pytest.mark.parametrize("jobs, n_tasks", sorted(TABLE, key=str))
    def test_values(self, monkeypatch, jobs, n_tasks):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr("repro.harness.parallel._usable_cpus", lambda: 2)
        assert resolve_jobs(jobs, n_tasks) == self.TABLE[jobs, n_tasks]

    def test_repro_shards_is_not_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "64")
        monkeypatch.setenv("REPRO_SHARDS", "64")
        assert resolve_jobs(None, n_tasks=100) == 64


class TestRunSpecsParity:
    def test_parallel_matches_sequential_bitwise(self):
        specs = small_specs()
        sequential = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=2)
        assert list(sequential) == list(parallel) == list(specs)
        for key in specs:
            seq, par = sequential[key], parallel[key]
            assert seq.wall_time == par.wall_time
            assert np.array_equal(seq.final_params, par.final_params)
            seq_t, seq_l = seq.loss_series()
            par_t, par_l = par.loss_series()
            assert np.array_equal(seq_t, par_t)
            assert np.array_equal(seq_l, par_l)
            assert seq.iterations_completed == par.iterations_completed
            assert seq.messages_sent == par.messages_sent

    def test_unpicklable_spec_falls_back_to_sequential(self):
        import dataclasses

        from repro.ml.models import build_svm

        specs = small_specs()
        # A lambda factory works in-process but cannot cross a process
        # boundary, so the pool path must degrade to sequential.
        unpicklable = dataclasses.replace(
            specs["series0"].workload,
            model_factory=lambda rng: build_svm(rng, 32),
        )
        bad_specs = {
            key: spec.with_(workload=unpicklable)
            for key, spec in specs.items()
        }
        with pytest.warns(RuntimeWarning, match="sequentially"):
            results = run_specs(bad_specs, jobs=2)
        assert list(results) == list(bad_specs)
        for run in results.values():
            assert run.wall_time > 0

    def test_worker_exception_propagates_without_sequential_rerun(self):
        specs = small_specs()
        bad_specs = {
            key: spec.with_(protocol="no-such-protocol")
            for key, spec in specs.items()
        }
        # A real error inside run_spec must surface as-is, not get
        # misread as "parallel runner unavailable" and re-run.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="unknown protocol"):
                run_specs(bad_specs, jobs=2)


class TestFigureDeterminism:
    def test_figure_rows_identical_across_jobs(self):
        set_default_jobs(1)
        sequential = fig16_iteration_speed(preset="smoke", workload_name="svm")
        set_default_jobs(2)
        parallel = fig16_iteration_speed(preset="smoke", workload_name="svm")
        assert sequential.rows == parallel.rows
        assert sequential.checks == parallel.checks
        assert list(sequential.series) == list(parallel.series)
        for key in sequential.series:
            seq_x, seq_y = sequential.series[key]
            par_x, par_y = parallel.series[key]
            assert np.array_equal(seq_x, par_x)
            assert np.array_equal(seq_y, par_y)
