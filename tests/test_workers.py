"""Worker processes: the robustness sweep gives the serial run's results
and calls, and leaves no worker behind."""

import concurrent.futures
import dataclasses
import multiprocessing

import pytest

from tmfusion import config, experiment, model, workers


def force_cpus(monkeypatch, count):
    monkeypatch.setattr(workers, "usable_cpus", lambda: count)


class JobFailed(ValueError):
    pass


def fail_on_odd(i):
    if i % 2:
        raise JobFailed("job %d" % i)
    return i


class StandInPool:
    """Records its worker count and runs each job when submitted."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def stand_in_pool(monkeypatch):
    StandInPool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandInPool)
    return StandInPool.made


@pytest.mark.parametrize("cpus,jobs,made", [
    (64, 6, [6]), (2, 6, [2]), (1, 6, []), (64, 1, []), (64, 0, [])])
def test_worker_count_is_jobs_capped_by_cpus(monkeypatch, stand_in_pool,
                                             cpus, jobs, made):
    force_cpus(monkeypatch, cpus)
    assert list(workers.in_order(abs, [(-i,) for i in range(jobs)])) == list(range(jobs))
    assert stand_in_pool == made


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_failing_job_raises_with_its_type(monkeypatch, cpus):
    force_cpus(monkeypatch, cpus)
    done = []
    with pytest.raises(JobFailed, match="job 1"):
        for result in workers.in_order(fail_on_odd, [(i,) for i in range(6)]):
            done.append(result)
    assert done == [0]
    assert multiprocessing.active_children() == []


def test_leaving_early_stops_the_workers(monkeypatch):
    force_cpus(monkeypatch, 2)
    results = workers.in_order(abs, [(-i,) for i in range(6)])
    assert next(results) == 0
    results.close()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------- the sweep

SPEC = dataclasses.replace(
    experiment.ExperimentSpec(), seeds=(0, 1), max_batches=30,
    eval_interval=10, num_train_per_condition=40, num_test=12)


def sweep(monkeypatch, cpus):
    force_cpus(monkeypatch, cpus)
    calls = []
    results = experiment.run_experiment(
        SPEC, progress=lambda mode, seed, rep: calls.append((mode, seed, repr(rep))))
    assert multiprocessing.active_children() == []
    return repr(results), calls


def test_sweep_on_two_workers_equals_one(monkeypatch):
    serial, serial_calls = sweep(monkeypatch, 1)
    parallel, parallel_calls = sweep(monkeypatch, 2)
    assert parallel == serial
    assert parallel_calls == serial_calls
    assert [call[:2] for call in serial_calls] == [
        (mode, seed) for seed in SPEC.seeds for mode in SPEC.modes]


def test_sweep_rejects_a_bad_mode_before_any_data(monkeypatch):
    def no_data(spec, seed):
        raise AssertionError("data generated before the spec was checked")

    monkeypatch.setattr(experiment, "make_datasets", no_data)
    bad = dataclasses.replace(SPEC, modes=("ce", "ctc", "bogus"))
    with pytest.raises(config.ConfigError, match="bogus"):
        experiment.run_experiment(bad)


def test_sweep_with_an_empty_split_trains_no_model(monkeypatch):
    # one sequence per condition splits 1/0 at val_fraction 0.1, and the
    # validation score of an empty split divides by zero, after training
    def no_training(*args, **kw):
        raise AssertionError("a model trained on an empty split")

    monkeypatch.setattr(model, "train", no_training)
    empty = dataclasses.replace(SPEC, seeds=(0,), modes=("ctc",),
                                num_train_per_condition=1, num_test=1)
    with pytest.raises(config.ConfigError, match="^validation_fraction: 0.1 of 2 "
                       "training sequences leaves the validation split empty"):
        experiment.run_experiment(empty)
