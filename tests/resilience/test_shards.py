"""The multiprocess shard scheduler behind ``--backend process``.

The contract under test (docs/SCALING.md):

* sharded analyses are indistinguishable from inline ones — same
  verdicts, same safe-write inventory, same deterministic counters;
* worker faults (exit, exception, hang) degrade only the loop being
  held, the pool respawns a worker for the next shard, and Table-1
  accounting stays fault-independent;
* a :class:`PrimalRaceError` in a worker re-raises in the parent like
  the inline analysis would;
* loops the parent can replay (``--resume`` journal, warm verdict
  cache) never reach a worker at all;
* the parent is the single journal writer: a sharded run's journal
  resumes exactly like an inline run's.
"""

import time

import pytest

from repro.analysis.activity import ActivityAnalysis
from repro.formad import FormADEngine, PrimalRaceError
from repro.ir import parse_program
from repro.resilience import (JournalWriter, ResumeState, ShardConfig,
                              VerdictCache, analyze_sharded, resolve_backend)
from repro.resilience.journal import JOURNAL_SCHEMA, journal_fingerprint

SAFE_TWO_LOOPS = """
subroutine two(x, y, z, n)
  real, intent(in) :: x(1000)
  real, intent(out) :: y(1000)
  real, intent(out) :: z(1000)
  integer, intent(in) :: n
  !$omp parallel do
  do i = 1, n
    y(i) = x(i) * 2.0
  end do
  !$omp parallel do
  do j = 1, n
    z(j) = x(j) + 1.0
  end do
end subroutine two
"""

RACY = """
subroutine racy(x, y, n)
  integer, intent(in) :: n
  real, intent(in) :: x(10)
  real, intent(inout) :: y(10)
  !$omp parallel do
  do i = 1, n
    y(1) = x(i)
  end do
end subroutine racy
"""

COUNTERS = ("consistency_checks", "exploitation_checks", "memo_hits",
            "model_size", "unique_exprs", "skipped_pairs", "solver_sat",
            "solver_unsat", "solver_unknown")


def _engine(proc, **kwargs):
    activity = ActivityAnalysis(proc, ["x"], ["y", "z"])
    return FormADEngine(proc, activity, **kwargs)


def _sharded(proc, *, engine=None, resume_path=None, cache_dir=None,
             fingerprint=None, **config_kwargs):
    engine = engine or _engine(proc)
    return analyze_sharded(engine, SAFE_TWO_LOOPS, "two", ["x"], ["y", "z"],
                           config=ShardConfig(**config_kwargs),
                           resume_path=resume_path, cache_dir=cache_dir,
                           fingerprint=fingerprint)


class TestShardIdentity:
    def test_process_backend_matches_inline(self):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        inline = _engine(proc).analyze_all()
        sharded, outcomes = _sharded(proc, jobs=2)

        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert len(sharded) == len(inline) == 2
        for remote, local in zip(sharded, inline):
            assert not remote.degraded
            assert not remote.resumed
            assert remote.cacheable
            assert {n: v.safe for n, v in remote.verdicts.items()} \
                == {n: v.safe for n, v in local.verdicts.items()}
            assert remote.safe_write_expressions \
                == local.safe_write_expressions
            for name in COUNTERS:
                assert getattr(remote.stats, name) \
                    == getattr(local.stats, name), name

    def test_single_worker_drains_the_whole_queue(self):
        # work-stealing degenerate case: one worker, two shards
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        sharded, outcomes = _sharded(proc, jobs=1)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert not any(a.degraded for a in sharded)


class TestFaultContainment:
    def test_crash_degrades_one_loop_and_respawns_for_the_next(self):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        inline = _engine(proc).analyze_all()
        # jobs=1 forces both shards through the same feeder: the loop
        # after the crash must be served by a respawned worker
        sharded, outcomes = _sharded(
            proc, jobs=1,
            extra_env={"REPRO_WORKER_FAULT": "exit:3@0:i"})

        assert [o.status for o in outcomes] == ["crash", "ok"]
        assert "status 3" in outcomes[0].detail
        degraded, healthy = sharded
        assert degraded.degraded
        assert degraded.safe_arrays() == set()
        # fault-independent accounting: the degraded loop still counts
        # every question it would have asked
        assert degraded.stats.exploitation_checks \
            == inline[0].stats.exploitation_checks
        assert degraded.stats.exploitation_checks > 0
        assert not healthy.degraded
        assert {n: v.safe for n, v in healthy.verdicts.items()} \
            == {n: v.safe for n, v in inline[1].verdicts.items()}

    def test_worker_exception_is_contained(self):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        sharded, outcomes = _sharded(
            proc, jobs=2,
            extra_env={"REPRO_WORKER_FAULT": "raise@1:j"})
        assert outcomes[0].status == "ok"
        assert outcomes[1].status == "crash"
        assert "injected worker fault" in outcomes[1].detail
        assert not sharded[0].degraded
        assert sharded[1].degraded

    def test_hung_worker_is_killed_and_degraded(self):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        start = time.monotonic()
        sharded, outcomes = _sharded(
            proc, jobs=1, kill_timeout=1.5,
            extra_env={"REPRO_WORKER_FAULT": "hang:30@0:i"})
        assert time.monotonic() - start < 20.0
        assert outcomes[0].status == "timeout"
        assert "kill timeout" in outcomes[0].detail
        assert sharded[0].degraded
        assert outcomes[1].status == "ok"
        assert not sharded[1].degraded

    def test_primal_race_reraises_in_the_parent(self):
        proc = parse_program(RACY)["racy"]
        activity = ActivityAnalysis(proc, ["x"], ["y"])
        engine = FormADEngine(proc, activity)
        with pytest.raises(PrimalRaceError):
            analyze_sharded(engine, RACY, "racy", ["x"], ["y"],
                            config=ShardConfig(jobs=1))


class TestParentalReplay:
    def test_resume_settled_loops_never_reach_a_worker(self, tmp_path):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        engine = _engine(proc)
        fingerprint = journal_fingerprint(
            SAFE_TWO_LOOPS, "two", ["x"], ["y", "z"],
            engine.fingerprint_flags())
        path = str(tmp_path / "run.jsonl")
        writer = JournalWriter(path, meta={"schema": JOURNAL_SCHEMA,
                                           "fingerprint": fingerprint})
        engine.attach_run_state(journal=writer)
        baseline = engine.analyze_all()
        writer.close()

        state = ResumeState.load(path)
        resumed_engine = _engine(proc)
        resumed_engine.attach_run_state(resume=state)
        # a crashing fault is armed for every loop: if any shard were
        # dispatched, its outcome would be "crash", not "resumed"
        sharded, outcomes = _sharded(
            proc, engine=resumed_engine, resume_path=path,
            extra_env={"REPRO_WORKER_FAULT": "exit:3"})
        assert [o.status for o in outcomes] == ["resumed", "resumed"]
        for again, honest in zip(sharded, baseline):
            assert again.resumed
            assert {n: v.safe for n, v in again.verdicts.items()} \
                == {n: v.safe for n, v in honest.verdicts.items()}

    def test_cache_warm_loops_never_reach_a_worker(self, tmp_path):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        engine = _engine(proc)
        fingerprint = journal_fingerprint(
            SAFE_TWO_LOOPS, "two", ["x"], ["y", "z"],
            engine.fingerprint_flags())
        cache_dir = str(tmp_path / "cache")

        cold_cache = VerdictCache(cache_dir, fingerprint)
        engine.attach_run_state(cache=cold_cache)
        cold, cold_outcomes = _sharded(
            proc, engine=engine, cache_dir=cache_dir,
            fingerprint=fingerprint, jobs=2)
        cold_cache.close()
        assert [o.status for o in cold_outcomes] == ["ok", "ok"]
        assert cold_cache.loop_stores == 2

        warm_cache = VerdictCache(cache_dir, fingerprint)
        warm_engine = _engine(proc)
        warm_engine.attach_run_state(cache=warm_cache)
        warm, warm_outcomes = _sharded(
            proc, engine=warm_engine, cache_dir=cache_dir,
            fingerprint=fingerprint,
            extra_env={"REPRO_WORKER_FAULT": "exit:3"})
        warm_cache.close()
        assert [o.status for o in warm_outcomes] == ["cached", "cached"]
        assert warm_cache.loop_hits == 2
        for again, honest in zip(warm, cold):
            assert not again.resumed
            assert {n: v.safe for n, v in again.verdicts.items()} \
                == {n: v.safe for n, v in honest.verdicts.items()}
            for name in COUNTERS:
                assert getattr(again.stats, name) \
                    == getattr(honest.stats, name), name

    def test_sharded_journal_resumes_like_an_inline_one(self, tmp_path):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        engine = _engine(proc)
        fingerprint = journal_fingerprint(
            SAFE_TWO_LOOPS, "two", ["x"], ["y", "z"],
            engine.fingerprint_flags())
        path = str(tmp_path / "run.jsonl")
        writer = JournalWriter(path, meta={"schema": JOURNAL_SCHEMA,
                                           "fingerprint": fingerprint})
        engine.attach_run_state(journal=writer)
        sharded, outcomes = _sharded(proc, engine=engine, jobs=2)
        writer.close()
        assert [o.status for o in outcomes] == ["ok", "ok"]

        state = ResumeState.load(path)
        state.check_fingerprint(fingerprint)
        assert state.settled_loops == 2
        resumed_engine = _engine(proc)
        resumed_engine.attach_run_state(resume=state)
        resumed = resumed_engine.analyze_all()
        for again, honest in zip(resumed, sharded):
            assert again.resumed
            assert {n: v.safe for n, v in again.verdicts.items()} \
                == {n: v.safe for n, v in honest.verdicts.items()}
            for name in COUNTERS:
                assert getattr(again.stats, name) \
                    == getattr(honest.stats, name), name


class TestResolveBackend:
    """``--backend auto`` picks the process pool only when ``--jobs``
    asks for parallelism, the host has CPUs for it, and there are
    enough loops to share out."""

    @pytest.mark.parametrize("jobs", [None, 0, 1])
    def test_serial_runs_stay_on_threads(self, jobs):
        assert resolve_backend("auto", jobs=jobs, work_items=6,
                               cpus=4) == "thread"

    def test_parallel_jobs_on_many_cpus_pick_processes(self):
        assert resolve_backend("auto", jobs=2, work_items=2,
                               cpus=4) == "process"

    def test_one_cpu_or_one_loop_stays_on_threads(self):
        assert resolve_backend("auto", jobs=4, work_items=6,
                               cpus=1) == "thread"
        assert resolve_backend("auto", jobs=4, work_items=1,
                               cpus=4) == "thread"

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_explicit_backend_is_kept(self, backend):
        assert resolve_backend(backend, jobs=None, work_items=1,
                               cpus=1) == backend
