"""Subprocess containment (``--backend process --jobs 1``): identity
with inline, fault containment, and the kill -9 + --resume smoke test
over the CLI.

The fault-independence contract: a crashed, hung, or killed worker
degrades exactly its own loop (safeguards everywhere, planned question
counts preserved), and a SIGKILLed *run* resumes from the journal to
reproduce the uninterrupted verdicts and counts.

One worker serves every loop here, so these cases pin the paths the
multi-worker tests in test_shards.py do not: a warm worker carrying its
caches from one loop into the next, a fault on the last loop, and a
respawn after a fault on the first.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis.activity import ActivityAnalysis
from repro.formad import FormADEngine
from repro.ir import parse_program
from repro.resilience import (ResumeState, ShardConfig, analyze_sharded,
                              read_journal)

#: Both loops are all-safe (each adjoint hits only its own slot), so
#: the honest analysis never breaks early on a SAT answer and degraded
#: runs must reproduce the exact same exploitation-question counts.
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

#: Counters that must survive the worker round-trip bit-for-bit
#: (timers vary with the wall clock and are excluded).
COUNTERS = ("consistency_checks", "exploitation_checks", "memo_hits",
            "model_size", "unique_exprs", "skipped_pairs", "solver_sat",
            "solver_unsat", "solver_unknown")


def _engine(proc):
    activity = ActivityAnalysis(proc, ["x"], ["y", "z"])
    return FormADEngine(proc, activity)


def _contained(proc, **config_kwargs):
    engine = _engine(proc)
    return analyze_sharded(engine, SAFE_TWO_LOOPS, "two", ["x"], ["y", "z"],
                           config=ShardConfig(jobs=1, **config_kwargs))


class TestIsolationIdentity:
    def test_isolate_matches_inline(self):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        inline = _engine(proc).analyze_all()
        contained, outcomes = _contained(proc)

        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert len(contained) == len(inline) == 2
        for worker, local in zip(contained, inline):
            assert not worker.degraded
            assert {n: v.safe for n, v in worker.verdicts.items()} \
                == {n: v.safe for n, v in local.verdicts.items()}
            assert worker.safe_write_expressions \
                == local.safe_write_expressions
            for name in COUNTERS:
                assert getattr(worker.stats, name) \
                    == getattr(local.stats, name), name


class TestFaultContainment:
    def test_worker_crash_degrades_only_that_loop(self):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        inline = _engine(proc).analyze_all()
        contained, outcomes = _contained(
            proc, extra_env={"REPRO_WORKER_FAULT": "exit:3@1:j"})

        assert [o.status for o in outcomes] == ["ok", "crash"]
        assert "status 3" in outcomes[1].detail
        healthy, degraded = contained
        assert not healthy.degraded
        assert {n: v.safe for n, v in healthy.verdicts.items()} \
            == {n: v.safe for n, v in inline[0].verdicts.items()}
        assert degraded.degraded
        assert degraded.safe_arrays() == set()
        # fault-independent accounting: the degraded loop still counts
        # every question it would have asked
        assert degraded.stats.exploitation_checks \
            == inline[1].stats.exploitation_checks
        assert degraded.stats.exploitation_checks > 0

    def test_worker_exception_is_contained(self):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        contained, outcomes = _contained(
            proc, extra_env={"REPRO_WORKER_FAULT": "raise@0:i"})
        assert outcomes[0].status == "crash"
        assert "injected worker fault" in outcomes[0].detail
        assert contained[0].degraded
        assert outcomes[1].status == "ok"
        assert not contained[1].degraded

    def test_hung_worker_is_killed_and_degraded(self):
        proc = parse_program(SAFE_TWO_LOOPS)["two"]
        start = time.monotonic()
        contained, outcomes = _contained(
            proc, kill_timeout=1.5,
            extra_env={"REPRO_WORKER_FAULT": "hang:30@0:i"})
        assert time.monotonic() - start < 20.0
        assert outcomes[0].status == "timeout"
        assert "kill timeout" in outcomes[0].detail
        assert contained[0].degraded
        assert contained[0].safe_arrays() == set()
        assert outcomes[1].status == "ok"
        assert not contained[1].degraded


#: The CLI's subprocess-containment mode.
CONTAINED = ("--backend", "process", "--jobs", "1")


def _cli(tmp_path, src_path, *extra, env=None, check=True):
    cmd = [sys.executable, "-m", "repro", "analyze", str(src_path),
           "-i", "x", "-o", "y,z", "--json", *CONTAINED, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=str(tmp_path))
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def _loop_views(doc):
    return [(entry["loop"], entry["all_safe"], entry["verdicts"])
            for entry in doc["loops"]]


def _env():
    env = dict(os.environ)
    src_root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src_root)
    env.pop("REPRO_WORKER_FAULT", None)
    return env


class TestKillParentResume:
    """SIGKILL the whole process group mid-run; ``--resume`` must
    reproduce the uninterrupted verdicts and question counts."""

    @pytest.mark.slow
    def test_sigkill_then_resume_reproduces_counts(self, tmp_path):
        src = tmp_path / "two.f"
        src.write_text(SAFE_TWO_LOOPS)
        env = _env()

        baseline = _cli(tmp_path, src, env=env)
        base_doc = json.loads(baseline.stdout)

        # interrupted run: the worker hangs on loop 1:j; the parent
        # would wait out the generous kill timeout, but we SIGKILL the
        # whole group as soon as loop 0:i's verdicts are durable
        journal = tmp_path / "run.jsonl"
        hang_env = dict(env, REPRO_WORKER_FAULT="hang:120@1:j")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "analyze", str(src),
             "-i", "x", "-o", "y,z", "--json", *CONTAINED,
             "--kill-timeout", "120", "--journal", str(journal)],
            cwd=str(tmp_path), env=hang_env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            settled = False
            while time.monotonic() < deadline:
                if journal.exists():
                    _, records, _ = read_journal(str(journal))
                    if any(r.get("kind") == "loop_done"
                           and r.get("loop") == "0:i" for r in records):
                        settled = True
                        break
                time.sleep(0.1)
            assert settled, "first loop never settled in the journal"
        finally:
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait()

        # the journal survived the kill: loop 0:i is settled, 1:j not
        state = ResumeState.load(str(journal))
        assert state.loop_done("0:i") is not None
        assert state.loop_done("1:j") is None

        resumed = _cli(tmp_path, src, "--journal", str(journal),
                       "--resume", str(journal), env=env)
        doc = json.loads(resumed.stdout)

        assert _loop_views(doc) == _loop_views(base_doc)
        assert doc["all_safe"] == base_doc["all_safe"]
        for key in ("exploitation_checks", "consistency_checks",
                    "solver_sat", "solver_unsat"):
            assert doc["totals"][key] == base_doc["totals"][key], key
        assert doc["resilience"]["resumed_loops"] == 1
        assert doc["resilience"]["degraded_loops"] == 0
        assert [entry.get("resumed", False) for entry in doc["loops"]] \
            == [True, False]
        # an all-ok process run carries no per-worker outcomes
        assert "workers" not in doc

    def test_strict_flags_degraded_runs(self, tmp_path):
        src = tmp_path / "two.f"
        src.write_text(SAFE_TWO_LOOPS)
        env = dict(_env(), REPRO_WORKER_FAULT="exit:3@1:j")
        proc = _cli(tmp_path, src, "--strict", env=env, check=False)
        assert proc.returncode == 3
        doc = json.loads(proc.stdout)
        assert doc["resilience"]["degraded_loops"] == 1
