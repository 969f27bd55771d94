"""Golden results of the three ways a loop degrades to safeguards.

A loop degrades when a shard worker dies holding it, when the run
deadline expires before its shard is dispatched, or when buildModel
cannot establish its knowledge (a consistency check answers UNKNOWN).
For each, the fixture holds every field of the resulting
``LoopAnalysis`` except timers (verdicts and reasons, the counters,
the safe-write and offending expressions, the flags) and the journal
records the run writes for the loop. Degraded results are recorded,
not derived, so the engine can change how it produces them without
changing what they are.

Re-record (only when a change of results is intended) with::

    PYTHONPATH=src python tests/formad/test_degraded_golden.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.analysis.activity import ActivityAnalysis
from repro.audit.chaos import ChaosConfig, chaos_factory
from repro.formad import FormADEngine
from repro.formad.engine import AnalysisStats
from repro.ir import parse_program
from repro.resilience import (Deadline, JournalWriter, ShardConfig,
                              analyze_sharded, read_journal)

FIXTURE = Path(__file__).with_name("degraded_golden.json")

#: Loop ``i`` has a gather write (knowledge facts), a branch context,
#: exact increments (read-only adjoints) and an atomic array (an
#: untranslatable verdict); loop ``j`` is a plain write.
SOURCE = """
subroutine deg(x, y, u, w, s, c, n)
  integer, intent(in) :: n
  real, intent(in) :: x(30)
  real, intent(inout) :: y(20)
  real, intent(in) :: u(40)
  real, intent(inout) :: w(40)
  real, intent(inout) :: s(10)
  integer, intent(in) :: c(20)
  !$omp parallel do
  do i = 2, n - 2, 2
    y(c(i)) = x(c(i) + 7)
    if (c(i) .gt. 0) then
      w(i) = w(i) + 0.3 * u(i - 1)
    end if
    w(i - 1) = w(i - 1) + 0.3 * u(i)
    !$omp atomic
    s(1) = s(1) + x(i)
  end do
  !$omp parallel do
  do j = 1, n
    w(j) = u(j) * 2.0
  end do
end subroutine deg
"""
INDEPENDENTS = ["x", "u"]
DEPENDENTS = ["y", "w", "s"]


def _engine(**kwargs) -> FormADEngine:
    proc = parse_program(SOURCE)["deg"]
    return FormADEngine(proc, ActivityAnalysis(proc, INDEPENDENTS,
                                               DEPENDENTS), **kwargs)


def _untimed(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if not k.endswith("seconds")}


def _analysis_doc(analysis) -> dict:
    return {
        "verdicts": {name: {"safe": v.safe, "pairs_total": v.pairs_total,
                            "pairs_proven": v.pairs_proven,
                            "reason": v.reason}
                     for name, v in analysis.verdicts.items()},
        "stats": _untimed({name: getattr(analysis.stats, name)
                           for name in AnalysisStats.__dataclass_fields__}),
        "safe_write_expressions": analysis.safe_write_expressions,
        "offending_expressions": analysis.offending_expressions,
        "degraded": analysis.degraded,
        "resumed": analysis.resumed,
        "cacheable": analysis.cacheable,
    }


def _journal_doc(path: str, key: str) -> list:
    _, records, dropped = read_journal(path)
    assert dropped == 0
    out = []
    for record in records:
        if record.get("loop") != key:
            continue
        if record.get("kind") == "loop_done":
            record = dict(record, stats=_untimed(record["stats"]))
        out.append(record)
    return out


def _run(case: str, journal_path: str) -> list:
    """The degraded loops of one case as ``[key, analysis, journal]``."""
    writer = JournalWriter(journal_path, meta={"kind": "golden"})
    if case == "knowledge":
        # Every check answers UNKNOWN, so buildModel's first
        # consistency check degrades each loop.
        engine = _engine(journal=writer, solver_factory=chaos_factory(
            ChaosConfig(unknown_rate=1.0)))
        analyses = engine.analyze_all()
    else:
        engine = _engine(journal=writer)
        if case == "deadline":
            engine.attach_run_state(deadline=Deadline(0.0))
            config = ShardConfig(jobs=1)
        else:
            config = ShardConfig(
                jobs=1, extra_env={"REPRO_WORKER_FAULT": "exit:3@0:i"})
        analyses, _ = analyze_sharded(engine, SOURCE, "deg", INDEPENDENTS,
                                      DEPENDENTS, config=config)
    writer.close()
    out = []
    for analysis in analyses:
        if analysis.degraded:
            key = engine.loop_key(analysis.loop)
            out.append([key, _analysis_doc(analysis),
                        _journal_doc(journal_path, key)])
    return out


CASES = ("worker_crash", "deadline", "knowledge")


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {case: _run(case, str(Path(tmp) / f"{case}.jsonl"))
                for case in CASES}


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_worker_crash_degrades_like_the_fixture(tmp_path):
    got = _run("worker_crash", str(tmp_path / "j.jsonl"))
    assert [key for key, _, _ in got] == ["0:i"]
    assert json.loads(json.dumps(got)) == _golden()["worker_crash"]


def test_expired_deadline_degrades_like_the_fixture(tmp_path):
    got = _run("deadline", str(tmp_path / "j.jsonl"))
    assert [key for key, _, _ in got] == ["0:i", "1:j"]
    assert json.loads(json.dumps(got)) == _golden()["deadline"]


def test_degraded_knowledge_matches_the_fixture(tmp_path):
    got = _run("knowledge", str(tmp_path / "j.jsonl"))
    assert [key for key, _, _ in got] == ["0:i", "1:j"]
    assert json.loads(json.dumps(got)) == _golden()["knowledge"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
