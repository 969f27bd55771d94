"""Golden parity of the runtime: cost profiles, final memories and the
tracer event stream, checked against a committed fixture.

The fixture was recorded with the tree-walking interpreter that the
closure compiler replaced, so the check needs no second evaluator as an
oracle. It covers:

* every ``profile_run`` that ``run_kernel_experiment`` makes for the six
  Table-1 problems at reduced extents: the whole ``ExecutionProfile``
  (serial and per-iteration ``OpCounts``, iteration values, reduction
  arrays, distinct gather lines) and a digest of the final memory;
* final-memory digests of the primal and the FormAD adjoint of 30
  generated audit kernels, every non-racy family three times or more;
* the exact event sequence a recording ``Tracer`` subclass sees on a
  small kernel with a gather, an atomic update, push/pop, an ``if`` and
  a short-circuit ``.and.``.

Re-record (only when a change of results is intended) with::

    PYTHONPATH=src python tests/runtime/test_compiled_parity.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import differentiate
from repro.audit.generator import (FAMILIES, RACY_FAMILIES, build_procedure,
                                   generate_case, make_bindings)
from repro.experiments import harness, specs
from repro.ir import (Assign, Call, If, Loop, ProcedureBuilder, Procedure,
                      Push, REAL, INTEGER, integer_array, real_array)
from repro.ir.expr import ArrayRef, walk
from repro.ir.stmt import walk_stmts
from repro.runtime import Interpreter, Memory, Tracer, run_procedure

FIXTURE = Path(__file__).with_name("compiled_parity.json")

#: The six Table-1 problems at extents small enough for a unit test.
SPECS = {
    "stencil_small": lambda: specs.small_stencil_spec(120),
    "stencil_large": lambda: specs.large_stencil_spec(60),
    "gfmc": lambda: specs.gfmc_spec(6, 3, 4),
    "gfmc_star": lambda: specs.gfmc_star_spec(6, 3, 4),
    "lbm": lambda: specs.lbm_spec(40),
    "greengauss": lambda: specs.greengauss_spec(120),
}
SAFE_FAMILIES = tuple(f for f in FAMILIES if f not in RACY_FAMILIES)
GENERATED_CASES = 30


def _counts(c) -> list:
    return [c.flops, c.intrinsics, c.stream_mem, c.gather_mem,
            c.scalar_ops, c.atomics, c.tape_ops]


def _profile(profile) -> dict:
    return {
        "serial": _counts(profile.serial),
        "loops": [{
            "var": r.loop.var,
            "iterations": list(r.iteration_values),
            "per_iteration": [_counts(c) for c in r.per_iteration],
            "reduction_arrays": [list(a) for a in r.reduction_arrays],
            "distinct_gather_lines": r.distinct_gather_lines,
        } for r in profile.parallel_loops],
    }


def memory_digest(memory: Memory) -> str:
    h = hashlib.sha256()
    for name in sorted(memory.scalars):
        value = memory.scalars[name]
        h.update(f"{name}={type(value).__name__}:{value!r};".encode())
    for name in sorted(memory.arrays):
        data = memory.arrays[name].data
        h.update(f"{name}:{data.dtype.str}:{data.shape};".encode())
        h.update(np.ascontiguousarray(data).tobytes())
    return h.hexdigest()


def record_experiment(name: str) -> list:
    """Profile and memory digest of every ``profile_run`` one
    ``run_kernel_experiment`` makes, in the harness's serial order."""
    runs = []
    original = harness.profile_run

    def recording(*args, **kwargs):
        run = original(*args, **kwargs)
        runs.append({"profile": _profile(run.profile),
                     "memory": memory_digest(run.memory)})
        return run

    harness.profile_run = recording
    try:
        harness.run_kernel_experiment(SPECS[name](), threads=(1,))
    finally:
        harness.profile_run = original
    return runs


def record_generated() -> dict:
    out = {}
    for i in range(GENERATED_CASES):
        case = generate_case(i, families=SAFE_FAMILIES)
        proc = build_procedure(case, name=f"kernel{i}")
        bindings = make_bindings(case, case.n)
        ind, dep = case.independents(), case.dependents()
        rev = differentiate(proc, ind, dep, strategy="formad")
        adj_bindings = dict(bindings)
        for x in ind:
            adj_bindings[rev.adjoint_name(x)] = np.zeros(case.n)
        for y in dep:
            adj_bindings[rev.adjoint_name(y)] = np.ones(case.n)
        out[f"case{i}:{case.family}"] = {
            "primal": memory_digest(run_procedure(proc, bindings)),
            "adjoint": memory_digest(run_procedure(rev.procedure,
                                                   adj_bindings)),
        }
    return out


class RecordingTracer(Tracer):
    """Logs every hook call with its arguments; refs are checked for
    identity against the procedure's own AST nodes."""

    def __init__(self, proc: Procedure) -> None:
        self.events = []
        self.foreign_refs = 0
        self._nodes = set()
        for stmt in walk_stmts(proc.body):
            for expr in _stmt_exprs(stmt):
                self._nodes.update(id(n) for n in walk(expr)
                                   if isinstance(n, ArrayRef))

    def _ref(self, ref) -> str:
        if id(ref) not in self._nodes:
            self.foreign_refs += 1
        return str(ref)

    def on_flop(self, n=1):
        self.events.append(["flop", n])

    def on_intrinsic(self, name):
        self.events.append(["intrinsic", name])

    def on_read(self, array, flat, ref=None):
        self.events.append(["read", array, flat, self._ref(ref)])

    def on_write(self, array, flat, *, atomic, ref=None):
        self.events.append(["write", array, flat, atomic, self._ref(ref)])

    def on_scalar_read(self, name):
        self.events.append(["scalar_read", name])

    def on_scalar_write(self, name):
        self.events.append(["scalar_write", name])

    def on_push(self):
        self.events.append(["push"])

    def on_pop(self):
        self.events.append(["pop"])

    def on_atomic_begin(self, array, flat):
        self.events.append(["atomic_begin", array, flat])

    def on_atomic_end(self):
        self.events.append(["atomic_end"])

    def on_parallel_loop_begin(self, loop, iterations):
        self.events.append(["loop_begin", loop.var, list(iterations)])

    def on_parallel_iteration_begin(self, loop, value):
        self.events.append(["iteration_begin", loop.var, value])

    def on_parallel_iteration_end(self, loop, value):
        self.events.append(["iteration_end", loop.var, value])

    def on_parallel_loop_end(self, loop):
        self.events.append(["loop_end", loop.var])


def _stmt_exprs(stmt):
    if isinstance(stmt, Assign):
        return [stmt.target, stmt.value]
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, Loop):
        return [stmt.start, stmt.stop, stmt.step]
    if isinstance(stmt, Push):
        return [stmt.value]
    return [stmt.target]


def event_kernel() -> Procedure:
    """A gather, an atomic update that reads its own target, push/pop,
    an ``if``, an intrinsic, an inner sequential loop and a ``.and.``
    taken both ways (short-circuited or not)."""
    b = ProcedureBuilder("events")
    x = b.param("x", real_array(6), intent="in")
    y = b.param("y", real_array(6))
    c = b.param("c", integer_array(6), intent="in")
    n = b.param("n", INTEGER, intent="in")
    s = b.local("s", REAL)
    b.assign(s, 0.5)
    with b.parallel_do("i", 1, n, private=["s"]) as i:
        b.assign(s, x[c[i]] * 2.0 + x[i])
        b.assign(y[c[i]], y[c[i]] + s * x[i], atomic=True)
        b.push("t", s + 1.0)
        with b.if_(i.gt(2).logical_and(x[i].lt(0.5))):
            b.assign(y[i], -y[i] + Call("sqrt", (s * s,)))
            with b.else_():
                b.assign(s, s - 1.0)
    with b.parallel_do("i2", n, 1, -1) as i2:
        b.pop("t", y[i2])
        with b.do("k", 1, 2) as k:
            b.assign(s, s + x[k])
    b.assign(s, y[2] + y[n - 1])
    return b.build()


def event_bindings():
    return {"x": np.array([0.1, 0.9, 0.3, 0.2, 0.8, 0.4]),
            "y": np.arange(1.0, 7.0),
            "c": np.array([2, 2, 5, 1, 5, 6]), "n": 5}


def record_events() -> dict:
    proc = event_kernel()
    memory = Memory.for_procedure(proc, event_bindings())
    tracer = RecordingTracer(proc)
    Interpreter(proc, memory, tracer).run()
    assert tracer.foreign_refs == 0
    return {"events": tracer.events, "memory": memory_digest(memory)}


def record() -> dict:
    return {"experiments": {name: record_experiment(name) for name in SPECS},
            "generated": record_generated(),
            "events": record_events()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", list(SPECS))
def test_experiment_profiles_and_memories_match(golden, name):
    runs = record_experiment(name)
    want = golden["experiments"][name]
    assert len(runs) == len(want) == 8
    for k, (got, expected) in enumerate(zip(runs, want)):
        assert got["profile"] == expected["profile"], f"{name} run {k}"
        assert got["memory"] == expected["memory"], f"{name} run {k}"


def test_generated_primal_and_adjoint_memories_match(golden):
    assert record_generated() == golden["generated"]
    families = {key.split(":")[1] for key in golden["generated"]}
    assert families == set(SAFE_FAMILIES)


def test_tracer_event_stream_matches(golden):
    got = record_events()
    want = golden["events"]
    assert got["memory"] == want["memory"]
    assert len(got["events"]) == len(want["events"])
    for k, (g, w) in enumerate(zip(got["events"], want["events"])):
        assert g == w, f"event {k}"


def test_hooks_left_as_no_ops_are_never_called(monkeypatch):
    def called(*args, **kwargs):
        raise AssertionError("a no-op tracer hook was called")

    for name in vars(Tracer):
        if name.startswith("on_"):
            monkeypatch.setattr(Tracer, name, called)
    run_procedure(event_kernel(), event_bindings())


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), separators=(",", ":"),
                                  sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
