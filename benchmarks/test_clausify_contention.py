"""Clause-cache probe contention microbench.

:func:`repro.smt.clausify.clausify_probe` is on the translate hot path
of every solver check, and under ``--jobs`` many threads hammer it
concurrently. The probe takes the cache lock exactly once on the hit
path (probe, LRU bump, and counter update under the same guard) and
resolves racing duplicate computations first-insert-wins — this bench
pins both properties under load and records hit-path throughput in
``BENCH_ANALYSIS.json`` (key ``clausify_contention``) so a future
locking regression (say, re-splitting the hit path into a read lock
plus an update lock) shows up as a throughput cliff in the PR-over-PR
trajectory.

There is deliberately **no** multi-thread speedup bar: the probes are
pure-Python and GIL-bound, so extra threads add contention, never
parallelism. What is asserted is exact accounting — every probe after
priming is a hit, every hit returns the one shared tuple object, and
the global counters add up to the probe count — under both the
single-thread and the contended schedule.
"""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.smt import Int
from repro.smt.clausify import (clausify_cache_clear, clausify_cache_info,
                                clausify_probe)
from repro.smt.terms import FAnd, FOr

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: Contended thread count, working-set size (distinct formulas), and
#: per-thread sweeps over the working set.
THREADS = 4
FORMULAS = 64
ROUNDS = 100 if QUICK else 400


def _working_set():
    """FORMULAS distinct small formulas of the shapes the analysis
    actually caches: knowledge disjunctions and question conjunctions."""
    out = []
    for k in range(FORMULAS):
        out.append(FOr((
            FAnd((Int(f"wsa{k}").ge(0), Int(f"wsb{k}").le(k))),
            Int(f"wsc{k}").ge(k + 1),
        )))
    return out


def _hammer(formulas, shared, rounds):
    """Sweep the (primed) working set; every probe must hit and return
    the shared cached object."""
    ok = True
    probes = 0
    for _ in range(rounds):
        for formula, expect in zip(formulas, shared):
            clauses, hit = clausify_probe(formula)
            ok = ok and hit and clauses is expect
            probes += 1
    return ok, probes


def _measure(formulas, nthreads):
    clausify_cache_clear()
    shared = [clausify_probe(f)[0] for f in formulas]  # prime: all misses
    outs = [None] * nthreads

    def run(i):
        outs[i] = _hammer(formulas, shared, ROUNDS)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(nthreads)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start

    assert all(out is not None and out[0] for out in outs)
    probes = sum(out[1] for out in outs)
    info = clausify_cache_info()
    assert info.misses == FORMULAS      # only the priming pass missed
    assert info.hits == probes          # every bench probe hit
    return {
        "threads": nthreads,
        "probes": probes,
        "seconds": elapsed,
        "probes_per_second": probes / max(elapsed, 1e-9),
    }


@pytest.mark.figure("analysis-perf")
def test_probe_contention_accounting_and_throughput():
    formulas = _working_set()
    try:
        single = _measure(formulas, 1)
        contended = _measure(formulas, THREADS)
    finally:
        clausify_cache_clear()

    path = Path(__file__).resolve().parent.parent / "BENCH_ANALYSIS.json"
    doc = {}
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            doc = {}
    doc["clausify_contention"] = {
        "workload": (f"{FORMULAS}-formula hit-path working set, "
                     f"{ROUNDS} sweeps per thread"),
        "quick_mode": QUICK,
        "single_thread": single,
        "contended": contended,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
