#!/usr/bin/env python3
"""End-to-end benchmark of the FormAD pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload table1-analyze --seed 1 \
        --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones; see perfbench/README.md. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is non-zero when an output
check fails or the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
#: Hand-written expected FormAD verdicts.
VERDICTS = HERE / "expected_verdicts.json"
WORKLOAD_NAMES = ("table1-analyze", "figures-simulate", "generated-small")
#: Fresh interpreters timed per run; setup_s is their median.
SETUP_SAMPLES = 5
#: Iterations of the host-speed probe loop, and the probe's seconds on
#: the nominal host that normalized times are expressed in.
PROBE_LOOP = 50_000
NOMINAL_PROBE_S = 0.004
#: Item seconds after which the next item gets a fresh probe.
PROBE_EVERY_S = 0.1
#: Counts that must agree exactly between passes of one run.
FINGERPRINT = ("formad.queries", "smt.solver_checks", "smt.branches",
               "runtime.ops", "runtime.atomics", "ad.adjoint_stmts",
               "ad.atomic_sites")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                    help="tiny: minimal extents for the smoke test")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def make_workload(args):
    from workloads import WORKLOADS
    expected = json.loads(VERDICTS.read_text())
    return WORKLOADS[args.workload](args.seed, args.scale, expected)


def host_probe() -> float:
    """Seconds of a fixed pure-Python loop that touches no program code.

    The host's CPU speed drifts by tens of percent within seconds, so
    each timing is divided by the speed the probes around it saw."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def measure_setup(args) -> float:
    """Nominal seconds from starting a fresh interpreter to built
    inputs, scaled by the host probes taken before and after."""
    before = host_probe()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--scale", args.scale]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed * 2 * NOMINAL_PROBE_S / (before + host_probe())


def item_counts(capture) -> Counter:
    """Work counts and solver seconds of one item's public calls."""
    from repro.ir.stmt import Assign
    c: Counter = Counter()
    for nbytes, proc in capture.parsed:
        c["ir.source_bytes"] += nbytes
        c["ir.stmts"] += sum(1 for _ in proc.statements())
    for a in capture.analyses:
        s = a.stats
        c["formad.queries"] += s.queries
        c["formad.exploitation_checks"] += s.exploitation_checks
        c["formad.memo_hits"] += s.memo_hits
        c["formad.model_size"] += s.model_size
        c["formad.degraded_loops"] += int(a.degraded)
        c["smt.solver_checks"] += s.solver_checks
        c["smt.theory_checks"] += s.theory_checks
        c["smt.branches"] += s.search_branches
        c["smt.clausify_hits"] += s.clausify_hits
        c["smt.clausify_misses"] += s.clausify_misses
        c["smt.unknown"] += s.solver_unknown
        c["smt.solver_s"] += s.solver_time_seconds
        c["smt.translate_s"] += s.translate_seconds
        c["smt.clausify_s"] += s.clausify_seconds
        c["smt.search_s"] += s.search_seconds
    for rev in capture.reverse:
        for stmt in rev.procedure.statements():
            c["ad.adjoint_stmts"] += 1
            c["ad.atomic_sites"] += int(isinstance(stmt, Assign)
                                        and stmt.atomic)
    for run in capture.profiles:
        c["runtime.ops"] += run.ops
        c["runtime.atomics"] += run.atomics
    return c


@dataclass
class Pass:
    """One timed pass over the item set, checked item by item."""

    traced: bool
    #: Wall seconds of the pass, and the same in nominal seconds.
    wall: float = 0.0
    nominal: float = 0.0
    #: Nominal seconds of each item.
    item_times: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    failed: int = 0
    errors: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    #: Plain interpretation seconds of the versions profiled in the pass.
    plain_interp_s: float = 0.0


def run_pass(wl, items, probe, traced: bool, digest) -> Pass:
    """Time each item, then check it and drop its results before the
    next item starts, so no pass keeps earlier items' objects alive.
    The pass's wall time is the sum of its items' wall times.

    Host probes run between items, outside the timed region: before the
    first item, after the last, and before any item that follows
    ``PROBE_EVERY_S`` of item time. An item's nominal seconds are its
    wall seconds times ``NOMINAL_PROBE_S`` over the mean of the probes
    just before and just after it."""
    from repro.smt import clausify_cache_clear
    result = Pass(traced)
    probes, since_probe, walls = [host_probe()], 0.0, []
    for item in items:
        if since_probe >= PROBE_EVERY_S:
            probes.append(host_probe())
            since_probe = 0.0
        clausify_cache_clear()
        probe.begin_item(item.keep_arrays)
        probe.traced = traced
        t0 = time.perf_counter()
        try:
            out, error = wl.run(item, probe), None
        except Exception as exc:  # an item that raises counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        probe.traced = False
        walls.append((elapsed, len(probes) - 1))
        since_probe += elapsed
        result.wall += elapsed
        capture = probe.take_capture()
        probe.paused = True
        try:
            errors = [error] if error else wl.check(item, out, capture)
            if not error:
                key = digest(wl.output_key(item, out))
                if item.reference is None:
                    item.reference = key
                elif key != item.reference:
                    errors.append("output differs from the first pass")
                result.counts += item_counts(capture)
                result.plain_interp_s += plain_interp(capture.profiled_args)
        finally:
            probe.paused = False
        if errors:
            result.failed += 1
            result.errors += [f"{item.key}: {e}" for e in errors]
    probes.append(host_probe())
    result.item_times = [elapsed * 2 * NOMINAL_PROBE_S
                         / (probes[k] + probes[k + 1])
                         for elapsed, k in walls]
    result.nominal = sum(result.item_times)
    result.spans = probe.take_spans()
    return result


def tail(samples, n_min: int):
    """The highest whole percentile with at least ten of ``n_min``
    samples beyond it, and its value over ``samples``."""
    pct = max(1, min(99, int(100 * (1 - 10 / n_min))))
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return pct, cuts[pct - 1]


def plain_interp(profiled_args) -> float:
    """Seconds of a plain ``run_procedure`` of the program versions an
    item profiled, run right after the item so that ``profile_run`` and
    its plain counterpart see the same host speed."""
    import repro
    start = time.perf_counter()
    for proc, bindings, extents in profiled_args:
        repro.run_procedure(proc, bindings, extents)
    return time.perf_counter() - start if profiled_args else 0.0


def layer_metrics(p: Pass, counts: Counter) -> dict:
    from probe import layer_times
    self_t, by_name, by_layer, covered = layer_times(p.spans)

    def ratio(a, b):
        return a / b if b else 0.0

    interp_direct = by_name.get("run_procedure", 0.0)
    profile_s = by_name.get("profile_run", 0.0)
    m = {
        "ir.parse_s": by_name.get("parse_procedure", 0.0),
        "ir.format_s": by_name.get("format_procedure", 0.0),
        "analysis.activity_s": self_t.get("analysis", 0.0),
        "formad.analyze_s": by_layer.get("formad", 0.0),
        "formad.nonsolver_s": self_t.get("formad", 0.0),
        "ad.codegen_s": self_t.get("ad", 0.0),
        "runtime.interp_s": interp_direct + p.plain_interp_s,
        "runtime.profile_s": profile_s,
        "runtime.cost_tracer_s": profile_s - p.plain_interp_s,
        "runtime.costmodel_s": by_name.get("total_time", 0.0),
        "runtime.ops_per_s": ratio(counts["runtime.ops"],
                                   interp_direct + profile_s),
        "experiments.kernel_s": by_name.get("run_kernel_experiment", 0.0),
        "experiments.variant_s": by_name.get("experiment.variant", 0.0),
        "experiments.self_s": self_t.get("experiments", 0.0),
        "bench.unattributed_s": p.wall - covered,
        "bench.attributed_share": covered / p.wall,
        "formad.memo_hit_ratio": ratio(counts["formad.memo_hits"],
                                       counts["formad.exploitation_checks"]),
        "smt.clausify_hit_ratio": ratio(
            counts["smt.clausify_hits"],
            counts["smt.clausify_hits"] + counts["smt.clausify_misses"]),
    }
    for key in ("smt.solver_s", "smt.translate_s", "smt.clausify_s",
                "smt.search_s"):
        m[key] = float(counts[key])
    return m


#: Per-layer metric -> unit, in report order.
LAYER_UNITS = {
    "ir.parse_s": "s", "ir.format_s": "s", "ir.source_bytes": "bytes",
    "ir.stmts": "count",
    "analysis.activity_s": "s",
    "formad.analyze_s": "s", "formad.nonsolver_s": "s",
    "formad.queries": "count", "formad.exploitation_checks": "count",
    "formad.memo_hits": "count", "formad.memo_hit_ratio": "ratio",
    "formad.model_size": "count", "formad.degraded_loops": "count",
    "smt.solver_s": "s", "smt.translate_s": "s", "smt.clausify_s": "s",
    "smt.search_s": "s", "smt.solver_checks": "count",
    "smt.theory_checks": "count", "smt.branches": "count",
    "smt.clausify_hit_ratio": "ratio", "smt.unknown": "count",
    "ad.codegen_s": "s", "ad.adjoint_stmts": "count",
    "ad.atomic_sites": "count",
    "runtime.interp_s": "s", "runtime.profile_s": "s",
    "runtime.cost_tracer_s": "s", "runtime.costmodel_s": "s",
    "runtime.ops": "count", "runtime.ops_per_s": "1/s",
    "runtime.atomics": "count",
    "experiments.kernel_s": "s", "experiments.variant_s": "s",
    "experiments.self_s": "s",
    "bench.unattributed_s": "s", "bench.attributed_share": "ratio",
    "bench.tracing_overhead_share": "ratio",
}


def host_facts() -> dict:
    sha = "unknown"
    try:
        # The ceiling keeps git from searching above the checkout.
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha}


def write_spans(args, passes) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as fh:
        for index, p in enumerate(q for q in passes if q.traced):
            for i, s in enumerate(p.spans):
                fh.write(json.dumps({
                    "pass": index, "id": i, "name": s.name, "layer": s.layer,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "inner": s.inner}) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        make_workload(args).build()
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else [measure_setup(args)
                                   for _ in range(SETUP_SAMPLES)]
    from probe import Probe
    from workloads import digest, input_digest
    wl = make_workload(args)
    items = wl.build()
    print(f"inputs {input_digest(items)} "
          f"{wl.name} seed {args.seed}: {len(items)} items", flush=True)

    probe = Probe().install()
    passes = []
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            modes = [p.traced for p in passes]
            if args.trace:
                enough = min(modes.count(False), modes.count(True)) >= 2
                traced = len(passes) % 2 == 1
            else:
                enough = len(passes) >= wl.min_passes
                traced = False
            if enough and time.perf_counter() >= deadline:
                break
            passes.append(run_pass(wl, items, probe, traced, digest))
        probe.paused = True
        census = wl.census(items, probe)
    finally:
        probe.uninstall()

    errors = [e for p in passes for e in p.errors]
    for p in passes:
        p.counts.update(census)
    first = passes[0].counts
    for i, p in enumerate(passes[1:], 1):
        for key in FINGERPRINT:
            if p.counts[key] != first[key]:
                errors.append(f"pass {i}: {key} {p.counts[key]} != "
                              f"{first[key]} of pass 0")
    attempted = len(passes) * len(items)
    failed = sum(p.failed for p in passes)
    correct = not errors
    for e in errors[:20]:
        print(f"FAILED {e}", file=sys.stderr)

    fingerprint = {k: first[k] for k in FINGERPRINT}
    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    pass_s = statistics.median(p.nominal for p in untraced)
    info = {"workload": wl.name, "seed": args.seed,
            "pass_walls": [round(p.wall, 4) for p in passes],
            "pass_nominal": [round(p.nominal, 4) for p in passes],
            "items_per_pass": len(items), "fingerprint": fingerprint,
            "host": host_facts()}
    if args.trace:
        per_pass = [layer_metrics(p, p.counts) for p in traced_passes]
        values = {k: statistics.median(m[k] for m in per_pass)
                  for k in per_pass[0]}
        for key in LAYER_UNITS:
            if key not in values:
                values[key] = first[key]
        values["bench.tracing_overhead_share"] = (
            statistics.median(p.nominal for p in traced_passes) / pass_s)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in LAYER_UNITS.items()}
        info["spans"] = str(write_spans(args, passes).relative_to(ROOT))
    else:
        # An item's time is its median over the passes, so that a pass
        # the host slowed down does not move the item metrics.
        per_item = [statistics.median(times)
                    for times in zip(*(p.item_times for p in untraced))]
        if len(per_item) > 10:
            samples, n_min = per_item, len(per_item)
        else:
            # Too few items for ten beyond any percentile: pool every
            # item of every pass instead.
            samples = [t for p in untraced for t in p.item_times]
            n_min = wl.min_passes * len(items)
        pct, tail_s = tail(samples, n_min)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "item_p50_s": {"value": statistics.median(per_item), "unit": "s"},
            "item_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MB"},
        }
        info["item_tail"] = {"percentile": pct, "samples": len(samples),
                             "pooled": samples is not per_item}
        info["failed_share"] = {"value": failed / attempted, "unit": "ratio"}
        for name, m in metrics.items():
            print(f"  {name:<13} {m['value']:12.6f} {m['unit']}")
        print(f"  {'failed_share':<13} {failed / attempted:12.6f} ratio "
              f"({failed}/{attempted} items)")
        print(f"  item_tail_s is p{pct} of {len(samples)} samples")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
