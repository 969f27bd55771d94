"""The three workloads: inputs from a seed, one timed item, its checks.

Every workload is closed-loop and serial: the next item starts when the
previous one returns, and no call gets ``jobs`` or a process backend.
``build`` is set-up (its time is ``setup_s``); ``run`` is one timed
item; ``check`` runs after the item, outside the timed region, and
returns the item's errors; ``census`` adds counts that need extra work
(also outside the timed region).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro
import repro.experiments.harness as harness
from repro.audit.generator import (FAMILIES, RACY_FAMILIES, build_procedure,
                                   generate_case, make_bindings)
from repro.experiments import specs
from repro.experiments.table1 import TABLE1_PROBLEMS
from repro.ir.program import Procedure
from repro.obs.tracer import NULL_TRACER
from repro.programs import (build_stencil, make_gfmc_workload,
                            make_linear_mesh, make_stencil_workload)
from repro.runtime import profile_run

from probe import profile_counts

HERE = Path(__file__).resolve().parent
#: The seed the recorded simulated figure times belong to.
DEFAULT_SEED = 0


@dataclasses.dataclass
class Item:
    key: str
    inputs: Dict[str, Any]
    #: Arrays of each profiled run that the checks read; adjoint arrays
    #: are added as the item differentiates.
    keep_arrays: Tuple[str, ...] = ()
    #: Outputs of the first pass; later passes must reproduce them.
    reference: Optional[Any] = None


def digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()
                          ).hexdigest()[:16]


def input_digest(items: List[Item]) -> str:
    """A digest of every item's inputs, to show what the seed changed."""
    h = hashlib.sha256()

    def feed(value: Any) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                h.update(str(key).encode())
                feed(value[key])
        elif isinstance(value, (list, tuple)):
            for v in value:
                feed(v)
        elif isinstance(value, np.ndarray):
            h.update(value.tobytes())
        elif isinstance(value, Procedure):
            h.update(repro.format_procedure(value).encode())
        elif dataclasses.is_dataclass(value):
            feed(vars(value))
        else:
            h.update(repr(value).encode())

    for item in items:
        h.update(item.key.encode())
        feed(item.inputs)
    return h.hexdigest()[:16]


def _verdicts(analyses) -> List[Dict[str, bool]]:
    return [{name: v.safe for name, v in sorted(a.verdicts.items())}
            for a in analyses]


def _analysis_errors(analyses) -> List[str]:
    errors = []
    for a in analyses:
        if a.degraded:
            errors.append("degraded loop")
        if a.stats.solver_unknown or a.stats.timed_out_questions:
            errors.append("UNKNOWN solver answer")
    return errors


def _adjoint_bindings(bindings, rev, independents, dependents):
    out = dict(bindings)
    for name in set(independents) | set(dependents):
        base = np.asarray(bindings[name], dtype=float)
        fill = np.ones if name in dependents else np.zeros
        out[rev.adjoint_name(name)] = fill(base.shape)
    return out


def _gradient_errors(label, got, want) -> List[str]:
    errors = []
    for name, ref in want.items():
        if not np.allclose(got[name], ref, rtol=1e-9, atol=1e-12):
            errors.append(f"{label}: gradient {name} differs from serial")
    return errors


class Table1Analyze:
    """``repro analyze``: source text -> parse -> FormAD verdicts."""

    name = "table1-analyze"
    #: Radii of the seeded stencils: the ends and middle of 8-16, so a
    #: pass always spans 126..442 questions per stencil whatever the seed.
    RADII = (8, 12, 16)
    min_passes = 4

    def __init__(self, seed: int, scale: str, expected: dict) -> None:
        self.seed, self.scale, self.expected = seed, scale, expected

    def build(self) -> List[Item]:
        rng = random.Random(f"perfbench:{self.seed}")
        problems = TABLE1_PROBLEMS
        radii = self.RADII
        if self.scale == "tiny":
            problems = {k: problems[k] for k in ("stencil 1", "GFMC*")}
            radii = (2,)
        items = []
        for name, (builder, ind, dep) in problems.items():
            items.append(Item(name, {
                "source": repro.format_procedure(builder()),
                "independents": ind, "dependents": dep,
                "expected": self.expected["table1"][name]}))
        for radius in radii:
            # The seed draws what the analysis cost does not depend on:
            # routine name, declared grid extent and sweep count.
            proc = build_stencil(radius, n=rng.randrange(1_000, 100_001),
                                 sweeps=rng.randint(1, 3),
                                 name=f"stencil_r{radius}_{rng.randrange(10**6)}")
            n_loops = len(proc.parallel_loops())
            items.append(Item(proc.name, {
                "source": repro.format_procedure(proc),
                "independents": ["uold"], "dependents": ["unew"],
                "expected": [self.expected["seeded_stencil"]] * n_loops}))
        rng.shuffle(items)
        return items

    def run(self, item: Item, probe) -> Any:
        inputs = item.inputs
        proc = repro.parse_procedure(inputs["source"])
        return repro.analyze_formad(proc, inputs["independents"],
                                    inputs["dependents"])

    def check(self, item: Item, out: Any, capture) -> List[str]:
        errors = _analysis_errors(out)
        if _verdicts(out) != item.inputs["expected"]:
            errors.append(f"verdicts {_verdicts(out)} != expected "
                          f"{item.inputs['expected']}")
        return errors

    def output_key(self, item: Item, out: Any) -> Any:
        return _verdicts(out)

    def census(self, items: List[Item], probe) -> Dict[str, int]:
        return {}


#: Reduced figure extents: (small stencil n, large stencil n,
#: GFMC (npair, nwalk, ngroups_max), Green-Gauss nodes).
FIGURE_EXTENTS = {
    "bench": (1000, 150, (16, 4, 8), 900),
    "tiny": (40, 40, (4, 2, 3), 40),
}
#: Figure kernel -> the Table-1 problem holding its expected verdicts.
FIGURE_PROBLEMS = {"stencil_small": "stencil 1", "stencil_large": "stencil 8",
                   "gfmc": "GFMC", "greengauss": "GreenGauss"}


def figure_specs(seed: int, scale: str) -> List[specs.KernelSpec]:
    small, large, (npair, nwalk, ngroups), nodes = FIGURE_EXTENTS[scale]
    replace = dataclasses.replace
    return [
        replace(specs.small_stencil_spec(small),
                bindings=make_stencil_workload(1, small, seed=seed)),
        replace(specs.large_stencil_spec(large),
                bindings=make_stencil_workload(8, large, seed=seed)),
        replace(specs.gfmc_spec(npair, nwalk, ngroups),
                bindings=make_gfmc_workload(npair, nwalk, ngroups, seed=seed,
                                            imbalance=1.2)),
        replace(specs.greengauss_spec(nodes),
                bindings=make_linear_mesh(nodes, seed=seed)),
    ]


def simulated_times(exp) -> Dict[str, Any]:
    """The numbers behind one Figs 3-10 pair, JSON-ready."""
    def times(t):
        return {str(k): v for k, v in sorted(t.items())}
    return {
        "primal": times(exp.primal.times),
        "primal_serial": exp.primal_serial_time,
        "adjoint_serial": exp.adjoint_serial_time,
        "adjoints": {s: times(v.times) for s, v in exp.adjoints.items()},
    }


class FiguresSimulate:
    """``repro experiments``: differentiate, interpret, cost-model."""

    name = "figures-simulate"
    min_passes = 6

    def __init__(self, seed: int, scale: str, expected: dict) -> None:
        self.seed, self.scale, self.expected = seed, scale, expected
        recorded = json.loads((HERE / "expected_figures.json").read_text())
        self.recorded = recorded.get(scale, {})

    def build(self) -> List[Item]:
        return [Item(spec.name, {"spec": spec},
                     keep_arrays=tuple(spec.dependents))
                for spec in figure_specs(self.seed, self.scale)]

    def run(self, item: Item, probe) -> Any:
        tracer = probe.sink if probe.traced else NULL_TRACER
        return harness.run_kernel_experiment(item.inputs["spec"],
                                             tracer=tracer)

    def check(self, item: Item, out: Any, capture) -> List[str]:
        spec = item.inputs["spec"]
        errors = _analysis_errors(capture.analyses)
        want = self.expected["table1"][FIGURE_PROBLEMS[spec.name]]
        if _verdicts(capture.analyses) != want:
            errors.append(f"verdicts {_verdicts(capture.analyses)} != {want}")
        got = simulated_times(out)
        # Recorded at the default seed. The seed changes values and the
        # GFMC spin permutation, but not which cache lines a loop
        # touches, so the simulated times hold for every seed.
        if got != self.recorded.get(spec.name):
            errors.append("simulated times differ from the recorded file")
        # Capture order is the harness's serial order: primal parallel,
        # primal serial, adjoint serial, then one adjoint per strategy.
        strategies = list(out.adjoints)
        runs = capture.profiles
        if len(runs) != 3 + len(strategies) or \
                len(capture.reverse) != 1 + len(strategies):
            return errors + ["unexpected number of program versions"]
        for name in spec.dependents:
            if not np.array_equal(runs[0].arrays[name], runs[1].arrays[name]):
                errors.append(f"primal {name}: parallel != serial build")
        serial = capture.reverse[0]
        want = {x: runs[2].arrays[serial.adjoint_name(x)]
                for x in spec.independents}
        for strategy, rev, run in zip(strategies, capture.reverse[1:],
                                      runs[3:]):
            got_grad = {x: run.arrays[rev.adjoint_name(x)]
                        for x in spec.independents}
            errors += _gradient_errors(strategy, got_grad, want)
        return errors

    def output_key(self, item: Item, out: Any) -> Any:
        return simulated_times(out)

    def census(self, items: List[Item], probe) -> Dict[str, int]:
        return {}


#: The generator families with a defined verdict (racy primals have none).
SAFE_FAMILIES = tuple(f for f in FAMILIES if f not in RACY_FAMILIES)


class GeneratedSmall:
    """``repro differentiate`` on many small generated kernels."""

    name = "generated-small"
    min_passes = 4

    def __init__(self, seed: int, scale: str, expected: dict) -> None:
        self.seed, self.scale, self.expected = seed, scale, expected
        self.count = 270 if scale == "bench" else 2 * len(SAFE_FAMILIES)

    def build(self) -> List[Item]:
        items = []
        for i in range(self.count):
            case = generate_case(i, seed=self.seed, families=SAFE_FAMILIES)
            items.append(Item(f"case{i}:{case.family}", {
                "proc": build_procedure(case, name=f"kernel{i}"),
                "bindings": make_bindings(case, case.n, seed=self.seed),
                "independents": case.independents(),
                "dependents": case.dependents(),
                "expected": self.expected["families"][case.family]}))
        return items

    def run(self, item: Item, probe) -> Any:
        inputs = item.inputs
        ind, dep = inputs["independents"], inputs["dependents"]
        proc = repro.parse_procedure(repro.format_procedure(inputs["proc"]))
        rev = repro.differentiate(proc, ind, dep, strategy="formad")
        repro.format_procedure(rev.procedure)
        primal = repro.run_procedure(proc, inputs["bindings"])
        adjoint = repro.run_procedure(
            rev.procedure, _adjoint_bindings(inputs["bindings"], rev, ind, dep))
        return {
            "primal": {y: primal.arrays[y].data for y in dep},
            "gradient": {x: adjoint.arrays[rev.adjoint_name(x)].data
                         for x in ind},
        }

    def check(self, item: Item, out: Any, capture) -> List[str]:
        errors = _analysis_errors(capture.analyses)
        got = {name: v.safe for a in capture.analyses
               for name, v in a.verdicts.items()}
        if got != item.inputs["expected"]:
            errors.append(f"verdicts {got} != expected "
                          f"{item.inputs['expected']}")
        errors += _gradient_errors("formad", out["gradient"],
                                   self._serial_gradient(item))
        return errors

    def _serial_gradient(self, item: Item) -> Dict[str, np.ndarray]:
        if "serial_gradient" not in item.inputs:
            inputs = item.inputs
            ind, dep = inputs["independents"], inputs["dependents"]
            rev = repro.differentiate(inputs["proc"], ind, dep,
                                      strategy="serial")
            mem = repro.run_procedure(
                rev.procedure,
                _adjoint_bindings(inputs["bindings"], rev, ind, dep))
            inputs["serial_gradient"] = {
                x: mem.arrays[rev.adjoint_name(x)].data for x in ind}
        return item.inputs["serial_gradient"]

    def output_key(self, item: Item, out: Any) -> Any:
        return {kind: {k: v.tobytes().hex() for k, v in arrays.items()}
                for kind, arrays in out.items()}

    def census(self, items: List[Item], probe) -> Dict[str, int]:
        """Interpreter op counts: ``run_procedure`` counts nothing, so
        each item's primal and formad adjoint are profiled once."""
        ops = atomics = 0
        for item in items:
            inputs = item.inputs
            ind, dep = inputs["independents"], inputs["dependents"]
            rev = repro.differentiate(inputs["proc"], ind, dep,
                                      strategy="formad")
            for proc, bindings in (
                    (inputs["proc"], inputs["bindings"]),
                    (rev.procedure, _adjoint_bindings(inputs["bindings"],
                                                      rev, ind, dep))):
                counts = profile_counts(profile_run(proc, bindings).profile)
                ops += counts["ops"]
                atomics += counts["atomics"]
        return {"runtime.ops": ops, "runtime.atomics": atomics}


WORKLOADS = {w.name: w for w in (Table1Analyze, FiguresSimulate,
                                 GeneratedSmall)}
