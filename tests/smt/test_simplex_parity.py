"""Pivot-for-pivot parity between the simplex engines.

The vectorized :class:`DenseSimplexSolver` must make *exactly* the same
Bland's-rule choices as the original :class:`FractionSimplexSolver`
(``fraction_simplex.py``) — same pivot count, same (basic, entering)
sequence, same verdict, same rational model — on every constraint
system the solver test suite exercises plus a deterministic randomized
sweep. This is what licenses
swapping the engine under the whole FormAD stack without re-validating
any verdict.
"""

import random
from fractions import Fraction

import pytest

from repro.smt import Int, canonicalize
from repro.smt.linform import TrivialConstraint
from repro.smt.simplex import DenseSimplexSolver, ResourceError

from .fraction_simplex import FractionSimplexSolver

x, y, z = Int("x"), Int("y"), Int("z")


def cons(*atoms):
    out = []
    for a in atoms:
        try:
            for c in canonicalize(a):
                out.append(c)
        except TrivialConstraint:
            pass
    return out


#: Every constraint system TestSimplex exercises, plus shapes from the
#: integer layer (the branch & bound nodes re-check these with extra
#: bounds, so covering the roots covers the hot shapes).
SYSTEMS = {
    "satisfiable_bounds": cons(x.ge(1), x.le(10)),
    "direct_conflict": cons(x.ge(5), x.le(3)),
    "chained_inequalities": cons(x.lt(y), y.lt(z), z.lt(x)),
    "equality_propagation": cons((x + y).eq(10), (x - y).eq(4)),
    "mixed_polytope": cons((2 * x + 3 * y).le(12), (x - y).ge(-1),
                           x.ge(0), y.ge(2)),
    "shared_slack_conflict": cons((x + y).le(3), (x + y).ge(5)),
    "unconstrained": [],
    "diophantine_box": cons((2 * x + 3 * y).eq(7), x.ge(0), y.ge(0)),
    "three_var_system": cons((x + y + z).eq(6), (x - y).eq(1), (y - z).eq(1)),
    "formad_disjoint": cons(Int("ci").le(Int("cip") - 1),
                            (Int("ci") + 7).eq(Int("cip") + 7)),
}


def _run(engine_cls, constraints, max_pivots=100_000):
    s = engine_cls()
    for c in constraints:
        s.assert_constraint(c)
    try:
        verdict = s.check(max_pivots=max_pivots)
    except ResourceError:
        verdict = "resource"
    return verdict, s.model() if verdict is True else None, s.pivots, s.pivot_log


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_engines_agree_pivot_for_pivot(name):
    constraints = SYSTEMS[name]
    fv, fm, fp, flog = _run(FractionSimplexSolver, constraints)
    dv, dm, dp, dlog = _run(DenseSimplexSolver, constraints)
    assert dv == fv
    assert dp == fp, f"pivot counts diverge: dense={dp} fraction={fp}"
    assert dlog == flog, "pivot sequences diverge"
    assert dm == fm  # identical rational models, not just both-SAT


def test_randomized_sweep_agrees():
    rng = random.Random(20260808)
    vars_ = [Int(n) for n in "abcde"]
    for trial in range(60):
        atoms = []
        for _ in range(rng.randint(1, 7)):
            lhs = sum((rng.randint(-4, 4) * v for v in
                       rng.sample(vars_, rng.randint(1, 3))),
                      0 * vars_[0])
            rel = rng.choice(["le", "ge", "eq", "lt", "gt"])
            atoms.append(getattr(lhs, rel)(rng.randint(-10, 10)))
        constraints = cons(*atoms)
        fv, fm, fp, flog = _run(FractionSimplexSolver, constraints)
        dv, dm, dp, dlog = _run(DenseSimplexSolver, constraints)
        assert (dv, dp, dlog, dm) == (fv, fp, flog, fm), f"trial {trial}"


def test_overflow_promotes_to_exact_objects():
    """Huge coefficients force the object-dtype fallback mid-pivot; the
    verdict and pivot sequence still match the Fraction engine."""
    big = 3 ** 45  # ~2^71: the raw coefficients already exceed int64
    w = Int("w")
    atoms = [(big * x + (big + 1) * y).eq(1), (x + y).ge(10 ** 9),
             ((big - 1) * y + w).le(-(10 ** 12)), (w - x).ge(7)]
    constraints = cons(*atoms)
    fv, fm, fp, flog = _run(FractionSimplexSolver, constraints)
    dv, dm, dp, dlog = _run(DenseSimplexSolver, constraints)
    assert (dv, dp, dlog, dm) == (fv, fp, flog, fm)


def test_copy_preserves_parity_through_branching():
    """Branch & bound copies nodes and tightens bounds; parity must
    survive the copy path too."""
    constraints = cons((2 * x + 3 * y).eq(7), x.ge(0), y.ge(0))
    engines = []
    for cls in (FractionSimplexSolver, DenseSimplexSolver):
        root = cls()
        for c in constraints:
            root.assert_constraint(c)
        assert root.check() is True
        child = root.copy()
        child.assert_upper("x", Fraction(1))
        child.assert_lower("y", Fraction(2))
        verdict = child.check()
        engines.append((verdict, child.pivots, child.pivot_log,
                        child.model() if verdict else None))
    assert engines[0] == engines[1]
