"""Closure-compiled interpreter for the mini-language.

Executes procedures over a :class:`~repro.runtime.memory.Memory`. The
interpreter is the semantic ground truth: AD correctness tests compare
interpreted adjoints against finite differences, and the parallel
executor drives it iteration-by-iteration to attribute costs and detect
races.

:meth:`Interpreter.run` first lowers the procedure, once, into nested
Python closures (the closure-IR idea of Myia, arXiv 1810.11530), then
calls them. Lowering is done against the invocation's memory and
tracer:

* an array access becomes a stride dot product over the array's flat
  view, with one bounds check per axis; lower bounds, extents and
  C-order strides are read at compile time;
* scalars live in the memory's scalar dict, read and written in place;
* each tracer hook is looked up once, and a hook the tracer does not
  override costs no call, so under ``NULL_TRACER`` a run makes none;
* under the :class:`~repro.runtime.costmodel.CostTracer` every array
  reference is classified as streaming or gather at compile time, and
  the constant flops, intrinsics, scalar ops and memory accesses of a
  statement list are added to the current ``OpCounts`` slice in one
  step per execution of the list (once per trip count for a sequential
  loop body). Gather cache lines, atomics, tape traffic, branches and
  the short-circuited second operand of ``.and.``/``.or.`` stay
  dynamic.

Parallel loops are executed sequentially in iteration order (which is a
valid schedule; correct parallel programs are schedule-independent).
A :class:`Tracer` receives fine-grained events — operation counts,
memory accesses with thread attribution, tape traffic — so cost models
and race detectors can observe execution without touching semantics.

Tape semantics: ``push``/``pop`` operate on named channels. Inside a
parallel loop every iteration owns an independent stack (keyed by the
loop counter's value), mirroring Tapenade's per-thread stacks while
staying deterministic; outside parallel loops a channel is one global
stack.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.expr import (ArrayRef, BinOp, Call, CmpOp, Compare, Const, Expr,
                       Logical, LogicOp, Op, UnOp, Var)
from ..ir.program import Procedure
from ..ir.stmt import Assign, If, Loop, Pop, Push, Stmt
from .memory import ArrayStorage, BoundsError, Memory


class TapeError(RuntimeError):
    """Pop from an empty tape channel (an AD engine bug if it happens)."""


class InterpreterError(RuntimeError):
    """A runtime semantic error (bad intrinsic argument, etc.)."""


class InterpreterTimeout(RuntimeError):
    """A cooperative deadline expired mid-execution.

    The interpreter polls its optional ``deadline`` between loop
    iterations (the only places a mini-language program can spend
    unbounded time), so a pathological kernel is interrupted within one
    iteration instead of stalling its caller. The audit harness maps
    this to a *truncated* case, never a soundness violation.
    """


class Tracer:
    """Event sink; the default implementation ignores everything.

    A subclass overrides the hooks it needs; the interpreter calls no
    hook that a tracer leaves as this no-op.
    """

    def on_flop(self, n: int = 1) -> None: ...

    def on_intrinsic(self, name: str) -> None: ...

    def on_read(self, array: str, flat: int, ref=None) -> None: ...

    def on_write(self, array: str, flat: int, *, atomic: bool, ref=None) -> None: ...

    def on_scalar_read(self, name: str) -> None: ...

    def on_scalar_write(self, name: str) -> None: ...

    def on_push(self) -> None: ...

    def on_pop(self) -> None: ...

    def on_atomic_begin(self, array: str, flat: int) -> None: ...

    def on_atomic_end(self) -> None: ...

    def on_parallel_loop_begin(self, loop: Loop, iterations: Sequence[int]) -> None: ...

    def on_parallel_iteration_begin(self, loop: Loop, value: int) -> None: ...

    def on_parallel_iteration_end(self, loop: Loop, value: int) -> None: ...

    def on_parallel_loop_end(self, loop: Loop) -> None: ...


NULL_TRACER = Tracer()

_HOOKS = ("on_flop", "on_intrinsic", "on_read", "on_write",
          "on_scalar_read", "on_scalar_write", "on_push", "on_pop",
          "on_atomic_begin", "on_atomic_end", "on_parallel_loop_begin",
          "on_parallel_iteration_begin", "on_parallel_iteration_end",
          "on_parallel_loop_end")
#: Cost-tracer hooks that static charges replace for plain accesses;
#: only atomic updates call them.
_STATIC_HOOKS = ("on_read", "on_write")
#: Slots of a static charge, in ``CostTracer.charge`` order.
_FLOPS, _INTRINSICS, _SCALAR_OPS, _STREAM, _GATHER = range(5)


def loop_iterations(start: int, stop: int, step: int) -> List[int]:
    """Fortran do-loop trip values."""
    if step == 0:
        raise InterpreterError("loop step is zero")
    trips = (stop - start + step) // step
    if trips <= 0:
        return []
    return [start + k * step for k in range(trips)]


def _divide(a, b):
    """Fortran ``/``: integer division truncates toward zero."""
    try:
        if isinstance(a, int) and isinstance(b, int):
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        return a / b
    except ZeroDivisionError:
        raise InterpreterError(f"{a} / {b}: division by zero") from None


def _mod(args):
    """Fortran ``MOD``: the remainder of division truncated toward zero,
    exact for integers."""
    a, b = args
    if b == 0:
        raise InterpreterError(f"mod({a}, {b}): division by zero")
    if isinstance(a, float) or isinstance(b, float):
        return math.fmod(a, b)
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


def _sign(args):
    a, b = args
    return abs(a) if b >= 0 else -abs(a)


_UNARY_INTRINSICS: Dict[str, Callable[[float], float]] = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
    "tanh": math.tanh, "abs": abs,
}

#: Intrinsics applied to the list of their evaluated arguments.
_LIST_INTRINSICS: Dict[str, Callable[[list], object]] = {
    "max": max, "min": min, "mod": _mod, "sign": _sign,
    "int": lambda args: int(args[0]),
    "real": lambda args: float(args[0]),
}


def _intrinsic(func: str) -> Callable[[list], object]:
    fn = _UNARY_INTRINSICS.get(func)
    if fn is not None:
        def unary(args):
            try:
                return fn(args[0])
            except ValueError as exc:
                raise InterpreterError(f"{func}({args[0]}): {exc}") from exc
        return unary
    listed = _LIST_INTRINSICS.get(func)
    if listed is not None:
        return listed

    def unknown(args):
        raise InterpreterError(f"unknown intrinsic {func!r}")
    return unknown


_ARITHMETIC = {Op.ADD: operator.add, Op.SUB: operator.sub,
               Op.MUL: operator.mul, Op.DIV: _divide, Op.POW: operator.pow}
_COMPARISONS = {CmpOp.EQ: operator.eq, CmpOp.NE: operator.ne,
                CmpOp.LT: operator.lt, CmpOp.LE: operator.le,
                CmpOp.GT: operator.gt, CmpOp.GE: operator.ge}


def _hook(tracer: Tracer, name: str):
    """The tracer's bound hook, or ``None`` where it keeps the no-op."""
    bound = getattr(tracer, name)
    if getattr(bound, "__func__", None) is getattr(Tracer, name):
        return None
    return bound


def _out_of_bounds(name: str, axis: int, idx: int, low: int,
                   extent: int) -> BoundsError:
    return BoundsError(f"array {name!r} axis {axis}: subscript {idx} "
                       f"outside [{low}, {low + extent - 1}]")


def _noop() -> None:
    return None


def _failing(error: Callable[[], Exception],
             *first: Callable[[], object]) -> Callable[[], None]:
    """A closure that evaluates *first*, then raises ``error()``: a fault
    found while lowering surfaces only if the code runs."""
    def fail():
        for fn in first:
            fn()
        raise error()
    return fail


def _sequence(fns: Sequence[Callable[[], None]]) -> Callable[[], None]:
    if not fns:
        return _noop
    if len(fns) == 1:
        return fns[0]
    fns = tuple(fns)

    def run():
        for fn in fns:
            fn()
    return run


class _Compiler:
    """Lowers one procedure against one memory, tracer and deadline.

    While an expression or statement is lowered, its statically known
    cost-tracer events are summed into ``self.acc``; :meth:`_unit`
    gives a conditionally executed part its own sum, which the part
    charges each time it runs.
    """

    def __init__(self, interp: "Interpreter") -> None:
        self.proc = interp.proc
        self.scalars = interp.memory.scalars
        self.arrays = interp.memory.arrays
        self.tape = interp.tape
        self.deadline = interp.deadline
        self.tracer = interp.tracer
        from .costmodel import CostTracer  # costmodel imports this module
        #: The cost tracer whose constant counts are charged statically.
        self.costs = (interp.tracer if isinstance(interp.tracer, CostTracer)
                      else None)
        self.hooks = {name: _hook(interp.tracer, name) for name in _HOOKS}
        if self.costs is not None:
            for name in _STATIC_HOOKS:
                self.hooks[name] = None
        #: Counter value of the running parallel iteration: the tape key.
        self.par_key: List[Optional[int]] = [None]
        self.acc = [0] * 5
        #: The parallel loop being lowered, if any (nesting is lexical).
        self.parallel: Optional[Loop] = None
        #: Array of the atomic update whose right-hand side is lowered.
        self.atomic: Optional[str] = None
        self._views: Dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # Static charges
    # ------------------------------------------------------------------
    def lower(self) -> Callable[[], None]:
        body, counts = self._unit(self.body, self.proc.body)
        return self._charged(body, counts)

    def _unit(self, lower: Callable, arg) -> Tuple[Callable, tuple]:
        saved, self.acc = self.acc, [0] * 5
        try:
            return lower(arg), tuple(self.acc)
        finally:
            self.acc = saved

    def _charged(self, fn: Callable, counts: tuple) -> Callable:
        """*fn*, charging *counts* to the current slice before each call."""
        if self.costs is None or not any(counts):
            return fn
        charge = self.costs.charge

        def charged():
            charge(counts)
            return fn()
        return charged

    def _count_access(self, ref: ArrayRef):
        """Count one plain access to *ref* statically; return the gather
        line sink it must feed at run time, if any."""
        if self.costs is None:
            return None
        if self.costs.is_streaming(ref):
            self.acc[_STREAM] += 1
            return None
        self.acc[_GATHER] += 1
        return self.costs.gather_lines.add if self.parallel else None

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def body(self, stmts: Sequence[Stmt]) -> Callable[[], None]:
        return _sequence([self.stmt(s) for s in stmts])

    def stmt(self, stmt: Stmt) -> Callable[[], None]:
        if isinstance(stmt, Assign):
            target = stmt.target
            if isinstance(target, ArrayRef):
                if stmt.atomic:
                    return self._atomic_update(stmt)
                return self._store_array(target, self.expr(stmt.value))
            return self._store_scalar(target.name, self.expr(stmt.value))
        if isinstance(stmt, If):
            return self._if(stmt)
        if isinstance(stmt, Loop):
            if stmt.parallel:
                return self._parallel_loop(stmt)
            return self._loop(stmt)
        if isinstance(stmt, Push):
            return self._push(stmt)
        if isinstance(stmt, Pop):
            pop = self._pop(stmt)
            if isinstance(stmt.target, ArrayRef):
                return self._store_array(stmt.target, pop)
            return self._store_scalar(stmt.target.name, pop)
        raise TypeError(f"cannot execute {stmt!r}")  # pragma: no cover

    def _store_scalar(self, name: str, value: Callable) -> Callable[[], None]:
        scalars = self.scalars
        self.acc[_SCALAR_OPS] += 1
        if name not in scalars:
            return _failing(lambda: KeyError(f"unknown scalar {name!r}"), value)
        write = self.hooks["on_scalar_write"]
        if write is None:
            def store():
                scalars[name] = value()
            return store

        def store_traced():
            scalars[name] = value()
            write(name)
        return store_traced

    def _store_array(self, target: ArrayRef,
                     value: Callable) -> Callable[[], None]:
        locate, flat = self._locator(target)
        name = target.name
        lines = self._count_access(target)
        write = self.hooks["on_write"]
        if write is not None:
            def store_traced():
                v = value()
                k = locate()
                flat[k] = v
                write(name, k, atomic=False, ref=target)
            return store_traced
        if lines is not None:
            def store_gather():
                v = value()
                k = locate()
                flat[k] = v
                lines((name, k >> 3))
            return store_gather

        def store():
            v = value()
            flat[locate()] = v
        return store

    def _atomic_update(self, stmt: Assign) -> Callable[[], None]:
        """An ``!$omp atomic`` array update: the load of the target
        location inside the RHS is part of the atomic read-modify-write,
        so tracers must not see it as an independent plain read."""
        target = stmt.target
        name = target.name
        locate, flat = self._locator(target)
        saved, self.atomic = self.atomic, name
        try:
            value = self.expr(stmt.value)
        finally:
            self.atomic = saved
        begin = self.hooks["on_atomic_begin"]
        end = self.hooks["on_atomic_end"]
        write = (self.tracer.on_write if self.costs is not None
                 else self.hooks["on_write"])

        def update():
            k = locate()
            if begin is not None:
                begin(name, k)
            try:
                v = value()
            finally:
                if end is not None:
                    end()
            flat[k] = v
            if write is not None:
                write(name, k, atomic=True, ref=target)
        return update

    def _if(self, stmt: If) -> Callable[[], None]:
        cond = self.expr(stmt.cond)
        then_body = self._charged(*self._unit(self.body, stmt.then_body))
        else_body = self._charged(*self._unit(self.body, stmt.else_body))

        def branch():
            if cond():
                then_body()
            else:
                else_body()
        return branch

    def _bounds(self, loop: Loop):
        return (self.expr(loop.start), self.expr(loop.stop),
                self.expr(loop.step))

    def _timeout(self, loop: Loop):
        """``expired`` of the deadline (or None) and its error message."""
        if self.deadline is None:
            return None, ""
        return self.deadline.expired, (
            f"deadline expired inside loop over {loop.var!r} "
            f"of {self.proc.name!r}")

    def _loop(self, loop: Loop) -> Callable[[], None]:
        start, stop, step = self._bounds(loop)
        body, counts = self._unit(self.body, loop.body)
        charge = (self.costs.charge if self.costs is not None
                  and any(counts) else None)
        expired, late = self._timeout(loop)
        scalars, var = self.scalars, loop.var

        def run_loop():
            first, last, inc = int(start()), int(stop()), int(step())
            values = loop_iterations(first, last, inc)
            if var not in scalars:
                raise KeyError(f"unknown scalar {var!r}")
            if charge is not None:
                charge(counts, len(values))
            for v in values:
                if expired is not None and expired():
                    raise InterpreterTimeout(late)
                scalars[var] = v
                body()
            # Fortran: counter holds the first value past the last iteration.
            scalars[var] = first + len(values) * inc
        return run_loop

    def _parallel_loop(self, loop: Loop) -> Callable[[], None]:
        if self.parallel is not None:
            return _failing(lambda: InterpreterError(
                "nested parallel loops are not supported"))
        start, stop, step = self._bounds(loop)
        self.parallel = loop
        try:
            body = self._charged(*self._unit(self.body, loop.body))
        finally:
            self.parallel = None
        hooks = self.hooks
        begin = hooks["on_parallel_loop_begin"]
        it_begin = hooks["on_parallel_iteration_begin"]
        it_end = hooks["on_parallel_iteration_end"]
        end = hooks["on_parallel_loop_end"]
        expired, late = self._timeout(loop)
        scalars, var, par_key = self.scalars, loop.var, self.par_key

        def run_parallel_loop():
            values = loop_iterations(int(start()), int(stop()), int(step()))
            if begin is not None:
                begin(loop, values)
            try:
                if values and var not in scalars:
                    raise KeyError(f"unknown scalar {var!r}")
                for v in values:
                    if expired is not None and expired():
                        raise InterpreterTimeout(late)
                    par_key[0] = v
                    scalars[var] = v
                    if it_begin is not None:
                        it_begin(loop, v)
                    body()
                    if it_end is not None:
                        it_end(loop, v)
            finally:
                par_key[0] = None
            if end is not None:
                end(loop)
        return run_parallel_loop

    def _push(self, stmt: Push) -> Callable[[], None]:
        value = self.expr(stmt.value)
        tape, channel, par_key = self.tape, stmt.channel, self.par_key
        push = self.hooks["on_push"]

        def run_push():
            v = value()
            tape.setdefault((channel, par_key[0]), []).append(v)
            if push is not None:
                push()
        return run_push

    def _pop(self, stmt: Pop) -> Callable[[], object]:
        tape, channel, par_key = self.tape, stmt.channel, self.par_key
        pop = self.hooks["on_pop"]

        def run_pop():
            key = par_key[0]
            stack = tape.get((channel, key))
            if not stack:
                raise TapeError(f"pop from empty tape channel {channel!r} "
                                f"(iteration key {key!r})")
            if pop is not None:
                pop()
            return stack.pop()
        return run_pop

    # ------------------------------------------------------------------
    # Array access
    # ------------------------------------------------------------------
    def _view(self, storage: ArrayStorage) -> tuple:
        view = self._views.get(storage.name)
        if view is None:
            view = self._views[storage.name] = storage.flat_layout()
        return view

    def _locator(self, ref: ArrayRef) -> Tuple[Callable[[], int], object]:
        """A closure computing the bounds-checked flat index of *ref*,
        and the flat view it indexes."""
        name = ref.name
        subscripts = [self.expr(i) for i in ref.indices]
        storage = self.arrays.get(name)
        if storage is None:
            return _failing(lambda: KeyError(name), *subscripts), None
        flat, lowers, extents, strides = self._view(storage)
        rank = len(lowers)
        if len(subscripts) != rank:
            message = (f"array {name!r}: {rank} subscripts expected, "
                       f"got {len(subscripts)}")
            return _failing(lambda: BoundsError(message), *subscripts), flat
        # Ranks 1 and 2 are unrolled: they make up nearly every access,
        # and the generic per-axis loop below is much slower.
        if rank == 1:
            (f0,), (l0,), (n0,) = subscripts, lowers, extents

            def locate1():
                i0 = int(f0())
                p0 = i0 - l0
                if p0 < 0 or p0 >= n0:
                    raise _out_of_bounds(name, 0, i0, l0, n0)
                return p0
            return locate1, flat
        if rank == 2:
            (f0, f1), (l0, l1), (n0, n1) = subscripts, lowers, extents

            def locate2():
                i0 = int(f0())
                i1 = int(f1())
                p0 = i0 - l0
                if p0 < 0 or p0 >= n0:
                    raise _out_of_bounds(name, 0, i0, l0, n0)
                p1 = i1 - l1
                if p1 < 0 or p1 >= n1:
                    raise _out_of_bounds(name, 1, i1, l1, n1)
                return p0 * n1 + p1
            return locate2, flat
        axes = tuple(enumerate(zip(lowers, extents, strides)))

        def locate():
            idx = [int(f()) for f in subscripts]
            k = 0
            for axis, (low, extent, stride) in axes:
                p = idx[axis] - low
                if p < 0 or p >= extent:
                    raise _out_of_bounds(name, axis, idx[axis], low, extent)
                k += p * stride
            return k
        return locate, flat

    def _read(self, ref: ArrayRef) -> Callable[[], object]:
        locate, flat = self._locator(ref)
        if flat is None:
            return locate
        item, name = flat.item, ref.name
        if self.costs is not None and self.atomic == name:
            # Inside an atomic update of this array: the cost tracer
            # decides at run time whether this is the atomic's own load.
            read = self.tracer.on_read
        else:
            read = self.hooks["on_read"]
            lines = self._count_access(ref)
            if read is None and lines is not None:
                def load_gather():
                    k = locate()
                    lines((name, k >> 3))
                    return item(k)
                return load_gather
        if read is not None:
            def load_traced():
                k = locate()
                read(name, k, ref=ref)
                return item(k)
            return load_traced
        return lambda: item(locate())

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def expr(self, expr: Expr) -> Callable[[], object]:
        if isinstance(expr, Const):
            value = expr.value
            return lambda: value
        if isinstance(expr, Var):
            return self._scalar(expr.name)
        if isinstance(expr, ArrayRef):
            return self._read(expr)
        if isinstance(expr, BinOp):
            return self._binop(expr)
        if isinstance(expr, UnOp):
            operand = self.expr(expr.operand)
            self.acc[_FLOPS] += 1
            flop = self.hooks["on_flop"]
            if flop is None:
                return lambda: -operand()

            def negate():
                flop()
                return -operand()
            return negate
        if isinstance(expr, Call):
            return self._call(expr)
        if isinstance(expr, Compare):
            return self._binary(_COMPARISONS[expr.op], expr.left, expr.right)
        if isinstance(expr, Logical):
            return self._logical(expr)
        raise TypeError(f"cannot evaluate {expr!r}")  # pragma: no cover

    def _scalar(self, name: str) -> Callable[[], object]:
        scalars = self.scalars
        self.acc[_SCALAR_OPS] += 1
        read = self.hooks["on_scalar_read"]
        if read is None:
            return lambda: scalars[name]

        def load():
            read(name)
            return scalars[name]
        return load

    def _binary(self, fn: Callable, left: Expr, right: Expr) -> Callable:
        """``fn(left, right)`` after both operands and one flop event."""
        lhs, rhs = self.expr(left), self.expr(right)
        self.acc[_FLOPS] += 1
        flop = self.hooks["on_flop"]
        if flop is None:
            return lambda: fn(lhs(), rhs())

        def apply():
            a = lhs()
            b = rhs()
            flop()
            return fn(a, b)
        return apply

    def _binop(self, expr: BinOp) -> Callable[[], object]:
        fn = _ARITHMETIC.get(expr.op)
        if fn is None:  # pragma: no cover - defensive
            return _failing(lambda: InterpreterError(
                f"bad binary op {expr.op}"))
        return self._binary(fn, expr.left, expr.right)

    def _logical(self, expr: Logical) -> Callable[[], bool]:
        first = self.expr(expr.operands[0])
        if expr.op is LogicOp.NOT:
            return lambda: not first()
        # The second operand runs only when the first does not decide.
        second = self._charged(*self._unit(self.expr, expr.operands[1]))
        if expr.op is LogicOp.AND:
            return lambda: bool(first()) and bool(second())
        return lambda: bool(first()) or bool(second())

    def _call(self, call: Call) -> Callable[[], object]:
        self.acc[_INTRINSICS] += 1
        hook = self.hooks["on_intrinsic"]
        func = call.func
        if func == "size":
            fn = self._size(call)
        else:
            apply = _intrinsic(func)
            args = [self.expr(a) for a in call.args]
            if len(args) == 1:
                (a0,) = args
                fn = lambda: apply([a0()])
            elif len(args) == 2:
                a0, a1 = args
                fn = lambda: apply([a0(), a1()])
            else:
                fn = lambda: apply([a() for a in args])
        if hook is None:
            return fn

        def traced():
            hook(func)
            return fn()
        return traced

    def _size(self, call: Call) -> Callable[[], int]:
        """``size(a[, dim])`` takes the array *name*, which must not be
        evaluated as data."""
        name = call.args[0]
        if not isinstance(name, (Var, ArrayRef)):
            return _failing(lambda: InterpreterError(
                "size() expects an array name"))
        storage = self.arrays.get(name.name)
        if storage is None:
            return _failing(lambda: KeyError(name.name))
        shape, size = storage.shape, storage.size
        if len(call.args) < 2:
            return lambda: size
        dim = self.expr(call.args[1])
        return lambda: shape[int(dim()) - 1]


class Interpreter:
    """Executes one procedure invocation."""

    def __init__(self, proc: Procedure, memory: Memory,
                 tracer: Tracer = NULL_TRACER, *, deadline=None) -> None:
        self.proc = proc
        self.memory = memory
        self.tracer = tracer
        #: Optional :class:`repro.resilience.Deadline`-shaped object
        #: (anything with ``expired()``), polled between loop
        #: iterations; ``None`` (the default) costs nothing.
        self.deadline = deadline
        self.tape: Dict[Tuple[str, Optional[int]], List[float]] = {}

    def run(self) -> Memory:
        """Lower the procedure into closures, then run them."""
        _Compiler(self).lower()()
        return self.memory


def run_procedure(
    proc: Procedure,
    bindings: Mapping[str, object] = (),
    extents: Mapping[str, Sequence[int]] = (),
    tracer: Tracer = NULL_TRACER,
    *,
    deadline=None,
) -> Memory:
    """Allocate memory, run, return the final memory."""
    memory = Memory.for_procedure(proc, bindings, extents)
    Interpreter(proc, memory, tracer, deadline=deadline).run()
    return memory
