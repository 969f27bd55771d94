"""Dynamic race detection for simulated parallel loops.

OpenMP correctness requires that no two *iterations* of a parallel loop
make conflicting accesses to the same location (the schedule is not
known statically, so any cross-iteration conflict is a potential race).
The detector rides along an interpreted execution and records, per
memory location, which iterations read and wrote it:

* read/read — fine;
* write involved, two different iterations — race, unless **both**
  accesses are atomic updates (serialized by the hardware);
* shared-scalar writes inside a parallel iteration — race, unless the
  scalar is ``private`` or a ``reduction`` variable of the loop.

This independently validates every FormAD "shared, no atomics needed"
verdict on concrete data: if FormAD's proof is right, the generated
adjoint must come out race-free here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir.stmt import Loop
from .interp import Tracer


@dataclass(frozen=True)
class Race:
    """One detected conflict."""

    array: Optional[str]       # None for scalar races
    scalar: Optional[str]
    flat: Optional[int]
    kinds: Tuple[str, str]     # e.g. ("write", "write"), ("read", "write")
    iterations: Tuple[int, int]
    loop_var: str

    def __str__(self) -> str:
        loc = (f"{self.array}[flat {self.flat}]" if self.array is not None
               else f"scalar {self.scalar}")
        return (f"race on {loc}: {self.kinds[0]} in {self.loop_var}="
                f"{self.iterations[0]} vs {self.kinds[1]} in "
                f"{self.loop_var}={self.iterations[1]}")


@dataclass
class _LocationLog:
    readers: Dict[int, None] = field(default_factory=dict)      # iteration -> _
    writers: Dict[int, None] = field(default_factory=dict)
    atomic_writers: Dict[int, None] = field(default_factory=dict)


class RaceDetector(Tracer):
    """Tracer that accumulates :class:`Race` records."""

    def __init__(self, max_races: int = 50) -> None:
        self.races: List[Race] = []
        self.max_races = max_races
        self._loop: Optional[Loop] = None
        self._iteration: Optional[int] = None
        self._locations: Dict[Tuple[str, int], _LocationLog] = {}
        self._scalar_writes: Dict[str, int] = {}
        self._private: frozenset = frozenset()
        self._atomic_target: Optional[Tuple[str, int]] = None

    @property
    def race_free(self) -> bool:
        return not self.races

    def _record(self, race: Race) -> None:
        if len(self.races) < self.max_races:
            self.races.append(race)

    # -- loop lifecycle ----------------------------------------------------
    def on_parallel_loop_begin(self, loop: Loop, iterations: Sequence[int]) -> None:
        from ..ir.stmt import walk_stmts
        self._loop = loop
        self._locations = {}
        self._scalar_writes = {}
        # Inner sequential loop counters are predetermined private in
        # OpenMP, on top of the clause-declared privates.
        inner_counters = {s.var for s in walk_stmts(loop.body)
                          if isinstance(s, Loop)}
        self._private = frozenset(loop.private_names() | inner_counters)

    def on_parallel_iteration_begin(self, loop: Loop, value: int) -> None:
        self._iteration = value

    def on_parallel_iteration_end(self, loop: Loop, value: int) -> None:
        self._iteration = None

    def on_parallel_loop_end(self, loop: Loop) -> None:
        self._loop = None
        self._locations = {}
        self._scalar_writes = {}

    # -- accesses -----------------------------------------------------------
    def on_atomic_begin(self, array: str, flat: int) -> None:
        self._atomic_target = (array, flat)

    def on_atomic_end(self) -> None:
        self._atomic_target = None

    def on_read(self, array: str, flat: int, ref=None) -> None:
        if self._iteration is None or self._loop is None:
            return
        if self._atomic_target == (array, flat):
            return  # the load half of an atomic read-modify-write
        log = self._locations.setdefault((array, flat), _LocationLog())
        it = self._iteration
        for other in log.writers:
            if other != it:
                self._record(Race(array, None, flat, ("write", "read"),
                                  (other, it), self._loop.var))
                break
        for other in log.atomic_writers:
            if other != it:
                self._record(Race(array, None, flat, ("atomic-write", "read"),
                                  (other, it), self._loop.var))
                break
        log.readers.setdefault(it)

    def on_write(self, array: str, flat: int, *, atomic: bool, ref=None) -> None:
        if self._iteration is None or self._loop is None:
            return
        # Reduction arrays are privatized: their updates cannot race.
        if any(name == array for _, name in self._loop.reduction):
            return
        log = self._locations.setdefault((array, flat), _LocationLog())
        it = self._iteration
        for other in log.readers:
            if other != it:
                self._record(Race(array, None, flat, ("read", "write"),
                                  (other, it), self._loop.var))
                break
        for other in log.writers:
            if other != it:
                self._record(Race(array, None, flat, ("write", "write"),
                                  (other, it), self._loop.var))
                break
        if not atomic:
            # Non-atomic writes also conflict with atomic ones.
            for other in log.atomic_writers:
                if other != it:
                    self._record(Race(array, None, flat,
                                      ("atomic-write", "write"),
                                      (other, it), self._loop.var))
                    break
        if atomic:
            log.atomic_writers.setdefault(it)
        else:
            log.writers.setdefault(it)

    def on_scalar_write(self, name: str) -> None:
        if self._iteration is None or self._loop is None:
            return
        if name in self._private:
            return
        prev = self._scalar_writes.get(name)
        if prev is not None and prev != self._iteration:
            self._record(Race(None, name, None, ("write", "write"),
                              (prev, self._iteration), self._loop.var))
        self._scalar_writes[name] = self._iteration
