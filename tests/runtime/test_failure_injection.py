"""Failure injection: the runtime must fail loudly and precisely when
programs violate its dynamic contracts."""

import numpy as np
import pytest

from repro.ir import (Assign, Call, Loop, ProcedureBuilder, REAL, Var,
                      INTEGER, parse_procedure, real_array)
from repro.runtime import (BoundsError, Interpreter, InterpreterError, Memory,
                           TapeError, run_procedure)


class TestBoundsViolations:
    def test_read_out_of_bounds(self):
        src = """
subroutine oob(x, y, n)
  integer, intent(in) :: n
  real, intent(in) :: x(10)
  real, intent(out) :: y
  y = x(n)
end subroutine oob
"""
        proc = parse_procedure(src)
        with pytest.raises(BoundsError, match="axis 0"):
            run_procedure(proc, {"x": np.zeros(10), "n": 11})
        with pytest.raises(BoundsError):
            run_procedure(proc, {"x": np.zeros(10), "n": 0})

    def test_write_out_of_bounds_through_indirection(self):
        src = """
subroutine oob(y, c, n)
  integer, intent(in) :: n
  real, intent(inout) :: y(10)
  integer, intent(in) :: c(5)
  !$omp parallel do
  do i = 1, n
    y(c(i)) = 1.0
  end do
end subroutine oob
"""
        proc = parse_procedure(src)
        c = np.array([1, 2, 99, 4, 5])
        with pytest.raises(BoundsError, match="'y'"):
            run_procedure(proc, {"y": np.zeros(10), "c": c, "n": 5})

    def test_error_message_names_array_and_range(self):
        src = """
subroutine oob(x, y)
  real, intent(in) :: x(3)
  real, intent(out) :: y
  y = x(7)
end subroutine oob
"""
        with pytest.raises(BoundsError, match=r"\[1, 3\]"):
            run_procedure(parse_procedure(src), {"x": np.zeros(3)})


class TestDomainErrors:
    def test_sqrt_of_negative(self):
        src = """
subroutine bad(x, y)
  real, intent(in) :: x
  real, intent(out) :: y
  y = sqrt(x)
end subroutine bad
"""
        proc = parse_procedure(src)
        with pytest.raises(InterpreterError, match="sqrt"):
            run_procedure(proc, {"x": -1.0})

    def test_log_of_zero(self):
        src = """
subroutine bad(x, y)
  real, intent(in) :: x
  real, intent(out) :: y
  y = log(x)
end subroutine bad
"""
        proc = parse_procedure(src)
        with pytest.raises(InterpreterError, match="log"):
            run_procedure(proc, {"x": 0.0})


class TestDivisionAndMod:
    MOD = """
subroutine m(n, d, r)
  integer, intent(in) :: n
  integer, intent(in) :: d
  integer, intent(out) :: r
  r = mod(n, d)
end subroutine m
"""
    DIV = """
subroutine q(a, b, c)
  {kind}, intent(in) :: a
  {kind}, intent(in) :: b
  {kind}, intent(out) :: c
  c = a / b
end subroutine q
"""

    def test_integer_mod_is_exact_beyond_double_precision(self):
        mem = run_procedure(parse_procedure(self.MOD), {"n": 2**62 + 1, "d": 3})
        r = mem.get_scalar("r")
        assert r == 2 and isinstance(r, int)

    @pytest.mark.parametrize("n, d, want", [(7, 3, 1), (-7, 3, -1),
                                            (7, -3, 1), (-7, -3, -1)])
    def test_integer_mod_truncates_toward_zero(self, n, d, want):
        mem = run_procedure(parse_procedure(self.MOD), {"n": n, "d": d})
        assert mem.get_scalar("r") == want

    def test_integer_mod_by_zero(self):
        with pytest.raises(InterpreterError, match=r"mod\(5, 0\)"):
            run_procedure(parse_procedure(self.MOD), {"n": 5, "d": 0})

    def test_real_mod_by_zero(self):
        src = self.MOD.replace("integer, intent(in) :: n", "real, intent(in) :: n")
        with pytest.raises(InterpreterError, match="mod"):
            run_procedure(parse_procedure(src), {"n": 5.0, "d": 0})

    @pytest.mark.parametrize("kind, a, b", [("integer", 7, 0),
                                            ("real", 7.0, 0.0)])
    def test_division_by_zero(self, kind, a, b):
        proc = parse_procedure(self.DIV.format(kind=kind))
        with pytest.raises(InterpreterError, match="/"):
            run_procedure(proc, {"a": a, "b": b})


class TestTapeContract:
    def test_double_pop(self):
        b = ProcedureBuilder("p")
        x = b.param("x", REAL)
        b.push("ch", 1.0)
        b.pop("ch", x)
        b.pop("ch", x)
        with pytest.raises(TapeError, match="'ch'"):
            run_procedure(b.build())

    def test_wrong_channel(self):
        b = ProcedureBuilder("p")
        x = b.param("x", REAL)
        b.push("a", 1.0)
        b.pop("b", x)
        with pytest.raises(TapeError, match="'b'"):
            run_procedure(b.build())

    def test_cross_iteration_pop_fails(self):
        # A pop keyed to a different parallel iteration must not see
        # another iteration's pushes.
        b = ProcedureBuilder("p")
        a = b.param("a", real_array(4))
        with b.parallel_do("i", 1, 4) as i:
            b.push("t", a[i])
            b.pop("t", a[i])  # same iteration: fine
        run_procedure(b.build(), {"a": np.ones(4)})
        b2 = ProcedureBuilder("q")
        a2 = b2.param("a", real_array(4))
        with b2.parallel_do("i", 1, 4) as i:
            b2.push("t", a2[i])
        with b2.parallel_do("i2", 11, 14) as i2:  # keys never pushed
            b2.pop("t", a2[i2 - 10])
        with pytest.raises(TapeError):
            run_procedure(b2.build(), {"a": np.ones(4)})


class TestMemoryContracts:
    def test_unknown_scalar_write(self):
        b = ProcedureBuilder("p")
        b.param("x", REAL)
        proc = b.build()
        mem = Memory.for_procedure(proc)
        with pytest.raises(KeyError):
            mem.set_scalar("ghost", 1.0)

    def test_binding_shape_mismatch(self):
        b = ProcedureBuilder("p")
        b.param("x", real_array(5))
        with pytest.raises(ValueError, match="extent"):
            Memory.for_procedure(b.build(), {"x": np.zeros(7)})

    def test_assumed_size_without_data_or_extent(self):
        b = ProcedureBuilder("p")
        b.param("x", real_array(None))
        with pytest.raises(ValueError, match="assumed-size"):
            Memory.for_procedure(b.build())

    def test_assumed_size_with_explicit_extent(self):
        b = ProcedureBuilder("p")
        b.param("x", real_array(None))
        mem = Memory.for_procedure(b.build(), extents={"x": [12]})
        assert mem.array("x").shape == (12,)
