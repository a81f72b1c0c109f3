"""Phase tapes: an event order solved once, re-run on new kernel durations.

:class:`TapeRecorder` runs the unchanged event loop once on
:class:`Traced` inputs, which log every operation as an instruction and
every comparison (heap order, water fill, retire and merge tolerances)
with its outcome as a guard. :meth:`Tape.play` re-runs the instructions,
the same IEEE operations in the same order, on another phase's inputs:
when every guard comes out as recorded, the fold record it builds is bit
for bit the event loop's; otherwise it returns None. Any coercion of a
traced value (``float()``, ``int()``, ``hash()``, a truth test) aborts
a recording: the phase completes from the concrete values, untaped.
"""

from __future__ import annotations

import math
import operator
from array import array
from itertools import groupby, islice

#: ``R.append(_FUNCS[code](R[lhs], R[rhs]))``; ``x * -1.0`` negates and
#: ``copysign(x, 1.0)`` is ``abs(x)``, exactly for floats
_FUNCS = (
    operator.add, operator.sub, operator.mul, operator.truediv, math.copysign, min, max,
    operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne,
)
ADD, SUB, MUL, DIV, ABS, MIN, MAX, LT, LE, GT, GE, EQ, NE = range(len(_FUNCS))
#: a play checks the guards due after every STRETCH instructions
STRETCH = 96


def real(x):
    """``float(x)``, except that a traced value stays traced."""
    return x if type(x) is Traced else float(x)


def whole(x):
    """``int(x)``, except that a traced value stays traced."""
    return x if type(x) is Traced else int(x)


def minimum(x, y):
    """``min(x, y)``; traced, one instruction rather than a guard on which

    operand won, for selections that do not steer control flow."""
    t = x if type(x) is Traced else y
    return t.rec.apply(MIN, x, y) if type(t) is Traced else min(x, y)


def maximum(x, y):
    """``max(x, y)``, traced like :func:`minimum`."""
    t = x if type(x) is Traced else y
    return t.rec.apply(MAX, x, y) if type(t) is Traced else max(x, y)


class Traced:
    """A phase input, or a value computed from one, under recording."""

    __slots__ = ("v", "i", "rec")  # concrete value, tape node, recorder

    def __init__(self, rec: "TapeRecorder", v, i: int):
        self.v, self.i, self.rec = v, i, rec

    def __neg__(self):
        exact = type(self.v) is float
        return self.rec.apply(MUL, self, -1.0) if exact else -self.rec.concrete(self)

    def __abs__(self):
        exact = type(self.v) is float
        return self.rec.apply(ABS, self, 1.0) if exact else abs(self.rec.concrete(self))


for _code, _name in zip((ADD, SUB, MUL, DIV), ("add", "sub", "mul", "truediv")):
    setattr(Traced, f"__{_name}__", lambda self, o, c=_code: self.rec.apply(c, self, o))
    setattr(Traced, f"__r{_name}__", lambda self, o, c=_code: self.rec.apply(c, o, self))
for _code, _name in zip((LT, LE, GT, GE, EQ, NE), ("lt", "le", "gt", "ge", "eq", "ne")):
    setattr(Traced, f"__{_name}__", lambda self, o, c=_code: self.rec.apply(c, self, o))
for _name, _coerce in (("bool", bool), ("float", float), ("int", int),
                       ("index", operator.index), ("hash", hash)):
    setattr(Traced, f"__{_name}__", lambda self, f=_coerce: f(self.rec.concrete(self)))


def _concrete(x):
    return x.v if type(x) is Traced else x


class TapeRecorder:
    """Records one run of the event loop into :attr:`tape`.

    Nodes: the inputs first, then one per instruction; constants are
    negative. Guards are kept as ``x < y``, ``x <= y`` or ``x == y`` with
    the outcome (an exact rewrite for IEEE comparisons). An instruction
    or guard seen before (same code, same operands) is not logged again.
    """

    def __init__(self):
        self.aborted = False
        self.tape: Tape | None = None
        self._inputs: list = []
        self._ops: list[tuple] = []  # (code, a, b)
        self._guards: list[tuple] = []  # (code, a, b, outcome)
        self._memo: dict[tuple, object] = {}  # (code, a, b) -> Traced / outcome
        self._consts: dict[int, int] = {}  # id -> node; _const_values keeps them alive
        self._const_values: list = []

    def inputs(self, values) -> list[Traced]:
        """Wrap the phase inputs, before any instruction is logged."""
        if self._ops or self._guards:
            raise RuntimeError("inputs come before every instruction")
        start = len(self._inputs)
        self._inputs += values
        return [Traced(self, v, start + k) for k, v in enumerate(values)]

    def concrete(self, x: Traced):
        """An untraceable use of ``x``: give up the tape, keep the value."""
        self.aborted = True
        return x.v

    def _node(self, x) -> int:
        if type(x) is Traced:
            self.aborted |= x.rec is not self
            return x.i
        node = self._consts.get(id(x))
        if node is None:
            node = self._consts[id(x)] = -1 - len(self._const_values)
            self._const_values.append(x)
        return node

    def apply(self, code: int, x, y):
        if not (isinstance(x, (int, float, Traced)) and isinstance(y, (int, float, Traced))):
            return NotImplemented
        a = x.i if type(x) is Traced and x.rec is self else self._node(x)
        b = y.i if type(y) is Traced and y.rec is self else self._node(y)
        key = (code, a, b)
        out = self._memo.get(key)
        if out is not None:
            return out
        out = _FUNCS[code](_concrete(x), _concrete(y))
        if code < LT:
            self._ops.append(key)
            out = Traced(self, out, len(self._inputs) + len(self._ops) - 1)
        else:
            want = out
            if code == GT or code == GE:
                code, a, b = code - 2, b, a
            elif code == NE:
                code, want = EQ, not want
            self._guards.append((code, a, b, want))
        self._memo[key] = out
        return out

    def finish(self, record: tuple) -> tuple:
        """The concrete copy of a fold record whose values may be traced;

        unless the recording aborted, :attr:`tape` becomes its tape."""
        duration, states = record
        parts = [(state, None) if isinstance(state, list) else (state[0], state[1:])
                 for _, state in states]  # (tuple rows, tail values or None)
        refs = [ref for ref, _ in states]
        concrete = _concrete(duration), []
        for ref, (rows, tail) in zip(refs, parts):
            rows = [tuple(map(_concrete, row)) for row in rows]
            concrete[1].append((ref, rows if tail is None else (rows, *map(_concrete, tail))))
        if not self.aborted:
            tape = Tape(self, self._node(duration), [
                ([list(map(self._node, row)) for row in rows],
                 None if tail is None else list(map(self._node, tail)))
                for rows, tail in parts
            ])
            if tape.play(self._inputs, refs) == concrete:  # it reproduces its run
                self.tape = tape
        self._memo.clear()  # its traced values refer back here
        return concrete


class Tape:
    """A recorded phase: instructions, guards and its fold record's layout.

    Registers: the inputs, the constants, then one per instruction. A
    play runs the instructions in order, in stretches of :data:`STRETCH`,
    each followed by the guards whose operands it completed, by opcode,
    one C-level ``map`` per opcode. Flat opcode and register arrays; no
    reference to a simulator or device.
    """

    __slots__ = ("_consts", "_code", "_lhs", "_rhs", "_want", "_runs", "_duration",
                 "_layout", "_last")

    def __init__(self, rec: TapeRecorder, duration: int, parts: list):
        n_in, n_const = len(rec._inputs), len(rec._const_values)
        base = n_in + n_const

        def relocate(nodes):
            return array("i", [n + n_const if n >= n_in else n_in - 1 - n if n < 0 else n
                               for n in nodes])

        self._consts = tuple(rec._const_values)
        # Each guard is due in the stretch that completes its later operand.
        guards = sorted(
            ((max(a, b, base - 1) - base) // STRETCH, code, a, b, want)
            for (code, _, _, want), a, b in zip(
                rec._guards, relocate(g[1] for g in rec._guards), relocate(g[2] for g in rec._guards))
        )
        self._code = bytes(op[0] for op in rec._ops)
        self._lhs = relocate([op[1] for op in rec._ops]) + array("i", (g[2] for g in guards))
        self._rhs = relocate([op[2] for op in rec._ops]) + array("i", (g[3] for g in guards))
        self._want = bytes(g[4] for g in guards)
        # (None, n): the next n instructions; (f, n): the next n guards,
        # which follow the instructions in the arrays
        self._runs = []
        done, count = 0, len(rec._ops)
        for (stretch, code), group in groupby(guards, key=lambda g: g[:2]):
            end = min(count, (stretch + 1) * STRETCH)
            if end > done:
                self._runs.append((None, end - done))
                done = end
            self._runs.append((_FUNCS[code], sum(1 for _ in group)))
        if count > done:
            self._runs.append((None, count - done))
        self._duration = relocate((duration,))[0]
        self._layout = tuple(  # rows of 3 or 7 fields, tails of 2
            (tuple(operator.itemgetter(*relocate(row)) for row in rows),
             None if tail is None else operator.itemgetter(*relocate(tail)))
            for rows, tail in parts
        )
        self._last = None  # (inputs, duration, states) of the latest play

    def __len__(self) -> int:
        """Instructions and guards a successful play executes."""
        return len(self._lhs)

    @property
    def nbytes(self) -> int:
        """Bytes of the instruction arrays, with 8 per constant and run."""
        return len(self._code) + 8 * len(self._lhs) + 8 * (len(self._consts) + len(self._runs))

    def play(self, inputs, refs) -> tuple | None:
        """The fold record of a phase with ``inputs`` on the parts ``refs``,

        or None when a guard comes out differently. Inputs equal to the
        previous play's reuse its blocks (nothing mutates a folded one)."""
        if len(refs) != len(self._layout):
            return None
        if self._last is not None and self._last[0] == inputs:
            return self._last[1], list(zip(refs, self._last[2]))
        R = list(inputs)
        R += self._consts
        push, get, funcs = R.append, R.__getitem__, _FUNCS
        lhs, rhs, want = self._lhs, self._rhs, self._want
        ops = zip(self._code, lhs, rhs)
        g = first = len(self._code)  # the guards follow the instructions
        try:
            for f, n in self._runs:
                if f is None:
                    for code, a, b in islice(ops, n):
                        push(funcs[code](R[a], R[b]))
                elif bytes(map(f, map(get, lhs[g:g + n]), map(get, rhs[g:g + n]))) \
                        != want[g - first:g - first + n]:
                    return None
                else:
                    g += n
        except ArithmeticError:  # behind a guard of this stretch that failed
            return None
        states = []
        for rows, tail in self._layout:
            block = [row(R) for row in rows]
            states.append(block if tail is None else (block, *tail(R)))
        self._last = list(inputs), R[self._duration], states
        return R[self._duration], list(zip(refs, states))
