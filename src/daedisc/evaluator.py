"""Skeleton evaluation with exact reverse-mode gradients.

Evaluates every target expression of a skeleton over a column batch and
returns per-sample outputs together with the exact partial derivatives with
respect to each parameter slot, per sample or weighted by the residuals
against given targets and summed.  Domain violations (log of a non-positive
argument, near-zero divisors, any non-finite intermediate) poison the whole
evaluation: the result carries a fault record instead of numbers.  Callers
that need values only, such as trajectory replay, skip the gradients and
their finiteness check.

Each skeleton is compiled once into a postorder tape, and three walks read
it, each with one job.  ``evaluate`` takes one parameter vector (k,) or
restart rows (R, k); rows are broadcast against the (n,) columns, so a
fitter advances R restarts in one call.

The compiled fit walk (``_walk_weighted``) computes the fit step, the call
``evaluate(..., targets=...)`` a fitter makes once per Adam step.  Each
target's reverse sweep is seeded with its residual ``outputs - targets``
(T, n), which the result keeps, and the adjoints are summed over samples,
which gives the least-squares gradient sum((f - y) * df/dp), (k,), at about
the cost of one evaluation and with no per-sample array.  The walk also
sums each row's squared residuals, so a fitter reads its loss from the
result.  It runs on a straight-line NumPy function per target, emitted from
the tape on a skeleton's first weighted call: the forward steps over the
nodes whose subtree holds a parameter (live nodes), and a reverse sweep that
forms adjoints along parameter paths only.  Each function has one statement
per live node, per domain rule test and per adjoint, written from the
templates of ``_OPS`` and ``_TESTS``, and the negations on the sweep's path
carried as signs to the leaf sums, which gives the bits of the interpreted
sweep.  The source text names only slots and the templates' fixed names, so
each text is compiled once, into a bounded cache of code, and a skeleton
runs that code in its own copy of one fixed namespace.  One parameter row
reaches the functions as NumPy scalars, more rows as columns (R, 1); the
scalars skip NumPy's broadcasting machinery and give the same bits.  The
values of the parameter-free subtrees, such as ``omega - 1`` or
``sin(delta)``, and their domain rules depend on the batch alone; the
checking walk's forward loop, run without parameters, computes them once
per skeleton and batch, and they are held, with the compiled walks and the
batch, in a one-entry memo of the last pair fitted, never on the skeleton;
a fitter empties it as its fit returns (``release_fit_memo``).  Each call
checks the domain rules of the live nodes, and the finiteness of the sums of
squares and of the weighted sums, once; a finite sum of squares means finite
outputs, and only if a sum is not finite are the outputs checked as such.
These checks decide faulted-or-not as a check at every node would.  Only the
sums are checked: a per-sample partial that overflows where the residual is
small enough to bring the weighted adjoint back into the floats is not seen.

The checking walk (``_walk_checked``) is the only interpreted one; its
value, adjoint and test functions are built from the same templates, once,
at import, from this module's text alone.  It walks every node of the tape
in postorder, checking each as it is formed, target by target, and then
each target's per-sample gradients, so a fault record names the first
offending node.  It serves the one-shot calls, which run once per skeleton
and batch, so a compiled walk would save them nothing: values only (the
STLSQ library matrix, replay's fault naming) and per-sample gradients, the
sweep seeded with 1.0 and the adjoints of the parameter leaves scattered
into a (T, n, k) array (``gradient_check``).  For these it gives the
outputs, the gradients or the fault in one pass and stores nothing.  It
also names the fault of a fit step that the fit walk refused.  A weighted
sum that is not finite although no check fails (only the weighting
overflowed) is a "non-finite gradient" at the first sample at which a
weighted leaf adjoint is not finite; that result keeps its outputs.

The float walk (``sample_walk``) computes the values of one sample, as
trajectory replay needs them at every RK4 stage: a Python function of the
variable and parameter values, compiled once from the tape and cached on the
skeleton.  A tape is a tree, so each value is read once, and the function
has one nested expression per target, each value inlined into its parent's;
a value is bound to a local only where a domain rule tests it (the test
precedes the statement that uses it), at a target's root, which is checked
finite, and every ``INLINE_DEPTH`` levels.  Its operations are the same
templates' on Python floats, which give the array walks' bits; the source
holds only slot numbers, exponents and the fixed templates, with the
constants bound in its namespace, so no text of the skeleton is ever
compiled.  It tells a fault only by returning None; a caller that needs the
record evaluates the sample with ``evaluate``.  All inputs are immutable and
evaluation is pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .dsl import FUNCTIONS, Bin, Call, Const, Expr, Neg, Param, Pow, Skeleton, Var

DIV_GUARD = 1e-12


class MissingColumn(KeyError):
    """A referenced variable has no column in the batch (caller bug)."""


class DomainFault(RuntimeError):
    """Raised when the evaluation domain is violated (the checking walk, gradient_check)."""

    def __init__(self, info: "FaultInfo"):
        super().__init__(f"domain fault at sample {info.sample_index}: {info.reason}")
        self.info = info


@dataclass(frozen=True)
class FaultInfo:
    sample_index: int
    reason: str


@dataclass(frozen=True)
class SampleBatch:
    """Column-oriented sample set; all columns share one length, all finite."""

    columns: Mapping[str, np.ndarray]
    n_samples: int

    @classmethod
    def from_columns(cls, columns: Mapping[str, Sequence[float]]) -> "SampleBatch":
        locked: dict[str, np.ndarray] = {}
        n = None
        for name, values in columns.items():
            arr = np.array(values, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ValueError(f"column {name!r} length {arr.shape[0]} != {n}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"column {name!r} contains non-finite values")
            arr.setflags(write=False)
            locked[name] = arr
        if n is None:
            raise ValueError("batch needs at least one column")
        return cls(columns=locked, n_samples=int(n))

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise MissingColumn(name) from None


@dataclass(frozen=True)
class EvalResult:
    """One ``evaluate`` call's result: outputs (n_targets, n_samples);
    gradients per sample (n_targets, n_samples, n_params) from the checking
    walk, or, evaluated with targets, the residual-weighted sums (n_params,)
    from the fit walk; each with a leading restart axis when evaluated on
    parameter rows.  Evaluated with targets, ``residual`` is outputs -
    targets, shaped like the outputs, and ``sum_squares`` the sum of its
    squares, one float, or (n_rows,) for parameter rows, summed pairwise as
    ``np.sum`` sums each row's block; it is infinite where only the squares
    overflowed.  Both are None otherwise.  A faulted result carries the
    checking walk's record; its gradients are None, and so are its outputs,
    residual and sums of squares, except for a weighted sum that alone left
    the floats (see ``evaluate``).  Gradients are None too when evaluated
    for values only."""

    outputs: np.ndarray | None
    gradients: np.ndarray | None
    domain_fault: FaultInfo | None = None
    residual: np.ndarray | None = None
    sum_squares: np.ndarray | float | None = None

    @property
    def faulted(self) -> bool:
        return self.domain_fault is not None


def _fault(bad, reason: str, shape: tuple[int, int]) -> FaultInfo:
    """The fault at the first sample at which any parameter row is bad."""
    return FaultInfo(sample_index=int(np.argmax(np.broadcast_to(bad, shape).any(axis=0))),
                     reason=reason)


def _check(bad, reason: str, shape: tuple[int, int]) -> None:
    if np.asarray(bad).any():  # a plain bool for a constant operand
        raise DomainFault(_fault(bad, reason, shape))


# op -> (value, value written into the output row O or None, adjoint of x,
# adjoint of y or None for unary ops): templates of the operands {x} and {y}
# ({y} is {x} for unary ops), the exponent {e}, the value {v} and its adjoint
# {g}, each adjoint with its sign relative to g.  An operator's value is
# also a NumPy ufunc's, which writes a weighted walk's root into its output
# row with no copy.  Every adjoint is linear in g and IEEE negation commutes
# with ``*`` and ``/``, so a sign gives the same bits applied where the
# adjoint is formed or carried to the leaf sums; an adjoint that is {g} alone
# forms no array and only carries the sign.  Powers go through an array
# because ndarray ** scalar takes NumPy's fast paths (square, reciprocal,
# ...), whose bits can differ from scalar pow; an integer exponent gives a
# float one's bits.  Float constants are names bound in ``_NAMES``, not
# literals, so a compiled source holds no number but exponents and indices;
# integer literals in their place would cost NumPy's slower path for Python
# ints.  A zeroth power has no adjoint (see _reverse_steps)
_OPS = {
    "neg": ("-{x}", "negative({x}, out=O)", ("{g}", -1), None),
    "+": ("{x} + {y}", "add({x}, {y}, out=O)", ("{g}", 1), ("{g}", 1)),
    "-": ("{x} - {y}", "subtract({x}, {y}, out=O)", ("{g}", 1), ("{g}", -1)),
    "*": ("{x} * {y}", "multiply({x}, {y}, out=O)", ("{g} * {y}", 1), ("{g} * {x}", 1)),
    "/": ("{x} / {y}", "divide({x}, {y}, out=O)", ("{g} / {y}", 1),
          ("{g} * {x} / ({y} * {y})", -1)),
    "^": ("asarray({x}) ** {e}", None, ("{g} * {e} * asarray({x}) ** ({e} - 1)", 1), None),
    "sin": ("sin({x})", None, ("{g} * cos({x})", 1), None),
    "cos": ("cos({x})", None, ("{g} * sin({x})", -1), None),
    "tan": ("tan({x})", None, ("{g} * (ONE + {v} * {v})", 1), None),
    "exp": ("exp({x})", None, ("{g} * {v}", 1), None),
    "log": ("log({x})", None, ("{g} * (ONE / {x})", 1), None),
    "sqrt": ("sqrt({x})", None, ("{g} * (HALF / {v})", 1), None),
    "tanh": ("tanh({x})", None, ("{g} * (ONE - {v} * {v})", 1), None),
    "abs": ("abs({x})", None, ("{g} * sign({x})", 1), None),  # subgradient 0 at the kink
}

# domain rule -> the test of its operand {x} that fails it, with operators
# that mean the same on arrays and on floats; x - x is 0 for every finite x
# and NaN otherwise
_TESTS = {
    "division by near-zero denominator": "abs({x}) < DIV_GUARD",
    "negative power of near-zero base": "abs({x}) < DIV_GUARD",
    "non-finite value": "{x} - {x} != ZERO",
    "log of non-positive argument": "{x} <= ZERO",
    "sqrt of negative argument": "{x} < ZERO",
}

# the names the templates read, and the globals of the compiled fit walks
_NAMES = {"asarray": np.asarray, "sign": np.sign, "DIV_GUARD": DIV_GUARD,
          "ZERO": 0.0, "HALF": 0.5, "ONE": 1.0,
          "add_reduce": np.add.reduce, "negative": np.negative, "add": np.add,
          "subtract": np.subtract, "multiply": np.multiply, "divide": np.divide,
          **{f: getattr(np, f) for f in FUNCTIONS}}


def _function(args: str, template: str, sign: int = 1) -> Callable:
    """A template of this module as a function of ``args``, negated for a
    negative sign; called at import only, so ``eval`` reads no text but this
    module's."""
    body = template.format(x="x", y="y", e="e", v="v", g="g")
    return eval(f"lambda {args}: {'-' if sign < 0 else ''}({body})", dict(_NAMES))


# the checking walk's functions: op -> value from x, y and e, op -> (adjoint
# of x, adjoint of y or None) from g, x, y, v and e, and rule -> test of x
_VALUE = {op: _function("x, y, e", value) for op, (value, *_) in _OPS.items()}
_ADJOINTS = {op: tuple(None if d is None else _function("g, x, y, v, e", *d) for d in ds)
             for op, (_, _, *ds) in _OPS.items()}
_PREDICATES = {reason: _function("x", test) for reason, test in _TESTS.items()}


@functools.cache
def _rules(op: str, e) -> tuple:
    """Domain rules of an operation and exponent ``e`` (None but for powers)
    in check order, as (operand, bad test, reason); operand 1 is the right
    operand y, 0 the left or only operand x.  Besides the domain proper, the
    operands through which a non-finite value could vanish must be finite;
    every other operation keeps it.  The tests are ``_TESTS``'s: the array
    walks read them on columns, the float walk on floats.  Each is formed
    once and shared by every instruction of its operation and exponent."""
    if op == "/":
        rules = (1, "division by near-zero denominator"), (1, "non-finite value")
    elif op == "^" and e < 0:
        rules = (0, "negative power of near-zero base"), (0, "non-finite value")
    elif op == "log":
        rules = ((0, "log of non-positive argument"),)
    elif op == "sqrt":
        rules = ((0, "sqrt of negative argument"),)
    elif op in ("exp", "tanh") or op == "^" and e == 0:
        rules = ((0, "non-finite value"),)
    else:
        rules = ()
    return tuple((operand, _PREDICATES[reason], reason) for operand, reason in rules)


def _emit(node: Expr, prog: list, variables: list) -> int:
    """Append node's subtree to prog in postorder and return its slot.

    An instruction is ``(op, a, b, arg, live, rules)``: operand slots (``b``
    is ``a`` for unary ops), the constant, parameter slot, variable position
    or exponent, whether the subtree holds a parameter, and its domain rules."""
    a = b = arg = None
    match node:
        case Const(value):
            op, arg = "const", float(value)
        case Param(index):
            op, arg = "param", index
        case Var(name):
            if name not in variables:
                variables.append(name)
            op, arg = "var", variables.index(name)
        case Bin(op, left, right):
            a, b = _emit(left, prog, variables), _emit(right, prog, variables)
        case Neg(child):
            op, a = "neg", _emit(child, prog, variables)
        case Pow(base, arg):
            op, a = "^", _emit(base, prog, variables)
        case Call(op, child):
            a = _emit(child, prog, variables)
        case _:
            raise TypeError(f"not an expression node: {node!r}")
    b = a if b is None else b
    live = op == "param" or (a is not None and (prog[a][4] or prog[b][4]))
    prog.append((op, a, b, arg, live, _rules(op, arg if op == "^" else None)))
    return len(prog) - 1


def _tape(skeleton: Skeleton) -> tuple[list[str], list[list[tuple]]]:
    """(variables, one postorder program per target), compiled on first use
    and cached on the skeleton instance."""
    tape = skeleton.__dict__.get("_tape")
    if tape is None:
        variables: list[str] = []
        programs = [[] for _ in skeleton.expressions]
        for expr, prog in zip(skeleton.expressions, programs):
            _emit(expr, prog, variables)
        tape = (variables, programs)
        object.__setattr__(skeleton, "_tape", tape)  # Skeleton is frozen
    return tape


def _reverse_steps(prog: list) -> tuple[tuple, tuple]:
    """The reverse sweep of one target restricted to parameter paths.

    An adjoint is formed only for an operand whose subtree holds a parameter
    and that the value depends on (a zeroth power does not depend on its
    base).  Steps are ``(slot, a, b, arg, adjoint of x or None, adjoint of y
    or None)`` from the root down; leaves are ``(parameter index, slot)`` for
    the parameter nodes the sweep reaches, left to right, the order in which a
    repeated parameter's adjoints are summed."""
    reached = {len(prog) - 1}
    steps = []
    for i in range(len(prog) - 1, -1, -1):
        op, a, b, arg, live, _ = prog[i]
        if i not in reached or not live or a is None:
            continue
        dx, dy = _ADJOINTS[op]
        dx = dx if prog[a][4] and not (op == "^" and arg == 0) else None
        dy = dy if dy is not None and prog[b][4] else None
        reached.update(slot for slot, d in ((a, dx), (b, dy)) if d is not None)
        if dx or dy:
            steps.append((i, a, b, arg, dx, dy))
    leaves = tuple((prog[i][3], i) for i in sorted(reached) if prog[i][0] == "param")
    return tuple(steps), leaves


def _reverse(steps: tuple, leaves: tuple, vals: list, seed) -> list:
    """The adjoints of the sweep's parameter leaves, in leaf order, from the
    root adjoint ``seed``: 1.0 gives each sample's partial derivatives, a
    residual (R, n) gives them weighted by it."""
    adj = {len(vals) - 1: seed}
    for i, a, b, arg, dx, dy in steps:
        g, x, y, v = adj[i], vals[a], vals[b], vals[i]
        if dx is not None:
            adj[a] = dx(g, x, y, v, arg)
        if dy is not None:
            adj[b] = dy(g, x, y, v, arg)
    return [adj[i] for _, i in leaves]


def _scatter(leaves: tuple, adjoints: list, grad: np.ndarray) -> None:
    """Add per-sample leaf adjoints into grad (R, n, k), zero-filled."""
    for (j, _), g in zip(leaves, adjoints):
        grad[..., j] += g


def _weighted_fault(adjoints: list, shape: tuple[int, int]) -> FaultInfo:
    """The fault of a weighted gradient that is not finite although every
    per-sample gradient is: at the first sample at which a weighted leaf
    adjoint is not finite or, if each one is and only their sums overflowed,
    at which the running sum of their magnitudes is not."""
    bad = np.logical_or.reduce([~np.isfinite(g) for g in adjoints])
    if not bad.any():
        bad = ~np.isfinite(np.cumsum(sum(np.abs(g) for g in adjoints), axis=-1))
    return _fault(bad, "non-finite gradient", shape)


def _forward(prog: list, cols: list, pcols: list | None, shape: tuple[int, int]) -> list:
    """The values of one target's nodes over the tape, in postorder, each
    formed after its domain rules; raises DomainFault at the first failing
    check.  With the parameter columns ``pcols`` every node is formed and
    checked finite.  Without them, only the parameter-free nodes are formed,
    their slots hold None where a parameter reaches, and only the rules on
    parameter-free operands are checked."""
    vals = []
    for op, a, b, arg, live, rules in prog:
        for operand, bad, reason in rules:
            v = vals[b if operand else a]
            if v is not None:
                _check(bad(v), reason, shape)
        if live and pcols is None:
            vals.append(None)
            continue
        if op == "param":
            vals.append(pcols[arg])
        elif op == "var":
            vals.append(cols[arg])
        elif op == "const":
            vals.append(arg)
        else:
            vals.append(_VALUE[op](vals[a], vals[b], arg))
        if pcols is not None:
            _check(~np.isfinite(vals[-1]), "non-finite value", shape)
    return vals


def _parameter_free_values(skeleton: Skeleton, batch: SampleBatch) -> tuple | None:
    """Per target, a list over the tape's slots holding the values of the
    parameter-free subtrees that live nodes read (or that a target is) on the
    batch, None elsewhere; None if a domain rule on a parameter-free operand
    fails.  It is ``_forward`` without parameter columns, so the values are
    the checking walk's own."""
    variables, programs = _tape(skeleton)
    cols = [batch.column(name) for name in variables]
    values = []
    with np.errstate(all="ignore"):  # non-finite results become faults
        for prog in programs:
            try:
                vals = _forward(prog, cols, None, (1, batch.n_samples))
            except DomainFault:
                return None
            read = {len(prog) - 1}.union(*((a, b) for op, a, b, _, live, _ in prog
                                           if live and op != "param"))
            values.append([v if i in read else None for i, v in enumerate(vals)])
    return tuple(values)


def _weighted_source(prog: list) -> tuple[str, dict]:
    """Source and namespace of ``walk(V, P, Y, O, E, G)``, the straight-line
    residual-weighted walk of one target, emitted from its tape program.

    ``V`` holds the target's parameter-free values and ``P`` the parameter
    columns (R, 1); the walk writes the outputs into ``O`` (R, n) and the
    residual against the target row ``Y`` into ``E``, and adds the
    residual-weighted leaf adjoints, summed over samples, into ``G``, the
    columns (R,) of the gradient sums (R, k).
    It returns False as soon as a live operand fails its domain rule, True
    otherwise; finiteness is the caller's check.  The statements are read
    from the tape and written from ``_OPS`` and ``_TESTS``: each live node
    other than a parameter, in postorder, after the tests of the domain rules
    on its live operands (the rules on parameter-free operands hold for the
    batch and are checked once with it, by ``_parameter_free_values``), then
    the sweep of ``_reverse_steps`` from the residual, each adjoint carried
    with its sign, fixed at compile time, since a negation commutes with
    every adjoint and with the pairwise sum; a leaf's sum is added into ``G``
    or subtracted from it by that sign.  ``G`` starts at +0.0 and a sum of
    +0.0 never gives -0.0, so a sum that is a signed zero gives the same bits
    either way.

    No name in the source depends on the skeleton: values and adjoints are
    the entries of a list ``T``, exponents integer literals, and every other
    name is a fixed one of the templates, bound in a copy of ``_NAMES``.
    The interpreter interns every name it compiles, and a search compiles the
    walks of every candidate: names numbered by slot would be interned and
    freed again with each candidate, and that churn grows the interpreter's
    table of interned strings (with such names, a run of perfbench's
    search_order5 workload gained 0.5 MB of peak memory after about 25
    passes).
    """
    reverse, leaves = _reverse_steps(prog)
    temps = 0

    def temp() -> str:
        nonlocal temps
        temps += 1
        return f"T[{temps - 1}]"

    name = {i: f"P[{arg}]" if op == "param" else f"V[{i}]"
            for i, (op, _, _, arg, live, _) in enumerate(prog) if op == "param" or not live}
    root = len(prog) - 1
    lines = []
    for i, (op, a, b, arg, live, rules) in enumerate(prog):
        if not live or op == "param":
            continue
        for operand, _, reason in rules:
            slot = b if operand else a
            if prog[slot][4]:
                lines.append(f"    if ({_TESTS[reason].format(x=name[slot])}).any(): return False")
        value, into = _OPS[op][:2]
        if i == root and into:
            lines.append("    " + into.format(x=name[a], y=name[b]))
            name[i] = "O"
        else:
            name[i] = temp()
            lines.append(f"    {name[i]} = " + value.format(x=name[a], y=name[b], e=arg))
    if name[root] != "O":
        lines.append(f"    O[...] = {name[root]}")
    lines.append("    subtract(O, Y, out=E)")
    adjoint = {root: ("E", 1)}
    for i, a, b, arg, dx, dy in reverse:
        op, (g, sign) = prog[i][0], adjoint[i]
        for slot, d, entry in zip((a, b), (dx, dy), _OPS[op][2:]):
            if d is None:
                continue
            template, flip = entry
            if template == "{g}":
                adjoint[slot] = (g, sign * flip)
                continue
            adjoint[slot] = (temp(), sign * flip)
            lines.append(f"    {adjoint[slot][0]} = "
                         + template.format(g=g, x=name[a], y=name[b], v=name[i], e=arg))
    for j, slot in leaves:
        g, sign = adjoint[slot]
        lines.append(f"    G[{j}] {'+' if sign > 0 else '-'}= add_reduce({g}, axis=-1)")
    lines = ["def walk(V, P, Y, O, E, G):", f"    T = [None] * {temps}", *lines,
             "    return True"]
    # the builtins stay: NumPy imports some of its modules on first use,
    # through the calling frame's __import__
    return "\n".join(lines) + "\n", dict(_NAMES)


# the most weighted walk sources whose code is kept: a search repeats a
# target's source within a few candidates.  A search_order5 pass of perfbench
# (seed 1) emits 202 sources, 67 of them distinct, and with 32 kept every one
# of its 135 repeats is a hit; keeping all 67 would add about 0.05 MB of code
# and save compiles only across passes, which a discovery run does not make
COMPILED_WALKS = 32


@functools.lru_cache(maxsize=COMPILED_WALKS)
def _compiled(source: str):
    """The code of a weighted walk's source.  The text names only slots,
    parameter indices, exponents and the templates' fixed names, so equal
    texts are equal code whichever skeleton emitted them, and a skeleton that
    shares a target with an earlier one compiles nothing for it.  The code
    holds no object: each skeleton's walk runs it in its own copy of the
    fixed namespace."""
    return compile(source, "<weighted walk>", "exec")


def _weighted_walks(programs: list) -> tuple:
    """The compiled residual-weighted walk of each target, in target order.
    Each is taken out of its namespace, which is its globals: left in, the
    two would form a reference cycle that outlives the memo entry until the
    cyclic collector runs."""
    walks = []
    for prog in programs:
        source, namespace = _weighted_source(prog)
        exec(_compiled(source), namespace)
        walks.append(namespace.pop("walk"))
    return tuple(walks)


# (skeleton, its compiled weighted walks, a batch, the parameter-free
# values): the last pair a fit walked.  One entry serves every step of a fit;
# only residual-weighted calls read or write it, and ``release_fit_memo``
# empties it.  None of it is kept on the skeleton: an archive holds its
# skeletons for the whole run, and walks on each would add to the peak memory.
# Each call reads the entry once and replaces it whole, so threads sharing it
# at worst recompute.
_last_walked: tuple = (None, None, None, None)


def _fit_state(skeleton: Skeleton, batch: SampleBatch) -> tuple[tuple, tuple | None]:
    """(weighted walks, parameter-free values or None if they fault) of a
    skeleton on a batch, from the one-entry memo when it holds them."""
    global _last_walked
    held, walks, held_batch, values = _last_walked
    if held is not skeleton:
        walks, held_batch = _weighted_walks(_tape(skeleton)[1]), None
    if held_batch is not batch:
        values = _parameter_free_values(skeleton, batch)
    _last_walked = (skeleton, walks, batch, values)
    return walks, values


def release_fit_memo() -> None:
    """Empty the one-entry memo, so that it keeps no skeleton, walks or batch
    past the fit that filled it.  A fitter calls it as its fit returns: each
    fit walks its own skeleton, so the entry would not be read again."""
    global _last_walked
    _last_walked = (None, None, None, None)


def _sum_squares(residual: np.ndarray) -> np.ndarray:
    """Each row's residual sum of squares, (R,) from (R, T, n): the pairwise
    sum that ``np.sum`` forms over a row's contiguous block.  Call it under
    ``np.errstate``: the squares of finite residuals can overflow."""
    return np.add.reduce((residual * residual).reshape(len(residual), -1), axis=1)


def _walk_weighted(walks: tuple, values: tuple, params: np.ndarray, targets: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Outputs and residuals (R, T, n), the residual-weighted gradient sums
    (R, k) and the residual sums of squares (R,) for parameter rows (R, k),
    from each target's compiled walk; None if any row faults.

    One row's parameters reach the walks as NumPy scalars, and its outputs
    and residuals are written as rows (n,): an operation of a scalar and a
    column takes NumPy's scalar loop, where a (1, 1) column would go through
    its broadcasting iterator at about three times the cost, with the same
    bits.  More rows are broadcast as columns (R, 1).  The domain rules run
    before each live node.  Finiteness is checked once, on the sums of
    squares and the gradient sums: a finite sum of squares means every
    residual, and so every output, is finite.  If that check fails, the
    outputs and the gradient sums are checked as such, so a finite step whose
    squares alone overflow is no fault and keeps its non-finite sum of
    squares.  Those checks and the parameter-free ones decide faulted-or-not
    as a check at every node and of the sums would, and ``_walk_checked``
    names the fault."""
    rows, k = params.shape
    outputs = np.empty((rows,) + targets.shape)
    residual = np.empty_like(outputs)
    grads = np.zeros((rows, k))
    if rows == 1:
        pcols, out, res, columns = list(params[0]), outputs[0], residual[0], grads[0]
    else:  # a walk adds into a column of the sums in place, with no copy back
        pcols, columns = list(params.T[:, :, None]), list(grads.T)
        out, res = outputs.swapaxes(0, 1), residual.swapaxes(0, 1)
    with np.errstate(all="ignore"):  # non-finite results become faults
        for t, (walk, base) in enumerate(zip(walks, values)):
            if not walk(base, pcols, targets[t], out[t], res[t], columns):
                return None
        sum_squares = _sum_squares(residual)
        if not (np.isfinite(sum_squares).all() and np.isfinite(grads).all()):
            if not (np.isfinite(outputs).all() and np.isfinite(grads).all()):
                return None
    return outputs, residual, grads, sum_squares


def _walk_checked(skeleton: Skeleton, params: np.ndarray, batch: SampleBatch,
                  gradients: bool, targets: np.ndarray | None
                  ) -> tuple[np.ndarray | None, np.ndarray | None, FaultInfo | None]:
    """(outputs (R, T, n), per-sample gradients (R, T, n, k) or None, fault
    or None) for parameter rows (R, k), from a walk of every node of the tape
    that checks each in postorder, target by target, and then, with
    ``gradients``, the target's per-sample gradients: a fault is the first
    failing check's, and its outputs and gradients are None.  With
    ``targets``, the compiled weighted walk refused the call, so there is a
    fault to name: if every check passes, only the residual-weighted sums
    left the floats, and the walk gives the outputs, no gradients and
    ``_weighted_fault``'s record."""
    variables, programs = _tape(skeleton)
    cols = [batch.column(name) for name in variables]
    rows, k = params.shape
    shape = (rows, batch.n_samples)
    pcols = [params[:, j:j + 1] for j in range(k)]
    outputs = np.empty((rows, len(programs), batch.n_samples))
    grads = np.zeros(outputs.shape + (k,)) if gradients and targets is None else None
    weighted_adjoints = []
    with np.errstate(all="ignore"):  # non-finite results become faults
        try:
            for t, prog in enumerate(programs):
                vals = _forward(prog, cols, pcols, shape)
                outputs[:, t] = vals[-1]
                if not gradients:
                    continue
                reverse, leaves = _reverse_steps(prog)
                grad = np.zeros(shape + (k,)) if grads is None else grads[:, t]
                _scatter(leaves, _reverse(reverse, leaves, vals, 1.0), grad)
                _check(~np.isfinite(grad).all(axis=2), "non-finite gradient", shape)
                if targets is not None and leaves:
                    weighted_adjoints += _reverse(reverse, leaves, vals, vals[-1] - targets[t])
        except DomainFault as fault:
            return None, None, fault.info
        if targets is None:
            return outputs, grads, None
        return outputs, None, _weighted_fault(weighted_adjoints, shape)


# the most operations inlined into one expression of the float walk: a value
# nested deeper is bound to a local.  CPython's parser refuses an expression
# nested in more than 200 parentheses (3.10 and 3.11), and each inlined
# operation opens one or two (an operand's, or a function's call and its
# ``float``).  A parsed target nests 198 at most, but ``make_skeleton`` takes
# trees of any depth, such as a sparse model's sum of a few hundred terms;
# with the cut no expression nests more than 100
INLINE_DEPTH = 50


def _sample_source(programs: list) -> tuple[str, dict]:
    """Source and namespace of ``walk(xs, ps)``, the one-sample walk of a
    tape's programs, one nested expression per target.

    Slot ``n`` of the tape, counted over all targets, is read where it is
    used: a parameter or variable in place from ``ps`` or ``xs`` by index, a
    constant as the bound ``c<n>``, and every other value inlined into its
    parent's expression, as a tape is a tree whose every value is read once.
    A value is bound to the local ``v<n>`` instead if it is a target's root,
    which is then checked finite, if a domain rule tests it, or if it is
    ``INLINE_DEPTH`` operations deep; a rule's test precedes the statement
    holding the operation it guards, and is written once for a leaf that
    several operations share.  Values and tests are written from ``_OPS`` and
    ``_TESTS``, on Python floats: NumPy's functions and powers give NumPy
    scalars, which ``float`` turns back.  Only the constants are bound in the
    namespace, beside the templates' fixed names, so the source holds nothing
    but slot numbers, indices, exponents and fixed templates.
    """
    # the builtin abs gives NumPy's bits on a float, at a fraction of its cost
    namespace = {**_NAMES, "__builtins__": {}, "abs": abs, "float": float,
                 "isfinite": math.isfinite}
    lines = ["def walk(xs, ps):"]
    tests = set()
    roots = []
    base = 0
    for prog in programs:
        root = len(prog) - 1
        tested = {b if operand else a for _, a, b, _, _, rules in prog
                  for operand, _, _ in rules}
        # per slot: (its text, the operations inlined in it, whether it is an
        # operator's expression, which another operator takes in parentheses)
        values = []
        for i, (op, a, b, arg, _, rules) in enumerate(prog):
            n = base + i
            if op == "const":
                namespace[f"c{n}"] = arg
                values.append((f"c{n}", 0, False))
                continue
            if op in ("param", "var"):
                values.append((f"{'ps' if op == 'param' else 'xs'}[{int(arg)}]", 0, False))
                continue
            (x, x_depth, x_wrap), (y, y_depth, y_wrap) = values[a], values[b]
            for operand, _, reason in rules:
                test = f"    if {_TESTS[reason].format(x=y if operand else x)}: return None"
                if test not in tests:  # a repeat tests a leaf that passed it already
                    tests.add(test)
                    lines.append(test)
            call = op in FUNCTIONS or op == "^"
            if not call:
                x, y = f"({x})" if x_wrap else x, f"({y})" if y_wrap else y
            value = _OPS[op][0].format(x=x, y=y, e=arg)
            depth = 1 + max(x_depth, y_depth)
            if call:
                value = f"float({value})"
            if i == root or i in tested or depth >= INLINE_DEPTH:
                lines.append(f"    v{n} = {value}")
                values.append((f"v{n}", 0, False))
            else:
                values.append((value, depth, not call))
        lines.append(f"    if not isfinite({values[root][0]}): return None")
        roots.append(values[root][0])
        base += len(prog)
    lines.append(f"    return [{', '.join(roots)}]")
    return "\n".join(lines) + "\n", namespace


def sample_walk(skeleton: Skeleton) -> tuple[list[str], Callable]:
    """(variables, walk): the float walk, the skeleton's value-only walk on
    one sample and the only way into it, compiled on first use and cached on
    the skeleton instance.

    ``walk(xs, ps)`` takes the values of ``variables``, in that order, and the
    parameter vector as lists of floats, and gives the outputs in target order
    as a list of floats, or None if the sample faults.  The operations are the
    checking walk's own templates (``_OPS``), which give its bits on floats
    too, and the same domain rules and output check decide the fault, so a
    sample that passes has the checking walk's outputs.  Call it under
    ``np.errstate(all="ignore")``: a non-finite value is a fault, not a warning.
    The walk does not say which rule failed: ``evaluate`` on the sample names
    the fault.
    """
    variables, programs = _tape(skeleton)
    walk = skeleton.__dict__.get("_sample_walk")
    if walk is None:
        source, namespace = _sample_source(programs)
        exec(compile(source, "<sample walk>", "exec"), namespace)
        walk = namespace.pop("walk")  # left in its globals, it would form a cycle
        object.__setattr__(skeleton, "_sample_walk", walk)  # Skeleton is frozen
    return variables, walk


def evaluate(skeleton: Skeleton, params: Sequence[float] | np.ndarray, batch: SampleBatch,
             gradients: bool = True, targets: np.ndarray | None = None) -> EvalResult:
    """Evaluate all targets over the batch; exact parameter gradients
    alongside, and on a fault the checking walk's record.

    ``params`` is one vector (k,), giving outputs (T, n) and per-sample
    gradients (T, n, k), or restart rows (R, k), giving outputs (R, T, n) and
    gradients (R, T, n, k).  With ``targets`` (T, n), the gradients are
    instead the residual-weighted sums over targets and samples,
    sum((outputs - targets) * d outputs / dp), (k,) or (R, k), from one
    reverse sweep per target seeded with its residual, which the result
    keeps as ``residual``, with its sums of squares as ``sum_squares``; this
    mode runs on the compiled fit walk, and on the checking walk only to
    name a fault it refused.  Every other call is one pass of the checking
    walk.  A fault in any row faults the result, and its outputs and
    gradients are None.  So does a weighted sum that is not finite, but if
    every value and per-sample gradient is finite (only the weighting
    overflowed), the result keeps its outputs, residual and sums of squares,
    so that a caller can still tell an overflowing loss.  Every call walks
    arrays, one sample too; the float walk is ``sample_walk``.
    ``gradients=False`` evaluates values only: the result's gradients are
    None, and a non-finite gradient behind finite values is no fault.
    """
    p = np.asarray(params, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1] != skeleton.n_params:
        raise ValueError(f"expected {skeleton.n_params} parameters or rows of them, "
                         f"got shape {p.shape}")
    if targets is not None:
        targets = np.asarray(targets, dtype=np.float64)
        if not gradients:
            raise ValueError("targets weight the gradients; gradients=False takes none")
        if targets.shape != (len(skeleton.expressions), batch.n_samples):
            raise ValueError(f"expected targets of shape "
                             f"{(len(skeleton.expressions), batch.n_samples)}, "
                             f"got {targets.shape}")
    rows = p if p.ndim == 2 else p[None, :]
    residual = sum_squares = None
    if targets is None:
        outputs, grads, fault = _walk_checked(skeleton, rows, batch, gradients, None)
    else:
        walks, values = _fit_state(skeleton, batch)
        walked = None if values is None else _walk_weighted(walks, values, rows, targets)
        if walked is None:  # walk again checking every node, to name the first fault
            outputs, grads, fault = _walk_checked(skeleton, rows, batch, True, targets)
            if outputs is not None:  # only the weighted sums left the floats
                with np.errstate(all="ignore"):  # so may the residual and its squares
                    residual = outputs - targets
                    sum_squares = _sum_squares(residual)
        else:
            (outputs, residual, grads, sum_squares), fault = walked, None
    if p.ndim == 1 and outputs is not None:
        outputs, residual = outputs[0], None if residual is None else residual[0]
        grads = None if grads is None else grads[0]
        sum_squares = None if sum_squares is None else sum_squares[0]
    return EvalResult(outputs=outputs, gradients=grads, domain_fault=fault,
                      residual=residual, sum_squares=sum_squares)


def gradient_check(skeleton: Skeleton, params: Sequence[float], batch: SampleBatch) -> float:
    """Max relative mismatch between reverse-mode and central differences.

    The denominator is floored at 1 so the measure stays meaningful where the
    true gradient vanishes.  Raises DomainFault if any evaluation in the
    stencil neighbourhood violates the domain.
    """
    p = np.asarray(params, dtype=np.float64)
    base = evaluate(skeleton, p, batch)
    if base.faulted:
        raise DomainFault(base.domain_fault)
    worst = 0.0
    for k in range(skeleton.n_params):
        h = 1e-6 * max(1.0, abs(p[k]))
        plus, minus = p.copy(), p.copy()
        plus[k] += h
        minus[k] -= h
        up = evaluate(skeleton, plus, batch)
        down = evaluate(skeleton, minus, batch)
        if up.faulted:
            raise DomainFault(up.domain_fault)
        if down.faulted:
            raise DomainFault(down.domain_fault)
        fd = (up.outputs - down.outputs) / (2.0 * h)
        ad = base.gradients[:, :, k]
        denom = np.maximum(1.0, np.maximum(np.abs(fd), np.abs(ad)))
        worst = max(worst, float(np.max(np.abs(ad - fd) / denom)))
    return worst
