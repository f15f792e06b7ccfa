"""Skeleton evaluation with exact reverse-mode gradients.

Evaluates every target expression of a skeleton over a column batch and
returns per-sample outputs together with the exact partial derivatives with
respect to each parameter slot.  Domain violations (log of a non-positive
argument, near-zero divisors, any non-finite intermediate) poison the whole
evaluation: the result carries a fault record instead of numbers.  Callers
that need values only, such as trajectory replay, skip the gradients and
their finiteness check.

Each skeleton is compiled once into a postorder tape.  One call,
``evaluate``, takes either one parameter vector (k,) or restart rows (R, k);
rows are broadcast against the (n,) columns, so a fitter advances R restarts
in one walk.  Gradients are produced per sample, not pre-reduced, so callers
can apply any loss weighting they like.  A value-only call on one vector and
one sample, as trajectory replay makes at every RK4 stage, walks the same
tape on Python floats: the same operations and domain rules give the array
walk's bits there, and a sample that faults is walked again on arrays, so
its fault record is the array walk's.  All inputs are immutable and
evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dsl import FUNCTIONS, Bin, Call, Const, Expr, Neg, Param, Pow, Skeleton, Var

DIV_GUARD = 1e-12


class MissingColumn(KeyError):
    """A referenced variable has no column in the batch (caller bug)."""


class DomainFault(RuntimeError):
    """Raised when the evaluation domain is violated (the tape walk, gradient_check)."""

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
    """Outputs (n_targets, n_samples); gradients (n_targets, n_samples, n_params);
    each with a leading restart axis when evaluated on parameter rows."""

    outputs: np.ndarray | None
    gradients: np.ndarray | None
    domain_fault: FaultInfo | None = None

    @property
    def faulted(self) -> bool:
        return self.domain_fault is not None


def _check(bad, reason: str, shape: tuple[int, int]) -> None:
    if np.asarray(bad).any():  # a plain bool for a constant operand
        # the first sample at which any parameter row is bad
        index = int(np.argmax(np.broadcast_to(bad, shape).any(axis=0)))
        raise DomainFault(FaultInfo(sample_index=index, reason=reason))


def _check_finite(values, shape: tuple[int, int]) -> None:
    if not np.isfinite(values).all():
        _check(~np.isfinite(values), "non-finite value", shape)


def _near_zero(v):
    return abs(v) < DIV_GUARD


def _non_finite(v):
    return v - v != 0.0  # v - v is 0 for every finite v and NaN otherwise


def _rules(op: str, e) -> tuple:
    """Domain rules of one instruction in check order, as (operand, bad test,
    reason); operand 1 is the right operand y, 0 the left or only operand x.
    Besides the domain proper, the operands through which a non-finite value
    could vanish must be finite; every other operation keeps it.  The tests
    use operators that mean the same on arrays and on floats, so both walks
    read them: the array walk on columns, the one-sample walk on floats."""
    finite = (_non_finite, "non-finite value")
    if op == "/":
        return (1, _near_zero, "division by near-zero denominator"), (1, *finite)
    if op == "^" and e < 0:
        return (0, _near_zero, "negative power of near-zero base"), (0, *finite)
    if op == "^" and e == 0:
        return ((0, *finite),)
    if op == "log":
        return ((0, lambda v: v <= 0.0, "log of non-positive argument"),)
    if op == "sqrt":
        return ((0, lambda v: v < 0.0, "sqrt of negative argument"),)
    if op in ("exp", "tanh"):
        return ((0, *finite),)
    return ()


# op -> value from the operands x, y (y is x for unary ops) and the exponent e;
# powers go through an array because ndarray ** scalar takes NumPy's fast
# paths (square, reciprocal, ...), whose bits can differ from scalar pow
_VALUE = {
    "neg": lambda x, y, e: -x,
    "+": lambda x, y, e: x + y,
    "-": lambda x, y, e: x - y,
    "*": lambda x, y, e: x * y,
    "/": lambda x, y, e: x / y,
    "^": lambda x, y, e: np.asarray(x) ** float(e),
    **{f: (lambda x, y, e, ufunc=getattr(np, f): ufunc(x)) for f in FUNCTIONS},
}

# op -> (adjoint of x, adjoint of y or None) from the adjoint g of the value v
_ADJOINTS = {
    "neg": lambda g, x, y, v, e: (-g, None),
    "+": lambda g, x, y, v, e: (g, g),
    "-": lambda g, x, y, v, e: (g, -g),
    "*": lambda g, x, y, v, e: (g * y, g * x),
    "/": lambda g, x, y, v, e: (g / y, -g * x / (y * y)),
    "^": lambda g, x, y, v, e: (g * e * np.asarray(x) ** float(e - 1) if e else None, None),
    "sin": lambda g, x, y, v, e: (g * np.cos(x), None),
    "cos": lambda g, x, y, v, e: (g * -np.sin(x), None),
    "tan": lambda g, x, y, v, e: (g * (1.0 + v * v), None),
    "exp": lambda g, x, y, v, e: (g * v, None),
    "log": lambda g, x, y, v, e: (g * (1.0 / x), None),
    "sqrt": lambda g, x, y, v, e: (g * (0.5 / v), None),
    "tanh": lambda g, x, y, v, e: (g * (1.0 - v * v), None),
    "abs": lambda g, x, y, v, e: (g * np.sign(x), None),  # subgradient 0 at the kink
}


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
    prog.append((op, a, b, arg, live, _rules(op, arg)))
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


def _walk(skeleton: Skeleton, params: np.ndarray, batch: SampleBatch,
          exact: bool, gradients: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Outputs (R, T, n) and gradients (R, T, n, k) for parameter rows (R, k).

    Raises DomainFault if any row faults.  Checking finiteness at the outputs,
    the gradients and where the domain rules do decides faulted-or-not as a check
    at every node would; ``exact`` adds that per-node check, so the fault
    names the first offending node.  With ``gradients=False`` the reverse
    sweep and its finiteness check are skipped and None stands for the
    gradients: only the values can fault.
    """
    variables, programs = _tape(skeleton)
    cols = [batch.column(name) for name in variables]
    rows, k = params.shape
    shape = (rows, batch.n_samples)
    pcols = [params[:, j:j + 1] for j in range(k)]
    outputs = np.empty((rows, len(programs), batch.n_samples))
    grads = np.zeros(outputs.shape + (k,)) if gradients else None
    with np.errstate(all="ignore"):  # non-finite results become faults
        for t, prog in enumerate(programs):
            vals = []
            for op, a, b, arg, _, rules in prog:
                if op == "param":
                    vals.append(pcols[arg])
                elif op == "var":
                    vals.append(cols[arg])
                elif op == "const":
                    vals.append(arg)
                else:
                    x, y = vals[a], vals[b]
                    for operand, bad, reason in rules:
                        _check(bad(y if operand else x), reason, shape)
                    vals.append(_VALUE[op](x, y, arg))
                if exact:
                    _check_finite(vals[-1], shape)
            outputs[:, t] = vals[-1]
            _check_finite(outputs[:, t], shape)
            if gradients:
                grad = grads[:, t]
                _sweep(prog, vals, grad)
                if not np.isfinite(grad).all():
                    _check(~np.isfinite(grad).all(axis=2), "non-finite gradient", shape)
    return outputs, grads


def _sweep(prog: list, vals: list, grad: np.ndarray) -> None:
    """Add per-sample parameter adjoints into grad (R, n, k), zero-filled."""
    adj = {len(prog) - 1: 1.0}
    leaves = []
    for i in range(len(prog) - 1, -1, -1):
        op, a, b, arg, live, _ = prog[i]
        g = adj.get(i)
        if g is None or not live:
            continue
        if op == "param":
            leaves.append((arg, g))
        else:
            adj[a], gb = _ADJOINTS[op](g, vals[a], vals[b], vals[i], arg)
            if gb is not None:
                adj[b] = gb
    # the sweep meets parameter leaves right to left; add them left to right
    for j, g in reversed(leaves):
        grad[..., j] += g


def _walk_sample(skeleton: Skeleton, params: np.ndarray,
                 batch: SampleBatch) -> np.ndarray | None:
    """Outputs (T, 1) of one parameter vector on a one-sample batch, walked on
    Python floats; None if the sample faults.

    The operations are the array walk's own (``_VALUE``), which give its bits
    on floats too, and the same domain rules and output check decide the
    fault, so a sample that passes here has the array walk's outputs.
    """
    variables, programs = _tape(skeleton)
    xs = [float(batch.column(name)[0]) for name in variables]
    ps = params.tolist()
    outputs = []
    with np.errstate(all="ignore"):  # non-finite results become faults
        for prog in programs:
            vals = []
            for op, a, b, arg, _, rules in prog:
                if a is not None:
                    x, y = vals[a], vals[b]
                    for operand, bad, _ in rules:
                        if bad(y if operand else x):
                            return None
                    vals.append(float(_VALUE[op](x, y, arg)))
                elif op == "param":
                    vals.append(ps[arg])
                elif op == "var":
                    vals.append(xs[arg])
                else:
                    vals.append(arg)
            if not math.isfinite(vals[-1]):
                return None
            outputs.append(vals[-1])
    return np.array(outputs)[:, None]


def evaluate(skeleton: Skeleton, params: Sequence[float] | np.ndarray, batch: SampleBatch,
             gradients: bool = True) -> EvalResult:
    """Evaluate all targets; exact per-sample parameter gradients alongside.

    ``params`` is one vector (k,), giving outputs (T, n) and gradients
    (T, n, k), or restart rows (R, k), giving outputs (R, T, n) and gradients
    (R, T, n, k).  A fault in any row faults the result.  ``gradients=False``
    evaluates values only: the result's gradients are None, and a non-finite
    gradient behind finite values is no fault.
    """
    p = np.asarray(params, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1] != skeleton.n_params:
        raise ValueError(f"expected {skeleton.n_params} parameters or rows of them, "
                         f"got shape {p.shape}")
    if p.ndim == 1 and batch.n_samples == 1 and not gradients:
        # one sample (replay): walked on floats; a fault is named by the array walk
        outputs = _walk_sample(skeleton, p, batch)
        if outputs is not None:
            return EvalResult(outputs=outputs, gradients=None)
    rows = p if p.ndim == 2 else p[None, :]
    try:
        try:
            outputs, grads = _walk(skeleton, rows, batch, exact=False, gradients=gradients)
        except DomainFault:  # walk again checking every node, to name the first fault
            outputs, grads = _walk(skeleton, rows, batch, exact=True, gradients=gradients)
    except DomainFault as fault:
        return EvalResult(outputs=None, gradients=None, domain_fault=fault.info)
    if p.ndim == 1:
        outputs, grads = outputs[0], None if grads is None else grads[0]
    return EvalResult(outputs=outputs, gradients=grads)


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
