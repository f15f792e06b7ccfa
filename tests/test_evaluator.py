import gc
import io
import keyword
import re
import sys
import threading
import tokenize
import types
import weakref
from functools import reduce
from itertools import chain

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from daedisc import evaluator
from daedisc.dsl import (FUNCTIONS, MAX_DEPTH, MAX_EXPONENT, Bin, Call, Const, Expr, Neg, Param,
                         Pow, SymbolScope, _depth, make_skeleton, parse)
from daedisc.evaluator import (
    DomainFault,
    FaultInfo,
    MissingColumn,
    SampleBatch,
    _ADJOINTS,
    _VALUE,
    _parameter_free_values,
    _reverse,
    _reverse_steps,
    _sample_source,
    _scatter,
    _tape,
    _walk_checked,
    _weighted_source,
    evaluate,
    gradient_check,
    sample_walk,
)
from test_dsl import _exprs

SCOPE = SymbolScope(states=("x", "delta", "omega"))
# powers of live bases with negative and positive exponents
LIVE_POWERS = "dx/dt = (p0*x)^(-1) - (p1 + y)^(-4)\ndy/dt = (p2*x)^4"


def _batch(**cols):
    return SampleBatch.from_columns(cols)


def test_linear_case():
    sk = parse("dx/dt = p0*x", SCOPE, ["x"], kind="de")
    res = evaluate(sk, [2.0], _batch(x=[1.0, 2.0, 3.0]))
    assert not res.faulted
    np.testing.assert_allclose(res.outputs, [[2.0, 4.0, 6.0]])
    np.testing.assert_allclose(res.gradients[0, :, 0], [1.0, 2.0, 3.0])


def test_sin_gradient_at_zero():
    sk = parse("dx/dt = sin(p0*x)", SCOPE, ["x"], kind="de")
    x = np.array([0.5, 1.0, 2.5])
    res = evaluate(sk, [0.0], _batch(x=x))
    np.testing.assert_allclose(res.outputs[0], np.zeros(3))
    np.testing.assert_allclose(res.gradients[0, :, 0], x)  # x*cos(0)


def test_division_fault():
    sk = parse("dx/dt = p0/x", SCOPE, ["x"], kind="de")
    res = evaluate(sk, [1.0], _batch(x=[1.0, 0.0, 2.0]))
    assert res.faulted
    assert res.domain_fault.sample_index == 1
    assert "denominator" in res.domain_fault.reason
    assert res.outputs is None


def test_log_fault_and_sqrt_fault():
    sk = parse("dx/dt = log(x)", SCOPE, ["x"], kind="de")
    assert evaluate(sk, [], _batch(x=[1.0, -1.0])).faulted
    sk = parse("dx/dt = sqrt(x)", SCOPE, ["x"], kind="de")
    assert evaluate(sk, [], _batch(x=[4.0, -4.0])).faulted


def test_overflow_is_fault():
    sk = parse("dx/dt = exp(x)", SCOPE, ["x"], kind="de")
    res = evaluate(sk, [], _batch(x=[1.0, 1000.0]))
    assert res.faulted
    assert res.domain_fault.sample_index == 1


def test_missing_column_raises():
    sk = parse("dx/dt = p0*omega", SCOPE, ["x"], kind="de")
    with pytest.raises(MissingColumn):
        evaluate(sk, [1.0], _batch(x=[1.0]))


def test_abs_and_tan_gradients_analytic():
    sk = parse("dx/dt = abs(p0*x)", SCOPE, ["x"], kind="de")
    res = evaluate(sk, [2.0], _batch(x=[-1.0, 3.0]))
    np.testing.assert_allclose(res.gradients[0, :, 0], [1.0, 3.0])  # x*sign(p0*x)
    sk = parse("dx/dt = tan(p0*x)", SCOPE, ["x"], kind="de")
    x = np.array([0.3, 0.8])
    res = evaluate(sk, [1.0], _batch(x=x))
    np.testing.assert_allclose(res.gradients[0, :, 0], x / np.cos(x) ** 2, rtol=1e-12)


def test_gradient_check_linear_exact():
    sk = parse("dx/dt = p0*x + p1", SCOPE, ["x"], kind="de")
    err = gradient_check(sk, [1.3, -0.4], _batch(x=[0.5, 1.0, 1.5]))
    assert err < 1e-9


def test_gradient_check_swing_terms():
    sk = parse("domega/dt = p0 - p1*sin(delta) - p2*omega", SCOPE, ["omega"], kind="de")
    rng = np.random.default_rng(0)
    batch = _batch(delta=rng.uniform(0.1, 1.2, 20), omega=rng.uniform(0.9, 1.1, 20))
    err = gradient_check(sk, rng.uniform(-2, 2, 3), batch)
    assert err < 1e-5


def test_gradient_check_cubic_term():
    sk = parse("dx/dt = p0*x^3 + p1*x", SCOPE, ["x"], kind="de")
    err = gradient_check(sk, [0.7, -1.1], _batch(x=np.linspace(0.5, 2.0, 15)))
    assert err < 1e-5


def test_gradient_check_propagates_fault():
    sk = parse("dx/dt = log(p0 + x)", SCOPE, ["x"], kind="de")
    with pytest.raises(DomainFault):
        gradient_check(sk, [-2.0], _batch(x=[1.0, 1.5]))


def test_batch_linearity():
    sk = parse("dx/dt = p0*sin(x) + p1*x^2", SCOPE, ["x"], kind="de")
    a = _batch(x=[0.5, 1.0])
    b = _batch(x=[1.5, 2.0, 2.5])
    both = _batch(x=[0.5, 1.0, 1.5, 2.0, 2.5])
    ra, rb, rc = (evaluate(sk, [1.1, -0.3], batch) for batch in (a, b, both))
    np.testing.assert_array_equal(np.concatenate([ra.outputs, rb.outputs], axis=1), rc.outputs)
    np.testing.assert_array_equal(
        np.concatenate([ra.gradients, rb.gradients], axis=1), rc.gradients)


def test_purity_bit_identical():
    sk = parse("dx/dt = p0*exp(x) - p1/x", SCOPE, ["x"], kind="de")
    batch = _batch(x=np.linspace(0.3, 2.0, 10))
    r1 = evaluate(sk, [0.4, 1.7], batch)
    r2 = evaluate(sk, [0.4, 1.7], batch)
    assert np.array_equal(r1.outputs, r2.outputs)
    assert np.array_equal(r1.gradients, r2.gradients)


def test_batch_validation():
    with pytest.raises(ValueError):
        SampleBatch.from_columns({"x": [1.0, 2.0], "y": [1.0]})
    with pytest.raises(ValueError):
        SampleBatch.from_columns({"x": [1.0, np.nan]})
    batch = _batch(x=[1.0, 2.0])
    with pytest.raises(ValueError):
        batch.columns["x"][0] = 9.0  # columns are locked


# --- property: reverse mode matches central differences --------------------

_SAFE_FUNCS = ("sin", "cos", "exp", "log", "sqrt", "tanh")


def random_expr(rng, depth, n_params):
    """Random expression over x with a benign distribution (see ledger)."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.4:
            return f"p{rng.integers(0, n_params)}"
        if r < 0.8:
            return "x"
        return f"{rng.uniform(0.2, 3.0):.3f}"
    r = rng.random()
    a = random_expr(rng, depth - 1, n_params)
    b = random_expr(rng, depth - 1, n_params)
    if r < 0.45:
        op = rng.choice(["+", "-", "*", "/"])
        return f"({a} {op} {b})"
    if r < 0.6:
        return f"-({a})"
    if r < 0.75:
        return f"({a})^{rng.integers(-3, 4)}"
    return f"{rng.choice(_SAFE_FUNCS)}({a})"


def test_accepted_text_always_evaluates_on_covering_batch():
    # soundness of the accept gate: whatever parses against a scope can be
    # evaluated on any batch whose columns cover that scope; domain faults are
    # allowed, unbound-symbol failures are not
    rng = np.random.default_rng(7)
    scope = SymbolScope(states=("x", "delta"))
    batch = _batch(x=rng.uniform(0.5, 2.0, 5), delta=rng.uniform(0.5, 2.0, 5))
    accepted = 0
    for _ in range(300):
        text = f"dx/dt = {random_expr(rng, 3, 2)}"
        try:
            sk = parse(text, scope, ["x"], kind="de")
        except Exception:
            continue
        accepted += 1
        result = evaluate(sk, rng.uniform(-2, 2, sk.n_params), batch)
        assert result.faulted or np.all(np.isfinite(result.outputs))
    assert accepted > 100


def test_gradient_property_random_skeletons():
    rng = np.random.default_rng(42)
    scope = SymbolScope(states=("x",))
    checked = 0
    attempts = 0
    while checked < 60 and attempts < 1000:
        attempts += 1
        text = f"dx/dt = {random_expr(rng, 3, 3)}"
        try:
            sk = parse(text, scope, ["x"], kind="de")
        except Exception:
            continue
        batch = _batch(x=rng.uniform(0.5, 2.0, 8))
        params = rng.uniform(-2.0, 2.0, sk.n_params)
        try:
            err = gradient_check(sk, params, batch)
        except DomainFault:
            continue
        assert err < 1e-5, f"gradient mismatch {err} for {text} params {params}"
        checked += 1
    assert checked == 60


def test_rows_match_vectors_bit_for_bit():
    rng = np.random.default_rng(11)
    scope = SymbolScope(states=("x",))
    batch = _batch(x=rng.uniform(0.5, 2.0, 8))
    seen = {True: 0, False: 0}
    for _ in range(200):
        try:
            sk = parse(f"dx/dt = {random_expr(rng, 3, 3)}", scope, ["x"], kind="de")
        except Exception:
            continue
        rows = rng.uniform(-2.0, 2.0, (3, sk.n_params))
        for gradients in (True, False):
            res = evaluate(sk, rows, batch, gradients=gradients)
            each = [evaluate(sk, row, batch, gradients=gradients) for row in rows]
            assert res.faulted == any(r.faulted for r in each)
            seen[res.faulted] += 1
            if res.faulted:
                assert res.outputs is None and res.gradients is None
                continue
            for r, single in enumerate(each):
                assert np.array_equal(res.outputs[r], single.outputs)
                if gradients:
                    assert np.array_equal(res.gradients[r], single.gradients)
                else:
                    assert res.gradients is None and single.gradients is None
        with pytest.raises(ValueError):
            evaluate(sk, np.zeros((3, sk.n_params + 1)), batch)
    assert seen[True] > 10 and seen[False] > 100


# --- fault semantics: the first offending node names the fault --------------

@pytest.mark.parametrize("text", [
    "1/exp(x)",               # non-finite divisor vanishes in the quotient
    "tanh(exp(x))",           # tanh saturates a non-finite argument
    "p0*exp(-exp(x))",        # exp of -inf vanishes
    "exp(x)^0 + p0",          # zeroth power of a non-finite base
    "p0*(exp(x))^(-1)",       # negative power of a non-finite base
    "log(exp(x) - exp(x))",   # inf - inf is reported before the log guard
])
def test_vanishing_non_finite_value_faults(text):
    sk = parse(f"dx/dt = {text}", SCOPE, ["x"], kind="de")
    res = evaluate(sk, [1.0] * sk.n_params, _batch(x=[1.0, 1000.0, 2.0]))
    assert res.domain_fault == FaultInfo(sample_index=1, reason="non-finite value")
    assert res.outputs is None and res.gradients is None


def test_zero_denominator_fault_names_first_sample():
    sk = parse("dx/dt = p0/(x - x)", SCOPE, ["x"], kind="de")
    res = evaluate(sk, [1.0], _batch(x=[1.0, 1000.0, 2.0]))
    assert res.domain_fault == FaultInfo(sample_index=0,
                                         reason="division by near-zero denominator")


def test_value_only_skips_the_gradient_check():
    # d sqrt(p0*x)/dp0 = x/(2 sqrt(p0*x)) is 0/0 at x = 0; the value is 0
    sk = parse("dx/dt = sqrt(p0*x)", SCOPE, ["x"], kind="de")
    batch = _batch(x=[0.0])
    assert evaluate(sk, [1.0], batch).domain_fault == FaultInfo(
        sample_index=0, reason="non-finite gradient")
    res = evaluate(sk, [1.0], batch, gradients=False)
    assert not res.faulted and res.gradients is None
    np.testing.assert_array_equal(res.outputs, [[0.0]])
    # value faults stay faults
    sk = parse("dx/dt = log(x)", SCOPE, ["x"], kind="de")
    assert evaluate(sk, [], _batch(x=[1.0, -1.0]), gradients=False).domain_fault == FaultInfo(
        sample_index=1, reason="log of non-positive argument")


# --- property: the float walk is the array walk on one sample -------------

def _any_expr(rng, depth, n_params):
    """Random expression over x and y using every function and exponent."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.35:
            return f"p{rng.integers(0, n_params)}"
        if r < 0.8:
            return str(rng.choice(["x", "y"]))
        return f"{rng.uniform(0.0, 3.0):.3f}"
    r = rng.random()
    a = _any_expr(rng, depth - 1, n_params)
    if r < 0.4:
        op = rng.choice(["+", "-", "*", "/"])
        return f"({a} {op} {_any_expr(rng, depth - 1, n_params)})"
    if r < 0.5:
        return f"-({a})"
    if r < 0.7:
        return f"({a})^{rng.integers(-MAX_EXPONENT, MAX_EXPONENT + 1)}"
    return f"{rng.choice(FUNCTIONS)}({a})"


def test_one_sample_walk_matches_the_array_walk():
    rng = np.random.default_rng(8)
    scope = SymbolScope(states=("x", "y"))
    # ordinary values, and values at which the domain rules or overflow fault
    special = [0.0, -0.0, 1e-13, -2.0, 1000.0, -1000.0, 1e300, 0.5]
    seen = {True: 0, False: 0}
    texts = (f"dx/dt = {_any_expr(rng, 4, 3)}\ndy/dt = {_any_expr(rng, 3, 3)}" for _ in range(600))
    # and powers whose exponent, negative too, is written into the walk's source
    for text in chain(texts, [LIVE_POWERS]):
        try:
            sk = parse(text, scope, ["x", "y"], kind="de")
        except Exception:
            continue
        for _ in range(4):
            x, y = (rng.choice(special) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0)
                    for _ in range(2))
            params = rng.uniform(-2.0, 2.0, sk.n_params)
            batch = _batch(x=[x], y=[y])
            one = evaluate(sk, params, batch, gradients=False)
            rows = evaluate(sk, params[None, :], batch, gradients=False)
            variables, walk = sample_walk(sk)
            with np.errstate(all="ignore"):
                floats = walk([float(batch.column(name)[0]) for name in variables],
                              params.tolist())
            assert one.faulted == rows.faulted == (floats is None), text
            assert one.domain_fault == rows.domain_fault, text
            seen[one.faulted] += 1
            if not one.faulted:
                assert one.outputs.shape == (2, 1)
                assert np.array_equal(np.array(floats)[:, None].view(np.int64),
                                      rows.outputs[0].view(np.int64)), (text, x, y, params)
    assert seen[True] > 200 and seen[False] > 600


# --- the checking walk is the plain tape walk ------------------------------

def _tape_walk(sk, rows, batch, gradients):
    """The plain tape walk: every node in postorder, checked as it is formed,
    and a reverse sweep forming every adjoint, parameter-free or not.
    (outputs, gradients or None) for rows (R, k), or the FaultInfo."""
    variables, programs = _tape(sk)
    cols = [batch.column(name) for name in variables]
    shape = (rows.shape[0], batch.n_samples)
    outputs = np.empty((shape[0], len(programs), shape[1]))
    grads = np.zeros(outputs.shape + (rows.shape[1],))

    def fault(bad, reason):
        return FaultInfo(int(np.argmax(np.broadcast_to(bad, shape).any(axis=0))), reason)

    with np.errstate(all="ignore"):
        for t, prog in enumerate(programs):
            vals = []
            for op, a, b, arg, _, rules in prog:
                if op == "param":
                    v = rows[:, arg:arg + 1]
                elif op == "var":
                    v = cols[arg]
                elif op == "const":
                    v = arg
                else:
                    x, y = vals[a], vals[b]
                    for operand, bad, reason in rules:
                        if np.any(bad(y if operand else x)):
                            return fault(bad(y if operand else x), reason)
                    v = _VALUE[op](x, y, arg)
                if not np.all(np.isfinite(v)):
                    return fault(~np.isfinite(v), "non-finite value")
                vals.append(v)
            outputs[:, t] = vals[-1]
            if not gradients:
                continue
            adj, leaves = {len(prog) - 1: 1.0}, []
            for i in range(len(prog) - 1, -1, -1):
                op, a, b, arg, _, _ = prog[i]
                if i not in adj or op in ("var", "const"):
                    continue
                if op == "param":
                    leaves.append((arg, adj[i]))
                    continue
                dx, dy = _ADJOINTS[op]
                if not (op == "^" and arg == 0):
                    adj[a] = dx(adj[i], vals[a], vals[b], vals[i], arg)
                if dy is not None:
                    adj[b] = dy(adj[i], vals[a], vals[b], vals[i], arg)
            for j, g in reversed(leaves):  # met right to left, added left to right
                grads[:, t, :, j] += g
            if not np.all(np.isfinite(grads[:, t])):
                return fault(~np.isfinite(grads[:, t]).all(axis=2), "non-finite gradient")
    return outputs, grads if gradients else None


def _same_as_tape_walk(sk, params, batch):
    """evaluate agrees bit for bit with the plain tape walk, on two calls in
    a row; returns whether it faulted."""
    params = np.asarray(params, dtype=np.float64)
    rows = params if params.ndim == 2 else params[None, :]
    faulted = False
    for gradients in (True, False):
        want = _tape_walk(sk, rows, batch, gradients)
        for _ in range(2):
            got = evaluate(sk, params, batch, gradients=gradients)
            if isinstance(want, FaultInfo):
                assert got.domain_fault == want
                assert got.outputs is None and got.gradients is None
                faulted = True
                continue
            assert not got.faulted, got.domain_fault
            outputs, grads = want if params.ndim == 2 else (want[0][0], None if want[1] is None
                                                            else want[1][0])
            assert np.array_equal(got.outputs.view(np.int64), outputs.view(np.int64))
            if gradients:
                assert np.array_equal(got.gradients.view(np.int64), grads.view(np.int64))
            else:
                assert got.gradients is None
    return faulted


def test_planned_walk_is_the_tape_walk_on_random_skeletons():
    from test_acceptance import _random_expr

    rng = np.random.default_rng(10)
    scope = SymbolScope(states=("x",))
    special = [0.0, 1e-13, -2.0, 1000.0, 1e300]
    seen = {True: 0, False: 0}
    for _ in range(300):
        try:
            sk = parse(f"dx/dt = {_random_expr(rng, 3, 3)}", scope, ["x"], kind="de")
        except Exception:
            continue
        x = rng.uniform(0.5, 2.0, 6)
        if rng.random() < 0.3:
            x[rng.integers(6)] = rng.choice(special)
        batch = _batch(x=x)
        shape = (3, sk.n_params) if rng.random() < 0.5 else (sk.n_params,)
        seen[_same_as_tape_walk(sk, rng.uniform(-2.0, 2.0, shape), batch)] += 1
    assert seen[True] > 10 and seen[False] > 100


@pytest.mark.parametrize("text, params, fault", [
    ("dx/dt = p0*x + x^0\ndy/dt = p0^0*y + p1", [0.0, -1.2], None),
    ("dx/dt = p0*x + p0*x^2 - p0*p0\ndy/dt = p1*y - p0", [0.7, -1.2], None),
    ("dx/dt = p0*log(x - 10)\ndy/dt = p1*y", [0.7, -1.2],
     FaultInfo(1, "log of non-positive argument")),
    # a parameter-free fault (sample 1) comes before a live one (sample 0)
    ("dx/dt = p1*log(x - 10) + sqrt(p0*x)\ndy/dt = y", [-1.0, 2.0],
     FaultInfo(1, "log of non-positive argument")),
    ("dx/dt = sqrt(p0*x) + p1*log(x - 10)\ndy/dt = y", [-1.0, 2.0],
     FaultInfo(0, "sqrt of negative argument")),
    # the faults of a later target come after the gradients of an earlier one
    ("dx/dt = sqrt(p0*x)\ndy/dt = p1*log(y - 10)", [1.0, 0.0],
     FaultInfo(2, "non-finite gradient")),
    # faults that the outputs do not show: a huge finite quotient, and a
    # non-finite value that tanh turns finite
    ("dx/dt = p1/(p0*y - 2)\ndy/dt = y", [1.00000000000001, 1.0],
     FaultInfo(1, "division by near-zero denominator")),
    ("dx/dt = tanh(exp(p0*x))\ndy/dt = p1*y", [40.0, 1.0], FaultInfo(0, "non-finite value")),
], ids=["zeroth-powers", "repeated-parameter", "parameter-free-fault",
        "parameter-free-fault-first", "live-fault-first", "gradient-fault-first",
        "near-zero-live-denominator", "vanishing-live-overflow"])
def test_planned_walk_is_the_tape_walk_on_chosen_skeletons(text, params, fault):
    scope = SymbolScope(states=("x", "y"))
    sk = parse(text, scope, ["x", "y"], kind="de")
    batch = _batch(x=[20.1, 5.3, 0.0], y=[1.0, 2.0, 3.0])
    for p in (params, [params, [0.5, 0.25]]):
        _same_as_tape_walk(sk, p, batch)
    assert evaluate(sk, params, batch).domain_fault == fault


# the chosen cases above, reused with the fit walk's builders refusing
_CHOSEN = test_planned_walk_is_the_tape_walk_on_chosen_skeletons.pytestmark[0]


@pytest.mark.parametrize(*_CHOSEN.args, **_CHOSEN.kwargs)
def test_one_shot_calls_run_one_walk(monkeypatch, text, params, fault):
    # values-only and per-sample calls run once per skeleton and batch: they
    # take the checking walk alone, with no compiled walk and no
    # parameter-free pass
    def refuse(*args):
        raise AssertionError("a one-shot call built the fit walk's state")

    monkeypatch.setattr(evaluator, "_fit_state", refuse)
    monkeypatch.setattr(evaluator, "_parameter_free_values", refuse)
    test_planned_walk_is_the_tape_walk_on_chosen_skeletons(text, params, fault)


def test_plan_values_are_not_kept_on_a_skeleton():
    # the parameter-free values live in a one-entry memo, so walking a second
    # skeleton leaves nothing of the first one's batch data reachable from it
    batch = _batch(x=np.linspace(0.5, 2.0, 50))
    first = parse("dx/dt = p0*sin(x) + p1*exp(x - 1)", SCOPE, ["x"], kind="de")
    second = parse("dx/dt = p0*cos(x)", SCOPE, ["x"], kind="de")
    assert not evaluate(first, [1.0, 2.0], batch).faulted
    assert not evaluate(second, [1.0], batch).faulted

    seen, todo = {id(first)}, [first]
    while todo:
        obj = todo.pop()
        assert not isinstance(obj, np.ndarray)
        for ref in gc.get_referents(obj):  # code, not data: no functions or modules
            if id(ref) not in seen and not isinstance(
                    ref, (type, types.ModuleType, types.FunctionType)):
                seen.add(id(ref))
                todo.append(ref)
    gone = weakref.ref(first)
    del first
    gc.collect()
    assert gone() is None


def test_plan_memo_under_threads():
    # threads walking different skeletons on different batches at once must
    # each still get its own pair's bits
    rng = np.random.default_rng(3)
    jobs = []
    for text in ("p0*sin(x) + p1*exp(x - 1)", "p0*cos(x)^2 - p1", "(x - 1)*p0 + log(x)*p1",
                 "p1/(x + 2) + p0*tanh(x)"):
        sk = parse(f"dx/dt = {text}", SCOPE, ["x"], kind="de")
        batch = _batch(x=rng.uniform(0.5, 2.0, 40))
        rows = rng.uniform(-1.0, 1.0, (2, sk.n_params))
        want = evaluate(sk, rows, batch)
        jobs.append((sk, batch, rows, want))
    mismatches = []

    def work(first):
        # each thread cycles through every pair from its own start, so the
        # memo changes hands at almost every call
        for n in range(200):
            sk, batch, rows, want = jobs[(first + n) % len(jobs)]
            try:
                got = evaluate(sk, rows, batch)
            except Exception as exc:  # another pair's values: wrong shapes
                mismatches.append(exc)
                return
            if not (np.array_equal(got.outputs, want.outputs)
                    and np.array_equal(got.gradients, want.gradients)):
                mismatches.append(sk)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i % len(jobs),)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not mismatches


# --- the compiled one-sample walk ------------------------------------------

def _same_bits_one_sample(sk, params, batch):
    """The compiled walk (``sample_walk`` on one sample) against the array
    walk (the same vector as a row); returns whether the sample faulted."""
    p = np.asarray(params, dtype=np.float64)
    variables, walk = sample_walk(sk)
    with np.errstate(all="ignore"):
        one = walk([float(batch.column(name)[0]) for name in variables], p.tolist())
    rows = evaluate(sk, p[None, :], batch, gradients=False)
    assert (one is None) == rows.faulted
    if one is not None:
        assert np.array_equal(np.array(one)[:, None].view(np.int64),
                              rows.outputs[0].view(np.int64))
    return one is None


def test_compiled_walk_of_a_skeleton_at_max_depth():
    # unary calls, powers, negations and binary operators nested to MAX_DEPTH
    wrappers = [lambda e: f"tanh({e})", lambda e: f"(p1 - {e})", lambda e: f"sin({e})^2",
                lambda e: f"-{e}", lambda e: f"(y*{e} / 1.5)"]

    def system(expr):
        return parse(f"dx/dt = {expr}\ndy/dt = x", SymbolScope(states=("x", "y")),
                     ["x", "y"], kind="de")

    text = "p0*x"
    for n in range(MAX_DEPTH):  # each wrapper adds one or two levels
        wrapped = wrappers[n % len(wrappers)](text)
        if _depth(system(wrapped).expressions[0]) > MAX_DEPTH - 2:
            break
        text = wrapped
    while _depth(system(text).expressions[0]) < MAX_DEPTH:
        text = f"cos({text})"
    sk = system(text)
    assert _depth(sk.expressions[0]) == MAX_DEPTH
    rng = np.random.default_rng(12)
    for _ in range(20):
        batch = _batch(x=[rng.uniform(-2.0, 2.0)], y=[rng.uniform(-2.0, 2.0)])
        assert not _same_bits_one_sample(sk, rng.uniform(-2.0, 2.0, 2), batch)


def test_compiled_walk_of_a_skeleton_with_many_nodes():
    # a balanced sum of 256 terms per target keeps the depth small
    def balanced(terms):
        if len(terms) == 1:
            return terms[0]
        half = len(terms) // 2
        return f"({balanced(terms[:half])} + {balanced(terms[half:])})"

    rng = np.random.default_rng(13)
    functions = ("sin", "cos", "exp", "log", "sqrt", "tanh", "abs", "tan")
    lines = []
    for target in ("x", "y"):
        terms = [f"p{k % 7}*{functions[k % 8]}({rng.uniform(0.1, 0.9):.4f}*x + y^2 + 1)"
                 f"^{k % 5 - 2} / (y + {k + 3})" for k in range(256)]
        lines.append(f"d{target}/dt = {balanced(terms)}")
    sk = parse("\n".join(lines), SymbolScope(states=("x", "y")), ["x", "y"], kind="de")
    assert sum(len(prog) for prog in _tape(sk)[1]) > 8000
    faulted = [_same_bits_one_sample(sk, rng.uniform(-2.0, 2.0, 7),
                                     _batch(x=[rng.uniform(-1.0, 1.0)], y=[y]))
               for y in (0.3, -0.4, 2.0, -1.0 - 1e-13)]
    assert faulted.count(False) >= 3


def test_compiled_walk_keeps_constants_exactly():
    sk = parse("dx/dt = -0.0\ndy/dt = 1e-300\ndz/dt = 5e-324 + p0*(x*1e-300)",
               SymbolScope(states=("x", "y", "z")), ["x", "y", "z"], kind="de")
    res = evaluate(sk, [0.0], _batch(x=[1.5], y=[0.0], z=[0.0]), gradients=False)
    want = np.array([-0.0, 1e-300, 5e-324])
    assert np.array_equal(res.outputs[:, 0].view(np.int64), want.view(np.int64))
    assert not _same_bits_one_sample(sk, [2.5], _batch(x=[3.0], y=[0.0], z=[0.0]))


def test_float_walk_keeps_constants_exactly():
    # evaluate walks arrays only, so the float walk's constants are checked
    # on its own, at inputs where the subnormal survives the sum
    sk = parse("dx/dt = -0.0\ndy/dt = 1e-300\ndz/dt = 5e-324 + p0*(x*1e-300)",
               SymbolScope(states=("x", "y", "z")), ["x", "y", "z"], kind="de")
    variables, walk = sample_walk(sk)
    sample = {"x": 1.5, "y": 0.0, "z": 0.0}
    with np.errstate(all="ignore"):
        one = walk([sample[name] for name in variables], [0.0])
    want = np.array([-0.0, 1e-300, 5e-324])
    assert np.array_equal(np.array(one).view(np.int64), want.view(np.int64))
    assert not _same_bits_one_sample(sk, [0.0], _batch(x=[1.5], y=[0.0], z=[0.0]))


def test_compiled_source_holds_no_skeleton_text():
    text = ("dtheta_gen/dt = p0*log(omega_s - 1.2345678) + 6.02e23/sqrt(theta_gen)\n"
            "domega_s/dt = tanh(-0.0 + 1e-300*theta_gen)^3 - 5e-324 + abs(omega_s)")
    sk = parse(text, SymbolScope(states=("theta_gen", "omega_s")),
               ["theta_gen", "omega_s"], kind="de")
    source, _ = _sample_source(_tape(sk)[1])
    for piece in ("theta_gen", "omega_s", "2345678", "e23", "e-300", "e-324", "0.0", "6.02"):
        assert piece not in source
    # every token is a fixed name, a slot-numbered name or an integer index;
    # the fixed names include the operations' and rules' templates
    fixed = {"walk", "xs", "ps", "float", "isfinite", "asarray", "DIV_GUARD", "ZERO", "HALF", "ONE",
             *FUNCTIONS}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert (keyword.iskeyword(tok.string) or tok.string in fixed
                    or re.fullmatch(r"[vcfk]\d+|r\d+_\d+", tok.string)), tok.string
        elif tok.type == tokenize.NUMBER:
            assert re.fullmatch(r"\d+", tok.string), tok.string
        else:
            assert tok.type in (tokenize.OP, tokenize.NEWLINE, tokenize.INDENT,
                                tokenize.DEDENT, tokenize.ENDMARKER, tokenize.NL), tok
    variables, walk = sample_walk(sk)
    assert sorted(variables) == ["omega_s", "theta_gen"]
    assert walk is sample_walk(sk)[1]  # compiled once, kept on the skeleton


def test_a_dropped_skeleton_frees_its_float_walk_without_the_collector():
    # replay compiles a float walk per replayed model; it must go with its
    # skeleton, not wait for the cyclic collector
    sk = parse("dx/dt = p0*sin(x) + log(p1*x)", SCOPE, ["x"], kind="de")
    walk = weakref.ref(sample_walk(sk)[1])
    enabled = gc.isenabled()
    gc.disable()
    try:
        del sk
        assert walk() is None
    finally:
        if enabled:
            gc.enable()


# --- the residual-weighted gradient -----------------------------------------

_COLUMNS = ("delta", "omega", "e_q", "i_d")  # the variables test_dsl._exprs draws
# one target: up to three test_dsl._exprs trees joined by random operators,
# so that most targets hold several parameters, some of them repeated
_TARGET = st.lists(st.tuples(st.sampled_from("+-*/"), _exprs(3)), min_size=1, max_size=3).map(
    lambda parts: reduce(lambda acc, part: Bin(part[0], acc, part[1]), parts[1:], parts[0][1]))


def _split_parameters(expr: Expr, slots: list) -> Expr:
    """expr with a slot of its own for every parameter occurrence, in tree
    order; ``slots`` collects the parameter each new slot stands for."""
    match expr:
        case Param(index):
            slots.append(index)
            return Param(len(slots) - 1)
        case Bin(op, left, right):
            return Bin(op, _split_parameters(left, slots), _split_parameters(right, slots))
        case Neg(child):
            return Neg(_split_parameters(child, slots))
        case Pow(base, exponent):
            return Pow(_split_parameters(base, slots), exponent)
        case Call(name, child):
            return Call(name, _split_parameters(child, slots))
    return expr


def _weighted_oracle(sk, params, batch, targets):
    """The per-sample gradients (R, T, n, k) contracted with the residual by
    np.einsum, and the contraction of the magnitudes of the residual and of
    each parameter occurrence's partial, which bounds the rounding of any
    order of summing the weighted partials; None if the per-sample call
    faults."""
    per_sample = evaluate(sk, params, batch)
    if per_sample.faulted:
        return per_sample.domain_fault
    slots = []
    split = make_skeleton(sk.kind, sk.target_names,
                          [_split_parameters(e, slots) for e in sk.expressions])
    partials = evaluate(split, params[..., slots], batch).gradients
    residual = per_sample.outputs - targets
    want = np.einsum("...ts,...tsk->...k", residual, per_sample.gradients)
    scale = np.zeros_like(want)
    for occurrence, j in enumerate(slots):
        scale[..., j] += np.einsum("...ts,...ts->...", np.abs(residual),
                                   np.abs(partials[..., occurrence]))
    return per_sample.outputs, want, scale


@settings(max_examples=400, deadline=None)
@given(exprs=st.lists(_TARGET, min_size=1, max_size=2), data=st.data())
def test_weighted_gradient_is_the_contracted_per_sample_gradient(exprs, data):
    sk = make_skeleton("de", ["delta", "omega"][:len(exprs)], exprs)
    n = data.draw(st.integers(1, 5), label="n")
    floats = st.floats(-3.0, 3.0, allow_nan=False)
    batch = _batch(**{name: data.draw(st.lists(floats, min_size=n, max_size=n), label=name)
                      for name in _COLUMNS})
    shape = data.draw(st.sampled_from([(sk.n_params,), (1, sk.n_params), (3, sk.n_params)]),
                      label="shape")
    params = np.array(data.draw(st.lists(floats, min_size=int(np.prod(shape)),
                                         max_size=int(np.prod(shape))), label="params"))
    params = params.reshape(shape)
    targets = np.array(data.draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False),
                                          min_size=len(exprs) * n, max_size=len(exprs) * n),
                                 label="targets")).reshape(len(exprs), n)
    weighted = evaluate(sk, params, batch, targets=targets)
    with np.errstate(all="ignore"):
        oracle = _weighted_oracle(sk, params, batch, targets)
    if isinstance(oracle, FaultInfo):  # the per-sample call faults, and names it
        assert weighted.domain_fault == oracle
        assert weighted.outputs is None and weighted.gradients is None
        return
    outputs, want, scale = oracle
    assert np.array_equal(weighted.outputs, outputs)
    if weighted.faulted:  # only the weighting overflowed; the outputs are kept
        assert weighted.domain_fault.reason == "non-finite gradient"
        assert weighted.gradients is None
        assert not np.isfinite(scale).all()
        return
    assert weighted.gradients.shape == want.shape
    # within rtol 1e-12 of the oracle, floored by the magnitude of the
    # weighted partials where they cancel
    assert np.all(np.abs(weighted.gradients - want)
                  <= 1e-12 * (np.abs(want) + scale) + np.finfo(np.float64).tiny)


def test_weighted_gradient_overflow_names_its_sample():
    # every per-sample partial is finite, but the residual times the partial
    # of p0 leaves the floats at sample 1 only: the outputs are kept
    scope = SymbolScope(states=("x",))
    sk = parse("dx/dt = p0*x", scope, ["x"], kind="de")
    batch = _batch(x=[1.0, 1e200, 2.0])
    targets = np.array([[0.0, -1e200, 0.0]])
    assert not evaluate(sk, [1.0], batch).faulted
    res = evaluate(sk, [1.0], batch, targets=targets)
    assert res.domain_fault == FaultInfo(1, "non-finite gradient")
    assert res.gradients is None
    assert np.array_equal(res.outputs, [[1.0, 1e200, 2.0]])
    # finite weighted adjoints whose sum overflows: named where the running
    # sum of their magnitudes leaves the floats
    batch = _batch(x=[1.0, 1e154, 1e154, 1e154])
    res = evaluate(sk, [1.0], batch, targets=np.zeros((1, 4)))
    assert res.domain_fault == FaultInfo(2, "non-finite gradient")


def test_weighted_gradient_takes_the_per_sample_fault_first():
    # a later target's value fault is named before an earlier target's
    # weighted overflow, as the per-sample walk names it
    scope = SymbolScope(states=("x", "y"))
    sk = parse("dx/dt = p0*x\ndy/dt = p1*log(y - 10)", scope, ["x", "y"], kind="de")
    batch = _batch(x=[1e200, 1.0, 1.0], y=[20.0, 5.0, 20.0])
    targets = np.array([[-1e200, 0.0, 0.0], [0.0, 0.0, 0.0]])
    want = evaluate(sk, [1.0, 1.0], batch).domain_fault
    assert want == FaultInfo(1, "log of non-positive argument")
    assert evaluate(sk, [1.0, 1.0], batch, targets=targets).domain_fault == want


def test_weighted_gradient_argument_checks():
    sk = parse("dx/dt = p0*x", SymbolScope(states=("x",)), ["x"], kind="de")
    batch = _batch(x=[1.0, 2.0])
    with pytest.raises(ValueError, match="targets of shape"):
        evaluate(sk, [1.0], batch, targets=np.zeros(2))
    with pytest.raises(ValueError, match="gradients=False"):
        evaluate(sk, [1.0], batch, gradients=False, targets=np.zeros((1, 2)))


# --- the compiled weighted walk against the interpreted one ----------------
# The interpreted walk that the compiled residual-weighted walk replaced, kept
# as the oracle of its bits and faults; it reads the tape programs and their
# ``_reverse_steps`` sweeps.

def _reduce(leaves: tuple, adjoints: list, grad: np.ndarray) -> None:
    """Add weighted leaf adjoints (R, n), summed over samples, into grad (R, k)."""
    for (j, _), g in zip(leaves, adjoints):
        grad[:, j] += np.add.reduce(g, axis=-1)


def _interpreted_walk(programs: list, values: tuple, params: np.ndarray, n_samples: int,
                      gradients: bool, targets: np.ndarray | None
                      ) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Outputs (R, T, n) and gradients for parameter rows (R, k), walked on
    the tape programs' live nodes from the parameter-free values; None if any
    row faults.

    The gradients are per sample (R, T, n, k), or with ``targets`` (T, n)
    the residual-weighted sums (R, k); with ``gradients=False`` the reverse
    sweep is skipped and None stands for them.  Only live nodes are computed;
    the domain rules run before each of them, and finiteness is checked once
    over all outputs and once over all gradients.  Those checks and the
    parameter-free ones decide faulted-or-not as a check at every node would
    (of a weighted gradient, as a check of its sums); ``_walk_checked`` names
    the fault.
    """
    rows, k = params.shape
    pcols = [params[:, j:j + 1] for j in range(k)]
    outputs = np.empty((rows, len(programs), n_samples))
    grads = None
    if targets is not None:
        grads = np.zeros((rows, k))
    elif gradients:
        grads = np.zeros(outputs.shape + (k,))
    with np.errstate(all="ignore"):  # non-finite results become faults
        for t, (prog, base) in enumerate(zip(programs, values)):
            reverse, leaves = _reverse_steps(prog)
            vals = base.copy()
            for i, (op, a, b, arg, live, rules) in enumerate(prog):
                if not live:
                    continue
                if op == "param":
                    vals[i] = pcols[arg]
                    continue
                for operand, bad, _ in rules:
                    slot = b if operand else a
                    if prog[slot][4] and bad(vals[slot]).any():
                        return None
                vals[i] = _VALUE[op](vals[a], vals[b], arg)
            outputs[:, t] = vals[-1]
            if targets is not None:
                if leaves:  # a target without parameters needs no residual
                    _reduce(leaves, _reverse(reverse, leaves, vals, vals[-1] - targets[t]),
                            grads)
            elif gradients:
                _scatter(leaves, _reverse(reverse, leaves, vals, 1.0), grads[:, t])
        if not np.isfinite(outputs).all() or gradients and not np.isfinite(grads).all():
            return None
    return outputs, grads


def _bits(a):
    return np.asarray(a).view(np.int64)


def _old_sum_squares(residual):
    """Each row's residual sum of squares as the fitter formed it before the
    evaluator returned it: squares, each row's block, one pairwise sum."""
    with np.errstate(all="ignore"):
        squared = residual * residual
        return np.add.reduce(squared.reshape(len(squared), -1), axis=1)


def _same_as_interpreted_walk(sk, params, batch, targets):
    """The weighted ``evaluate`` gives the interpreted walk's outputs,
    gradients and fault bit for bit, the residual ``outputs - targets`` and
    the sums of squares of that residual; returns whether it faulted."""
    values = _parameter_free_values(sk, batch)
    rows = params if params.ndim == 2 else params[None, :]
    walked = None if values is None else _interpreted_walk(_tape(sk)[1], values, rows,
                                                           batch.n_samples, True, targets)
    if walked is None:
        outputs, grads, fault = _walk_checked(sk, rows, batch, True, targets)
    else:
        (outputs, grads), fault = walked, None
    got = evaluate(sk, params, batch, targets=targets)
    assert got.domain_fault == fault
    if outputs is None:
        assert got.outputs is None and got.gradients is None and got.residual is None
        assert got.sum_squares is None
        return True
    with np.errstate(all="ignore"):
        residual = outputs - targets
    sum_squares = _old_sum_squares(residual)
    if params.ndim == 1:
        outputs, grads = outputs[0], None if grads is None else grads[0]
        residual, sum_squares = residual[0], sum_squares[0]
    assert np.array_equal(_bits(got.outputs), _bits(outputs))
    assert np.array_equal(_bits(got.residual), _bits(residual))
    assert np.array_equal(_bits(got.sum_squares), _bits(sum_squares))
    if grads is None:
        assert got.gradients is None
    else:
        assert np.array_equal(got.gradients.view(np.int64), grads.view(np.int64))
    return fault is not None


@settings(max_examples=400, deadline=None)
@given(exprs=st.lists(_TARGET, min_size=1, max_size=3), data=st.data())
def test_compiled_weighted_walk_is_the_interpreted_walk(exprs, data):
    sk = make_skeleton("de", ["delta", "omega", "e_q"][:len(exprs)], exprs)
    n = data.draw(st.integers(1, 6), label="n")
    floats = st.floats(-3.0, 3.0, allow_nan=False)
    batch = _batch(**{name: data.draw(st.lists(floats, min_size=n, max_size=n), label=name)
                      for name in _COLUMNS})
    shape = data.draw(st.sampled_from([(sk.n_params,), (1, sk.n_params), (3, sk.n_params)]),
                      label="shape")
    params = np.array(data.draw(st.lists(floats, min_size=int(np.prod(shape)),
                                         max_size=int(np.prod(shape))), label="params"))
    targets = np.array(data.draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False),
                                          min_size=len(exprs) * n, max_size=len(exprs) * n),
                                 label="targets")).reshape(len(exprs), n)
    event("faulted" if _same_as_interpreted_walk(sk, params.reshape(shape), batch, targets)
          else "clean")


@pytest.mark.parametrize("text", [
    # negation, subtraction, parameter divisors, powers, repeated parameters
    "dx/dt = -(p0*x) - p1*sin(y)\ndy/dt = p0/(p1 + y) - (p2 - x)^3 + x/p2^2",
    # every function, live and parameter-free
    "dx/dt = p0*sin(x) - cos(p1*y) + tan(p2*x) - exp(p0*y) + cos(x)\n"
    "dy/dt = -log(p1^2 + x^2) + sqrt(abs(p2*x)) - tanh(p3 - y) + abs(p3)*log(abs(y) + 1)",
    # sums that cancel to signed zeros, and a zero adjoint through abs
    "dx/dt = p0/p1 - p0*x/p1 - (p1 - p1)*x\ndy/dt = -(p2 - p2)*y + abs(p3*0*x) - -p3",
    # roots that are a parameter, a negated parameter or parameter-free, and
    # zeroth powers that cut a parameter off the sweep
    "dx/dt = p0\ndy/dt = -p1",
    "dx/dt = 1.5\ndy/dt = p0^0*y + (p1*x)^0 - sin(x)",
    # exponents, negative too, written into the source, on live bases
    LIVE_POWERS,
], ids=["operators", "functions", "signed-zeros", "roots", "no-sweep", "live-powers"])
def test_compiled_weighted_walk_on_chosen_skeletons(text):
    scope = SymbolScope(states=("x", "y"))
    sk = parse(text, scope, ["x", "y"], kind="de")
    rng = np.random.default_rng(19)
    special = [0.0, -0.0, 1e-13, -2.0, 1000.0, 1e200]
    seen = {True: 0, False: 0}
    for _ in range(40):
        x, y = rng.uniform(-3.0, 3.0, (2, 5))
        if rng.random() < 0.4:
            x[rng.integers(5)] = rng.choice(special)
        batch = _batch(x=x, y=y)
        shape = (3, sk.n_params) if rng.random() < 0.5 else (sk.n_params,)
        targets = rng.uniform(-10.0, 10.0, (2, 5))
        seen[_same_as_interpreted_walk(sk, rng.uniform(-2.0, 2.0, shape), batch, targets)] += 1
    assert seen[False] > 10


@pytest.mark.parametrize("text, params, fault", [
    # faults that the outputs do not show: a huge finite quotient, and a
    # non-finite value that tanh turns finite
    ("dx/dt = p1/(p0*y - 2)\ndy/dt = y", [1.00000000000001, 1.0],
     FaultInfo(1, "division by near-zero denominator")),
    ("dx/dt = tanh(exp(p0*x))\ndy/dt = p1*y", [40.0, 1.0], FaultInfo(0, "non-finite value")),
    ("dx/dt = sqrt(p0*x) + p1*log(x - 10)\ndy/dt = y", [-1.0, 2.0],
     FaultInfo(0, "sqrt of negative argument")),
], ids=["near-zero-live-denominator", "vanishing-live-overflow", "live-fault-first"])
def test_compiled_weighted_walk_refuses_live_faults(text, params, fault):
    sk = parse(text, SymbolScope(states=("x", "y")), ["x", "y"], kind="de")
    batch = _batch(x=[20.1, 5.3, 0.0], y=[1.0, 2.0, 3.0])
    targets = np.zeros((2, 3))
    for p in (np.array(params), np.array([params, [0.5, 0.25]])):
        assert _same_as_interpreted_walk(sk, p, batch, targets)
    assert evaluate(sk, params, batch, targets=targets).domain_fault == fault


def test_compiled_weighted_walk_refuses_a_parameter_free_overflow():
    # exp(50*x) overflows at x = 20.1 whatever the parameters: the
    # parameter-free pass checks no finiteness, so the compiled walk refuses
    # the step on its outputs and the checking walk names the node
    sk = parse("dx/dt = p0*exp(50*x)", SymbolScope(states=("x",)), ["x"], kind="de")
    batch = _batch(x=[20.1, 5.3, 0.0])
    targets = np.zeros((1, 3))
    for p in (np.array([1.0]), np.array([[1.0], [0.5]])):
        assert _same_as_interpreted_walk(sk, p, batch, targets)
    assert evaluate(sk, [1.0], batch, targets=targets).domain_fault == FaultInfo(
        0, "non-finite value")


def test_compiled_weighted_walk_keeps_a_weighted_overflow_and_its_outputs():
    sk = parse("dx/dt = -(p0*x)", SymbolScope(states=("x",)), ["x"], kind="de")
    batch = _batch(x=[1.0, 1e200, 2.0])
    assert _same_as_interpreted_walk(sk, np.array([-1.0]), batch, np.array([[0.0, -1e200, 0.0]]))
    res = evaluate(sk, [-1.0], batch, targets=np.array([[0.0, -1e200, 0.0]]))
    assert res.domain_fault == FaultInfo(1, "non-finite gradient")
    assert np.array_equal(res.residual, [[1.0, 2e200, 2.0]])


# --- one parameter row: the fit walk on scalar parameters -------------------
# A one-row call hands the walks NumPy scalars instead of (1, 1) columns, so
# every node whose subtree holds parameters only is a scalar; the interpreted
# walk above keeps the columns and is the oracle of the bits.

def _parameter_only(depth):
    """Expressions of parameters and constants alone, under every operation."""
    leaf = st.one_of(st.integers(0, 3).map(Param),
                     st.sampled_from([0.5, 2.0, -1.5]).map(Const))
    if depth == 0:
        return leaf
    sub = _parameter_only(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: Bin(*t)),
        sub.map(Neg),
        st.tuples(sub, st.integers(-3, 3)).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), sub).map(lambda t: Call(*t)))


# a target: a parameter-only tree alone, or joined to a test_dsl._exprs tree
_ONE_ROW_TARGET = st.one_of(
    _parameter_only(3),
    st.tuples(st.sampled_from("+-*/"), _parameter_only(2), _TARGET).map(lambda t: Bin(*t)),
    st.tuples(st.sampled_from("+-*/"), _TARGET, _parameter_only(2)).map(lambda t: Bin(*t)))


@settings(max_examples=400, deadline=None)
@given(exprs=st.lists(_ONE_ROW_TARGET, min_size=1, max_size=3), data=st.data())
def test_one_row_walk_is_the_interpreted_walk(exprs, data):
    sk = make_skeleton("de", ["delta", "omega", "e_q"][:len(exprs)], exprs)
    n = data.draw(st.integers(1, 6), label="n")
    floats = st.floats(-3.0, 3.0, allow_nan=False)
    batch = _batch(**{name: data.draw(st.lists(floats, min_size=n, max_size=n), label=name)
                      for name in _COLUMNS})
    # parameters near the rules' edges too: zero, tiny, negative
    params = np.array(data.draw(st.lists(st.one_of(floats, st.sampled_from([0.0, 1e-13, -1.0])),
                                         min_size=sk.n_params, max_size=sk.n_params),
                                label="params"))
    targets = np.array(data.draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False),
                                          min_size=len(exprs) * n, max_size=len(exprs) * n),
                                 label="targets")).reshape(len(exprs), n)
    shape = data.draw(st.sampled_from([(sk.n_params,), (1, sk.n_params)]), label="shape")
    event("faulted" if _same_as_interpreted_walk(sk, params.reshape(shape), batch, targets)
          else "clean")


@pytest.mark.parametrize("text, clean, faults", [
    ("dx/dt = p0/p1*x", [2.0, 0.5], {(1.0, 1e-13): "division by near-zero denominator"}),
    ("dx/dt = log(p1) + p0*x", [1.0, 2.0], {(1.0, -2.0): "log of non-positive argument"}),
    ("dx/dt = sqrt(p0)*x", [2.0], {(-1.0,): "sqrt of negative argument"}),
    ("dx/dt = p0^-2*x", [2.0], {(0.0,): "negative power of near-zero base"}),
    ("dx/dt = exp(p0)*x", [1.5], {(800.0,): "non-finite value"}),
    ("dx/dt = p0", [1.5], {}),
], ids=["divisor", "log", "sqrt", "negative-power", "exp", "bare-parameter-root"])
def test_one_row_walk_on_parameter_only_nodes(text, clean, faults):
    sk = parse(text, SCOPE, ["x"], kind="de")
    batch = _batch(x=[0.5, -1.25, 3.0])
    targets = np.array([[1.0, -2.0, 0.25]])
    for params, reason in [(clean, None), *faults.items()]:
        for p in (np.array(params), np.array([params])):
            assert _same_as_interpreted_walk(sk, p, batch, targets) == (reason is not None)
        got = evaluate(sk, params, batch, targets=targets).domain_fault
        assert got == (None if reason is None else FaultInfo(0, reason))


def test_sum_squares_is_the_old_loss_sum():
    sk = parse("dx/dt = p0 + x", SCOPE, ["x"], kind="de")
    batch = _batch(x=np.linspace(-1.0, 2.0, 7))
    targets = np.sin(np.arange(7.0))[None, :]
    for p in (np.array([0.3]), np.array([[0.3]]), np.array([[0.3], [-0.7], [2.0]])):
        res = evaluate(sk, p, batch, targets=targets)
        want = _old_sum_squares(res.residual if p.ndim == 2 else res.residual[None])
        assert np.array_equal(_bits(res.sum_squares), _bits(want if p.ndim == 2 else want[0]))
    # residuals of 1e200 are finite, their squares are not: no fault, and the
    # walk's exact checks keep the non-finite sum for the fitter to refuse
    big = _batch(x=[1e200, 1.0])
    res = evaluate(sk, [0.5], big, targets=np.zeros((1, 2)))
    assert not res.faulted and res.sum_squares == np.inf
    # on the weighted-overflow fallback the checking walk's residual gives
    # the sum: the squares overflow there too, under the evaluator's errstate
    sk = parse("dx/dt = -(p0*x)", SCOPE, ["x"], kind="de")
    targets = np.array([[0.0, -1e200, 0.0]])
    for p in (np.array([-1.0]), np.array([[-1.0]]), np.array([[-1.0], [0.5]])):
        res = evaluate(sk, p, _batch(x=[1.0, 1e200, 2.0]), targets=targets)
        assert res.domain_fault == FaultInfo(1, "non-finite gradient")
        residual = res.residual if p.ndim == 2 else res.residual[None]
        want = _old_sum_squares(residual)
        assert np.array_equal(_bits(res.sum_squares), _bits(want if p.ndim == 2 else want[0]))
        assert not np.isfinite(want).any()


def test_one_shot_calls_compile_nothing_and_keep_the_fit_memo(monkeypatch):
    evaluator._compiled.cache_clear()  # walks earlier tests compiled would be hits
    batch = _batch(x=np.linspace(0.5, 2.0, 20))
    fitted = parse("dx/dt = p0*sin(x) + p1", SCOPE, ["x"], kind="de")
    other = parse("dx/dt = p0*log(x - 1)", SCOPE, ["x"], kind="de")
    targets = np.zeros((1, 20))
    evaluate(fitted, [1.0, 2.0], batch, targets=targets)
    held = evaluator._last_walked
    assert held[0] is fitted
    compiled = []

    def counting_compile(*args):
        compiled.append(args)
        return compile(*args)

    monkeypatch.setattr(evaluator, "compile", counting_compile, raising=False)
    for sk in (fitted, other):  # other faults at x <= 1 and takes the checking walk
        evaluate(sk, [1.0] * sk.n_params, batch, gradients=False)
        evaluate(sk, np.ones((2, sk.n_params)), batch)
    assert not compiled
    assert evaluator._last_walked is held
    # a residual-weighted call of a new skeleton compiles one walk per target
    two = parse("dx/dt = p0*x\ndy/dt = p1*x", SymbolScope(states=("x", "y")), ["x", "y"],
                kind="de")
    evaluate(two, [1.0, 2.0], batch, targets=np.zeros((2, 20)))
    assert len(compiled) == 2 and evaluator._last_walked[0] is two
    evaluate(two, [1.5, 2.0], batch, targets=np.zeros((2, 20)))
    assert len(compiled) == 2


def test_a_shared_target_compiles_only_the_other_target(monkeypatch):
    # the walk source of a target names slots only, so a skeleton whose first
    # target is an earlier skeleton's first target reuses that code
    evaluator._compiled.cache_clear()
    compiled = []

    def counting_compile(*args):
        compiled.append(args[0])
        return compile(*args)

    monkeypatch.setattr(evaluator, "compile", counting_compile, raising=False)
    scope = SymbolScope(states=("x", "y"))
    batch = _batch(x=np.linspace(0.5, 2.0, 20), y=np.linspace(-1.0, 1.0, 20))
    targets = np.zeros((2, 20))
    first = parse("dx/dt = p0*sin(x) + p1\ndy/dt = p2*y", scope, ["x", "y"], kind="de")
    second = parse("dx/dt = p0*sin(y) + p1\ndy/dt = p2*x*y", scope, ["x", "y"], kind="de")
    evaluate(first, [1.0, 2.0, 3.0], batch, targets=targets)
    assert len(compiled) == 2
    want = evaluate(second, [1.0, 2.0, 3.0], batch, targets=targets)
    assert len(compiled) == 3
    assert compiled[2] == _weighted_source(_tape(second)[1][1])[0]
    info = evaluator._compiled.cache_info()
    assert (info.hits, info.misses) == (1, 3)
    # the shared code runs in the second skeleton's own namespace
    evaluate(first, [1.0, 2.0, 3.0], batch, targets=targets)
    got = evaluate(second, [1.0, 2.0, 3.0], batch, targets=targets)
    assert len(compiled) == 3
    assert np.array_equal(_bits(got.outputs), _bits(want.outputs))
    assert np.array_equal(_bits(got.gradients), _bits(want.gradients))
    assert not np.array_equal(got.outputs[0], evaluate(first, [1.0, 2.0, 3.0], batch,
                                                       targets=targets).outputs[0])


def test_the_compile_cache_keeps_no_skeleton_alive():
    # the cache holds code, and code holds no bound object: a dropped
    # skeleton and its walks go at once, without the cyclic collector
    batch = _batch(x=np.linspace(0.5, 2.0, 20))
    sk = parse("dx/dt = p0*log(x + 1.25) + p1*1.5", SCOPE, ["x"], kind="de")
    evaluate(sk, [1.0, 2.0], batch, targets=np.zeros((1, 20)))
    source = _weighted_source(_tape(sk)[1][0])[0]
    refs = [weakref.ref(obj) for obj in (sk, *evaluator._last_walked[1])]
    enabled = gc.isenabled()
    gc.disable()
    try:
        evaluate(parse("dx/dt = p0*x", SCOPE, ["x"], kind="de"), [1.0], batch,
                 targets=np.zeros((1, 20)))
        del sk
        assert all(ref() is None for ref in refs)
        hits = evaluator._compiled.cache_info().hits
        evaluator._compiled(source)  # the code is still cached
        assert evaluator._compiled.cache_info().hits == hits + 1
    finally:
        if enabled:
            gc.enable()


def test_fit_memo_under_threads():
    # threads fitting different skeletons on different batches share the
    # one-entry memo; each must still get its own pair's bits
    rng = np.random.default_rng(4)
    jobs = []
    for text in ("p0*sin(x) + p1*exp(x - 1)", "p0*cos(x)^2 - p1", "(x - 1)*p0 + log(x)*p1",
                 "p1/(x + 2) + p0*tanh(x)"):
        sk = parse(f"dx/dt = {text}", SCOPE, ["x"], kind="de")
        batch = _batch(x=rng.uniform(0.5, 2.0, 40))
        rows = rng.uniform(-1.0, 1.0, (2, sk.n_params))
        targets = rng.uniform(-1.0, 1.0, (1, 40))
        jobs.append((sk, batch, rows, targets, evaluate(sk, rows, batch, targets=targets)))
    mismatches = []

    def work(first):
        for n in range(200):
            sk, batch, rows, targets, want = jobs[(first + n) % len(jobs)]
            try:
                got = evaluate(sk, rows, batch, targets=targets)
            except Exception as exc:  # another pair's walks or values: wrong shapes
                mismatches.append(exc)
                return
            if not (np.array_equal(got.outputs, want.outputs)
                    and np.array_equal(got.gradients, want.gradients)):
                mismatches.append(sk)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i % len(jobs),)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not mismatches


def test_a_replaced_fit_memo_frees_its_walks_without_the_collector():
    # a search fits one candidate after another; each one's compiled walks
    # must go with its memo entry, not wait for the cyclic collector
    batch = _batch(x=np.linspace(0.5, 2.0, 20))
    first = parse("dx/dt = p0*sin(x) + p1", SCOPE, ["x"], kind="de")
    evaluate(first, [1.0, 2.0], batch, targets=np.zeros((1, 20)))
    walk = weakref.ref(evaluator._last_walked[1][0])
    enabled = gc.isenabled()
    gc.disable()
    try:
        second = parse("dx/dt = p0*x", SCOPE, ["x"], kind="de")
        evaluate(second, [1.0], batch, targets=np.zeros((1, 20)))
        assert walk() is None
    finally:
        if enabled:
            gc.enable()


def test_weighted_source_names_nothing_of_the_skeleton():
    # every name is fixed, so compiling the walks of candidate after candidate
    # interns no new strings; slots, parameters and bound objects are indices
    text = ("dtheta_gen/dt = p0*log(omega_s - 1.2345678) + 6.02e23/sqrt(p1*theta_gen)\n"
            "domega_s/dt = -tanh(-0.0 + p2*theta_gen)^3 - 5e-324*p0 + abs(omega_s)")
    sk = parse(text, SymbolScope(states=("theta_gen", "omega_s")),
               ["theta_gen", "omega_s"], kind="de")
    fixed = {"def", "walk", "V", "P", "Y", "O", "E", "G", "T", "B", "None", "if", "return",
             "True", "False", "any", "out", "axis", "add_reduce", "negative", "add", "subtract",
             "multiply", "divide", "asarray", "sign", "DIV_GUARD", "ZERO", "HALF", "ONE",
             *FUNCTIONS}
    for prog in _tape(sk)[1]:
        source, namespace = _weighted_source(prog)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert tok.string in fixed, tok.string
            elif tok.type == tokenize.NUMBER:
                assert re.fullmatch(r"\d+", tok.string), tok.string
        assert set(namespace) <= fixed
