import numpy as np
import pytest

from daedisc.dsl import FUNCTIONS, MAX_EXPONENT, SymbolScope, parse
from daedisc.evaluator import (
    DomainFault,
    FaultInfo,
    MissingColumn,
    SampleBatch,
    evaluate,
    gradient_check,
)

SCOPE = SymbolScope(states=("x", "delta", "omega"))


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


# --- property: the one-sample walk on floats is the array walk -------------

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
    for _ in range(600):
        text = f"dx/dt = {_any_expr(rng, 4, 3)}\ndy/dt = {_any_expr(rng, 3, 3)}"
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
            assert one.faulted == rows.faulted, text
            assert one.domain_fault == rows.domain_fault, text
            seen[one.faulted] += 1
            if not one.faulted:
                assert one.outputs.shape == (2, 1)
                assert np.array_equal(one.outputs.view(np.int64),
                                      rows.outputs[0].view(np.int64)), (text, x, y, params)
    assert seen[True] > 200 and seen[False] > 600
