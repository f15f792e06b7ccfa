import pytest
from hypothesis import given, settings, strategies as st

from daedisc.archive import make_linear_seed
from daedisc.benchmarks import get_model
from daedisc.dsl import (
    MAX_DEPTH,
    ArityError,
    Bin,
    Call,
    Const,
    DslSyntaxError,
    DuplicateTarget,
    MissingTarget,
    Neg,
    ParseError,
    Param,
    Pow,
    SymbolScope,
    UnknownIdentifier,
    Var,
    code_length,
    make_skeleton,
    parse,
    serialize,
    variables_in,
)

SCOPE = SymbolScope(states=("delta", "omega"))


def test_minimal_line_parses():
    sk = parse("ddelta/dt = p0*(omega - 1)", SCOPE, ["delta"], kind="de")
    assert sk.target_names == ("delta",)
    assert sk.n_params == 1
    assert sk.kind == "de"


def test_out_of_scope_identifier_rejected():
    with pytest.raises(UnknownIdentifier) as err:
        parse("ddelta/dt = p0*sin(theta_x)", SCOPE, ["delta"], kind="de")
    assert err.value.name == "theta_x"


def test_swing_line_matches_reference_tree():
    sk = parse("domega/dt = (p0 - p1*sin(delta) - p2*(omega-1))/p3",
               SCOPE, ["omega"], kind="de")
    assert sk.n_params == 4
    ref = Bin(
        "/",
        Bin("-",
            Bin("-", Param(0), Bin("*", Param(1), Call("sin", Var("delta")))),
            Bin("*", Param(2), Bin("-", Var("omega"), Const(1.0)))),
        Param(3),
    )
    assert sk.expressions[0] == ref
    # serializer and reference agree token for token
    assert serialize(sk) == "domega/dt = (p0 - p1*sin(delta) - p2*(omega - 1))/p3"


def test_param_slots_reindexed_contiguously():
    sk = parse("ddelta/dt = p0*delta + p2", SCOPE, ["delta"], kind="de")
    assert sk.n_params == 2
    assert serialize(sk) == "ddelta/dt = p0*delta + p1"


@pytest.mark.parametrize("text,errcls", [
    ("ddelta/dt = p0*", DslSyntaxError),
    ("ddelta/dt = sin(delta, omega)", ArityError),
    ("ddelta/dt = sin()", ArityError),
    ("ddelta/dt = delta ^ p0", DslSyntaxError),
    ("ddelta/dt = delta ^ 5", DslSyntaxError),
    ("ddelta/dt = delta ^ 2.5", DslSyntaxError),
    ("ddelta/dt = delta ? omega", DslSyntaxError),
    ("delta = p0", DslSyntaxError),           # AE form in a DE parse
    ("ddelta/dt = foo(delta)", UnknownIdentifier),
    ("ddelta/dt = 1e999", DslSyntaxError),
])
def test_rejections(text, errcls):
    with pytest.raises(errcls):
        parse(text, SCOPE, ["delta"], kind="de")


@pytest.mark.parametrize("rhs", [
    "(" * 400 + "delta" + ")" * 400,
    "-" * 1000 + "delta",
    " + ".join(["delta"] * 1000),
    "sin(" * 150 + "delta" + ")" * 150,
    "delta" + "^2" * 200,
], ids=["parentheses", "unary-minus", "sum", "calls", "powers"])
def test_deep_expressions_rejected(rhs):
    # past the limit the recursive parser and tree walks would exhaust the stack
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels") as err:
        parse(f"ddelta/dt = {rhs}", SCOPE, ["delta"], kind="de")
    assert err.value.line == 1


def test_depth_limit_is_inclusive():
    inner = MAX_DEPTH - 1  # the right-hand side itself is the first level
    parse("ddelta/dt = " + "sin(" * inner + "delta" + ")" * inner, SCOPE, ["delta"])
    parse("ddelta/dt = " + " + ".join(["delta"] * MAX_DEPTH), SCOPE, ["delta"])
    with pytest.raises(DslSyntaxError):
        parse("ddelta/dt = " + "sin(" * MAX_DEPTH + "delta" + ")" * MAX_DEPTH,
              SCOPE, ["delta"])
    with pytest.raises(DslSyntaxError):
        parse("ddelta/dt = " + " + ".join(["delta"] * (MAX_DEPTH + 1)), SCOPE, ["delta"])


def test_full_catalog_linear_seed_roundtrips():
    model = get_model("type1order5")
    scope = SymbolScope(states=model.state_names,
                        variables=tuple(e.name for e in model.catalog))
    assert len(scope.symbols) == 12
    seed = make_linear_seed(scope, model.state_names, "de")
    again = parse(serialize(seed), scope, model.state_names, kind="de")
    assert again.expressions == seed.expressions


def test_missing_and_duplicate_targets():
    with pytest.raises(MissingTarget):
        parse("ddelta/dt = p0", SCOPE, ["delta", "omega"], kind="de")
    with pytest.raises(DuplicateTarget):
        parse("ddelta/dt = p0\nddelta/dt = p1", SCOPE, ["delta"], kind="de")
    with pytest.raises(UnknownIdentifier):
        parse("dgamma/dt = p0", SCOPE, ["delta"], kind="de")


def test_ae_form():
    scope = SymbolScope(states=("delta",), variables=("i_q", "P_e"))
    sk = parse("P_e = p0*i_q", scope, ["P_e"], kind="ae")
    assert sk.kind == "ae"
    assert serialize(sk) == "P_e = p0*i_q"
    assert variables_in(sk) == {"i_q"}


def test_exponent_forms():
    for text in ["delta^2", "delta^-2", "delta^(2)", "delta^(-2)"]:
        sk = parse(f"ddelta/dt = {text}", SCOPE, ["delta"], kind="de")
        assert isinstance(sk.expressions[0], Pow)


def test_code_length_of_canonical_line():
    sk = parse("ddelta/dt = p0*(omega - 1)", SCOPE, ["delta"], kind="de")
    canonical = serialize(sk)
    assert canonical == "ddelta/dt = p0*(omega - 1)"
    assert code_length(sk) == len(canonical) == 26


def test_code_length_whitespace_invariant():
    a = parse("ddelta/dt=p0*(omega-1)", SCOPE, ["delta"], kind="de")
    b = parse("ddelta/dt   =   p0 * ( omega - 1 )", SCOPE, ["delta"], kind="de")
    assert code_length(a) == code_length(b)
    assert serialize(a) == serialize(b)


def test_code_length_monotone_under_extension():
    a = parse("ddelta/dt = p0*(omega - 1)", SCOPE, ["delta"], kind="de")
    b = parse("ddelta/dt = p0*(omega - 1) + p1*delta", SCOPE, ["delta"], kind="de")
    assert code_length(b) > code_length(a)


def test_canonical_spacing():
    sk = parse("ddelta/dt = p0 * ( omega-1 )", SCOPE, ["delta"], kind="de")
    assert serialize(sk) == "ddelta/dt = p0*(omega - 1)"


def test_nested_call_roundtrip():
    sk = parse("ddelta/dt = sin(sin(delta))", SCOPE, ["delta"], kind="de")
    again = parse(serialize(sk), SCOPE, ["delta"], kind="de")
    assert again.expressions == sk.expressions


def test_multiline_roundtrip_and_order_canonicalization():
    text = "domega/dt = p0*delta\nddelta/dt = p1*omega"
    sk = parse(text, SCOPE, ["delta", "omega"], kind="de")
    # expressions stored in requested target order regardless of source order;
    # slot indices keep their original ascending order
    assert serialize(sk) == "ddelta/dt = p1*omega\ndomega/dt = p0*delta"
    again = parse(serialize(sk), SCOPE, ["delta", "omega"], kind="de")
    assert again.expressions == sk.expressions


# --- random AST round-trip property ---------------------------------------

_NAMES = ("delta", "omega", "e_q", "i_d")
_FUNCS = ("sin", "cos", "tan", "exp", "log", "sqrt", "tanh", "abs")


def _exprs(depth):
    leaf = st.one_of(
        st.floats(min_value=-50, max_value=50, allow_nan=False).map(
            lambda v: Const(round(v, 3))),
        st.integers(min_value=0, max_value=6).map(Param),
        st.sampled_from(_NAMES).map(Var),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: Bin(*t)),
        sub.map(Neg),
        st.tuples(sub, st.integers(min_value=-4, max_value=4)).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(_FUNCS), sub).map(lambda t: Call(*t)),
    )


@settings(max_examples=300, deadline=None)
@given(expr=_exprs(4))
def test_roundtrip_random_asts(expr):
    scope = SymbolScope(states=_NAMES)
    sk = make_skeleton("de", ["delta"], [expr])
    text = serialize(sk)
    again = parse(text, scope, ["delta"], kind="de")
    assert again.expressions == sk.expressions
    assert again.n_params == sk.n_params
    # canonical determinism: serializing the reparse is byte-identical
    assert serialize(again) == text


@settings(max_examples=200, deadline=None)
@given(expr=_exprs(3))
def test_serialize_pure(expr):
    sk = make_skeleton("de", ["delta"], [expr])
    assert serialize(sk) == serialize(sk)
