"""``dsl.parse`` and ``dsl.make_skeleton`` against the reference parser.

On any text the one-pass parser must give the reference's skeleton (trees,
slot count, targets and kind), or raise its error: the same class, message,
line and column.  Texts come from two sources: well-formed expressions with
random spacing, non-contiguous slots, negated literals and depths up to and
past the limit, and random runs of tokens and stray characters, most of them
rejected somewhere.
"""

import dsl_reference as reference
import pytest
from hypothesis import given, settings, strategies as st

from daedisc.dsl import (FUNCTIONS, MAX_DEPTH, Bin, Call, Const, Neg, Param, Pow, SymbolScope,
                         Var, make_skeleton, parse)

SCOPE = SymbolScope(states=("x", "y"), variables=("P_e",))
TARGETS = ["x", "y"]
NAMES = ("x", "y", "P_e")

SPACE = st.sampled_from(["", "", " ", "  ", "\t", " ", " "])
NUMBER = st.sampled_from(["0", "2", "1.5", ".5", "2.", "1e3", "3E-2", "007", "0.0",
                          "12.25e+1", "1e999", "٣"])
PARAM = st.integers(0, 40).map(lambda k: f"p{k}")


def _outcome(fn, text, kind="de", targets=TARGETS):
    """("ok", skeleton) or ("error", class, str, message, line, column, name)."""
    try:
        return ("ok", fn(text, SCOPE, targets, kind=kind))
    except Exception as exc:  # every error must match, not only ParseError
        return ("error", type(exc), str(exc), getattr(exc, "message", None),
                getattr(exc, "line", None), getattr(exc, "column", None),
                getattr(exc, "name", None))


def _same(text, kind="de", targets=TARGETS):
    got = _outcome(parse, text, kind, targets)
    want = _outcome(reference.parse, text, kind, targets)
    assert got == want, text
    if got[0] == "ok":
        assert got[1].n_params == want[1].n_params
    return got


@st.composite
def expressions(draw, depth=4):
    """A well-formed right-hand side with random spacing and parentheses."""
    s = draw(SPACE)
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        leaf = draw(st.one_of(st.sampled_from(NAMES), PARAM, NUMBER.filter(
            lambda n: n not in ("1e999", "٣"))))
        return s + leaf + s
    form = draw(st.integers(0, 6))
    inner = draw(expressions(depth=depth - 1))
    if form == 0:
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        return f"{inner}{s}{op}{s}{draw(expressions(depth=depth - 1))}"
    if form == 1:
        return f"-{s}{inner}"
    if form == 2:
        return f"-{s}{draw(NUMBER.filter(lambda n: n != '1e999'))}"
    if form == 3:
        e = draw(st.integers(-4, 4))
        exponent = draw(st.sampled_from([str(e), f"({e})"])) if e >= 0 else f"({e})"
        return f"({inner}){s}^{s}{exponent}"
    if form == 4:
        return f"{draw(st.sampled_from(FUNCTIONS))}({inner})"
    return f"({inner})"


@settings(max_examples=400, deadline=None)
@given(expressions(), expressions(), st.booleans())
def test_well_formed_texts_give_the_reference_skeleton(dx, dy, swap):
    lines = [f"dx/dt ={dx}", f" dy / dt= {dy} "]
    _same("\n".join(reversed(lines) if swap else lines))


@settings(max_examples=200, deadline=None)
@given(expressions(), st.sampled_from(["", "\n", "\n\n  \n"]))
def test_algebraic_texts_give_the_reference_skeleton(rhs, gap):
    _same(f"{gap}P_e = {rhs}{gap}", kind="ae", targets=["P_e"])


FRAGMENTS = st.one_of(
    st.sampled_from(["x", "y", "P_e", "zz", "dt", "dx", "dy", "d", "p", "p0a", "sin", "foo",
                     "+", "-", "*", "/", "^", "(", ")", "=", ",", " ", "  ", "\t", "\n",
                     "$", "?", ".", "e", "²", " ", "sin(", "exp(", "foo(",
                     "dx/dt =", "dy/dt =", "dx/dt = ", "x = ", "dP_e/dt ="]),
    NUMBER, PARAM)


@settings(max_examples=600, deadline=None)
@given(st.lists(FRAGMENTS, max_size=24), st.sampled_from(["", "dx/dt = ", "dy/dt = "]),
       st.sampled_from(["de", "ae"]))
def test_random_token_runs_fail_or_pass_as_the_reference(fragments, head, kind):
    _same(head + "".join(fragments), kind=kind)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["sin(", "(", "-", "-(", "+(", "p1*(", "exp(-"]),
       st.integers(MAX_DEPTH - 3, MAX_DEPTH + 2),
       st.sampled_from(["x", "2", "p7", "-3", "x^2", "x + y", "", ")"]),
       st.sampled_from(["", "+1", " $", ")", " p2"]))
def test_nesting_at_the_depth_limit(opener, n, core, tail):
    closer = {"sin(": ")", "(": ")", "-": "", "-(": ")", "+(": ")", "p1*(": ")",
              "exp(-": ")"}[opener]
    _same(f"dx/dt = {opener * n}{core}{closer * n}{tail}\ndy/dt = p0")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([" + ", "*", " - ", "^1", "/"]), st.integers(MAX_DEPTH - 3, MAX_DEPTH + 2),
       st.sampled_from(["x", "-2", "p3", "(y)", "sin(x)"]), st.sampled_from(["", " )", "@"]))
def test_chains_at_the_depth_limit(op, n, term, tail):
    body = (term + "^1" * n) if op == "^1" else op.join([term] * n)
    _same(f"dx/dt = {body}{tail}\ndy/dt = -p9")


def test_exponent_and_call_edge_cases():
    for rhs in ("x^(-2)", "x^-2", "x^(2", "x^2.0", "x^2.5", "x^", "x^(", "x^p0", "x^1e1",
                "sin()", "sin(x,", "sin(x, y)", "sin x", "cos(x)(y)", "-", "--2", "-(-2)",
                "(-2)^2", "-(2)^2", "p3 - -1.5*p1", "p00 + p0", "x y", "1.2.3"):
        _same(f"dx/dt = {rhs}\ndy/dt = p5")
    for text in ("", "dx/dt = 1", "dx/dt = 1\ndx/dt = 2\ndy/dt = 3", "dz/dt = 1",
                 "x = 1\ny = 2", "d/dt = 1", "dx/dx = 1", "dx = 1", "= 1", "1 = x",
                 "dx/dt 1", "dx/dt = 1 dy/dt = 2"):
        _same(text)


def _tree(draw, depth):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.one_of(st.sampled_from(NAMES).map(Var),
                              st.integers(0, 9).map(Param),
                              st.sampled_from([0.0, -0.0, 1.5, 2.0, -3.0]).map(Const)))
    form = draw(st.integers(0, 3))
    child = _tree(draw, depth - 1)
    if form == 0:
        return Bin(draw(st.sampled_from("+-*/")), child, _tree(draw, depth - 1))
    if form == 1:
        return Neg(child)
    if form == 2:
        return Pow(child, draw(st.integers(-4, 4)))
    return Call(draw(st.sampled_from(FUNCTIONS)), child)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_make_skeleton_gives_the_reference_skeleton(data):
    trees = [_tree(data.draw, 5) for _ in range(2)]
    assert make_skeleton("de", TARGETS, trees) == reference.make_skeleton("de", TARGETS, trees)


@pytest.mark.parametrize("kind", ["DE", "", None])
def test_an_unknown_kind_fails_as_the_reference(kind):
    _same("dx/dt = 1\ndy/dt = 2", kind=kind)
