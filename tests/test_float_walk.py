"""The nested float walk against the checking walk, on random skeletons.

``sample_walk`` inlines each value into its parent's expression and binds a
local only for a tested operand, a target's root and every ``INLINE_DEPTH``
levels.  On any skeleton and sample it must give the checking walk's bits
(``evaluate`` on the sample as one parameter row), and fault on exactly the
samples on which the checking walk faults.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from daedisc.dsl import (FUNCTIONS, MAX_DEPTH, MAX_EXPONENT, Bin, Call, Const, Neg, Param, Pow,
                         Var, _depth, make_skeleton, term_sum)
from daedisc.evaluator import SampleBatch, evaluate, sample_walk

NAMES = ("x", "y")
N_PARAMS = 3
# ordinary values, and values at which the domain rules or overflow fault
VALUES = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(
    [0.0, -0.0, 1e-13, -1e-13, 2.0, -2.0, 1000.0, -1000.0, 1e300, -1e300, 0.5, 1.0]))
LEAVES = st.one_of(st.sampled_from(NAMES).map(Var),
                   st.integers(0, N_PARAMS - 1).map(Param),
                   VALUES.map(Const))


def _wrap(child, draw):
    """``child`` under one random operation; a binary one takes a fresh leaf
    or small subtree on a random side."""
    form = draw(st.integers(0, 3))
    if form == 0:
        other = draw(st.one_of(LEAVES, SMALL))
        op = draw(st.sampled_from("+-*/"))
        return Bin(op, child, other) if draw(st.booleans()) else Bin(op, other, child)
    if form == 1:
        return Neg(child)
    if form == 2:
        return Pow(child, draw(st.integers(-MAX_EXPONENT, MAX_EXPONENT)))
    return Call(draw(st.sampled_from(FUNCTIONS)), child)


SMALL = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: Bin(*t)),
        children.map(Neg),
        st.tuples(children, st.integers(-MAX_EXPONENT, MAX_EXPONENT)).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda t: Call(*t))),
    max_leaves=24)


def _tame(child, draw):
    """``child`` under one operation that keeps a finite value finite, so a
    long chain of them rarely faults."""
    form = draw(st.integers(0, 2))
    if form == 0:
        return Call(draw(st.sampled_from(("sin", "cos", "tanh", "abs"))), child)
    if form == 1:
        return Neg(child)
    return Bin(draw(st.sampled_from("+-*")), child, Const(draw(st.floats(-1.0, 1.0))))


@st.composite
def spines(draw):
    """A tree as deep as ``MAX_DEPTH``, past the walk's ``INLINE_DEPTH`` of
    50: a small subtree under a long chain of random operations, or of tame
    ones."""
    wrap = _tame if draw(st.booleans()) else _wrap
    node = draw(SMALL)
    for _ in range(draw(st.integers(MAX_DEPTH // 2 - 2, MAX_DEPTH - 1))):
        wrapped = wrap(node, draw)
        if _depth(wrapped) > MAX_DEPTH:
            break
        node = wrapped
    return node


def _check(trees, xy, params):
    sk = make_skeleton("de", NAMES[:len(trees)], trees)
    p = np.array(params[:sk.n_params], dtype=np.float64)
    batch = SampleBatch.from_columns({"x": [xy[0]], "y": [xy[1]]})
    variables, walk = sample_walk(sk)
    with np.errstate(all="ignore"):
        one = walk([float(batch.column(name)[0]) for name in variables], p.tolist())
    rows = evaluate(sk, p[None, :], batch, gradients=False)
    assert (one is None) == rows.faulted
    if one is not None:
        assert all(type(v) is float for v in one)
        assert np.array_equal(np.array(one)[:, None].view(np.int64),
                              rows.outputs[0].view(np.int64))


@settings(max_examples=400, deadline=None)
@given(st.lists(SMALL, min_size=1, max_size=2), st.tuples(VALUES, VALUES),
       st.lists(VALUES, min_size=N_PARAMS, max_size=N_PARAMS))
def test_float_walk_is_the_checking_walk(trees, xy, params):
    _check(trees, xy, params)


@settings(max_examples=60, deadline=None)
@given(spines(), SMALL, st.tuples(VALUES, VALUES),
       st.lists(VALUES, min_size=N_PARAMS, max_size=N_PARAMS))
def test_float_walk_of_deep_skeletons_is_the_checking_walk(deep, other, xy, params):
    _check([deep, other], xy, params)


@settings(max_examples=20, deadline=None)
@given(st.integers(250, 400), st.tuples(VALUES, VALUES),
       st.lists(VALUES, min_size=N_PARAMS, max_size=N_PARAMS))
def test_float_walk_of_a_long_sum_is_the_checking_walk(terms, xy, params):
    # make_skeleton takes trees deeper than a parsed one, such as a sparse
    # model's sum of hundreds of terms, nested deeper than the 200
    # parentheses CPython's parser takes: the walk still compiles, cut into
    # locals, and gives the checking walk's bits
    products = [(), ("x",), ("y",), ("x", "y"), ("y", "y", "x")]
    tree = term_sum([products[k % len(products)] for k in range(terms)])
    assert _depth(tree) > terms
    _check([tree], xy, params * terms)  # one slot per term
