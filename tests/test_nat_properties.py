"""Property-based tests for nat normalisation (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.descend.nat import NatBinOp, NatConst, NatVar, nat_equal, normalize

_VAR_NAMES = ("n", "m", "k")


def nat_exprs(max_depth: int = 3):
    """Strategy producing nat expressions over +, * and small constants/variables."""
    base = st.one_of(
        st.integers(min_value=0, max_value=6).map(NatConst),
        st.sampled_from(_VAR_NAMES).map(NatVar),
    )

    def extend(children):
        return st.builds(
            NatBinOp,
            st.sampled_from(["+", "*"]),
            children,
            children,
        )

    return st.recursive(base, extend, max_leaves=8)


ENVIRONMENTS = st.fixed_dictionaries({name: st.integers(min_value=0, max_value=7) for name in _VAR_NAMES})


@given(expr=nat_exprs(), env=ENVIRONMENTS)
@settings(max_examples=200, deadline=None)
def test_normalization_preserves_value(expr, env):
    """Normalisation never changes the value of a (+, *) nat expression."""
    assert normalize(expr).evaluate(env) == expr.evaluate(env)


@given(expr=nat_exprs())
@settings(max_examples=200, deadline=None)
def test_equality_is_reflexive_after_normalization(expr):
    assert nat_equal(expr, normalize(expr))


@given(a=nat_exprs(), b=nat_exprs(), env=ENVIRONMENTS)
@settings(max_examples=200, deadline=None)
def test_equal_nats_evaluate_equal(a, b, env):
    """nat_equal is sound: if it says equal, evaluation agrees under any binding."""
    if nat_equal(a, b):
        assert a.evaluate(env) == b.evaluate(env)


@given(a=nat_exprs(), b=nat_exprs())
@settings(max_examples=200, deadline=None)
def test_addition_is_commutative_under_nat_equal(a, b):
    assert nat_equal(NatBinOp("+", a, b), NatBinOp("+", b, a))


@given(a=nat_exprs(), b=nat_exprs(), c=nat_exprs())
@settings(max_examples=100, deadline=None)
def test_multiplication_distributes_over_addition(a, b, c):
    lhs = NatBinOp("*", a, NatBinOp("+", b, c))
    rhs = NatBinOp("+", NatBinOp("*", a, b), NatBinOp("*", a, c))
    assert nat_equal(lhs, rhs)
