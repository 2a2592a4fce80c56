"""Parser, evaluator, differentiator.

Expected values: 2^3^2 = 512 checked by hand (right-associativity);
derivatives checked against a central finite-difference oracle computed
here from eval() alone.
"""

import contextlib
import math
import pickle
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillint.expr import (
    MAX_DEPTH,
    Add,
    Call,
    Constant,
    DifferentiationError,
    Div,
    DomainError,
    LexError,
    Mul,
    Negate,
    ParseError,
    Pow,
    Sub,
    TimeVar,
    compile_scalar,
    contains_t,
    differentiate,
    eval_expr,
    parse_text,
    print_expr,
    sample,
    tokenize,
)
from oscillint.numerics import _FIELD_ERRORS


def fd_derivative(e, t, h=1e-5):
    # independent oracle: central difference of eval itself
    return (eval_expr(e, t + h) - eval_expr(e, t - h)) / (2 * h)


class TestTokenize:
    def test_function_call(self):
        kinds = [tok.kind for tok in tokenize("sin(t)")]
        assert kinds == ["identifier", "lparen", "time-variable", "rparen"]

    def test_arithmetic(self):
        kinds = [tok.kind for tok in tokenize("2*t^2 - 1")]
        assert kinds == ["number", "star", "time-variable", "caret", "number", "minus", "number"]

    def test_bad_character_position(self):
        with pytest.raises(LexError) as err:
            tokenize("3 $ t")
        assert err.value.position == 2

    def test_unknown_identifier(self):
        with pytest.raises(LexError):
            tokenize("x + 1")

    def test_positions_increase(self):
        toks = tokenize("sin(t) + 2.5e-1 * cosh(t)")
        positions = [tok.position for tok in toks]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)

    def test_lexemes_reproduce_source(self):
        src = "sin(t)+2.5e-1*cosh(t)-t/4"
        assert "".join(tok.lexeme for tok in tokenize(src)) == src


class TestParse:
    def test_precedence_mul_over_add(self):
        assert parse_text("2+3*t") == Add(Constant(2.0), Mul(Constant(3.0), TimeVar()))

    def test_unary_binds_looser_than_caret(self):
        assert parse_text("-t^2") == Negate(Pow(TimeVar(), Constant(2.0)))

    def test_caret_right_associative(self):
        # 2^(3^2) = 512, not (2^3)^2 = 64
        assert eval_expr(parse_text("2^3^2"), 0.0) == 512.0

    def test_negative_exponent(self):
        assert parse_text("t^-2") == Pow(TimeVar(), Negate(Constant(2.0)))

    def test_left_associative_sub(self):
        assert parse_text("1 - 2 - 3") == Sub(Sub(Constant(1.0), Constant(2.0)), Constant(3.0))

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_text("sin(t")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_text("1 + 2 )")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_text("")

    def test_no_constant_folding(self):
        assert parse_text("1 + 1") == Add(Constant(1.0), Constant(1.0))


@contextlib.contextmanager
def frames_above_here(extra: int):
    """Lower the recursion limit to this stack's depth plus extra frames."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + extra)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class TestDepthBound:
    """A tree deeper than MAX_DEPTH levels, or text that nests the parser
    deeper, is refused at parse time; every walker takes one frame per
    level of what is accepted."""

    @staticmethod
    def sum_of(terms: int) -> str:
        return " + ".join(["1"] + ["t"] * (terms - 1))

    def test_deepest_tree_goes_through_every_walker(self):
        text = self.sum_of(MAX_DEPTH)  # MAX_DEPTH - 1 additions above a leaf
        with frames_above_here(MAX_DEPTH + 25):
            e = parse_text(text)
            assert print_expr(e) == text
            assert eval_expr(e, 0.5) == 1.0 + 0.5 * (MAX_DEPTH - 1)
            assert compile_scalar(e)(0.5) == eval_expr(e, 0.5)
            np.testing.assert_array_equal(sample(e, np.array([0.5, 2.0])),
                                          [eval_expr(e, 0.5), eval_expr(e, 2.0)])
            assert contains_t(e)
            assert eval_expr(differentiate(e), 0.3) == MAX_DEPTH - 1

    def test_one_level_more_is_refused(self):
        text = self.sum_of(MAX_DEPTH + 1)
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels") as info:
            parse_text(text)
        assert info.value.position == text.rindex("+")

    def test_nesting_is_bounded_by_the_parser_frames(self):
        # a function call opens five parser frames
        calls = (MAX_DEPTH - 10) // 5
        with frames_above_here(MAX_DEPTH + 25):
            e = parse_text("sin(" * calls + "t" + ")" * calls)
            assert eval_expr(e, 0.0) == 0.0
        with pytest.raises(ParseError, match="nests deeper"):
            parse_text("sin(" * (calls + 5) + "t" + ")" * (calls + 5))
        with pytest.raises(ParseError, match="nests deeper"):
            parse_text("(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH)
        with pytest.raises(ParseError, match="nests deeper"):
            parse_text("-" * MAX_DEPTH + "t")

    @pytest.mark.parametrize("shape", ["long_sum", "nested_calls"])
    def test_equality_hash_and_repr_take_no_frame_per_level(self, shape):
        if shape == "long_sum":
            def make(first):
                return parse_text(" + ".join([first] + ["t"] * (MAX_DEPTH - 1)))
            expected = ("Add(left=" * (MAX_DEPTH - 1) + "Constant(value=1.0)"
                        + ", right=TimeVar())" * (MAX_DEPTH - 1))
        else:
            def make(first):
                e = Constant(float(first))
                for _ in range(80):
                    e = Call("sin", e)
                return e
            expected = "Call(name='sin', arg=" * 80 + "Constant(value=1.0)" + ")" * 80
        a, b, other = make("1"), make("1"), make("2")  # other differs in its deepest leaf
        with frames_above_here(25):
            assert a == b and a is not b
            assert a != other
            assert hash(a) == hash(b)
            assert len({a, b, other}) == 2
            assert repr(a) == expected


class TestEval:
    def test_poly(self):
        assert eval_expr(parse_text("t^2+1"), 2.0) == 5.0

    def test_sin(self):
        assert eval_expr(parse_text("sin(t)"), 0.0) == 0.0

    def test_log_negative_is_domain_error(self):
        with pytest.raises(DomainError):
            eval_expr(parse_text("log(t)"), -1.0)

    def test_sqrt_negative_is_domain_error(self):
        with pytest.raises(DomainError):
            eval_expr(parse_text("sqrt(t)"), -4.0)

    def test_division_by_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            eval_expr(parse_text("1/t"), 0.0)

    @pytest.mark.parametrize("text, t, node", [
        ("100^100 * 100^100", 0.0, "100 ^ 100 * 100 ^ 100"),
        ("1e308 + 1e308 * t", 1.0, "1e+308 + 1e+308 * t"),
        ("-1e308 - 1e308", 0.0, "-1e+308 - 1e+308"),
        ("1e300 / t", 1e-300, "1e+300 / t"),
    ])
    def test_arithmetic_overflow_is_domain_error(self, text, t, node):
        with pytest.raises(DomainError) as err:
            eval_expr(parse_text(text), t)
        assert str(err.value) == f"overflow at t={t!r} in '{node}'"

    def test_domain_error_carries_time(self):
        with pytest.raises(DomainError) as err:
            eval_expr(parse_text("log(t)"), -2.0)
        assert err.value.t == -2.0

    def test_all_functions(self):
        for name, ref in [
            ("sin", math.sin), ("cos", math.cos), ("tan", math.tan),
            ("exp", math.exp), ("log", math.log), ("sqrt", math.sqrt),
            ("abs", abs), ("sinh", math.sinh), ("cosh", math.cosh),
        ]:
            e = parse_text(f"{name}(t)")
            assert eval_expr(e, 0.7) == pytest.approx(ref(0.7), rel=1e-15)

    def test_sample_matches_pointwise_eval(self):
        e = parse_text("sin(2*t) * exp(-t/4) + t^2")
        ts = np.linspace(0.0, 5.0, 101)
        vals = sample(e, ts)
        for t, v in zip(ts[::10], vals[::10]):
            assert v == pytest.approx(eval_expr(e, float(t)), rel=1e-14)

    def test_sample_raises_domain_error(self):
        with pytest.raises(DomainError):
            sample(parse_text("log(t)"), np.linspace(-1.0, 1.0, 5))

    def test_compiled_matches_eval(self):
        e = parse_text("cosh(t/3) - 2^t + abs(t - 1)")
        f = compile_scalar(e)
        for t in (0.0, 0.5, 1.7, 3.0):
            assert f(t) == pytest.approx(eval_expr(e, t), rel=1e-15)


class TestDifferentiate:
    def test_sin(self):
        assert differentiate(parse_text("sin(t)")) == Call("cos", TimeVar())

    def test_cubic_at_2(self):
        d = differentiate(parse_text("t^3"))
        assert eval_expr(d, 2.0) == pytest.approx(12.0, abs=1e-12)

    def test_product_vs_finite_difference(self):
        e = parse_text("exp(2*t)*t")
        d = differentiate(e)
        got = eval_expr(d, 1.0)
        want = fd_derivative(e, 1.0)
        assert abs(got - want) / abs(want) < 1e-6

    def test_quotient_chain(self):
        e = parse_text("sin(t^2) / (1 + cosh(t))")
        d = differentiate(e)
        for t in (0.3, 1.1, 2.4):
            want = fd_derivative(e, t)
            assert eval_expr(d, t) == pytest.approx(want, rel=1e-5, abs=1e-7)

    def test_constant_base_power(self):
        e = parse_text("2^t")
        d = differentiate(e)
        assert eval_expr(d, 1.5) == pytest.approx(fd_derivative(e, 1.5), rel=1e-6)

    def test_t_in_base_and_exponent_rejected(self):
        with pytest.raises(DifferentiationError):
            differentiate(parse_text("t^t"))

    def test_abs_derivative_away_from_zero(self):
        e = parse_text("abs(t)")
        d = differentiate(e)
        assert eval_expr(d, 2.0) == pytest.approx(1.0)
        assert eval_expr(d, -2.0) == pytest.approx(-1.0)


class TestPrint:
    @pytest.mark.parametrize(
        "ast,expected",
        [
            (Add(Constant(2.0), Mul(Constant(3.0), TimeVar())), "2 + 3 * t"),
            (Negate(TimeVar()), "-t"),
            (Pow(TimeVar(), Constant(2.0)), "t ^ 2"),
        ],
    )
    def test_examples(self, ast, expected):
        assert print_expr(ast) == expected

    @pytest.mark.parametrize(
        "src",
        [
            "2 + 3 * t",
            "-t ^ 2",
            "(-t) ^ 2",
            "1 - 2 - 3",
            "1 - (2 - 3)",
            "2 ^ 3 ^ 2",
            "(2 ^ 3) ^ 2",
            "sin(cos(t)) * -t",
            "t / (1 + t) / 2",
            "t ^ -2",
            "-(t + 1)",
            "2.5e-3 * t + 0.125",
        ],
    )
    def test_round_trip_sources(self, src):
        ast = parse_text(src)
        assert parse_text(print_expr(ast)) == ast


# hypothesis AST generator: constants kept nonnegative (the tokenizer has no
# signed literals; negatives enter through unary minus)
_leaf = st.one_of(
    st.just(TimeVar()),
    st.builds(Constant, st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
)


def _extend(children):
    return st.one_of(
        st.builds(Negate, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, children),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "sinh", "cosh", "abs", "tan"]), children),
    )


ast_strategy = st.recursive(_leaf, _extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(ast_strategy)
def test_print_parse_round_trip(ast):
    assert parse_text(print_expr(ast)) == ast


# smooth expressions for the derivative property: bounded compositions only
_smooth_leaf = st.one_of(
    st.just(TimeVar()),
    st.builds(Constant, st.floats(min_value=0.1, max_value=3.0, allow_nan=False)),
)


def _smooth_extend(children):
    return st.one_of(
        st.builds(Negate, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Call, st.sampled_from(["sin", "cos"]), children),
    )


smooth_strategy = st.recursive(_smooth_leaf, _smooth_extend, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(smooth_strategy, st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_derivative_matches_finite_difference(ast, t):
    d = differentiate(ast)
    value = eval_expr(d, t)
    approx = fd_derivative(ast, t)
    assert abs(value - approx) <= 1e-5 * (1 + abs(value))


@settings(max_examples=50, deadline=None)
@given(smooth_strategy, st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_eval_deterministic(ast, t):
    assert eval_expr(ast, t) == eval_expr(ast, t)


# The three evaluators are one walker over three tables: they must agree.
@settings(max_examples=300, deadline=None)
@given(ast_strategy, st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_evaluators_agree(ast, t):
    try:
        want = eval_expr(ast, t)
    except DomainError as err:
        failed = err
    else:
        failed = None
        assert struct.pack("<d", compile_scalar(ast)(t)) == struct.pack("<d", want)
    if failed is not None:
        # At eval_expr's failing node the unchecked closure raises a field
        # error or gives a non-finite value. Only a raise must reach the
        # root: an inf can be divided away above it (the test below).
        try:
            value = compile_scalar(failed.expr)(failed.t)
        except _FIELD_ERRORS:
            with pytest.raises(_FIELD_ERRORS):
                compile_scalar(ast)(t)
        else:
            assert not math.isfinite(value)
    try:
        sample(ast, np.array([t]))
    except DomainError as err:
        named = failed if failed is not None else DomainError("non-finite value", t, ast)
        assert (err.t, err.expr, str(err)) == (named.t, named.expr, str(named))


def test_unchecked_closure_can_divide_an_overflow_away():
    e = parse_text("1 / (100^100 * 100^100)^t")
    with pytest.raises(DomainError) as err:
        eval_expr(e, 1.0)
    assert str(err.value) == "overflow at t=1.0 in '100 ^ 100 * 100 ^ 100'"
    assert compile_scalar(e)(1.0) == 0.0


@pytest.mark.parametrize("text, base, exponent", [
    ("t^2", lambda ts: ts, 2.0),
    ("(t+1)^0.5", lambda ts: ts + 1.0, 0.5),
    ("t^-1", lambda ts: ts, -1.0),
])
def test_sampled_constants_are_arrays(text, base, exponent):
    # np.power rounds some of these differently when the exponent is a
    # Python scalar; sample must keep the array path
    ts = np.random.default_rng(3).uniform(0.01, 50.0, 10_000)
    want = np.power(base(ts), np.full_like(ts, exponent))
    assert sample(parse_text(text), ts).tobytes() == want.tobytes()


def test_compiled_closures_are_not_pickled():
    e = parse_text("sin(t) / (1 + t^2)")
    assert eval_expr(e, 0.5) == compile_scalar(e)(0.5)
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and repr(copy) == repr(e) and hash(copy) == hash(e)
    assert sorted(vars(copy)) == ["left", "right"]
    assert copy(0.5) == e(0.5)
