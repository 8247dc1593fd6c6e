"""Parser, printer, and evaluator tests for coefficient expressions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinext import expressions as ex
from kreinext.errors import EvaluationError, ExprSyntaxError


class TestParsing:
    def test_number(self):
        assert ex.parse("3.5") == ex.Num(3.5)

    def test_scientific_notation(self):
        assert ex.parse("2.5e-3") == ex.Num(0.0025)

    def test_variable_and_constants(self):
        assert ex.parse("x") == ex.Var()
        assert ex.parse("pi") == ex.Const("pi")
        assert ex.parse("e") == ex.Const("e")
        assert ex.parse("i") == ex.Const("i")

    def test_precedence(self):
        tree = ex.parse("1+2*3")
        assert tree == ex.BinOp("+", ex.Num(1.0), ex.BinOp("*", ex.Num(2.0), ex.Num(3.0)))

    def test_left_associative_subtraction(self):
        tree = ex.parse("1-2-3")
        assert tree == ex.BinOp("-", ex.BinOp("-", ex.Num(1.0), ex.Num(2.0)), ex.Num(3.0))

    def test_power_right_associative(self):
        tree = ex.parse("2^3^2")
        assert tree == ex.BinOp("^", ex.Num(2.0), ex.BinOp("^", ex.Num(3.0), ex.Num(2.0)))
        assert ex.evaluate(tree, 0.0) == 512

    def test_unary_minus_binds_tighter_than_binary(self):
        assert ex.evaluate(ex.parse("-2^2"), 0.0) == 4  # (-2)^2

    def test_function_call(self):
        tree = ex.parse("sin(x)")
        assert tree == ex.Call("sin", ex.Var())

    def test_nested_parens(self):
        assert ex.evaluate(ex.parse("((1+2)*(3+4))"), 0.0) == 21

    def test_whitespace_insignificant(self):
        assert ex.parse(" 1 + x ") == ex.parse("1+x")

    @pytest.mark.parametrize(
        "text",
        ["", "1+", "(1", "1)", "sin", "sin 1", "2x", "x y", "*3", "1..2", "^2"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ExprSyntaxError):
            ex.parse(text)

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse("1 + foo")
        assert err.value.offset == 4

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            ex.parse("cot(x)")

    def test_bad_character_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse("1 + $")
        assert err.value.offset == 4

    def test_non_string_input(self):
        with pytest.raises(ExprSyntaxError):
            ex.parse(12)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            ex.parse("2(x+1)")


class TestEvaluation:
    def test_hyperbolic_quotient(self):
        tree = ex.parse("sinh(1-x)/sinh(1)")
        assert abs(ex.evaluate(tree, 0.0) - 1.0) < 1e-15
        assert abs(ex.evaluate(tree, 1.0)) < 1e-15

    def test_complex_constant(self):
        assert ex.evaluate(ex.parse("i*i"), 0.0) == -1

    def test_conj(self):
        assert ex.evaluate(ex.parse("conj(1+2*i)"), 0.0) == 1 - 2j

    def test_principal_sqrt(self):
        assert abs(ex.evaluate(ex.parse("sqrt(-1)"), 0.0) - 1j) < 1e-15

    @pytest.mark.parametrize("text,x", [("sqrt(x*x-8)", -2.0), ("sqrt(x^2-8)", -2.0),
                                        ("sqrt(conj(-4))", None)])
    def test_real_intermediates_stay_on_the_principal_branch(self, text, x):
        # x*x, x^2 and conj(-4) are real: a negative zero imaginary part left
        # by the arithmetic would put sqrt on the other side of its cut
        assert ex.evaluate(ex.parse(text), x) == 2j

    def test_zero_to_a_complex_power_is_zero(self):
        # numpy's power, unlike Python's, defines 0^z = 0 for Re z > 0
        assert ex.evaluate(ex.parse("0^(1+i)")) == 0

    def test_zero_to_a_negative_power_is_undefined(self):
        with pytest.raises(EvaluationError):
            ex.evaluate(ex.parse("0^(-1)"))

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError) as err:
            ex.evaluate(ex.parse("1/x"), 0.0)
        assert err.value.x == 0.0

    def test_overflow_reports_source(self):
        with pytest.raises(EvaluationError) as err:
            ex.evaluate(ex.parse("exp(exp(x))"), 10.0)
        assert "exp" in str(err.value.source)

    def test_log_of_zero(self):
        with pytest.raises(EvaluationError):
            ex.evaluate(ex.parse("log(x)"), 0.0)

    @pytest.mark.parametrize(
        "text,x,expected",
        [
            ("x^2+1", 3.0, 10.0),
            ("cos(0)", 0.0, 1.0),
            ("tanh(x)", 0.0, 0.0),
            ("abs(-3)", 0.0, 3.0),
            ("e^x", 1.0, math.e),
            ("pi/pi", 0.5, 1.0),
            ("log(-1)", 0.0, math.pi * 1j),
        ],
    )
    def test_values(self, text, x, expected):
        assert abs(ex.evaluate(ex.parse(text), x) - expected) < 1e-12

    def test_array_of_points(self):
        xs = np.array([[0.0, 1.0], [2.0, -3.0]])
        assert np.array_equal(ex.evaluate(ex.parse("x^2+1"), xs), xs**2 + 1)
        # an expression free of x takes the shape of the points too
        assert np.array_equal(ex.evaluate(ex.parse("2*pi"), xs), np.full(xs.shape, 2 * np.pi))

    def test_array_error_names_the_first_bad_point(self):
        # the right term fails first in array order, the left one first in the tree
        with pytest.raises(EvaluationError) as err:
            ex.evaluate(ex.parse("1/(x-1) + 1/(x+1)"), np.array([0.0, -1.0, 1.0]))
        assert err.value.x == -1.0
        assert err.value.source == "(1.0/(x+1.0))"


def ast_strategy():
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(ex.Num),
        st.just(ex.Var()),
        st.sampled_from(sorted(ex.CONSTANTS)).map(ex.Const),
    )

    def extend(children):
        return st.one_of(
            children.map(ex.Neg),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: ex.BinOp(*t)
            ),
            st.tuples(st.sampled_from(sorted(ex.FUNCTIONS)), children).map(
                lambda t: ex.Call(*t)
            ),
        )

    return st.recursive(leaves, extend, max_leaves=25)


# real points on both sides of zero, where the branch cuts of sqrt and log lie
GRID = np.array([-3.0, -2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.5])


class TestArrayEvaluation:
    @given(tree=ast_strategy())
    @settings(max_examples=300, deadline=None)
    def test_array_matches_pointwise(self, tree):
        pointwise = []
        for x in GRID.tolist():
            try:
                pointwise.append(ex.evaluate(tree, x))
            except EvaluationError as exc:
                # the array call fails at the same first point
                with pytest.raises(EvaluationError) as err:
                    ex.evaluate(tree, GRID)
                assert err.value.x == exc.x
                return
        values = ex.evaluate(tree, GRID)
        assert values.shape == GRID.shape
        np.testing.assert_allclose(values, pointwise, rtol=1e-14, atol=0)


class TestRoundTrip:
    @given(tree=ast_strategy())
    @settings(max_examples=300, deadline=None)
    def test_pretty_reparses_to_identical_tree(self, tree):
        assert ex.parse(ex.pretty(tree)) == tree

    @given(text=st.text(max_size=60))
    @settings(max_examples=400, deadline=None)
    def test_fuzz_never_crashes(self, text):
        try:
            tree = ex.parse(text)
        except ExprSyntaxError:
            return
        # anything that parses must also print and re-parse
        assert ex.parse(ex.pretty(tree)) == tree

    @given(
        text=st.text(
            alphabet="0123456789.+-*/^()xie pisncoqrtlgbahj_",
            max_size=40,
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_fuzz_structured_alphabet(self, text):
        try:
            ex.parse(text)
        except ExprSyntaxError:
            pass
