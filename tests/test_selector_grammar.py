"""The selector language against Python's: every expression the grammar
draws means what its fully parenthesized Python twin means, every
Python-only form is rejected, and every error names a position."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifem import SelectorError, parse_selector

PROPERTY = settings(derandomize=True, deadline=None, max_examples=400)
# binding strength of each rule of the grammar, loosest first
OR, AND, CMP, SUM, PROD, UNARY, POW, ATOM = range(8)
# (spellings, level, left operand's level, right operand's level, Python twin)
BINARY = [
    (["|"], OR, OR, AND, "(bool({}) or bool({}))"),
    (["&"], AND, AND, CMP, "(bool({}) and bool({}))"),
    (["=="], CMP, SUM, SUM, "({} == {})"),
    (["<="], CMP, SUM, SUM, "({} <= {})"),
    ([">="], CMP, SUM, SUM, "({} >= {})"),
    (["<"], CMP, SUM, SUM, "({} < {})"),
    ([">"], CMP, SUM, SUM, "({} > {})"),
    (["+"], SUM, SUM, PROD, "({} + {})"),
    (["-"], SUM, SUM, PROD, "({} - {})"),
    (["*", ".*"], PROD, PROD, UNARY, "({} * {})"),
    (["/", "./"], PROD, PROD, UNARY, "({} / {})"),
    (["^", ".^"], POW, ATOM, UNARY, "({} ** {})"),
]
FUNCTIONS = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt, "abs": abs,
             "exp": math.exp}
NUMBERS = ["0", "1", "2.", ".5", "007", "1e-3", "3.25", "10", "1E2", "2.5e+1"]
LEAVES = st.one_of(st.sampled_from(["x", "y", "pi"]).map(lambda s: (ATOM, s, s)),
                   st.sampled_from(NUMBERS).map(lambda s: (ATOM, s, repr(float(s)))))
SPACE = st.sampled_from(["", " "])
POINT = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]),
                  st.floats(-3.0, 3.0, allow_nan=False))


def _operand(expr, level, extra_parens):
    """expr's text as an operand that must bind at least as tightly as level."""
    return f"({expr[1]})" if expr[0] < level or extra_parens else expr[1]


@st.composite
def _binary(draw, children):
    spellings, level, left, right, twin = draw(st.sampled_from(BINARY))
    a, b, space = draw(children), draw(children), draw(SPACE)
    text = (f"{_operand(a, left, draw(st.booleans()))}{space}"
            f"{draw(st.sampled_from(spellings))}{space}"
            f"{_operand(b, right, draw(st.booleans()))}")
    return level, text, twin.format(a[2], b[2])


def _extend(children):
    return st.one_of(
        _binary(children),
        children.map(lambda a: (UNARY, "-" + _operand(a, UNARY, False), f"(-{a[2]})")),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), children).map(
            lambda fa: (ATOM, f"{fa[0]}({fa[1][1]})", f"{fa[0]}({fa[1][2]})")),
        children.map(lambda a: (ATOM, f"({a[1]})", a[2])))


EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=12)


def _outcome(evaluate):
    try:
        return evaluate()
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc)


@PROPERTY
@given(expr=EXPRESSIONS, x=POINT, y=POINT)
def test_a_selector_means_its_parenthesized_python_twin(expr, x, y):
    _, text, twin = expr
    scope = {"__builtins__": {}, "bool": bool, "x": x, "y": y, "pi": math.pi,
             **FUNCTIONS}
    value = _outcome(lambda: eval(twin, scope))
    want = value if isinstance(value, type) else bool(value)
    assert _outcome(lambda: parse_selector(text)(x, y)) == want
    if isinstance(value, (int, float)) and math.isfinite(value):
        # the value itself, through an exact comparison with its repr
        assert parse_selector(f"({text}) == {float(value)!r}")(x, y) is True


TOKENS = ["x", "y", "pi", "sin", "(", ")", "+", "-", "*", "/", "^", ".^", "==",
          "<", ">=", "&", "|", "1", ".5", " ", "z", "$", "**", ",", "not"]


@PROPERTY
@given(tokens=st.lists(st.sampled_from(TOKENS), max_size=10))
def test_every_error_names_a_position_inside_the_text(tokens):
    text = "".join(tokens)
    try:
        parse_selector(text)
    except SelectorError as exc:
        position = int(re.search(r"position (\d+)", str(exc)).group(1))
        assert 0 <= position <= len(text)


@pytest.mark.parametrize("text", [
    "x**2 > 1", "x > 0 and y > 0", "x > 0 or y > 0", "not x > 0", "x != 1",
    "x % 2 == 0", "x // 2 == 0", "+x > 0", "x < y < 1", "True", "lambda: x",
    "x.real > 0", "[x] == 1", "'x' == 'x'", "sin(x, y) > 0", "sin > 0",
    "x(1) > 0", "0x1 == 1", "1_0 == 10"])
def test_a_python_only_form_is_rejected(text):
    with pytest.raises(SelectorError, match=r"position \d+"):
        parse_selector(text)


@pytest.mark.parametrize("text, position", [
    ("x $ 1", 2), ("x ==", 4), ("x == 1 )", 7), ("z == 1", 0), ("x == y == 1", 0)])
def test_an_error_names_where_it_is(text, position):
    with pytest.raises(SelectorError, match=rf"position {position}\b"):
        parse_selector(text)


@pytest.mark.parametrize("text", [
    "-" * 3000 + "x", "(" * 300 + "x" + ")" * 300, "-" * 200 + "x",
    "+".join(["x"] * 300), "|".join(["x"] * 300)],
    ids=["3000 minus signs", "300 parentheses", "200 minus signs", "300-term sum",
         "300-term or"])
def test_deep_nesting_is_a_selector_error(text):
    # the first two used to raise RecursionError
    with pytest.raises(SelectorError, match="nested"):
        parse_selector(text)


def test_a_tree_200_levels_deep_is_read():
    assert parse_selector("-" * 199 + "x")(-1.0, 0.0) is True


def test_numbers_are_floats():
    assert parse_selector("007 == 7")(0.0, 0.0) is True
    with pytest.raises(OverflowError):
        parse_selector("10^10^10 > 0")(0.0, 0.0)
