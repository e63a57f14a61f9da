"""Parser for boundary selector expressions such as ``'x==1'`` or
``'x.^2 + y.^2 > 3.8^2'``.

The grammar (elementwise operators '.*', './', '.^' are accepted as
synonyms of the plain ones)::

    expr  := or
    or    := and ('|' and)*
    and   := cmp ('&' cmp)*
    cmp   := sum (('=='|'<='|'>='|'<'|'>') sum)?
    sum   := prod (('+'|'-') prod)*
    prod  := unary (('*'|'/'|'.*'|'./') unary)*
    unary := '-' unary | pow
    pow   := atom (('^'|'.^') unary)?
    atom  := number | 'x' | 'y' | 'pi' | func '(' expr ')' | '(' expr ')'

with func in {sin, cos, sqrt, abs, exp}, every number read as a float
and the tree nested at most 200 levels deep.  ``parse_selector``
compiles an expression into a pure predicate over a point (x, y); '|'
and '&' short-circuit, and equality compares the evaluated reals exactly
(write ``'x>0.99'`` for a tolerant match).

This is Python's expression grammar with 'or', 'and' and '**' spelled
'|', '&' and '^', so ``ast.parse`` reads the tokens respelled as Python
and any node outside the grammar is rejected; no string is executed.
"""

import ast
import math
import operator
import re
from functools import reduce

__all__ = ["parse_selector", "SelectorError"]

_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt, "abs": abs,
              "exp": math.exp}
_PYTHON = {"|": "or", "&": "and", "^": "**", ".^": "**", ".*": "*", "./": "/"}
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow, ast.Eq: operator.eq,
              ast.LtE: operator.le, ast.GtE: operator.ge, ast.Lt: operator.lt,
              ast.Gt: operator.gt}
_JOIN = {ast.Or: lambda a, b: lambda x, y: bool(a(x, y)) or bool(b(x, y)),
         ast.And: lambda a, b: lambda x, y: bool(a(x, y)) and bool(b(x, y))}
_LEAVES = {"x": lambda x, y: x, "y": lambda x, y: y, "pi": lambda x, y: math.pi}
_NAMES = {*_LEAVES, *_FUNCTIONS}
_MAX_DEPTH = 200     # as deep as Python's parser nests parentheses

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>==|<=|>=|\.\*|\./|\.\^|[-+*/^()<>&|])
  | (?P<ws>\s+)
""", re.VERBOSE)


class SelectorError(ValueError):
    """Raised for malformed selector expressions, with the offending position."""


def _to_python(text):
    """(source, leaves, origin): text respelled as Python source, the
    closures of its names (each number is one), and the position in
    text of each source column, the final newline's being len(text)."""
    source, leaves, origin = "", dict(_LEAVES), []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SelectorError(f"selector syntax error at position {pos}: "
                                f"unexpected character {text[pos]!r}")
        kind, word = m.lastgroup, m.group()
        if kind == "num":
            leaves[f"_{len(leaves)}"] = (lambda c: lambda x, y: c)(float(word))
            word = f"_{len(leaves) - 1}"
        elif kind == "ident" and word not in _NAMES:
            raise SelectorError(f"unknown identifier {word!r} at position {pos}")
        if kind != "ws":
            word = _PYTHON.get(word, word)
            source += word + " "
            origin += [pos] * len(word) + [m.end()]
        pos = m.end()
    return source + "\n", leaves, origin + [len(text)]


def _binary(op, a, b):
    return lambda x, y: op(a(x, y), b(x, y))


def parse_selector(expr):
    """Compile a selector string into a predicate ``(x, y) -> bool``."""
    source, leaves, origin = _to_python(expr)

    def fail(col, why):
        raise SelectorError(f"selector syntax error at position {origin[col]}: {why}")

    def build(node, depth):
        if depth > _MAX_DEPTH:
            fail(node.col_offset, f"nested more than {_MAX_DEPTH} levels deep")
        if isinstance(node, ast.BoolOp):        # each join is one closure deeper
            deeper = depth + len(node.values)
            return reduce(_JOIN[type(node.op)], (build(v, deeper) for v in node.values))
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return _binary(_OPERATORS[type(node.op)], build(node.left, depth + 1),
                           build(node.right, depth + 1))
        if (isinstance(node, ast.Compare) and len(node.ops) == 1
                and type(node.ops[0]) in _OPERATORS):
            return _binary(_OPERATORS[type(node.ops[0])], build(node.left, depth + 1),
                           build(node.comparators[0], depth + 1))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            operand = build(node.operand, depth + 1)
            return lambda x, y: -operand(x, y)
        if isinstance(node, ast.Name) and node.id in leaves:
            return leaves[node.id]
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FUNCTIONS
                and len(node.args) == 1 and not node.keywords):
            f, arg = _FUNCTIONS[node.func.id], build(node.args[0], depth + 1)
            return lambda x, y: f(arg(x, y))
        start, end = (origin[c] for c in (node.col_offset, node.end_col_offset))
        fail(node.col_offset, f"{expr[start:end]!r} is not in the selector grammar")

    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:      # offset 0, on blank text, reads origin[-1]: the end
        fail(exc.offset - 1, exc.msg)
    except (RecursionError, MemoryError):   # how Python's parser reports deep nesting
        fail(0, "nested too deeply")
    node = build(tree.body, 1)
    return lambda x, y: bool(node(x, y))
