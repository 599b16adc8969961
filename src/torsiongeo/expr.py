"""The config expression compiler.

An expression is Python source restricted to arithmetic on the two chart
coordinates, int and float constants and a whitelist of ``math``
functions.  ``_compile`` turns a tuple of them into one module of
straight-line functions with their exact partial derivatives, and gives
each function a column form that evaluates arrays of samples bitwise as the
function does (``Column``): a C loop built with the module's RK4 march
(see :mod:`native`) where that march is built, else numpy; an input
outside the grammar, or an evaluation that fails, raises ``ConfigError``.
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
import re
from functools import cached_property, lru_cache, partial
from types import FunctionType
from typing import Callable

import numpy as np

from . import native
from .errors import ConfigError

_SAFE_NAMES: dict[str, object] = {
    name: getattr(math, name)
    for name in ("sin", "cos", "tan", "asin", "acos", "atan", "atan2",
                 "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
                 "exp", "log", "log2", "log10", "sqrt", "hypot",
                 "pi", "e", "tau")
}
_SAFE_NAMES["abs"] = abs
_CALLABLE_NAMES = frozenset(n for n, obj in _SAFE_NAMES.items() if callable(obj))
_CONSTANT_NAMES = frozenset(_SAFE_NAMES) - _CALLABLE_NAMES
_COORDS = {"x": "x", "y": "y", "u": "x", "v": "y"}
_BINARY_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)
_UNARY_OPS = (ast.UAdd, ast.USub)
_INT_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
            ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod,
            ast.Pow: operator.pow, ast.UAdd: operator.pos, ast.USub: operator.neg,
            **{name: _SAFE_NAMES[name] for name in ("abs", "log", "log2", "log10")}}

def _quote(src: str) -> str:
    return repr(src if len(src) <= 60 else src[:57] + "...")


def _check_expr(src: str) -> ast.expr:
    """Parse ``src``, admit only the config expression grammar, return its body.

    The tree holds int and float constants, the coordinates, pi, e and tau,
    the binary operators + - * / // % **, unary + and -, and calls of the
    safe functions with positional arguments.  u and v become x and y.
    """
    tree = ast.parse(src, mode="eval")
    stack = [tree.body]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.BinOp and isinstance(node.op, _BINARY_OPS):
            stack += (node.left, node.right)
        elif kind is ast.UnaryOp and isinstance(node.op, _UNARY_OPS):
            stack.append(node.operand)
        elif kind is ast.Constant:
            if type(node.value) not in (int, float):
                raise ConfigError(f"expression {_quote(src)}: "
                                  f"{type(node.value).__name__} constants are not allowed")
        elif kind is ast.Name:
            if node.id in _COORDS:
                node.id = _COORDS[node.id]
            elif node.id not in _CONSTANT_NAMES:
                raise ConfigError(f"expression {_quote(src)} uses forbidden name {node.id!r}")
        elif kind is ast.Call:
            if (type(node.func) is not ast.Name or node.func.id not in _CALLABLE_NAMES
                    or node.keywords):
                raise ConfigError(f"expression {_quote(src)}: only positional calls of "
                                  f"{', '.join(sorted(_CALLABLE_NAMES))} are allowed")
            stack += node.args
        else:
            what = type(getattr(node, "op", node)).__name__
            raise ConfigError(f"expression {_quote(src)}: {what} is not allowed")
    return tree.body


def compile_expr(src: str) -> Callable[[float, float], float]:
    """Compile a config expression of the chart coordinates.

    Both (x, y) and (u, v) name the two coordinates.  Only arithmetic and
    the whitelisted math functions are allowed (see ``_check_expr``); any
    other input raises ``ConfigError``.  The result is one plain function
    of (x, y) returning a float; an arithmetic, type or domain failure
    while evaluating it raises ``ConfigError`` naming the expression and
    the point.
    """
    return _compile((src,), "return v0")[0]


# Exact partial derivatives.  A rule is the derivative of one grammar node
# in terms of its arguments A0, A1, ..., their partials DA0, DA1, ... along
# one axis, and the node's own value F.  Where an argument's partial is 0
# or 1 the rule folds (see _fold), so y*y gives y + y along y and nothing
# along x.  The piecewise rules: d|a| = sign(a) da with sign(0) = 0;
# a // b is piecewise constant, so 0; a % b = a - (a // b) b gives
# da - (a // b) db.  Where a rule has no value, such as d sqrt(a) at
# a = 0, evaluating the partial fails.  _float checks a power, which may
# be complex, and converts a comparison, an int: every partial is a float.
_RULES = {
    ast.Add: "DA0 + DA1", ast.Sub: "DA0 - DA1", ast.Mult: "DA0 * A1 + A0 * DA1",
    ast.Div: "(DA0 - F * DA1) / A1", ast.FloorDiv: "0.0", ast.Mod: "DA0 - (A0 // A1) * DA1",
    ast.UAdd: "DA0", ast.USub: "-DA0",
    "sin": "cos(A0) * DA0", "cos": "-sin(A0) * DA0", "tan": "(1.0 + F * F) * DA0",
    "asin": "DA0 / sqrt(1.0 - A0 * A0)", "acos": "-DA0 / sqrt(1.0 - A0 * A0)",
    "atan": "DA0 / (1.0 + A0 * A0)", "atan2": "(A1 * DA0 - A0 * DA1) / (A0 * A0 + A1 * A1)",
    "sinh": "cosh(A0) * DA0", "cosh": "sinh(A0) * DA0", "tanh": "(1.0 - F * F) * DA0",
    "asinh": "DA0 / hypot(A0, 1.0)", "acosh": "DA0 / (sqrt(A0 - 1.0) * sqrt(A0 + 1.0))",
    "atanh": "DA0 / (1.0 - A0 * A0)", "exp": "F * DA0",
    "log": ("DA0 / A0", "(DA0 / A0 - F * DA1 / A1) / log(A1)"),
    "log2": f"DA0 / (A0 * {math.log(2.0)!r})", "log10": f"DA0 / (A0 * {math.log(10.0)!r})",
    "sqrt": "0.5 * DA0 / F", "abs": "_float((A0 > 0.0) - (A0 < 0.0)) * DA0",
    # one term of the sum over the arguments, each added by its own statement
    "hypot": "A0 / F * DA0",
}
# a ** b by which of a and b vary along the axis
_POW_RULES = {(True, False): "A1 * _float(A0 ** (A1 - 1.0)) * DA0",
              (False, True): "F * log(A0) * DA1",
              (True, True): "F * (DA1 * log(A0) + A1 * DA0 / A0)"}
_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
            ast.Mod: "%", ast.Pow: "**", ast.UAdd: "+", ast.USub: "-", ast.Gt: ">", ast.Lt: "<"}
# an operand is Python source: a name, a float, or a parenthesized expression
_ZERO, _ONE = "0.0", "1.0"


def _rule(kind, n_args: int, varies: tuple[bool, ...]) -> ast.expr | None:
    """The parsed rule for a node, or None for a call of the wrong arity,
    which fails when its value is evaluated."""
    if kind is ast.Pow:
        return _parsed(_POW_RULES[varies])
    src = _RULES[kind]
    if type(src) is tuple:  # log(a) and log(a, base)
        src = src[n_args - 1] if n_args in (1, 2) else None
    elif kind != "hypot" and isinstance(kind, str) and n_args != (2 if kind == "atan2" else 1):
        src = None
    return None if src is None else _parsed(src)


@lru_cache(maxsize=None)
def _parsed(rule: str) -> ast.expr:
    return ast.parse(rule, mode="eval").body


def _fold(node: ast.expr, env: dict[str, str]) -> str:
    """The source of a rule or a tail expression with the operands of
    ``env`` substituted, and products by 0 or 1, sums with 0, quotients of 0
    and comparisons of constants folded.  Recurses only over the rule or
    the expression."""
    kind = type(node)
    if kind is ast.Name:
        return env.get(node.id, node.id)
    if kind is ast.Constant:
        return repr(node.value)
    if kind is ast.UnaryOp:  # - in a rule; - and not in a tail
        a = _fold(node.operand, env)
        if type(node.op) is ast.Not:
            return {"True": "False", "False": "True"}.get(a, f"(not {a})")
        return a if a == _ZERO else f"(-{a})"
    if kind is ast.BinOp:
        a, b, op = _fold(node.left, env), _fold(node.right, env), type(node.op)
        if (op is ast.Mult and _ZERO in (a, b)) or (op is ast.Div and a == _ZERO):
            return _ZERO
        if (op is ast.Mult and a == _ONE) or (op is ast.Add and a == _ZERO):
            return b
        if (op in (ast.Mult, ast.Div) and b == _ONE) or (op in (ast.Add, ast.Sub) and b == _ZERO):
            return a
        if op is ast.Sub and a == _ZERO:
            return f"(-{b})"
        return f"({a} {_SYMBOLS[op]} {b})"
    if kind is ast.Compare:
        a, b, op = _fold(node.left, env), _fold(node.comparators[0], env), type(node.ops[0])
        if a in (_ZERO, _ONE) and b in (_ZERO, _ONE):  # a check of a constant metric
            return repr(float(a) > float(b) if op is ast.Gt else float(a) < float(b))
        return f"({a} {_SYMBOLS[op]} {b})"
    if kind is ast.Tuple:
        return f"({', '.join(_fold(e, env) for e in node.elts)})"
    return f"{node.func.id}({', '.join(_fold(a, env) for a in node.args)})"


def _emit_tail(tail: str, env: dict[str, str], read: set[str]) -> list[str]:
    """The statements of a tail, each expression folded with the names
    bound in ``env`` substituted.  An assignment that folds to 0, 1 or a
    name binds its target instead, and a check whose test folds to False is
    dropped: on a flat metric, the Christoffel symbols fold to a constant
    tuple."""
    text = _folded_tail(tail, tuple(sorted((name, operand) for name, operand in env.items()
                                           if operand in (_ZERO, _ONE) and name in read)))
    return re.sub(r"\bv\d+[xy]?\b", lambda m: env.get(m.group(), m.group()), text).splitlines()


@lru_cache(maxsize=None)
def _folded_tail(tail: str, constants: tuple[tuple[str, str], ...]) -> str:
    """A tail folded with only its constant inputs substituted; the result
    depends on nothing else, so every chart of one pattern shares it."""
    env, lines = dict(constants), []
    for stmt in ast.parse(tail).body:
        if type(stmt) is ast.Assign:
            name, value = stmt.targets[0].id, stmt.value
            text = _fold(value, env)
            if type(value) is ast.BinOp and type(value.op) is ast.Div and (
                    _fold(value.left, env) == _fold(value.right, env)):
                text = _ONE  # det / det, after the check that det > 0
            if text in (_ZERO, _ONE) or text.isidentifier():
                env[name] = text
            else:
                env[name] = name
                lines.append(f"{name} = {text}")
        elif type(stmt) is ast.If:  # a check that raises
            test = _fold(stmt.test, env)
            if test != "False":
                lines += [f"if {test}:", f"    raise {_fold(stmt.body[0].exc, env)}"]
        else:  # the return
            lines.append(f"return {_fold(stmt.value, env)}")
    return "\n".join(lines)


def _straight_line(body: ast.expr, axes: str, memo: dict) -> tuple[list[str], str, dict]:
    """A checked tree as straight-line source, one statement per operation,
    with its partials along ``axes`` derived operation by operation.

    Returns the statements of the value, the value's operand, and for each
    axis the statements of the partial and its operand.  ``memo`` names
    each distinct operation once, across all the trees compiled together,
    so a repeated subexpression repeats its statement verbatim, and names
    each float literal but 0.0 and 1.0, which fold, as a global c0, c1, ...
    under the key ("c", its repr), which no statement's text can equal.
    An operation on ints alone, or abs, log, log2 or log10 of them, is
    computed here with the function eval calls and enters as the float
    literal of its value, so every literal is a float; a power is bounded
    by its exponent times its base's bit length before it is computed, and
    it and any other int past the float range raise OverflowError.  A
    power is complex where its base is negative and its exponent no
    integer.  eval passes such a value on to abs, which gives a float, and
    fails with it anywhere else, so each power outside abs's argument is
    computed as _float(a ** b), and every name outside that argument holds
    a float.  The walk keeps its own stack, so
    a deep tree cannot exhaust Python's.
    """
    values, partials, out, ints = [], {axis: [] for axis in axes}, {}, {}

    def literal(value: float) -> tuple[str, dict]:
        text = repr(value)
        if text not in (_ZERO, _ONE):
            text = memo.setdefault(("c", text), f"c{len(memo)}")  # a global; see _compile
        return text, dict.fromkeys(axes, _ZERO)

    stack = [(body, False, False)]
    while stack:
        node, ready, in_abs = stack.pop()
        kind = type(node)
        if kind is ast.Constant and type(node.value) is int:
            ints[node] = node.value
            continue
        if kind is ast.Name or kind is ast.Constant:
            out[node] = (literal(node.value) if kind is ast.Constant else
                         (node.id, {axis: _ONE if node.id == axis else _ZERO for axis in axes}))
            continue
        args = ((node.left, node.right) if kind is ast.BinOp else
                (node.operand,) if kind is ast.UnaryOp else node.args)
        if not ready:
            stack.append((node, True, in_abs))
            in_abs = in_abs or (kind is ast.Call and node.func.id == "abs")
            stack.extend((a, False, in_abs) for a in reversed(args))
            continue
        op = node.func.id if kind is ast.Call else type(node.op)
        if op in _INT_OPS and all(a in ints for a in args):
            n = [ints[a] for a in args]
            if op is ast.Pow and (abs(n[0]).bit_length() - 1) * n[1] >= 1024:
                raise OverflowError  # 9**9**9, bounded before Python computes it
            try:
                value = _INT_OPS[op](*n)
            except (ArithmeticError, TypeError, ValueError):  # a // 0, log(0): fail where run
                value = None
            if type(value) is int:  # abs keeps an int an int: -abs(0) is 0, not -0.0
                ints[node] = value
                continue
            if value is not None:  # a quotient, or a power with a negative exponent
                out[node] = literal(value)
                continue
        ops = [out.pop(a) if a in out else literal(float(ints.pop(a))) for a in args]
        vals = [v for v, _ in ops]
        value = (f"{vals[0]} {_SYMBOLS[op]} {vals[1]}" if kind is ast.BinOp else
                 f"{_SYMBOLS[op]}{vals[0]}" if kind is ast.UnaryOp else f"{op}({', '.join(vals)})")
        if op is ast.Pow and not in_abs:
            value = f"_float({value})"
        name = memo.setdefault(value, f"t{len(memo)}")
        values.append(f"{name} = {value}")
        d = {}
        for axis in axes:
            das = [ds[axis] for _, ds in ops]
            varies = tuple(da != _ZERO for da in das)
            rule = _rule(op, len(args), varies) if any(varies) else None
            text, lines = _ZERO, partials[axis]
            if rule is not None and op == "hypot":  # one statement per term
                terms = (_fold(rule, {"F": name, "A0": a, "DA0": da})
                         for a, da, var in zip(vals, das, varies) if var)
                for k, term in enumerate(terms):
                    term = f"{text} + {term}" if k else term
                    text = f"{name}{axis}{k}"
                    lines.append(f"{text} = {term}")
            elif rule is not None:
                text = _fold(rule, {"F": name, **{f"A{k}": a for k, a in enumerate(vals)},
                                    **{f"DA{k}": da for k, da in enumerate(das)}})
            if text not in (_ZERO, _ONE) and not text.isidentifier():
                lines.append(f"{name}{axis} = {text}")
                text = f"{name}{axis}"
            d[axis] = text
        out[node] = name, d
    value, d = out[body] if body in out else literal(float(ints[body]))
    return values, value, {axis: (partials[axis], d[axis]) for axis in axes}


def _failure(srcs: tuple, owners: dict, x: float, y: float, exc: Exception) -> ConfigError:
    """The ConfigError for ``exc``, raised at (x, y) by the statement whose
    line ``owners`` maps to the index of its expression and whether it
    computes a partial."""
    i, derivative = owners[exc.__traceback__.tb_lineno]
    what = "derivative of expression" if derivative else "expression"
    return ConfigError(f"{what} {_quote(srcs[i])} failed at (x, y) = ({x!r}, {y!r}): "
                       f"{type(exc).__name__}: {exc}")


def _checked(src) -> ast.expr:
    if not isinstance(src, str):
        raise ConfigError(f"expression must be a string, got {src!r}")
    try:
        return _check_expr(src)
    except ConfigError:
        raise
    except (SyntaxError, ValueError, MemoryError, RecursionError) as exc:
        raise ConfigError(f"bad expression {_quote(src)}: {type(exc).__name__}: {exc}") from exc


@lru_cache(maxsize=64)
def _words(tail: str) -> frozenset[str]:
    """The names a tail reads; the tails are the few texts of this module."""
    return frozenset(re.findall(r"\w+", tail))


def _compile(srcs: tuple, *tails: str, **names) -> Module:
    """Compile expressions into one module of straight-line functions of
    the float coordinates (x, y), one per tail.

    In each function expression i is bound to the float vi, and its
    partials along x and y to vix and viy, where the tail reads them; the
    expressions a tail reads are evaluated, each value before any partial,
    and an operation they share is evaluated once.  A tail is a block of
    assignments and ``if ...: raise`` checks ending in a return, emitted
    folded (see ``_emit_tail``); ``names`` are extra globals it uses, and
    a ``__name__`` among them names the module (see ``_code``).  A
    tail that reads E2 is a fused geodesic RHS: in its place comes a
    :class:`FusedRHS`.  Any other function takes (x, y), with y = 0 by
    default for a profile r(x), and has a :class:`Column` form in the
    returned module's ``columns``.  A statement no later one reads is
    dropped where it cannot raise (see ``_live``).  An arithmetic, type or
    domain failure raises ConfigError naming the expression, whether its
    value or its partial failed, and the point.
    """
    reads = [_words(tail) for tail in tails]
    memo, env = {}, {}  # env: vi, vix, viy -> its operand
    blocks = {}  # vi, vix, viy -> (statements that bind it, (i, whether a partial))
    for i, src in enumerate(srcs):
        axes = "".join(axis for axis in "xy" if any(f"v{i}{axis}" in read for read in reads))
        try:
            values, value, partials = _straight_line(_checked(src), axes, memo)
        except OverflowError:
            raise ConfigError(f"expression {_quote(src)}: an integer exceeds "
                              f"the float range") from None
        blocks[f"v{i}"], env[f"v{i}"] = (values, (i, False)), value
        for axis, (lines, operand) in partials.items():
            blocks[f"v{i}{axis}"], env[f"v{i}{axis}"] = (lines, (i, True)), operand

    source, owners, fused, columns = [], {}, {}, {}
    for k, (tail, read) in enumerate(zip(tails, reads)):
        body = {}  # statement -> owner, the values a tail reads first, then the partials
        for name in ([n for n in blocks if n[-1].isdigit() and read & {n, n + "x", n + "y"}]
                     + [n for n in blocks if not n[-1].isdigit() and n in read]):
            lines, owner = blocks[name]
            for line in lines:
                body.setdefault(line, owner)
        tail_lines = _emit_tail(tail, env, read)
        keep = _live((*body, *tail_lines))
        tail_lines = list(itertools.compress(tail_lines, keep[len(body):]))
        body = dict(itertools.compress(body.items(), keep))
        start = len(source)
        source.append(f"def f{k}(x, y, du, dv, E2=None):" if "E2" in read else
                      f"def f{k}(x, y=0.0):")
        if body:
            source.append("    try:")
            for line, owner in body.items():
                source.append(f"        {line}")
                owners[len(source)] = owner
            source += ["    except _ERRORS as exc:", "        raise _fail(x, y, exc) from exc"]
        source += [f"    {line}" for line in tail_lines]
        if "E2" in read:
            fused[k] = tuple(body.items()), tuple(tail_lines)
        else:
            columns[k] = tuple(body), tuple(tail_lines), "\n".join(source[start:])
    namespace = {"__builtins__": {}, "__name__": "expr", **_SAFE_NAMES, "_float": float,
                 "_fail": partial(_failure, srcs, owners),
                 "_ERRORS": (ArithmeticError, TypeError, ValueError),
                 "_columns": tuple(text for _, _, text in columns.values()), **names,
                 **{name: float(key[1]) for key, name in memo.items() if type(key) is tuple}}
    exec(_code("\n".join(source), namespace["__name__"]), namespace)
    return Module((FusedRHS(namespace[f"f{k}"], srcs, *fused[k]) if k in fused
                   else namespace[f"f{k}"] for k in range(len(tails))),
                  (Column(namespace, k, *columns[k]) if k in columns else None
                   for k in range(len(tails))))


class Module(tuple):
    """The functions of one compiled module, one per tail, with ``columns``:
    the :class:`Column` form of each function that is not a fused RHS, and
    None for a fused RHS."""

    def __new__(cls, functions, columns):
        module = super().__new__(cls, functions)
        module.columns = tuple(columns)
        return module


# an assignment's target, and a right side that may raise: a call, a
# division, a remainder, a power or a comparison (of complex numbers)
_LOCAL = re.compile(r"^\s*(\w+) = ")
_MAY_RAISE = re.compile(r"[/%<>]|\*\*|\w\(")
_WORD = re.compile(r"\b[A-Za-z_]\w*")


@lru_cache(maxsize=1024)
def _live(lines: tuple[str, ...]) -> tuple[bool, ...]:
    """Which statements of a function to keep: all but the assignments
    whose target no later line reads and whose right side uses only + - *
    and unary -, which cannot raise.  Statements that may raise stay,
    since they guard the domain of the expressions they belong to.  The
    functions of configs that differ only in their constants are one text,
    so parsing a config mostly finds its functions here."""
    read, keep = set(), []
    for line in reversed(lines):
        m = _LOCAL.match(line)
        keep.append(not m or m.group(1) in read or bool(_MAY_RAISE.search(line, m.end())))
        if keep[-1]:
            read.update(_WORD.findall(line))
    return tuple(reversed(keep))


@lru_cache(maxsize=256)
def _code(source: str, name: str):
    """The code of a generated module, with the filename ``<torsiongeo
    name>`` that profilers and tracebacks show.  Float literals are globals,
    so the modules of expressions that differ only in them, such as the
    configs of a sweep over constants, are one text and compile once."""
    return compile(source, f"<torsiongeo {name}>", "exec")


def _bound(fn: Callable, name: str, *defaults: float) -> Callable:
    """A copy of ``fn`` with ``defaults`` for its trailing parameters, so a
    run reads its launch speed and its chart's bounds as locals."""
    return FunctionType(fn.__code__, fn.__globals__, name, defaults)


class FusedRHS:
    """The fused geodesic RHS of one compiled module.

    Called with E2, it returns ``rhs(x, y, du, dv)`` at that launch speed.
    :meth:`step` returns a Runge-Kutta step with the RHS's statements
    inlined at every stage.
    """

    def __init__(self, fn: Callable, srcs: tuple, body: tuple, tail: tuple[str, ...]):
        self.fn, self.srcs, self.body, self.tail = fn, srcs, body, tail

    def __call__(self, E2: float) -> Callable:
        return _bound(self.fn, "rhs", E2)

    def step(self, tableau, E2: float, bounds: tuple[float, float, float, float],
             **names) -> Callable:
        """``tableau``'s step ``(u, v, du, dv, h)`` at launch speed E2 in the
        open box ``bounds``.  The step is compiled into the RHS's own module
        on its first use there, with ``names`` as extra globals, and kept
        there with its source, as ``_source_<tableau name>``, from which
        :mod:`native` builds the compiled march.  A failing expression raises
        the RHS's ConfigError, at the stage's point."""
        namespace = self.fn.__globals__
        key = f"_step_{tableau.name}"
        step = namespace.get(key)
        if step is None:
            source, owners = _step_source(self.body, self.tail, tableau)
            namespace.update(names, **{f"_fail_{tableau.name}": partial(_failure, self.srcs,
                                                                         owners),
                                       f"_source_{tableau.name}": source})
            scope = {}
            exec(_code(source, f"{namespace['__name__']} step_{tableau.name}"), namespace, scope)
            step = namespace[key] = scope["step"]
        return _bound(step, "step", E2, *bounds)


@lru_cache(maxsize=256)
def _step_source(body: tuple, tail: tuple[str, ...], tableau) -> tuple[str, dict]:
    """The source of ``tableau.emit``'s step with the RHS of ``body`` (its
    statements and their owners) and ``tail`` inlined at each stage, and the
    owners of the step's lines (see ``_failure``).

    Stage s binds the RHS's coordinates and velocity to the stage's names
    and renames every other local n to n_s, so no stage's temporaries clash
    with another's or with the step's own names.
    """
    local = {m.group(1) for line in (*(line for line, _ in body), *tail)
             if (m := _LOCAL.match(line))}
    owned = {}

    def stage(s: int, x: str, y: str, du: str, dv: str, ddu: str, ddv: str) -> list[str]:
        names = {**{n: f"{n}_{s}" for n in local}, "x": x, "y": y, "du": du, "dv": dv}

        def rename(line: str) -> str:
            return _WORD.sub(lambda m: names.get(m.group(), m.group()), line)

        lines = []
        if body:
            lines.append("try:")
            for line, owner in body:
                line = rename(line)
                owned[line] = owner
                lines.append(f"    {line}")
            lines += ["except _ERRORS as exc:",
                      f"    raise _fail_{tableau.name}({x}, {y}, exc) from exc"]
        *stmts, ret = map(rename, tail)
        return lines + stmts + [f"{ddu}, {ddv} = {ret.removeprefix('return ')}"]

    source = tableau.emit(stage)
    return source, {no: owned[line.strip()] for no, line in enumerate(source.splitlines(), 1)
                    if line.strip() in owned}


class Column:
    """The column form of one compiled function: called with float arrays
    (x, y) of equal length, it returns what the function returns with an
    array of every sample's value in place of each float.

    Where the module's RK4 march is built, the library holds a C loop of
    the function (see :func:`native.column_source`), and a call runs it
    over every sample; it returns one array of the return's shape by the
    number of samples.  Otherwise, and where a sample is NaN, fails a
    check or raises a floating-point flag in C, a numpy form runs, compiled
    into the function's own module on its first call from the function's
    statements (see ``_column_source``).  On a floating-point error or an
    exception that form evaluates the scalar function sample by sample
    instead, which returns the same values or raises the same ConfigError
    at the first sample that fails.  Every value is the scalar function's,
    bit for bit.
    """

    def __init__(self, namespace: dict, k: int, body: tuple[str, ...], tail: tuple[str, ...],
                 text: str):
        self.namespace, self.scalar, self.body, self.tail = namespace, namespace[f"f{k}"], body, tail
        self.text, self.loop = text, None

    @cached_property
    def fn(self) -> Callable:
        """The numpy form, compiled into the module on first use."""
        namespace, scope = self.namespace, {}
        namespace.update(_COLUMN_NAMES)
        exec(_code(_column_source(self.body, self.tail), f"{namespace['__name__']} column"),
             namespace, scope)
        return scope["column"]

    def __call__(self, x: np.ndarray, y: np.ndarray):
        if self.loop is None:  # until the module's march is tried
            self.loop = native.column_loop(self.namespace, self.text)
        if self.loop:
            out = self.loop(x, y)
            if out is not None:
                return out
        try:
            with np.errstate(all="raise", under="ignore"):  # Python floats underflow silently
                return self.fn(x, y)
        except (ArithmeticError, TypeError, ValueError, _Fallback):
            rows = list(map(self.scalar, x.tolist(), y.tolist()))
            return np.moveaxis(np.array(rows, dtype=float), 0, -1)


class _Fallback(Exception):
    """Raised by a column form where its scalar function checks and raises."""


def libm_map(f: Callable, *args) -> np.ndarray:
    """``f`` at every sample of the array arguments, with Python floats, so
    a ``math`` function or an operator gives the bits it gives on scalars;
    other arguments are the same at every sample."""
    n = next(len(a) for a in args if type(a) is np.ndarray)
    columns = (a.tolist() if type(a) is np.ndarray else itertools.repeat(a, n) for a in args)
    return np.fromiter(map(f, *columns), dtype=float, count=n)


def _full(x: np.ndarray, value) -> np.ndarray:
    return np.full(len(x), value, dtype=float)


_COLUMN_NAMES = {"_np": np, "_libm_map": libm_map, "_full": _full, "_Fallback": _Fallback,
                 "_asfloat": partial(np.asarray, dtype=float), "_pow": operator.pow,
                 "_floordiv": operator.floordiv, "_mod": operator.mod}
# the operators numpy rounds as Python does, and those sent through libm_map
_NUMPY_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_LIBM_OPS = {ast.Pow: "_pow", ast.FloorDiv: "_floordiv", ast.Mod: "_mod"}


@lru_cache(maxsize=256)
def _column_source(body: tuple[str, ...], tail: tuple[str, ...]) -> str:
    """The source of ``column(x, y)``, the column form of the function with
    the statements ``body`` and ``tail``.

    A statement that reads neither coordinate, directly or through another
    statement, is the scalar one.  In the others + - * /, unary -, sqrt,
    abs and comparisons act on the arrays in numpy, which rounds them as
    Python rounds floats; every other call and every ``**``, ``//`` and
    ``%`` runs per sample through ``libm_map``.  A check raises _Fallback
    if any sample fails it, and the return broadcasts its constants.
    """
    varying, lines = {"x", "y"}, ["def column(x, y):"]
    for stmt in ast.parse("\n".join((*body, *tail))).body:
        if type(stmt) is ast.Assign:
            name = stmt.targets[0].id
            text, varies = _columnar(stmt.value, varying)
            if varies:
                varying.add(name)
            lines.append(f"    {name} = {text}")
        elif type(stmt) is ast.If:
            text, varies = _columnar(stmt.test, varying, bools=True)
            lines += [f"    if {f'_np.any({text})' if varies else text}:", "        raise _Fallback"]
        else:
            lines.append(f"    return {_broadcast(stmt.value, varying)}")
    return "\n".join(lines)


def _broadcast(node: ast.expr, varying: set[str]) -> str:
    if type(node) is ast.Tuple:
        return f"({', '.join(_broadcast(e, varying) for e in node.elts)})"
    text, varies = _columnar(node, varying)
    return text if varies else f"_full(x, {text})"


def _columnar(node: ast.expr, varying: set[str], bools: bool = False) -> tuple[str, bool]:
    """The column source of one expression of a function's statements, and
    whether it varies with the coordinates.  A comparison that varies gives
    bools where ``bools`` is set, in a check, and ints in arithmetic."""
    kind = type(node)
    if kind is ast.Name:
        return node.id, node.id in varying
    if kind is ast.Constant:
        return repr(node.value), False
    if kind is ast.UnaryOp:
        a, varies = _columnar(node.operand, varying, bools)
        if type(node.op) is ast.Not:
            return (f"(~{a})" if varies else f"(not {a})"), varies
        return f"({_SYMBOLS[type(node.op)]}{a})", varies
    if kind in (ast.BinOp, ast.Compare):
        op = type(node.op if kind is ast.BinOp else node.ops[0])
        (a, va), (b, vb) = (_columnar(e, varying) for e in (
            (node.left, node.right) if kind is ast.BinOp else (node.left, node.comparators[0])))
        text = f"({a} {_SYMBOLS[op]} {b})"
        if not (va or vb) or op in _NUMPY_OPS or (kind is ast.Compare and bools):
            return text, va or vb
        if kind is ast.Compare:
            return f"({text} * 1)", True
        return f"_libm_map({_LIBM_OPS[op]}, {a}, {b})", True
    args = [_columnar(a, varying) for a in node.args]
    func, texts = node.func.id, ", ".join(a for a, _ in args)
    if not any(varies for _, varies in args):
        return f"{func}({texts})", False
    if func == "_float":
        return f"_asfloat({texts})", True
    if func in ("sqrt", "abs") and len(args) == 1:
        return f"_np.{func}({texts})", True
    return f"_libm_map({func}, {texts})", True


# The inverse metric of (g11, g12, g22) = (v0, v1, v2), which must be
# positive definite
_INVERSE = """
det = v0 * v2 - v1 * v1
if not v0 > 0.0:
    raise _degenerate(x, y)
if not det > 0.0:
    raise _degenerate(x, y)
i11 = v2 / det
i12 = -v1 / det
i22 = v0 / det
"""
# Levi-Civita symbols (G^u_uu, G^u_uv, G^u_vv) = (a0, a1, a2), and b for
# G^v, from the lowered symbols G_k,ij = (d_i g_jk + d_j g_ik - d_k g_ij) / 2
# for ij = uu, uv, vv, k = u (l) and v (m)
_CHRISTOFFEL = _INVERSE + """
l0 = 0.5 * v0x
l1 = 0.5 * v0y
l2 = v1y - 0.5 * v2x
m0 = v1x - 0.5 * v0y
m1 = 0.5 * v2x
m2 = 0.5 * v2y
a0 = i11 * l0 + i12 * m0
a1 = i11 * l1 + i12 * m1
a2 = i11 * l2 + i12 * m2
b0 = i12 * l0 + i22 * m0
b1 = i12 * l1 + i22 * m1
b2 = i12 * l2 + i22 * m2
"""
# The field (Vu, Vv) from the expressions after the metric, by kind: its
# components (f, g) = (v3, v4), a flat potential p = v3 with
# V = (d_y p, -d_x p), or sigma = v3 with V = -grad sigma, after _INVERSE
_FIELDS = {"fg": "Vu = v3\nVv = v4\n", "p": "Vu = v3y\nVv = -v3x\n",
           "sigma": "Vu = -(i11 * v3x + i12 * v3y)\nVv = -(i12 * v3x + i22 * v3y)\n"}
# The geodesic acceleration, in the association order of integrate's closure RHS
_ACCELERATION = """
gV = Vu * (v0 * du + v1 * dv) + Vv * (v1 * du + v2 * dv)
ddu = -(a0 * du * du + 2.0 * a1 * du * dv + a2 * dv * dv) - E2 * Vu + gV * du
ddv = -(b0 * du * du + 2.0 * b1 * du * dv + b2 * dv * dv) - E2 * Vv + gV * dv
"""
