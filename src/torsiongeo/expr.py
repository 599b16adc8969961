"""The config expression compiler.

An expression is Python source restricted to arithmetic on the two chart
coordinates, int and float constants and a whitelist of ``math``
functions.  ``_compile`` turns a tuple of them into one module of
straight-line functions with their exact partial derivatives; an input
outside the grammar, or an evaluation that fails, raises ``ConfigError``.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from functools import lru_cache, partial
from types import FunctionType
from typing import Callable

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
            ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod,
            ast.UAdd: operator.pos, ast.USub: operator.neg}

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
    order = []
    while stack:
        node = stack.pop()
        order.append(node)
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
    _check_int_powers(src, order)
    return tree.body


def _check_int_powers(src: str, order: list[ast.expr]) -> None:
    """Reject an int-only ``**`` whose value exceeds the float range, such as
    9**9**9, before Python computes it exactly.  Int-only subtrees are
    evaluated children first (``order`` is a pre-order walk); a power is
    bounded by its exponent times its base's bit length before it is computed.
    """
    ints: dict[ast.expr, int] = {}
    for node in reversed(order):
        kind = type(node)
        if kind is ast.Constant and type(node.value) is int:
            ints[node] = node.value
        elif kind is ast.UnaryOp and node.operand in ints:
            ints[node] = _INT_OPS[type(node.op)](ints[node.operand])
        elif kind is ast.BinOp and node.left in ints and node.right in ints:
            a, b, op = ints[node.left], ints[node.right], type(node.op)
            if op is ast.Pow and b >= 0:
                try:
                    if (abs(a).bit_length() - 1) * b >= 1024:
                        raise OverflowError
                    ints[node] = a ** b
                    float(ints[node])
                except OverflowError:
                    raise ConfigError(f"expression {_quote(src)}: an integer power "
                                      f"exceeds the float range") from None
            elif op in _INT_OPS and (b != 0 or op not in (ast.FloorDiv, ast.Mod)):
                ints[node] = _INT_OPS[op](a, b)


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
# a = 0, evaluating the partial fails.
_RULES = {
    ast.Add: "DA0 + DA1", ast.Sub: "DA0 - DA1", ast.Mult: "DA0 * A1 + A0 * DA1",
    ast.Div: "(DA0 - F * DA1) / A1", ast.FloorDiv: "0", ast.Mod: "DA0 - (A0 // A1) * DA1",
    ast.UAdd: "DA0", ast.USub: "-DA0",
    "sin": "cos(A0) * DA0", "cos": "-sin(A0) * DA0", "tan": "(1.0 + F * F) * DA0",
    "asin": "DA0 / sqrt(1.0 - A0 * A0)", "acos": "-DA0 / sqrt(1.0 - A0 * A0)",
    "atan": "DA0 / (1.0 + A0 * A0)", "atan2": "(A1 * DA0 - A0 * DA1) / (A0 * A0 + A1 * A1)",
    "sinh": "cosh(A0) * DA0", "cosh": "sinh(A0) * DA0", "tanh": "(1.0 - F * F) * DA0",
    "asinh": "DA0 / hypot(A0, 1.0)", "acosh": "DA0 / (sqrt(A0 - 1.0) * sqrt(A0 + 1.0))",
    "atanh": "DA0 / (1.0 - A0 * A0)", "exp": "F * DA0",
    "log": ("DA0 / A0", "(DA0 / A0 - F * DA1 / A1) / log(A1)"),
    "log2": f"DA0 / (A0 * {math.log(2.0)!r})", "log10": f"DA0 / (A0 * {math.log(10.0)!r})",
    "sqrt": "0.5 * DA0 / F", "abs": "((A0 > 0) - (A0 < 0)) * DA0",
    # one term of the sum over the arguments, each added by its own statement
    "hypot": "A0 / F * DA0",
}
# a ** b by which of a and b vary along the axis
_POW_RULES = {(True, False): "A1 * A0 ** (A1 - 1) * DA0", (False, True): "F * log(A0) * DA1",
              (True, True): "F * (DA1 * log(A0) + A1 * DA0 / A0)"}
_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
            ast.Mod: "%", ast.Pow: "**", ast.UAdd: "+", ast.USub: "-", ast.Gt: ">", ast.Lt: "<"}
# an operand is Python source: a name, a number, or a parenthesized expression
_ZEROS, _ONES = ("0", "0.0"), ("1", "1.0")


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
        return a if a in _ZEROS else f"(-{a})"
    if kind is ast.BinOp:
        a, b, op = _fold(node.left, env), _fold(node.right, env), type(node.op)
        if (op is ast.Mult and (a in _ZEROS or b in _ZEROS)) or (op is ast.Div and a in _ZEROS):
            return "0.0"
        if (op is ast.Mult and a in _ONES) or (op is ast.Add and a in _ZEROS):
            return b
        if (op in (ast.Mult, ast.Div) and b in _ONES) or (op in (ast.Add, ast.Sub)
                                                          and b in _ZEROS):
            return a
        if op is ast.Sub and a in _ZEROS:
            return f"(-{b})"
        return f"({a} {_SYMBOLS[op]} {b})"
    if kind is ast.Compare:
        a, b, op = _fold(node.left, env), _fold(node.comparators[0], env), type(node.ops[0])
        if a in _ZEROS + _ONES and b in _ZEROS + _ONES:  # a check of a constant metric
            return repr(float(a) > float(b) if op is ast.Gt else float(a) < float(b))
        return f"({a} {_SYMBOLS[op]} {b})"
    if kind is ast.Tuple:
        return f"({', '.join(_fold(e, env) for e in node.elts)})"
    return f"{node.func.id}({', '.join(_fold(a, env) for a in node.args)})"


# the tokens of a statement's right side that decide whether it is a float
_TOKENS = re.compile(r"\*\*|//|[<>/]|[A-Za-z_]\w*|[\d.]+(?:e[-+]?\d+)?")


def _is_float(text: str, kinds: dict[str, bool]) -> bool | None:
    """True where source surely evaluates to a float and False where to an
    int or a float, given ``kinds``: True for the names that hold floats,
    False for those that hold ints.  None where it may be complex or a bool:
    it reads ``**``, a comparison or another name.  Any arithmetic with a
    float, a true division and a call other than abs give a float."""
    tokens = _TOKENS.findall(text)
    if any(t in ("**", "<", ">") or ((t[0].isalpha() or t[0] == "_") and t not in kinds
                                     and t not in _CALLABLE_NAMES) for t in tokens):
        return None
    return any(kinds.get(t) or t == "/" or (t in _CALLABLE_NAMES and t != "abs")
               or (t[0] in "0123456789." and ("." in t or "e" in t)) for t in tokens)


def _bind(name: str, operand: str, env: dict[str, str], kinds: dict[str, bool]) -> list[str]:
    """The statement binding ``name`` to an operand as a float, or none where
    ``env`` substitutes the operand: an exact 0 or 1, or a sure float."""
    if operand in _ZEROS or operand in _ONES:  # most partials of a metric are 0
        env[name] = repr(float(operand))
    elif _is_float(operand, kinds):
        env[name] = operand
    else:
        return [f"{name} = _float({operand})"]
    return []


def _emit_tail(tail: str, env: dict[str, str], read: set[str]) -> list[str]:
    """The statements of a tail, each expression folded with the names
    bound in ``env`` substituted.  An assignment that folds to 0, 1 or a
    name binds its target instead, and a check whose test folds to False is
    dropped: on a flat metric, the Christoffel symbols fold to a constant
    tuple."""
    text = _folded_tail(tail, tuple(sorted((name, operand) for name, operand in env.items()
                                           if operand in ("0.0", "1.0") and name in read)))
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
                text = "1.0"  # det / det, after the check that det > 0
            if text in _ZEROS or text in _ONES or text.isidentifier():
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


def _straight_line(body: ast.expr, axes: str, memo: dict[str, str],
                   kinds: dict[str, bool]) -> tuple[list[str], str, dict]:
    """A checked tree as straight-line source, one statement per operation,
    with its partials along ``axes`` derived operation by operation.

    Returns the statements of the value, the value's operand, and for each
    axis the statements of the partial and its operand.  ``memo`` names
    each distinct operation once, across all the trees compiled together,
    so a repeated subexpression repeats its statement verbatim, and names
    each float literal but 0.0 and 1.0, which fold, as a global c0, c1, ...
    ``kinds`` collects the names that surely hold floats or ints (see
    ``_is_float``).  The walk keeps its own stack, so a deep tree cannot
    exhaust Python's.
    """
    values, partials, out = [], {axis: [] for axis in axes}, {}
    stack = [(body, False)]
    while stack:
        node, ready = stack.pop()
        kind = type(node)
        if kind is ast.Name or kind is ast.Constant:
            leaf = node.id if kind is ast.Name else repr(node.value)
            if kind is ast.Constant and type(node.value) is float and node.value not in (0.0, 1.0):
                leaf = memo.setdefault(leaf, f"c{len(memo)}")  # a global; see _compile
                kinds[leaf] = True
            out[node] = leaf, {axis: "1.0" if leaf == axis else "0.0" for axis in axes}
            continue
        args = ((node.left, node.right) if kind is ast.BinOp else
                (node.operand,) if kind is ast.UnaryOp else node.args)
        if not ready:
            stack.append((node, True))
            stack.extend((a, False) for a in reversed(args))
            continue
        ops = [out.pop(a) for a in args]
        vals = [v for v, _ in ops]
        value = (f"{vals[0]} {_SYMBOLS[type(node.op)]} {vals[1]}" if kind is ast.BinOp else
                 f"{_SYMBOLS[type(node.op)]}{vals[0]}" if kind is ast.UnaryOp else
                 f"{node.func.id}({', '.join(vals)})")
        name = memo.setdefault(value, f"t{len(memo)}")
        values.append(f"{name} = {value}")
        if (typed := _is_float(value, kinds)) is not None:
            kinds[name] = typed
        rule_kind = node.func.id if kind is ast.Call else type(node.op)
        d = {}
        for axis in axes:
            das = [ds[axis] for _, ds in ops]
            varies = tuple(da not in _ZEROS for da in das)
            rule = _rule(rule_kind, len(args), varies) if any(varies) else None
            text, lines = "0.0", partials[axis]
            if rule is not None and rule_kind == "hypot":  # one statement per term
                terms = (_fold(rule, {"F": name, "A0": a, "DA0": da})
                         for a, da, var in zip(vals, das, varies) if var)
                for k, term in enumerate(terms):
                    term = f"{text} + {term}" if k else term
                    text = f"{name}{axis}{k}"
                    lines.append(f"{text} = {term}")
                    if (typed := _is_float(term, kinds)) is not None:
                        kinds[text] = typed
            elif rule is not None:
                text = _fold(rule, {"F": name, **{f"A{k}": a for k, a in enumerate(vals)},
                                    **{f"DA{k}": da for k, da in enumerate(das)}})
            if text not in _ZEROS and text not in _ONES and not text.isidentifier():
                lines.append(f"{name}{axis} = {text}")
                if (typed := _is_float(text, kinds)) is not None:
                    kinds[f"{name}{axis}"] = typed
                text = f"{name}{axis}"
            d[axis] = text
        out[node] = name, d
    value, d = out[body]
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


def _compile(srcs: tuple, *tails: str, **names) -> tuple[Callable, ...]:
    """Compile expressions into one module of straight-line functions of
    the float coordinates (x, y), one per tail.

    In each function expression i is bound to the float vi, and its
    partials along x and y to vix and viy, where the tail reads them; the
    expressions a tail reads are evaluated, each value before any partial,
    and an operation they share is evaluated once.  A tail is a block of
    assignments and ``if ...: raise`` checks ending in a return, emitted
    folded (see ``_emit_tail``); ``names`` are extra globals it uses.  A
    tail that reads E2 is a fused geodesic RHS: in its place comes a factory
    that takes E2 and returns ``rhs(x, y, du, dv)``.  Any other function
    takes (x, y), with y = 0 by default for a profile r(x).  An arithmetic,
    type or domain failure raises ConfigError naming the expression,
    whether its value or its partial failed, and the point.
    """
    reads = [set(re.findall(r"\w+", tail)) for tail in tails]
    memo, env, kinds = {}, {}, dict.fromkeys(("x", "y", "pi", "e", "tau"), True)
    blocks = {}  # vi, vix, viy -> (statements that bind it, (i, whether a partial))
    for i, src in enumerate(srcs):
        values, value, partials = _straight_line(_checked(src), "".join(
            axis for axis in "xy" if any(f"v{i}{axis}" in read for read in reads)), memo, kinds)
        blocks[f"v{i}"] = [*values, *_bind(f"v{i}", value, env, kinds)], (i, False)
        for axis, (lines, operand) in partials.items():
            blocks[f"v{i}{axis}"] = [*lines, *_bind(f"v{i}{axis}", operand, env, kinds)], (i, True)

    source, owners = [], {}
    for k, (tail, read) in enumerate(zip(tails, reads)):
        body = {}  # statement -> owner, the values a tail reads first, then the partials
        for name in ([n for n in blocks if n[-1].isdigit() and read & {n, n + "x", n + "y"}]
                     + [n for n in blocks if not n[-1].isdigit() and n in read]):
            lines, owner = blocks[name]
            for line in lines:
                body.setdefault(line, owner)
        source.append(f"def f{k}(x, y, du, dv, E2=None):" if "E2" in read else
                      f"def f{k}(x, y=0.0):")
        if body:
            source.append("    try:")
            for line, owner in body.items():
                source.append(f"        {line}")
                owners[len(source)] = owner
            source += ["    except _ERRORS as exc:", "        raise _fail(x, y, exc) from exc"]
        source += [f"    {line}" for line in _emit_tail(tail, env, read)]
    namespace = {"__builtins__": {}, **_SAFE_NAMES, "_float": float,
                 "_fail": partial(_failure, srcs, owners),
                 "_ERRORS": (ArithmeticError, TypeError, ValueError), **names,
                 **{name: float(text) for text, name in memo.items() if name[0] == "c"}}
    exec(_code("\n".join(source)), namespace)
    return tuple(partial(_bound_E2, namespace[f"f{k}"]) if "E2" in read else namespace[f"f{k}"]
                 for k, read in enumerate(reads))


@lru_cache(maxsize=256)
def _code(source: str):
    """The code of a generated module.  Float literals are globals, so the
    modules of expressions that differ only in them, such as the configs of
    a sweep over constants, are one text and compile once."""
    return compile(source, "<scenario-config>", "exec")


def _bound_E2(rhs: Callable, E2: float) -> Callable:
    """A copy of ``rhs(x, y, du, dv, E2)`` whose E2 defaults to ``E2``, so the
    RHS of a trace reads its launch speed as a local."""
    return FunctionType(rhs.__code__, rhs.__globals__, "rhs", (E2,))


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
