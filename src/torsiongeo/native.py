"""Compiled C loops built from the statement text the RK tableaux emit.

:func:`load` builds one C source with the system ``cc`` and binds one of
its functions, once per process and source text.  :func:`rk4_kernel`
translates the RK4 step a runtime's module compiled
(:meth:`expr.FusedRHS.step`) into one C function that runs a whole march,
statement by statement, so every step it takes is bitwise the Python
step's, and builds into the same library, in the same ``cc`` run, a loop
over arrays of samples (:func:`column_source`) for each column function
of the module that translates, which :class:`expr.Column` finds with
:func:`column_loop`; :func:`lanes_source` translates a step less its
guards (:func:`unguarded`) into a loop over arrays of lanes.  Nothing is
cached on disk and no option selects a kernel: where no kernel
translates, builds or loads, the Python or numpy code runs instead.
:func:`in_blocks` runs a loop over lanes in one contiguous block per CPU
the process may use, each on its own thread.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import os
import threading

import numpy as np

#: Strict IEEE double arithmetic: no FMA contraction (clang contracts by
#: default, even under -std=c99), no fast-math, so each operation rounds as
#: Python's and numpy's do and ``/ 6.0`` stays a division, and no builtins,
#: so every ``sin``, ``exp`` ... is a call of the libm routine ``math``
#: calls (GCC would otherwise merge sin and cos into sincos, or drop a call
#: whose value no statement reads).
_CC_FLAGS = ("-std=c99", "-O3", "-march=native", "-ffp-contract=off", "-fno-builtin",
             "-shared", "-fPIC")


@functools.cache
def build(source: str):
    """The ``ctypes`` library the system ``cc`` builds from the C
    ``source``, in a private temporary directory removed once it is loaded;
    None where there is no ``cc``, the build fails or times out, or the
    library does not load.  The modules are imported here so that importing
    the package does not pay for them."""
    import ctypes
    import subprocess
    import tempfile

    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "kernel.c")
            library = os.path.join(tmp, "kernel.so")
            with open(path, "w") as fh:
                fh.write(source)
            subprocess.run(["cc", *_CC_FLAGS, "-o", library, path, "-lm"],
                           capture_output=True, timeout=120, check=True)
            return ctypes.CDLL(library)
    except (OSError, subprocess.SubprocessError):
        return None


def load(source: str | None, name: str, *argtypes, restype=None):
    """The function ``name`` of the library :func:`build` makes from
    ``source``, taking ``argtypes`` and returning ``restype``: ``int`` for
    int64_t, ``float`` for double, ``np.ndarray`` for a C-contiguous array of
    doubles, ``"double *"`` for a pointer to doubles, such as
    ``ctypes.c_double.from_buffer`` of an array (which checks less than an
    array argument, and so costs less per call), None for void.  None
    where ``source`` is None or no library with ``name`` builds and loads."""
    library = None if source is None else build(source)
    fn = getattr(library, name, None)
    if fn is None:
        return None
    import ctypes

    kinds = {int: ctypes.c_int64, float: ctypes.c_double, None: None,
             np.ndarray: np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
             "double *": ctypes.POINTER(ctypes.c_double)}
    fn.argtypes = [kinds[kind] for kind in argtypes]
    fn.restype = kinds[restype]
    return fn


#: The calls a step may make in C: those for which CPython's ``math`` calls
#: the libm routine of the same name on every finite argument it accepts.
#: ``hypot`` (CPython has its own algorithm), ``atan2``, ``abs``, two-argument
#: ``log``, ``**``, ``//``, ``%`` and ``_float`` keep the Python march.
_LIBM_CALLS = frozenset({"sin", "cos", "exp", "log", "sqrt"})
_C_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_C_COMPARE = {ast.Lt: "<", ast.Gt: ">"}
_FOLD = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
         ast.Div: operator.truediv, ast.USub: operator.neg, ast.UAdd: operator.pos}
#: The C exception flags that end a compiled march: where a Python step
#: would raise, or where an overflow leaves it to Python to go on with.
_FLAGS = "FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW"
#: The step's parameters, which the loop binds: the state, h, and the
#: launch speed and box that each run binds as the step's defaults.
_PARAMS = ("u", "v", "du", "dv", "h", "E2", "u0", "u1", "v0", "v1")
#: Steps per block of rows between two calls of a compiled march.
_BLOCK = 1 << 16


class _Untranslatable(Exception):
    """A step text holds something the C loop cannot do bitwise."""


def _translate(text: str, params: tuple[str, ...]) -> tuple[list[str], set[str], list[str],
                                                          tuple[int, ...]]:
    """The C statements of the body of an emitted function of ``params``,
    the names it reads and does not assign, the values it returns, and the
    shape of its return: () for one value, (m,) for a tuple of m, (a, m)
    for a tuple of a tuples of m each, and so on.

    Each assignment becomes a ``const double``, fully parenthesized as
    Python grouped it, and each ``if ...: raise`` a ``break``; a ``try``
    keeps its body and drops its handler, since a failing operation raises
    a C exception flag instead.  A subexpression of float literals, and a
    name bound to one, is folded with Python's own arithmetic; one that is
    not finite, or fails, and an int literal keep the Python code.  A
    statement that no other reads, which Python keeps as a domain guard,
    is stored to a volatile sink so that C computes it as well.
    """
    fn = ast.parse(text).body[0]
    if [a.arg for a in fn.args.args] != list(params):
        raise _Untranslatable
    consts, assigned, read, lines, returned = {}, set(), set(), [], None

    def const(node):
        kind = type(node)
        if kind is ast.Constant and type(node.value) is float:
            return node.value
        if kind is ast.Name:
            return consts.get(node.id)
        if kind is ast.UnaryOp and type(node.op) in _FOLD:
            a = const(node.operand)
            return None if a is None else _FOLD[type(node.op)](a)
        if kind is ast.BinOp and type(node.op) in _FOLD:
            a, b = const(node.left), const(node.right)
            if a is None or b is None:
                return None
            try:
                return _FOLD[type(node.op)](a, b)
            except ArithmeticError:
                raise _Untranslatable from None
        return None

    def expr(node) -> str:
        value = const(node)
        if value is not None:
            if not math.isfinite(value):
                raise _Untranslatable
            return f"({value!r})"
        kind = type(node)
        if kind is ast.Name:
            if node.id.endswith("_"):  # the loop's own names end in _
                raise _Untranslatable
            read.add(node.id)
            return node.id
        if kind is ast.BinOp and type(node.op) in _C_OPS:
            return f"({expr(node.left)} {_C_OPS[type(node.op)]} {expr(node.right)})"
        if kind is ast.UnaryOp and type(node.op) in (ast.USub, ast.Not):
            return f"({'-' if type(node.op) is ast.USub else '!'}{expr(node.operand)})"
        if kind is ast.UnaryOp and type(node.op) is ast.UAdd:
            return expr(node.operand)
        if kind is ast.BoolOp and type(node.op) is ast.And:
            return f"({' && '.join(map(expr, node.values))})"
        if kind is ast.Compare and all(type(op) in _C_COMPARE for op in node.ops):
            terms = [node.left, *node.comparators]
            return "(" + " && ".join(f"({expr(a)} {_C_COMPARE[type(op)]} {expr(b)})" for a, op, b
                                     in zip(terms, node.ops, terms[1:])) + ")"
        if (kind is ast.Call and type(node.func) is ast.Name and node.func.id in _LIBM_CALLS
                and len(node.args) == 1 and not node.keywords):
            return f"{node.func.id}({expr(node.args[0])})"
        raise _Untranslatable

    def values(node) -> tuple[list[str], tuple[int, ...]]:
        if type(node) is not ast.Tuple:
            return [expr(node)], ()
        parts = [values(e) for e in node.elts]
        shapes = {shape for _, shape in parts}
        if len(shapes) != 1:  # ragged, or empty
            raise _Untranslatable
        return [v for part, _ in parts for v in part], (len(parts), *shapes.pop())

    def assign(name: str, value) -> None:
        if name in assigned or name in params or name.endswith("_"):
            raise _Untranslatable
        assigned.add(name)
        text = expr(value)  # raises where a folded literal is not finite
        folded = const(value)
        if folded is None:
            lines.append((name, f"const double {name} = {text};"))
        else:
            consts[name] = folded

    def walk(body) -> None:
        nonlocal returned
        for stmt in body:
            kind = type(stmt)
            if kind is ast.Try and not (stmt.orelse or stmt.finalbody):
                walk(stmt.body)
            elif kind is ast.Assign and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
                if type(target) is ast.Name:
                    assign(target.id, value)
                elif (type(target) is ast.Tuple and type(value) is ast.Tuple
                      and len(target.elts) == len(value.elts)
                      and all(type(t) is ast.Name for t in target.elts)):
                    for t, v in zip(target.elts, value.elts):
                        assign(t.id, v)
                else:
                    raise _Untranslatable
            elif kind is ast.If and not stmt.orelse and [type(s) for s in stmt.body] == [ast.Raise]:
                lines.append((None, f"if ({expr(stmt.test)}) break;"))
            elif kind is ast.Return and stmt.value is not None and stmt is fn.body[-1]:
                returned = values(stmt.value)
            else:
                raise _Untranslatable

    walk(fn.body)
    if returned is None:
        raise _Untranslatable
    out = []
    for name, line in lines:
        out.append(line)
        if name is not None and name not in read:
            out.append(f"sink_ = {name};")
    return out, read - assigned, *returned


def march_source(text: str) -> tuple[str, tuple[str, ...]] | None:
    """The C source of ``rk4_march``, which runs the RK4 step ``text`` from
    step k_ to n_, and the globals it reads; None where the text does not
    translate (see :func:`_translate`).

    ``rk4_march(k_, n_, n_full_, g_, s_, y_, out_)`` reads the globals from
    g_, the launch speed E2, the box (u0, u1, v0, v1), h and the short final
    step from s_, and the state from y_.  Step k takes h while k < n_full_
    and the short step after, as the Python march does.  It writes each new
    state as a column of the 4 x (n_ - k_) block out_, and returns how many
    steps it took, leaving the last state in y_.  It stops before a step
    that leaves the box, fails a metric check, or raises an invalid,
    divide-by-zero or overflow flag, so the Python step redoes that step and
    raises, bisects or goes on exactly as it would have.  The flags are
    cleared once and tested after each step's row is stored, and every
    input is loaded after the clear, so no operation of a step can move out
    of the span the test covers.  The caller's flags are restored.
    """
    try:
        body, reads, returned, shape = _translate(text, _PARAMS)
    except (_Untranslatable, SyntaxError, RecursionError):
        return None
    if shape != (4,):
        return None
    globals_ = tuple(sorted(reads - set(_PARAMS)))
    loads = [f"    const double {name} = g_[{i}];" for i, name in enumerate(globals_)]
    state = _PARAMS[:4]
    return "\n".join([
        "#include <fenv.h>",
        "#include <math.h>",
        "#include <stdint.h>",
        "int64_t rk4_march(int64_t k_, int64_t n_, int64_t n_full_, const double *g_,",
        "                  const double *s_, double *y_, double *out_)",
        "{",
        "    const int64_t m_ = n_ - k_;",
        "    int64_t i_ = 0;",
        "    fexcept_t saved_;",
        "    volatile double sink_;",
        f"    fegetexceptflag(&saved_, {_FLAGS});",
        f"    feclearexcept({_FLAGS});",
        *loads,
        "    const double E2 = s_[0], u0 = s_[1], u1 = s_[2], v0 = s_[3], v1 = s_[4];",
        "    const double h_full_ = s_[5], rem_ = s_[6];",
        "    double u = y_[0], v = y_[1], du = y_[2], dv = y_[3];",
        "    for (; k_ < n_; k_++, i_++) {",
        "        const double h = k_ < n_full_ ? h_full_ : rem_;",
        *(f"        {line}" for line in body),
        *(f"        out_[{j} * m_ + i_] = {name};" for j, name in enumerate(returned)),
        f"        if (fetestexcept({_FLAGS}))",
        "            break;",
        *(f"        {name} = out_[{j} * m_ + i_];" for j, name in enumerate(state)),
        "    }",
        *(f"    y_[{j}] = {name};" for j, name in enumerate(state)),
        f"    fesetexceptflag(&saved_, {_FLAGS});",
        "    return i_;",
        "}",
        ""]), globals_


#: The parameters of a column function, the chart coordinates.
_COLUMN_PARAMS = ("x", "y")


def column_source(text: str, name: str) -> tuple[str, tuple[str, ...], tuple[int, ...]] | None:
    """The C function ``name`` that runs the column function ``text``, a
    function of (x, y) a module compiled (:class:`expr.Column`), over
    arrays of samples, with the globals it reads and the shape of what the
    function returns; None where the text does not translate (see
    :func:`_translate`).  The function has no headers: it is built into its
    module's march (see :func:`rk4_kernel`).

    ``name(n_, g_, x_, y_, out_)`` reads the globals from g_, runs the n_
    samples (x_[i], y_[i]), and writes value j of sample i at
    ``out_[j * n_ + i]``, so out_ is an array of the return's shape by n_.
    It returns n_ where every sample ran clean; where a sample is NaN (two
    NaNs of opposite signs may meet in an operation C commutes, where
    Python keeps the first) or fails a check it stops there, and where any
    sample raises an invalid, divide-by-zero or overflow flag it returns
    -1, so the caller computes the column some other way.  The flags are
    cleared before any input is loaded and tested once after the last
    sample; the caller's flags are restored.
    """
    try:
        body, reads, returned, shape = _translate(text, _COLUMN_PARAMS)
    except (_Untranslatable, SyntaxError, RecursionError):
        return None
    globals_ = tuple(sorted(reads - set(_COLUMN_PARAMS)))
    loads = [f"    const double {g} = g_[{i}];" for i, g in enumerate(globals_)]
    return "\n".join([
        f"int64_t {name}(int64_t n_, const double *g_, const double *x_, const double *y_,",
        "                double *out_)",
        "{",
        "    int64_t i_ = 0;",
        "    fexcept_t saved_;",
        "    volatile double sink_;",
        f"    fegetexceptflag(&saved_, {_FLAGS});",
        f"    feclearexcept({_FLAGS});",
        *loads,
        "    for (; i_ < n_; i_++) {",
        "        const double x = x_[i_], y = y_[i_];",
        "        if (isnan(x) || isnan(y))",
        "            break;",
        *(f"        {line}" for line in body),
        *(f"        out_[{j} * n_ + i_] = {value};" for j, value in enumerate(returned)),
        "    }",
        f"    if (fetestexcept({_FLAGS}))",
        "        i_ = -1;",
        f"    fesetexceptflag(&saved_, {_FLAGS});",
        "    return i_;",
        "}",
        ""]), globals_, shape


def unguarded(text: str) -> str:
    """The step ``text`` less its guards: each ``if ...: raise`` dropped
    and each ``try`` replaced by its body, so that a step that would raise
    goes on, as a lane of numpy arrays does.  ``ast`` writes the rest back
    with each operation grouped as the text grouped it."""
    tree = ast.parse(text)

    def strip(body):
        kept = []
        for stmt in body:
            if type(stmt) is ast.Try and not (stmt.orelse or stmt.finalbody):
                kept += strip(stmt.body)
            elif not (type(stmt) is ast.If and not stmt.orelse
                      and [type(s) for s in stmt.body] == [ast.Raise]):
                kept.append(stmt)
        return kept

    tree.body[0].body = strip(tree.body[0].body)
    return ast.unparse(tree)


def lanes_source(text: str) -> str | None:
    """The C source of ``lanes(n_, steps_, h, u_, v_, du_, dv_, lo_, hi_)``,
    which steps n_ lanes steps_ times by the step ``text`` less its guards
    (see :func:`unguarded`) and folds each new v into lo_ and hi_ as
    np.minimum and np.maximum do, NaNs included; None where the text does
    not translate, or reads a global, the launch speed or the box.  A
    statement no other reads is dropped, as the loop tests no flags.
    """
    try:
        body, reads, returned, shape = _translate(unguarded(text), _PARAMS)
    except (_Untranslatable, SyntaxError, RecursionError):
        return None
    if shape != (4,) or reads - set(_PARAMS[:5]):
        return None
    v = returned[1]
    arrays = ", ".join(f"double *restrict {name}_" for name in (*_PARAMS[:4], "lo", "hi"))
    return "\n".join([
        "#include <math.h>",
        "#include <stdint.h>",
        "#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)",
        "__attribute__((target(\"prefer-vector-width=512\")))",
        "#endif",
        f"void lanes(int64_t n_, int64_t steps_, double h, {arrays})",
        "{",
        "    for (int64_t k_ = 0; k_ < steps_; k_++) {",
        "        for (int64_t i_ = 0; i_ < n_; i_++) {",
        "            const double u = u_[i_], v = v_[i_], du = du_[i_], dv = dv_[i_];",
        *(f"            {line}" for line in body if not line.startswith("sink_")),
        *(f"            {name}_[i_] = {value};" for name, value in zip(_PARAMS, returned)),
        f"            lo_[i_] = (lo_[i_] < {v} || isnan(lo_[i_])) ? lo_[i_] : {v};",
        f"            hi_[i_] = (hi_[i_] > {v} || isnan(hi_[i_])) ? hi_[i_] : {v};",
        "        }",
        "    }",
        "}",
        ""])


#: Lanes per vector of a lane loop at 512 bits: every block of lanes but
#: the last holds whole vectors.
_VECTOR = 8


def _affinity() -> list[int]:
    """The CPUs the calling thread may run on; empty where the platform
    does not say."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def _pin(cpus) -> None:
    """Keep the calling thread (not the process: Linux sets affinity per
    thread) on ``cpus``, where the platform allows it."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass


def in_blocks(run, n: int) -> int:
    """Split range(n) into up to one contiguous block [lo, hi) per CPU the
    calling thread may run on (``os.cpu_count()`` where the platform does
    not say), each of whole 8-lane vectors but for the last block's
    remainder; call ``run(lo, hi)`` on each block, and return how many
    blocks there were.

    Block 0 runs on the calling thread and each other block on a thread of
    its own, so the blocks overlap only where ``run`` releases the GIL, as
    a ``ctypes`` call of a compiled loop does.  Block i is kept on the i-th
    of those CPUs while it runs (Linux would otherwise start a new thread
    on its creator's CPU and may leave it there); the calling thread gets
    its CPUs back afterwards.  Every thread is joined before this returns,
    also where a block raises; the lowest block's exception is then raised
    here.
    """
    allowed = _affinity()
    vectors = -(-n // _VECTOR)
    count = max(1, min(len(allowed) or os.cpu_count() or 1, vectors))
    bounds = [min(n, _VECTOR * (vectors * i // count)) for i in range(count + 1)]
    pin = count > 1 and bool(allowed)
    errors: list[BaseException | None] = [None] * count

    def worker(i: int) -> None:
        try:
            if pin:
                _pin({allowed[i]})
            run(bounds[i], bounds[i + 1])
        except BaseException as exc:  # raised below, on the calling thread
            errors[i] = exc

    started = []
    try:
        for i in range(1, count):
            thread = threading.Thread(target=worker, args=(i,))
            thread.start()
            started.append(thread)
        if pin:
            _pin({allowed[0]})
        run(bounds[0], bounds[1])
    finally:
        for thread in started:
            thread.join()
        if pin:
            _pin(allowed)
    for exc in errors:
        if exc is not None:
            raise exc
    return count


class Kernel:
    """One step text's compiled march and the globals it reads, with the
    sample loops built with it, by the text of their column functions."""

    def __init__(self, fn, globals_: tuple[str, ...], columns: dict[str, ColumnLoop]):
        self.fn, self.globals, self.columns = fn, globals_, columns

    def march(self, step, y: tuple, n: int, n_full: int, h: float, rem: float):
        """Run ``step``, an RK4 step of this kernel's text, from state ``y``
        for steps 0 .. n - 1 (h before step n_full, ``rem`` from it on).

        Returns the 4-row blocks of the states it took, the number of steps
        and the last state, a tuple of floats; it stops early where the
        Python step must take over.  A global that is not a finite float
        leaves every step to Python.  Each call passes n_full clipped to
        its block's end, where it reads the same and fits an int64.
        """
        values = [step.__globals__.get(name) for name in self.globals]
        if not all(type(x) is float and math.isfinite(x) for x in values):
            return [], 0, y
        g = np.array(values, dtype=float)
        s = np.array((*step.__defaults__, h, rem), dtype=float)
        state = np.array(y, dtype=float)
        blocks, k = [], 0
        while k < n:
            block = np.empty((4, min(n - k, _BLOCK)))
            end = k + block.shape[1]
            done = self.fn(k, end, min(n_full, end), g, s, state, block)
            blocks.append(block[:, :done])
            k += done
            if done < block.shape[1]:
                break
        return blocks, k, tuple(state.tolist())


#: Each step text's compiled march, or None where it does not translate or
#: build; a text is tried once per process.
_KERNELS: dict[str, Kernel | None] = {}
#: The steps of the marches that rk4_kernel has left to Python in this
#: process, per text not yet in _KERNELS.
_STEPPED: dict[str, int] = {}


def rk4_kernel(step, n: int, min_steps: int) -> Kernel | None:
    """The compiled march of the text of ``step``, an RK4 step
    :meth:`expr.FusedRHS.step` returned, for a march of ``n`` steps: the
    one already loaded in this process; else one translated and built now,
    where ``n >= min_steps`` or where the earlier marches of the text that
    this function left to Python add up to at least ``min_steps`` steps;
    else None, and the march's ``n`` steps count towards the text's build.
    None too where the text does not translate or build (which is not
    tried again).

    This is the rent-or-buy rule: a text pays per step in Python until its
    Python steps add up to the cost of one build, then builds.  Only
    earlier marches count, so a text marched once builds only where that
    march is long, and a text marched again builds once, in a later march.
    A text leaves the tally once its build is tried, so the tally holds
    only the texts still stepping in Python.
    """
    text = step.__globals__.get("_source_rk4")
    if text is None:
        return None
    if text not in _KERNELS:
        stepped = _STEPPED.get(text, 0)
        if n < min_steps and stepped < min_steps:
            _STEPPED[text] = stepped + n
            return None
        _STEPPED.pop(text, None)
        _KERNELS[text] = _load(text, step.__globals__.get("_columns", ()))
    return _KERNELS[text]


def _load(text: str, columns: tuple[str, ...]) -> Kernel | None:
    """The march of the step ``text``, built in one library with the sample
    loops of those of its module's column functions ``columns`` that
    translate; None where the march does not translate or build."""
    source, globals_ = march_source(text) or (None, ())
    loops = {}  # a column function's text: its C function's name, globals and shape
    for i, column in enumerate(columns if source is not None else ()):
        made = column_source(column, f"col_{i}")
        if made is not None:
            source += made[0]
            loops[column] = (f"col_{i}", *made[1:])
    fn = load(source, "rk4_march", int, int, int, *[np.ndarray] * 4, restype=int)
    if fn is None:
        return None
    return Kernel(fn, globals_, {
        column: ColumnLoop(load(source, name, int, *["double *"] * 4, restype=int), reads, shape)
        for column, (name, reads, shape) in loops.items()})


class ColumnLoop:
    """One column function's compiled sample loop (see
    :func:`column_source`), the globals it reads and the shape of what the
    function returns."""

    def __init__(self, fn, globals_: tuple[str, ...], shape: tuple[int, ...]):
        self.fn, self.globals, self.shape = fn, globals_, shape

    def bind(self, namespace: dict):
        """The loop with the globals of the module ``namespace``:
        ``loop(x, y)`` gives an array of the return's shape by len(x),
        whose [..., i] is what the function returns at (x[i], y[i]), for
        non-empty, writable 1-d float arrays x and y of one length (each
        copied first where it is not contiguous); None for other arrays,
        and where the loop does not run every sample clean.  None where a
        global is not a finite float."""
        import ctypes

        values = [namespace.get(name) for name in self.globals]
        if not all(type(x) is float and math.isfinite(x) for x in values):
            return None
        address, fn, shape = ctypes.c_double.from_buffer, self.fn, self.shape
        g = address(np.array(values)) if values else None  # keeps its array alive

        def loop(x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
            n = len(x)
            if not (n and x.dtype == y.dtype == np.float64 and x.shape == y.shape == (n,)):
                return None
            out = np.empty((*shape, n))
            try:
                done = fn(n, g, address(np.ascontiguousarray(x)),
                          address(np.ascontiguousarray(y)), address(out))
            except TypeError:  # a read-only array
                return None
            return out if done == n else None

        return loop


def column_loop(namespace: dict, text: str):
    """The compiled sample loop of the column function ``text`` of the
    module ``namespace``, bound to its globals (see :meth:`ColumnLoop.bind`):
    the one built with the march of the module's RK4 step, where that march
    is loaded and was built from a module with a column function of the same
    text.  None where that march has not been tried yet, so a later call
    may find one; False where it never will."""
    step = namespace.get("_source_rk4")
    if step not in _KERNELS:
        return None
    kernel = _KERNELS[step]
    loop = kernel and kernel.columns.get(text)
    return (loop and loop.bind(namespace)) or False
