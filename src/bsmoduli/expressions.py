"""Tiny expression language for scalar fields on a 2D chart.

Grammar (used by config files and interactive construction):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('+' | '-') unary | power
    power   := atom ('^' signed-integer)?
    atom    := number | 'pi' | 'x' | 'y'
             | ('sin' | 'cos') '(' expr ')'
             | '(' expr ')'

Numbers are ordinary decimal/scientific literals.  Exponents are integer
literals.  The argument of ``sin``/``cos`` must be a linear form
``a*x + b*y + c`` (this keeps derivatives inside the language and makes
periodicity on a torus decidable).

Python's own parser reads this grammar, with ``^`` written as ``**``, and
``_translate`` admits only its nodes, so Python's wider syntax is an error.

The AST is a nested tuple: ``('const', v)``, ``('var', 'x')``,
``('add'|'sub'|'mul'|'div', a, b)``, ``('pow', a, k)``,
``('sin'|'cos', a)``.

A tree is evaluated by translating it into Python source, one
assignment per node in the order a recursive walk visits them (``_Emitter``),
and compiling that into a function ``(x, y) -> tuple of values``.  The source
is emitted from the caller's own trees; one cache maps it to its code object,
and the constants are bound by name, so trees of one form share the code.  A
``ScalarField`` compiles its value and gradient trees on first use and keeps
the kernels; ``evaluate`` serves any other tree.  The classical flow emits
its trees at variables of its own naming into the template of a whole flow,
every step's Newton solve in one function, through the same emitter and the
same cache.  The numpy namespace (``np.power``, ``np.sin``, ``np.cos``)
serves arrays; the point namespace runs on Python floats for one point of a
classical flow and gives the same bits.  The generator emits only the
grammar's operators and functions, the names x and y, integer exponents and
constants bound by name, so nothing from a tree is pasted into the source.
"""

import ast
import functools
import math
import re
import types
import warnings

import numpy as np

from .errors import ExpressionError

_NUMBER = r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"
_LITERAL_RE = re.compile(_NUMBER)
_EXPONENT_RE = re.compile(rf"(-?) *({_NUMBER})")
_BINARY_OPS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div"}


def parse(text):
    """Parse ``text`` into an AST node, raising ExpressionError on bad input.

    ``**``, ``#`` (a comment to Python) and any character beyond ASCII (Python
    folds some, such as the mathematical italic x, into x) are rejected first.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    source = re.sub(r"\s", " ", text).strip()
    bad = re.search(r"[^\x01-\x7f]|\*\*|#", source)
    if bad:
        raise ExpressionError(f"unexpected {bad.group()!r} in {text!r}")
    # the grammar reads an integer literal with leading zeros, such as 007; Python does not
    source = re.sub(r"(?<![\w.])0+(?=\d)", "", source.replace("^", "**"))
    try:
        with warnings.catch_warnings():
            # such as "invalid decimal literal" for 1if, which is an error here anyway
            warnings.simplefilter("ignore", SyntaxWarning)
            body = ast.parse(source, mode="eval").body
    except (MemoryError, RecursionError):
        raise ExpressionError("expression nested too deeply") from None
    except SyntaxError as exc:
        if exc.msg == "too many nested parentheses":
            raise ExpressionError("expression nested too deeply") from None
        raise ExpressionError(f"cannot parse {text!r}") from None
    return _unnested(_translate, body, source, text)


def _translate(node, source, text):
    """The grammar's tuple for a node of Python's tree of ``source``, or ExpressionError.

    A literal is admitted by its source text, so ``0x1``, ``1_0``, ``1j``
    and ``True`` are not numbers, and so is an exponent: a literal with an
    optional minus and no parentheses, whose value is an integer.  A call is
    ``sin`` or ``cos`` of one argument as the grammar writes it, so
    ``(sin)(x)`` and ``sin(x,)`` are errors.
    """
    segment = source[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        a, b = _translate(node.left, source, text), _translate(node.right, source, text)
        return (_BINARY_OPS[type(node.op)], a, b)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        base = _translate(node.left, source, text)
        m = _EXPONENT_RE.fullmatch(source, node.right.col_offset, node.end_col_offset)
        k = float(m.group(2)) if m else math.nan
        if not k.is_integer():
            raise ExpressionError(f"exponent must be an integer in {text!r}")
        return ("pow", base, -int(k) if m.group(1) else int(k))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        a = _translate(node.operand, source, text)
        return ("sub", ("const", 0.0), a) if isinstance(node.op, ast.USub) else a
    if isinstance(node, ast.Name) and node.id in ("x", "y", "pi"):
        return ("const", math.pi) if node.id == "pi" else ("var", node.id)
    if isinstance(node, ast.Constant) and _LITERAL_RE.fullmatch(segment):
        return ("const", float(segment))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("sin", "cos") and node.func.col_offset == node.col_offset
            and len(node.args) == 1 and not node.keywords
            and "," not in source[node.args[0].end_col_offset:node.end_col_offset]):
        arg = _translate(node.args[0], source, text)
        if linear_coefficients(arg) is None:
            raise ExpressionError(
                f"{node.func.id} expects a linear form a*x + b*y + c, got nonlinear argument"
            )
        return (node.func.id, arg)
    raise ExpressionError(f"unexpected {segment!r} in {text!r}")


def _unnested(walk, *args):
    """walk(*args), with a RecursionError of its recursion raised as ExpressionError.

    The recursive walks call themselves, not this guard, so it costs one frame
    per walk and every tree Python's recursion limit admits still walks.
    """
    try:
        return walk(*args)
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None


def _fold(tag, a, b):
    """a op b for two constants, ``b`` an integer exponent for "pow".

    Where Python float arithmetic raises (a division by zero, including 0^-k,
    or a power that overflows) this raises ExpressionError instead; sums and
    products that overflow give inf, as the grammar's inf constants do.
    """
    try:
        if tag == "add":
            return a + b
        if tag == "sub":
            return a - b
        if tag == "mul":
            return a * b
        if tag == "div":
            return a / b
        return a**b
    except ZeroDivisionError:
        raise ExpressionError("division by a constant zero") from None
    except OverflowError:
        raise ExpressionError(f"constant {a!r}^{b!r} overflows") from None


def _fold_trig(tag, a):
    """sin(a) or cos(a) of a constant; ExpressionError where math raises (a infinite)."""
    try:
        return math.sin(a) if tag == "sin" else math.cos(a)
    except ValueError:
        raise ExpressionError(f"constant {tag}({a!r}) is not defined") from None


def constant_value(node):
    """Value of a variable-free node, or None."""
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "var":
        return None
    if tag in ("add", "sub", "mul", "div"):
        a = constant_value(node[1])
        b = constant_value(node[2])
        if a is None or b is None:
            return None
        return _fold(tag, a, b)
    if tag == "pow":
        a = constant_value(node[1])
        return None if a is None else _fold("pow", a, node[2])
    a = constant_value(node[1])
    return None if a is None else _fold_trig(tag, a)


def linear_coefficients(node):
    """Coefficients (a, b, c) when node == a*x + b*y + c, else None."""
    tag = node[0]
    if tag == "const":
        return (0.0, 0.0, node[1])
    if tag == "var":
        return (1.0, 0.0, 0.0) if node[1] == "x" else (0.0, 1.0, 0.0)
    if tag in ("add", "sub"):
        la = linear_coefficients(node[1])
        lb = linear_coefficients(node[2])
        if la is None or lb is None:
            return None
        s = 1.0 if tag == "add" else -1.0
        return tuple(u + s * v for u, v in zip(la, lb))
    if tag == "mul":
        ca = constant_value(node[1])
        cb = constant_value(node[2])
        if ca is not None:
            lb = linear_coefficients(node[2])
            return None if lb is None else tuple(ca * v for v in lb)
        if cb is not None:
            la = linear_coefficients(node[1])
            return None if la is None else tuple(cb * v for v in la)
        return None
    if tag == "div":
        cb = constant_value(node[2])
        if cb is None:
            return None
        la = linear_coefficients(node[1])
        return None if la is None else tuple(_fold("div", v, cb) for v in la)
    if tag == "pow":
        if node[2] == 0:
            return (0.0, 0.0, 1.0)
        if node[2] == 1:
            return linear_coefficients(node[1])
        c = constant_value(node)
        return None if c is None else (0.0, 0.0, c)
    c = constant_value(node)
    return None if c is None else (0.0, 0.0, c)


_BINARY = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _float_power(a, k):
    return float(np.power(a, k))


# numpy's power is not libm's pow to the last bit (with AVX-512 it differs on
# about 1% of arguments), so the point namespace calls np.power too; numpy's
# float64 sin and cos give libm's bits (both checked by the expression tests).
_NAMESPACES = {
    False: {"power": np.power, "sin": np.sin, "cos": np.cos},
    True: {"power": _float_power, "sin": math.sin, "cos": math.cos},
}


class _Emitter:
    """Python source for trees: one assignment per node, in the order a recursive walk visits them.

    Temps (t0, t1, ...) and constants (c0, c1, ...) are numbered across every
    ``emit`` of one emitter, so the blocks of one function never clash.  Each
    constant is bound by name to its own float in ``consts``, so 0.0 and -0.0
    stay apart and the source holds only the trees' form.
    """

    def __init__(self):
        self.consts = {}
        self.temps = 0

    def emit(self, nodes, x="x", y="y"):
        """(lines, names): assignments computing ``nodes`` from the variables named x and y.

        ``names`` holds each tree's value: a temp, a constant or x or y itself.
        """
        lines = []

        def walk(node):
            tag = node[0]
            if tag == "const":
                if not isinstance(node[1], (int, float)):
                    raise ExpressionError(f"constant must be a number, got {node[1]!r}")
                name = f"c{len(self.consts)}"
                self.consts[name] = float(node[1])
                return name
            if tag == "var":
                if node[1] not in ("x", "y"):
                    raise ExpressionError(f"unknown variable {node[1]!r}")
                return x if node[1] == "x" else y
            if tag in _BINARY:
                value = f"{walk(node[1])} {_BINARY[tag]} {walk(node[2])}"
            elif tag == "pow":
                base, k = walk(node[1]), int(node[2])
                if k != node[2]:
                    raise ExpressionError(f"exponent must be an integer, got {node[2]!r}")
                value = f"1.0 / power({base}, {-k})" if k < 0 else f"power({base}, {k})"
            elif tag in ("sin", "cos"):
                value = f"{'sin' if tag == 'sin' else 'cos'}({walk(node[1])})"
            else:
                raise ExpressionError(f"unknown expression tag {tag!r}")
            name = f"t{self.temps}"
            self.temps += 1
            lines.append(f"{name} = {value}")
            return name

        return lines, _unnested(list, map(walk, nodes))


def _compile(nodes, scalar):
    """One function (x, y) -> tuple of the values of ``nodes``, emitted from the caller's trees.

    ``scalar`` picks the namespace: math on Python floats for one point,
    numpy for arrays.  Trees that differ only in their constants (a new
    field of the same form) share one code object from ``_code``, the one
    compile cache.  A field keeps the kernels it compiles; ``evaluate``
    emits its tree again on each call, and the classical flow emits its
    whole step loop, Newton solves included, once per call into one function
    that it calls once (``dynamics._newton_step``).
    """
    emitter = _Emitter()
    lines, results = emitter.emit(nodes)
    body = "".join(f"    {line}\n" for line in lines)
    source = f"def kernel(x, y):\n{body}    return ({', '.join(results)},)\n"
    return _function(source, dict(_NAMESPACES[scalar], **emitter.consts))


def _function(source, namespace):
    """The function ``kernel`` that ``source`` defines, on ``namespace`` and no builtins."""
    return types.FunctionType(_code(source), dict(namespace, __builtins__={}))


@functools.lru_cache(maxsize=32)
def _code(source):
    namespace = {"__builtins__": {}}
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["kernel"].__code__


def evaluate(node, x, y):
    """Evaluate the AST with numpy broadcasting over x, y: one call of its compiled numpy kernel."""
    return _compile((node,), False)(x, y)[0]


def differentiate(node, var):
    """Exact partial derivative of the AST with respect to 'x' or 'y'.

    A quotient by a constant c differentiates to a'/c, so c is never squared.
    """
    return _unnested(_differentiate, node, var)


def _differentiate(node, var):
    tag = node[0]
    if tag == "const":
        return ("const", 0.0)
    if tag == "var":
        return ("const", 1.0 if node[1] == var else 0.0)
    if tag == "add" or tag == "sub":
        return (tag, _differentiate(node[1], var), _differentiate(node[2], var))
    if tag == "mul":
        a, b = node[1], node[2]
        return (
            "add",
            ("mul", _differentiate(a, var), b),
            ("mul", a, _differentiate(b, var)),
        )
    if tag == "div":
        a, b = node[1], node[2]
        if constant_value(b) is not None:
            return ("div", _differentiate(a, var), b)
        num = (
            "sub",
            ("mul", _differentiate(a, var), b),
            ("mul", a, _differentiate(b, var)),
        )
        return ("div", num, ("pow", b, 2))
    if tag == "pow":
        a, k = node[1], node[2]
        if k == 0:
            return ("const", 0.0)
        return (
            "mul",
            ("mul", ("const", float(k)), ("pow", a, k - 1)),
            _differentiate(a, var),
        )
    if tag == "sin":
        return ("mul", ("cos", node[1]), _differentiate(node[1], var))
    return ("mul", ("const", -1.0), ("mul", ("sin", node[1]), _differentiate(node[1], var)))


def simplify(node):
    """Constant folding plus elimination of additive/multiplicative units.

    A division by a constant zero, or a constant that does not fold
    (``_fold``), raises ExpressionError.
    """
    return _unnested(_simplify, node)


def _simplify(node):
    tag = node[0]
    if tag in ("const", "var"):
        return node
    if tag in ("add", "sub", "mul", "div"):
        a = _simplify(node[1])
        b = _simplify(node[2])
        ca = a[1] if a[0] == "const" else None
        cb = b[1] if b[0] == "const" else None
        if tag == "div" and cb == 0.0:
            raise ExpressionError("division by a constant zero")
        if ca is not None and cb is not None:
            return ("const", _fold(tag, ca, cb))
        if tag == "add":
            if ca == 0.0:
                return b
            if cb == 0.0:
                return a
        if tag == "sub" and cb == 0.0:
            return a
        if tag == "mul":
            if ca == 0.0 or cb == 0.0:
                return ("const", 0.0)
            if ca == 1.0:
                return b
            if cb == 1.0:
                return a
        if tag == "div" and cb == 1.0:
            return a
        return (tag, a, b)
    if tag == "pow":
        a = _simplify(node[1])
        if node[2] == 0:
            return ("const", 1.0)
        if node[2] == 1:
            return a
        if a[0] == "const":
            return ("const", _fold("pow", a[1], node[2]))
        return ("pow", a, node[2])
    a = _simplify(node[1])
    if a[0] == "const":
        return ("const", _fold_trig(tag, a[1]))
    return (tag, a)


def trig_frequencies(node):
    """The (a, b) of each sin/cos argument a*x + b*y + c, or None when x or y occurs outside one.

    A power with exponent 0 is constant, so it contributes nothing.
    """
    tag = node[0]
    if tag == "var":
        return None
    if tag in ("sin", "cos"):
        return [linear_coefficients(node[1])[:2]]
    if tag == "const" or tag == "pow" and node[2] == 0:
        return []
    pairs = []
    for child in node[1:2] if tag == "pow" else node[1:]:
        inner = trig_frequencies(child)
        if inner is None:
            return None
        pairs += inner
    return pairs
