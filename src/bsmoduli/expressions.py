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

The AST is a nested tuple: ``('const', v)``, ``('var', 'x')``,
``('add'|'sub'|'mul'|'div', a, b)``, ``('pow', a, k)``,
``('sin'|'cos', a)``.
"""

import math
import re

import numpy as np

from .errors import ExpressionError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ExpressionError(f"unexpected character {tail[0]!r} in {text!r}")
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r} in {self.text!r}")

    def parse(self):
        node = self.expr()
        if self.i != len(self.tokens):
            raise ExpressionError(f"trailing input in {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.next()
            return ("sub", ("const", 0.0), self.unary())
        if self.peek() == ("op", "+"):
            self.next()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            sign = 1
            if self.peek() == ("op", "-"):
                self.next()
                sign = -1
            kind, val = self.next()
            if kind != "num" or val != int(val):
                raise ExpressionError(f"exponent must be an integer in {self.text!r}")
            return ("pow", base, sign * int(val))
        return base

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return ("const", val)
        if kind == "name":
            if val in ("x", "y"):
                return ("var", val)
            if val == "pi":
                return ("const", math.pi)
            if val in ("sin", "cos"):
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                if linear_coefficients(arg) is None:
                    raise ExpressionError(
                        f"{val} expects a linear form a*x + b*y + c, got nonlinear argument"
                    )
                return (val, arg)
            raise ExpressionError(f"unknown identifier {val!r} in {self.text!r}")
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token in {self.text!r}")


def parse(text):
    """Parse ``text`` into an AST node, raising ExpressionError on bad input."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(text).parse()


def _fold(tag, a, b):
    if tag == "add":
        return a + b
    if tag == "sub":
        return a - b
    if tag == "mul":
        return a * b
    return a / b


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
        return None if a is None else a ** node[2]
    a = constant_value(node[1])
    if a is None:
        return None
    return math.sin(a) if tag == "sin" else math.cos(a)


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
        return None if la is None else tuple(v / cb for v in la)
    if tag == "pow":
        if node[2] == 0:
            return (0.0, 0.0, 1.0)
        if node[2] == 1:
            return linear_coefficients(node[1])
        c = constant_value(node)
        return None if c is None else (0.0, 0.0, c)
    c = constant_value(node)
    return None if c is None else (0.0, 0.0, c)


def evaluate(node, x, y):
    """Evaluate the AST with numpy broadcasting over x, y."""
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "var":
        return x if node[1] == "x" else y
    if tag == "add":
        return evaluate(node[1], x, y) + evaluate(node[2], x, y)
    if tag == "sub":
        return evaluate(node[1], x, y) - evaluate(node[2], x, y)
    if tag == "mul":
        return evaluate(node[1], x, y) * evaluate(node[2], x, y)
    if tag == "div":
        return evaluate(node[1], x, y) / evaluate(node[2], x, y)
    if tag == "pow":
        base = evaluate(node[1], x, y)
        k = node[2]
        if k < 0:
            return 1.0 / np.power(base, -k)
        return np.power(base, k)
    if tag == "sin":
        return np.sin(evaluate(node[1], x, y))
    return np.cos(evaluate(node[1], x, y))


def differentiate(node, var):
    """Exact partial derivative of the AST with respect to 'x' or 'y'."""
    tag = node[0]
    if tag == "const":
        return ("const", 0.0)
    if tag == "var":
        return ("const", 1.0 if node[1] == var else 0.0)
    if tag == "add" or tag == "sub":
        return (tag, differentiate(node[1], var), differentiate(node[2], var))
    if tag == "mul":
        a, b = node[1], node[2]
        return (
            "add",
            ("mul", differentiate(a, var), b),
            ("mul", a, differentiate(b, var)),
        )
    if tag == "div":
        a, b = node[1], node[2]
        num = (
            "sub",
            ("mul", differentiate(a, var), b),
            ("mul", a, differentiate(b, var)),
        )
        return ("div", num, ("pow", b, 2))
    if tag == "pow":
        a, k = node[1], node[2]
        if k == 0:
            return ("const", 0.0)
        return (
            "mul",
            ("mul", ("const", float(k)), ("pow", a, k - 1)),
            differentiate(a, var),
        )
    if tag == "sin":
        return ("mul", ("cos", node[1]), differentiate(node[1], var))
    return ("mul", ("const", -1.0), ("mul", ("sin", node[1]), differentiate(node[1], var)))


def simplify(node):
    """Constant folding plus elimination of additive/multiplicative units."""
    tag = node[0]
    if tag in ("const", "var"):
        return node
    if tag in ("add", "sub", "mul", "div"):
        a = simplify(node[1])
        b = simplify(node[2])
        ca = a[1] if a[0] == "const" else None
        cb = b[1] if b[0] == "const" else None
        if ca is not None and cb is not None and not (tag == "div" and cb == 0.0):
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
        a = simplify(node[1])
        if node[2] == 0:
            return ("const", 1.0)
        if node[2] == 1:
            return a
        if a[0] == "const":
            return ("const", a[1] ** node[2])
        return ("pow", a, node[2])
    a = simplify(node[1])
    if a[0] == "const":
        return ("const", math.sin(a[1]) if tag == "sin" else math.cos(a[1]))
    return (tag, a)


def poisson_node(f_node, g_node, w_node=None):
    """AST of the chart Poisson bracket (f_x g_y - f_y g_x) / w."""
    fx = differentiate(f_node, "x")
    fy = differentiate(f_node, "y")
    gx = differentiate(g_node, "x")
    gy = differentiate(g_node, "y")
    num = ("sub", ("mul", fx, gy), ("mul", fy, gx))
    if w_node is not None and w_node != ("const", 1.0):
        num = ("div", num, w_node)
    return simplify(num)


def trig_frequencies(node):
    """All (a, b) coefficient pairs appearing inside sin/cos arguments."""
    tag = node[0]
    if tag in ("sin", "cos"):
        a, b, _ = linear_coefficients(node[1])
        return [(a, b)]
    if tag in ("add", "sub", "mul", "div"):
        return trig_frequencies(node[1]) + trig_frequencies(node[2])
    if tag == "pow":
        return trig_frequencies(node[1])
    return []


def polynomial_degree(node):
    """Total degree of the polynomial part; trig factors count as degree 0."""
    tag = node[0]
    if tag == "const":
        return 0
    if tag == "var":
        return 1
    if tag in ("add", "sub"):
        return max(polynomial_degree(node[1]), polynomial_degree(node[2]))
    if tag == "mul":
        return polynomial_degree(node[1]) + polynomial_degree(node[2])
    if tag == "div":
        return polynomial_degree(node[1]) + polynomial_degree(node[2])
    if tag == "pow":
        return abs(node[2]) * polynomial_degree(node[1])
    return 0
