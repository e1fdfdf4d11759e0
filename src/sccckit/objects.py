"""Formal objects of the category: unit, zero, generators, duals, tensors, direct sums.

Objects are immutable expression trees.  ``normalize`` pushes duals down to the
leaves (a dual generator is just a flagged generator, the unit and zero objects
are self-dual) and is idempotent; association of ``@`` and ``+`` is left alone,
so the associators stay honest isomorphisms rather than identities of syntax.

Every node is interned: each class keeps one node per argument tuple, and its
constructor returns that node.  Identity is therefore structural equality.
Leaves are interned by their fields, and inner nodes by the identities of
their children, which are interned already; so by induction on the tree two
structurally equal trees are one node, and two different nodes differ
somewhere.  An identity in a key is never reused, because the table keeps the
node and the node keeps its children alive.  Equality is identity, and each
node stores its hash, computed once from its class and arguments.  Nodes
refuse attribute assignment, and copying or pickling goes through the
constructor, so no second copy of a node can exist.  The table keeps every
node for the life of the process; the ``normalize``, ``dim`` and
``format_object`` caches below already kept every tree that reaches them.
"""
from __future__ import annotations

import re
from functools import lru_cache

_GEN_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class ObjectExpr:
    """Base class for object expressions: interned, hashed once, compared by identity."""

    __slots__ = ("_hash",)

    def __new__(cls):
        # the leaves without fields, I and 0: one node each
        node = cls._nodes.get(())
        return node if node is not None else cls._intern((), ())

    @classmethod
    def _intern(cls, key, fields: tuple) -> "ObjectExpr":
        node = object.__new__(cls)
        for field, value in zip(cls.__slots__, fields):
            object.__setattr__(node, field, value)
        object.__setattr__(node, "_hash", hash((cls.__name__,) + fields))
        # setdefault: if two threads build the same node, both get the first
        return cls._nodes.setdefault(key, node)

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an interned object")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an interned object")

    def __reduce__(self):
        return type(self), tuple(getattr(self, field) for field in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __matmul__(self, other: "ObjectExpr") -> "Tensor":
        return Tensor(self, other)

    def __add__(self, other: "ObjectExpr") -> "Oplus":
        return Oplus(self, other)


class Unit(ObjectExpr):
    """The monoidal unit I."""

    __slots__ = ()
    _nodes: dict = {}


class Zero(ObjectExpr):
    """The zero object 0 (dimension zero)."""

    __slots__ = ()
    _nodes: dict = {}


class Gen(ObjectExpr):
    """A named generator of fixed positive dimension.

    ``dualized`` flags the dual copy; it has the same ordered basis.  The
    name and dimension are checked once per distinct generator; a refused
    generator is not interned, so it is refused again on every attempt.
    """

    __slots__ = ("name", "dim", "dualized")
    _nodes: dict = {}

    def __new__(cls, name: str, dim: int, dualized: bool = False) -> "Gen":
        key = (name, dim, dualized)
        node = cls._nodes.get(key)
        if node is not None:
            return node
        if dim < 1:
            raise ValueError(f"generator dimension must be >= 1, got {dim}")
        if not _GEN_NAME.fullmatch(name) or name in ("I",):
            raise ValueError(f"bad generator name {name!r}")
        return cls._intern(key, key)


class Dual(ObjectExpr):
    __slots__ = ("base",)
    _nodes: dict = {}

    def __new__(cls, base: ObjectExpr) -> "Dual":
        key = id(base)
        node = cls._nodes.get(key)
        return node if node is not None else cls._intern(key, (base,))


class Tensor(ObjectExpr):
    __slots__ = ("left", "right")
    _nodes: dict = {}

    def __new__(cls, left: ObjectExpr, right: ObjectExpr) -> "Tensor":
        key = (id(left), id(right))
        node = cls._nodes.get(key)
        return node if node is not None else cls._intern(key, (left, right))


class Oplus(ObjectExpr):
    __slots__ = ("left", "right")
    _nodes: dict = {}

    def __new__(cls, left: ObjectExpr, right: ObjectExpr) -> "Oplus":
        key = (id(left), id(right))
        node = cls._nodes.get(key)
        return node if node is not None else cls._intern(key, (left, right))


UNIT = Unit()
ZERO = Zero()


@lru_cache(maxsize=None)
def dim(a: ObjectExpr) -> int:
    """Dimension of an object: multiplicative over @, additive over +."""
    if isinstance(a, Unit):
        return 1
    if isinstance(a, Zero):
        return 0
    if isinstance(a, Gen):
        return a.dim
    if isinstance(a, Dual):
        return dim(a.base)
    if isinstance(a, Tensor):
        return dim(a.left) * dim(a.right)
    if isinstance(a, Oplus):
        return dim(a.left) + dim(a.right)
    raise TypeError(f"not an object expression: {a!r}")


@lru_cache(maxsize=None)
def normalize(a: ObjectExpr) -> ObjectExpr:
    """Push duals to the leaves; I and 0 are self-dual, (A@B)* = A*@B*, (A+B)* = A*+B*."""
    if isinstance(a, (Unit, Zero, Gen)):
        return a
    if isinstance(a, Tensor):
        return Tensor(normalize(a.left), normalize(a.right))
    if isinstance(a, Oplus):
        return Oplus(normalize(a.left), normalize(a.right))
    if isinstance(a, Dual):
        b = a.base
        if isinstance(b, Unit):
            return UNIT
        if isinstance(b, Zero):
            return ZERO
        if isinstance(b, Gen):
            return Gen(b.name, b.dim, not b.dualized)
        if isinstance(b, Dual):
            return normalize(b.base)
        if isinstance(b, Tensor):
            return Tensor(normalize(Dual(b.left)), normalize(Dual(b.right)))
        if isinstance(b, Oplus):
            return Oplus(normalize(Dual(b.left)), normalize(Dual(b.right)))
    raise TypeError(f"not an object expression: {a!r}")


def dual(a: ObjectExpr) -> ObjectExpr:
    """Normalized dual of an object."""
    return normalize(Dual(a))


# ---------------------------------------------------------------------------
# Textual syntax: I, 0, Q[2], A*, A@B, A+B; * binds tightest, then @, then +.
# Both binary operators associate to the left; parentheses group.

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*\[\d+\]|[A-Za-z_][A-Za-z_0-9]*|[0@+*()])")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad object syntax at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of object expression")
        self.pos += 1
        return tok

    def parse_sum(self) -> ObjectExpr:
        node = self.parse_tensor()
        while self.peek() == "+":
            self.take()
            node = Oplus(node, self.parse_tensor())
        return node

    def parse_tensor(self) -> ObjectExpr:
        node = self.parse_atom()
        while self.peek() == "@":
            self.take()
            node = Tensor(node, self.parse_atom())
        return node

    def parse_atom(self) -> ObjectExpr:
        tok = self.take()
        if tok == "(":
            node = self.parse_sum()
            if self.take() != ")":
                raise ValueError("missing closing parenthesis")
        elif tok == "I":
            node = UNIT
        elif tok == "0":
            node = ZERO
        elif "[" in tok:
            name, rest = tok.split("[", 1)
            node = Gen(name, int(rest[:-1]))
        elif tok in ("@", "+", "*", ")"):
            raise ValueError(f"unexpected {tok!r} in object expression")
        else:
            raise ValueError(f"generator {tok!r} needs an explicit dimension, e.g. {tok}[2]")
        while self.peek() == "*":
            self.take()
            node = Dual(node)
        return node


def parse_object(text: str) -> ObjectExpr:
    """Parse the textual object syntax used by the CLI."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_sum()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens in object expression: {parser.tokens[parser.pos:]}")
    return node


@lru_cache(maxsize=None)
def format_object(a: ObjectExpr) -> str:
    """Render an object back into the textual syntax (minimal parentheses).

    Memoized like ``dim`` and ``normalize``: a str, a function of one
    immutable object expression."""

    def go(x: ObjectExpr, level: int) -> str:
        # level: 0 = sum context, 1 = tensor context, 2 = atom context
        if isinstance(x, Unit):
            return "I"
        if isinstance(x, Zero):
            return "0"
        if isinstance(x, Gen):
            return f"{x.name}[{x.dim}]" + ("*" if x.dualized else "")
        if isinstance(x, Dual):
            inner = go(x.base, 2)
            if not isinstance(x.base, (Unit, Zero, Gen, Dual)):
                inner = f"({inner})"
            return inner + "*"
        if isinstance(x, Tensor):
            s = f"{go(x.left, 1)}@{go(x.right, 2)}"
            return f"({s})" if level > 1 else s
        if isinstance(x, Oplus):
            s = f"{go(x.left, 0)}+{go(x.right, 1)}"
            return f"({s})" if level > 0 else s
        raise TypeError(f"not an object expression: {x!r}")

    return go(a, 0)
