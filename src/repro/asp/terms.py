"""Term representation for the ASP subsystem.

Terms follow the usual ASP (Prolog-style) conventions:

* **Constants** — lowercase identifiers (``alice``), quoted strings
  (``"hello world"``).
* **Integers** — ``42``, ``-3``.
* **Variables** — uppercase identifiers (``X``, ``Subject``). The
  anonymous variable ``_`` is expanded to a fresh variable by the parser.
* **Function terms** — ``f(X, g(a))``; tuples are function terms with the
  empty functor (printed ``(a, b)``).
* **Arithmetic terms** — ``X + 1``, ``Y * 2``; evaluated at grounding
  time, so they may only appear where all their variables are bound.

All terms are immutable and hashable; substitution returns new objects.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

from repro.errors import GroundingError

__all__ = [
    "Term",
    "Constant",
    "Integer",
    "Variable",
    "Function",
    "ArithTerm",
    "Substitution",
    "make_tuple",
]


class Term:
    """Abstract base class for ASP terms."""

    __slots__ = ()

    def is_ground(self) -> bool:
        raise NotImplementedError

    def variables(self) -> Iterator["Variable"]:
        """Yield each variable occurrence in this term."""
        raise NotImplementedError

    def substitute(self, theta: "Substitution") -> "Term":
        """Apply a substitution, returning a (possibly) new term."""
        raise NotImplementedError

    def evaluate(self) -> "Term":
        """Evaluate arithmetic sub-terms; identity for non-arithmetic terms."""
        return self


class Constant(Term):
    """A symbolic constant or quoted string."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def is_ground(self) -> bool:
        return True

    def variables(self) -> Iterator["Variable"]:
        return iter(())

    def substitute(self, theta: "Substitution") -> "Term":
        return self

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("c", self.name))

    def __lt__(self, other: "Term") -> bool:
        return _term_key(self) < _term_key(other)


class Integer(Term):
    """An integer constant."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = int(value)

    def is_ground(self) -> bool:
        return True

    def variables(self) -> Iterator["Variable"]:
        return iter(())

    def substitute(self, theta: "Substitution") -> "Term":
        return self

    def __repr__(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Integer) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("i", self.value))

    def __lt__(self, other: "Term") -> bool:
        return _term_key(self) < _term_key(other)


class Variable(Term):
    """A first-order variable (uppercase identifier)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def is_ground(self) -> bool:
        return False

    def variables(self) -> Iterator["Variable"]:
        yield self

    def substitute(self, theta: "Substitution") -> "Term":
        return theta.get(self.name, self)

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("v", self.name))

    def __lt__(self, other: "Term") -> bool:
        return _term_key(self) < _term_key(other)


class Function(Term):
    """A compound term ``functor(arg1, ..., argN)``.

    A tuple ``(a, b)`` is represented as a :class:`Function` whose
    ``functor`` is the empty string.
    """

    __slots__ = ("functor", "args", "_hash")

    def __init__(self, functor: str, args: Sequence[Term]):
        self.functor = functor
        self.args: Tuple[Term, ...] = tuple(args)
        self._hash = hash(("f", functor, self.args))

    def is_ground(self) -> bool:
        return all(a.is_ground() for a in self.args)

    def variables(self) -> Iterator["Variable"]:
        for arg in self.args:
            yield from arg.variables()

    def substitute(self, theta: "Substitution") -> "Term":
        return Function(self.functor, [a.substitute(theta) for a in self.args])

    def evaluate(self) -> "Term":
        return Function(self.functor, [a.evaluate() for a in self.args])

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.functor}({inner})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Function)
            and self.functor == other.functor
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Term") -> bool:
        return _term_key(self) < _term_key(other)


_ARITH_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b,
    "\\": lambda a, b: a % b,
    "**": lambda a, b: a**b,
}


class ArithTerm(Term):
    """A binary arithmetic expression over integer terms.

    ``evaluate()`` reduces a ground arithmetic term to an
    :class:`Integer`; attempting to evaluate a non-integer operand raises
    :class:`~repro.errors.GroundingError` (matching clingo, where
    arithmetic over symbolic constants yields no instances).
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Term, right: Term):
        if op not in _ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def is_ground(self) -> bool:
        return self.left.is_ground() and self.right.is_ground()

    def variables(self) -> Iterator["Variable"]:
        yield from self.left.variables()
        yield from self.right.variables()

    def substitute(self, theta: "Substitution") -> "Term":
        return ArithTerm(self.op, self.left.substitute(theta), self.right.substitute(theta))

    def evaluate(self) -> Term:
        left = self.left.evaluate()
        right = self.right.evaluate()
        if not isinstance(left, Integer) or not isinstance(right, Integer):
            raise GroundingError(
                f"arithmetic on non-integer terms: {left!r} {self.op} {right!r}"
            )
        if self.op in ("/", "\\") and right.value == 0:
            raise GroundingError(f"division by zero in {self!r}")
        return Integer(_ARITH_OPS[self.op](left.value, right.value))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArithTerm)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("a", self.op, self.left, self.right))

    def __lt__(self, other: "Term") -> bool:
        return _term_key(self) < _term_key(other)


def _term_key(term: Term) -> tuple:
    """A total order on ground-ish terms: integers < constants < functions.

    Used to give answer sets and builtin comparisons a deterministic
    order. Matches the ASP standard order for the common cases (integers
    before symbolic constants; constants by name; compound terms by
    arity, then functor, then arguments).
    """
    if isinstance(term, Integer):
        return (0, term.value)
    if isinstance(term, Constant):
        return (1, term.name)
    if isinstance(term, Function):
        return (2, len(term.args), term.functor, tuple(_term_key(a) for a in term.args))
    if isinstance(term, Variable):
        return (3, term.name)
    if isinstance(term, ArithTerm):
        return (4, term.op, _term_key(term.left), _term_key(term.right))
    raise TypeError(f"not a term: {term!r}")


def term_sort_key(term: Term) -> tuple:
    """Public alias of the internal total-order key for terms."""
    return _term_key(term)


Substitution = Dict[str, Term]
"""A mapping from variable names to terms."""


def make_tuple(args: Sequence[Term]) -> Function:
    """Construct an ASP tuple term ``(a1, ..., an)``."""
    return Function("", args)
