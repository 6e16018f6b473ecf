"""Exception types, and the base of the immutable value classes, shared
across the package.

The CLI maps the exceptions onto exit codes, so library code raises the
most specific one that applies instead of bare ValueError.
"""


class SpecError(ValueError):
    """Invalid construction parameters, guards, or malformed handle specs."""


class DomainMismatchError(SpecError):
    """Operands (or literals) belong to different coefficient domains."""


class ParseError(SpecError):
    """Syntax error in an expression or literal.

    position is a 0-based character offset into the original text.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.bare_message = message


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields``, in constructor order, and
    sets them in its own ``__init__`` (``_fill``, or a slot's setter where
    construction is hot).  Instances then behave as frozen dataclasses do:
    they compare and hash by the tuple of their fields, only against the
    same class, print as ``Name(field=value, ...)`` and refuse assignment.
    Classes on the hot paths override ``__eq__`` and ``__hash__`` with the
    same tuples written out.
    """

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    @classmethod
    def _setters(cls):
        """The setters of cls's slots, in field order: the fast way for a
        hot ``__init__`` past the refusal in ``__setattr__``."""
        return [vars(cls)[name].__set__ for name in cls._fields]
