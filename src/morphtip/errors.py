"""Exception types shared across the toolkit, the one check of a number argument,
and :class:`Record`, the base of the toolkit's frozen records, with
:func:`_array`, the one import of numpy, which builds a record's ndarray
views (:func:`_array_of`) and every array a public call returns.

Every number the library is given, a command, a length, a tilt, a gap or
a friction coefficient, is checked by :func:`check_number`: a value that
is not a finite number meeting its condition (NaN, an infinity, an
integer too large for a float, text, None or a sequence) is refused with
:class:`InvalidParams` naming the argument.
"""

import math
from functools import cached_property


class MorphtipError(Exception):
    """Base class for all toolkit errors."""


class InvalidParams(MorphtipError):
    """Construction parameters violate a geometric or numeric invariant.

    ``field`` is the argument at fault, when one is: the message starts
    with its name, and a condition over several arguments names the
    others after it, each as it is spelled in the call.  A condition on
    the parameters as a whole has no ``field``.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def check_number(name: str, value, must: str = "be finite", ok=None) -> None:
    """Raise InvalidParams ``"<name> must <must>"`` unless value is a finite number ``ok`` accepts.

    ``ok`` is a predicate on the finite value, None for none; callers
    pass a module-level function, so a hot path builds no closure.  The
    TypeError or OverflowError that a value which is no number, or an
    integer too large for a float, raises here is a refusal too.  The
    value is only checked: the caller keeps it as it was given.
    """
    try:
        if math.isfinite(value) and (ok is None or ok(value)):
            return
    except (TypeError, OverflowError):
        pass
    raise InvalidParams(f"{name} must {must}", field=name)


class Record:
    """A frozen record: its fields are set once, by the subclass's ``__init__``.

    ``_fields`` names the fields that ``repr``, equality and hashing read,
    in order: every record compares and hashes by value.  ``_args`` names
    the ones the constructor takes, in the order of its arguments; a class
    that does not declare it takes ``_fields``.  Setting or deleting an
    attribute raises AttributeError, so ``__init__`` stores the fields with
    one ``vars(self).update(...)``: on CPython 3.11, item assignment to a
    fresh ``__dict__`` instead slows every later read of the field.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def replace(self, **changes):
        """A copy with ``changes`` to the constructor's arguments, checked by it again.

        A name that is no argument, such as a field the constructor
        derives, is ValueError.
        """
        args = getattr(self, "_args", self._fields)
        wrong = sorted(changes.keys() - args)
        if wrong:
            raise ValueError(f"{', '.join(wrong)} is not an argument of {type(self).__name__}")
        return type(self)(*[changes.get(name, getattr(self, name)) for name in args])


def _array(floats):
    """floats, numbers or nested sequences of them, as an ndarray; the one import of numpy."""
    import numpy

    return numpy.array(floats)


def _array_of(floats: str) -> cached_property:
    """A :class:`Record` class attribute: its ``floats`` as an ndarray, built on first access."""
    return cached_property(lambda self: _array(getattr(self, floats)))


def positive(value: float) -> bool:
    """The ``ok`` of :func:`check_number` for a value that must be above 0."""
    return value > 0


class OutOfRange(MorphtipError):
    """A commanded angle drives the mechanism outside its valid range (jam)."""


class Unreachable(MorphtipError):
    """An inverse problem has no solution inside the operating range.

    ``attainable`` holds the (lo, hi) interval of targets that are solvable,
    in radians, when known.
    """

    def __init__(self, message: str, attainable: tuple[float, float] | None = None):
        super().__init__(message)
        self.attainable = attainable


class Penetration(MorphtipError):
    """Object overlaps a fingertip profile; the quasi-static pose is invalid.

    ``witness`` is a point (x, y) in mm inside the overlap.
    """

    def __init__(self, message: str, witness: tuple[float, float] | None = None):
        super().__init__(message)
        self.witness = witness


class Unsupported(MorphtipError):
    """A resting pose does not exist (the object falls through the profile)."""


class DegenerateContacts(MorphtipError):
    """Contact set carries no usable geometry (all contacts coincident)."""
