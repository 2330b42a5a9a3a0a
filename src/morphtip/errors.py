"""Exception types shared across the toolkit, the one reader of every
argument, and :class:`Record`, the base of the toolkit's frozen records,
with :func:`_array`, the one import of numpy, which builds a record's
ndarray views (:func:`_array_of`, a new array from the stored floats on
every access) and every array a public call returns.

This module alone reads an argument, whatever its shape.  Every number
the library is given, a command, a length, a tilt, a gap or a friction
coefficient, is checked by :func:`check_number`: a value that is not a
finite number meeting its condition (NaN, an infinity, an integer too
large for a float, text, None or a sequence) is refused with
:class:`InvalidParams` naming the argument.  Every tuple of numbers, a
center, a contact's point and normal, a state's commands, readouts and
tilt, is read by :func:`_read_floats`; every profile and polygon by
:func:`_read_points` (a state's profiles, of exactly four points, by
:func:`_read_four_points`), into finite (x, y) pairs of floats, a
:data:`Points`.  An argument that is not what it must be, such as a
record of the wrong class, is refused with the message
:func:`_refusal` words.
"""

import math
from itertools import chain, islice

# A polyline or polygon as (x, y) points.
Points = tuple[tuple[float, float], ...]


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

    A hot call may test ``type(x) is float and x - x == 0.0`` first and
    call this only when that is false: the test is true exactly for a
    finite Python float (``x - x`` is NaN for NaN and the infinities),
    which this passes, so every other value still gets this check and
    its message.
    """
    try:
        if math.isfinite(value) and (ok is None or ok(value)):
            return
    except (TypeError, OverflowError):
        pass
    raise InvalidParams(f"{name} must {must}", field=name)


def _refusal(name: str, what: str, value) -> InvalidParams:
    """The refusal of an argument that is not what it must be, naming it.

    Its message is ``"<name> must be <what>, got <value!r>"``, such as
    ``"load must be an ExternalLoad, got None"``.
    """
    return InvalidParams(f"{name} must be {what}, got {value!r}", field=name)


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


def _array_of(floats: str) -> property:
    """A :class:`Record` class attribute: its ``floats`` as a new ndarray on every access.

    The record holds only the floats; a view is never stored, so writing
    into one changes nothing the record holds, compares or hashes.
    """
    return property(lambda self: _array(getattr(self, floats)))


def positive(value: float) -> bool:
    """The ``ok`` of :func:`check_number` for a value that must be above 0."""
    return value > 0


def _read_pair(pair) -> tuple[float, float]:
    """pair as two floats; TypeError or ValueError unless it is two numbers.

    Text is not a number here, though ``float`` would parse it; an
    integer too large for a float is OverflowError.  Two floats, what
    ``tolist()`` of a float array holds, are taken as they are.
    """
    x, y = pair
    if type(x) is not float or type(y) is not float:
        text = (str, bytes, bytearray)
        if isinstance(pair, text) or isinstance(x, text) or isinstance(y, text):
            raise TypeError("text is not a pair of numbers")
        x, y = float(x), float(y)
    return x, y


def _read_floats(values, name: str, n: int = 2, must: str | None = None) -> tuple[float, ...]:
    """values as a tuple of n finite Python floats; else InvalidParams naming it.

    With no ``must``, values is an (x, y) pair: one of another shape, or
    that is not numbers, is refused with ``"<name> must be a pair of
    numbers (x, y)"`` and one with a NaN, an infinity or an integer too
    large for a float with ``"<name> must be finite"``.  With ``must``,
    every refusal is ``"<name> must <must>"``.  This is the one reader
    of every tuple of numbers.

    Any iterable of exactly n numbers is read, once, as ``float`` reads
    each, and a one-shot iterator too; no more than n + 1 items are
    taken from it.  Text is not numbers: a ``str``, ``bytes`` or
    ``bytearray``, as values or as an item of it, is refused, though
    ``float`` would parse it and bytes iterate as ints.
    """
    text = (str, bytes, bytearray)
    try:
        items = () if isinstance(values, text) else tuple(islice(values, n + 1))
        if len(items) != n or any(isinstance(v, text) for v in items):
            items = ()  # of another shape, or text
        floats = tuple(map(float, items))
    except OverflowError:  # an integer too large for a float is not finite
        floats = (math.inf,)
    except (TypeError, ValueError):  # not iterable, or not numbers
        floats = ()
    if not (floats and all(map(math.isfinite, floats))):  # () is not n numbers
        must = must or ("be finite" if floats else "be a pair of numbers (x, y)")
        raise InvalidParams(f"{name} must {must}", field=name)
    return floats


def _read_points(points, name: str, least: int) -> Points:
    """points as at least ``least`` finite (x, y) pairs of floats.

    ``points`` is any (n, 2) array-like of numbers, an ndarray read
    through its ``tolist()``; anything else, ragged, text or not numbers
    included, is InvalidParams naming it.  This is the one reader of every
    profile and polygon.
    """
    if hasattr(points, "tolist"):  # an ndarray, as nested lists of Python numbers
        points = points.tolist()
    try:
        pairs = tuple(map(_read_pair, points))
    except OverflowError:  # an integer too large for a float
        raise InvalidParams(f"{name} must be finite", field=name) from None
    except (TypeError, ValueError):  # ragged, text or not numbers
        pairs = ()
    if len(pairs) < least:
        raise InvalidParams(f"{name} must have at least {least} points of shape (n, 2)", field=name)
    if not all(map(math.isfinite, chain.from_iterable(pairs))):
        raise InvalidParams(f"{name} must be finite", field=name)
    return pairs


def _read_four_points(points, name: str) -> Points:
    """points as exactly four finite (x, y) pairs of floats, a fingertip state's profile.

    They are read by :func:`_read_points`; more than four points are
    InvalidParams naming it too.
    """
    pairs = _read_points(points, name, 4)
    if len(pairs) != 4:
        raise InvalidParams(f"{name} must have 4 points of shape (4, 2)", field=name)
    return pairs


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
