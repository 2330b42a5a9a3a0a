"""Exception types shared across the toolkit."""


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
