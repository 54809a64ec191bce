"""Exception hierarchy shared by all modules."""


class RrlLabError(Exception):
    """Base class for all library errors."""


class ValidationError(RrlLabError):
    """Bad input detected before any computation started."""


class PoleCollision(RrlLabError):
    """Evaluation point fell inside the exclusion radius of a pole."""


class DuplicatePoint(ValidationError):
    """Two points of a set meant to be distinct share an angle on the circle."""


class NotARoot(RrlLabError):
    """The designated point is not a member of the root set."""


class ResonantGamma(RrlLabError):
    """Rotation offset lies (numerically) on the orbit lattice Z + theta*Z."""


class CapExceeded(RrlLabError):
    """A bounded search ran past its configured cap without a certificate."""


class InsufficientDepth(RrlLabError):
    """A sign change lies in the zone where the truncation tail bound explodes."""
