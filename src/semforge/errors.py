"""Exception types shared across the package.  A ``ValueError`` is
malformed input; ``VerificationFailed`` is a failed self-check."""


class SemforgeError(Exception):
    """Base class for all package-specific errors."""


class NoSuchOrientation(SemforgeError):
    """No orientation with every indegree equal to 1 exists for this graph."""


class ResourceLimit(SemforgeError):
    """A node, order, or wall-clock budget ran out before an answer was reached."""


class NotSem(SemforgeError, ValueError):
    """A labeling required to be super edge-magic is not."""


class BadParam(SemforgeError, ValueError):
    """A constructor parameter is outside its admissible range."""


class BadAssignment(SemforgeError, ValueError):
    """An arc-to-member assignment does not name exactly the arcs of the host
    digraph, or maps an arc to a member the family lacks."""


class VerificationFailed(SemforgeError, RuntimeError):
    """A labeling guaranteed by construction or by search failed the runtime
    verifier, or two independent searches disagree: suspect the code, not
    the input."""
