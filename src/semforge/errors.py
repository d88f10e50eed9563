"""Exception types shared across the package."""


class SemforgeError(Exception):
    """Base class for all package-specific errors."""


class NoSuchOrientation(SemforgeError):
    """No orientation with every indegree equal to 1 exists for this graph."""


class ResourceLimit(SemforgeError):
    """A node, order, or wall-clock budget ran out before an answer was reached."""


class NotSem(SemforgeError):
    """A labeling required to be super edge-magic is not."""


class BadParam(SemforgeError, ValueError):
    """A constructor parameter is outside its admissible range."""


class LabelingFailed(SemforgeError):
    """A constructor whose labeling scheme should always verify produced a
    labeling that failed verification; suspect a transcription mistake in the
    scheme rather than a property of the input."""


class BadAssignment(SemforgeError):
    """An arc-to-member assignment does not name exactly the arcs of the host
    digraph, or maps an arc to a member the family lacks."""


class VerificationFailed(SemforgeError):
    """A labeling guaranteed by construction failed the runtime verifier."""
