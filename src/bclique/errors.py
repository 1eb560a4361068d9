"""Exception types shared across the package."""


class BcliqueError(Exception):
    """Base class for every error raised by this package."""


class CapExceeded(BcliqueError):
    """Sketch parameters would require enumerating more sparse vectors than the cap allows."""


class DimensionMismatch(BcliqueError):
    """Vector length does not match the sketch dimension."""


class NotDecodable(BcliqueError):
    """No sparse Boolean preimage exists for the given field element."""


class WeightMismatch(BcliqueError):
    """Decoded vector weight differs from the weight announced alongside it."""


class IndexOutOfRange(BcliqueError):
    """Node or coordinate index outside 0..n-1."""


class ParseError(BcliqueError):
    """Malformed edge-list document."""


class InvalidEdge(BcliqueError):
    """Edge is a self-loop, references an unknown node, or duplicates another edge."""


class UnknownKind(BcliqueError):
    """Unrecognized graph generator name."""


class BadParams(BcliqueError, ValueError):
    """Parameters are missing, of the wrong type, or out of range."""


class RoundBudgetExceeded(BcliqueError):
    """A protocol ran out of rounds before reaching a finished state."""


class InvalidTranscript(BcliqueError):
    """Broadcast messages are inconsistent with any real input graph."""


class DegeneracyExceeded(BcliqueError):
    """Peeling stalled although the sparsity bound guarantees it must finish."""
