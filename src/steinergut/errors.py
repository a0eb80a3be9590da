"""Exception types raised across the package.

Everything derives from SteinerGutError so callers can catch the whole
family at once (the CLI does exactly that to turn failures into exit
code 1 diagnostics).
"""


class SteinerGutError(Exception):
    """Base class for all package-specific errors."""


class IndexOutOfRange(SteinerGutError):
    """A vertex index or vertex-set mask refers to vertices outside 0..n-1."""


class LoopEdge(SteinerGutError):
    """An edge joins a vertex to itself."""


class OrderTooLarge(SteinerGutError):
    """The requested order exceeds what the operation supports."""


class EmptySet(SteinerGutError):
    """A vertex set that must be nonempty is empty."""


class Disconnected(SteinerGutError):
    """The graph is not connected."""


class ComplementDisconnected(Disconnected):
    """The complement graph is not connected."""


class KOutOfRange(SteinerGutError):
    """The subset size k is outside the range the invariant is defined for."""


class NoCaseApplies(SteinerGutError):
    """No case of a case-split bound matches the degree data."""


class NotTight(SteinerGutError):
    """An equality diagnosis was requested for a bound that is not tight."""


class InvalidFamilyOrder(SteinerGutError):
    """The requested order is invalid for the graph family."""


class MalformedHeader(SteinerGutError):
    """A graph6 string has a bad or truncated header/payload."""


class TrailingGarbage(SteinerGutError):
    """A graph6 string has extra or out-of-range payload characters."""


class NonCanonicalPadding(SteinerGutError):
    """A graph6 string has nonzero bits in its padding."""
