"""Exception types shared across the kit.

Everything raised on purpose derives from BrauerKitError so callers can
catch the whole family at once; the CLI maps these to exit codes.
"""


class BrauerKitError(Exception):
    pass


class BadDegree(BrauerKitError):
    """Degree out of range for the requested object (e.g. n < 1, or parity wrong)."""


class BadIndex(BrauerKitError):
    """A point index outside 1..n, an invalid generator index, or a label
    row that is not a restricted growth string."""


class DegreeMismatch(BrauerKitError):
    """Two diagrams of different degree were combined."""


class LengthMismatch(BrauerKitError):
    """Two stacks of diagrams of different lengths were multiplied row by row."""


class NotABijection(BrauerKitError):
    """Sequence passed as a permutation does not describe a bijection."""


class UnsupportedBlockSize(BrauerKitError):
    """Operation defined only for blocks of size <= 2 hit a bigger block."""


class ParseError(BrauerKitError):
    """Malformed text input.  Diagram decoding supplies the 0-based offset."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class BudgetExceeded(BrauerKitError):
    """An enumeration or closure grew past the configured element budget."""


class NotAMonoid(BrauerKitError):
    """The identity diagram is not an element of this semigroup."""


class NotIdempotent(BrauerKitError):
    """An element required to be idempotent is not."""


class NotAnIdeal(BrauerKitError):
    """Subset is not closed under two-sided multiplication by the semigroup."""


class NotASubsemigroup(BrauerKitError):
    """Claimed containment between semigroups failed an element check."""


class SideConditionFailed(BrauerKitError):
    """A complexity rule's side condition failed.  Names the condition."""

    def __init__(self, condition, detail=""):
        msg = condition if not detail else f"{condition}: {detail}"
        super().__init__(msg)
        self.condition = condition


class KernelFixpointError(BrauerKitError):
    """A computed group kernel is not closed under products or weak conjugation."""


class CrossCheckFailed(BrauerKitError):
    """Two independent computations of the same invariant disagree."""


class ChecksumMismatch(BrauerKitError):
    """Cache file content does not match its recorded checksum."""


class VersionMismatch(BrauerKitError):
    """Cache file was written by an incompatible format version."""
