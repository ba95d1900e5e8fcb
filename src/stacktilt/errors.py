"""Exception types shared across the package.

Every validation failure raises a StacktiltError subclass carrying a
machine-readable code and a details dict; the CLI serializes these and
exits with status 2.  InternalInvariantBroken signals a theorem-backed
runtime re-check failing, i.e. a bug, and is deliberately not a
StacktiltError.
"""

from __future__ import annotations


class StacktiltError(Exception):
    code = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def to_json(self) -> dict:
        return {"type": self.code, "message": str(self), "details": self.details}


class InputError(StacktiltError):
    code = "InputError"


class DimensionMismatch(StacktiltError):
    code = "DimensionMismatch"


class EnumerateInfinite(StacktiltError):
    code = "EnumerateInfinite"


class UnsupportedRank(StacktiltError):
    code = "UnsupportedRank"


class G1Violation(StacktiltError):
    code = "G1Violation"


class G2Violation(StacktiltError):
    code = "G2Violation"


class G3Violation(StacktiltError):
    code = "G3Violation"


class DegenerateSplit(StacktiltError):
    code = "DegenerateSplit"


class NotAntichain(StacktiltError):
    code = "NotAntichain"


class NotMinimal(StacktiltError):
    code = "NotMinimal"


class ClassCountExceeded(StacktiltError):
    code = "ClassCountExceeded"


class OutputClosed(StacktiltError):
    code = "OutputClosed"


class NotCofinite(StacktiltError):
    code = "NotCofinite"


class InvalidDetector(StacktiltError):
    code = "InvalidDetector"


class NotBounding(StacktiltError):
    code = "NotBounding"


class OriginNotInterior(StacktiltError):
    code = "OriginNotInterior"


class NotSimplicial(StacktiltError):
    code = "NotSimplicial"


class NotAVertex(StacktiltError):
    code = "NotAVertex"


class UnboundedContribution(StacktiltError):
    code = "UnboundedContribution"


class InternalInvariantBroken(RuntimeError):
    """A theorem-backed runtime re-check failed; indicates a bug."""
