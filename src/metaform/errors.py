"""Exception types shared across the package."""


class MetaformError(Exception):
    """Base class for all package-specific errors."""


class InputError(MetaformError):
    """Invalid input data (malformed file, invariant violation).

    ``location`` is a human-readable hint at where the problem sits,
    e.g. ``"edges[3]"`` or ``"metaVertices[1]"``.
    """

    def __init__(self, message, location=None):
        self.detail = message
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)

    def within(self, outer: str) -> "InputError":
        """The same error located inside ``outer``, e.g. ``metaVertices[1]``."""
        inner = f".{self.location}" if self.location is not None else ""
        return InputError(self.detail, outer + inner)


class ResourceLimitError(MetaformError):
    """A configurable enumeration cap was exceeded."""


class NotPersistentError(MetaformError):
    """An operation requiring persistent inputs received a non-persistent one."""


class NotRigidError(MetaformError):
    """An operation requiring rigid inputs received a non-rigid one."""


class InfeasibleMergeError(MetaformError):
    """The requested merge cannot produce a persistent formation."""

    def __init__(self, message, reason):
        self.reason = reason
        super().__init__(message)
