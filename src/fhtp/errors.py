"""Exception types shared across the package."""


class ScenarioError(ValueError):
    """A scenario document is malformed or dimensionally inconsistent."""


class SizeLimitError(RuntimeError):
    """An enumeration or search would exceed its configured guard."""


class InfeasibleError(RuntimeError):
    """Demanded traffic can never be served (a pair cannot transmit at a positive rate)."""
