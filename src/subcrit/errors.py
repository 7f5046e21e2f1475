"""Exception types shared across the package."""


class SubcritError(Exception):
    """Base class for package-specific failures."""


class CapExceeded(SubcritError):
    """An exact computation was requested beyond a fixed bound, such as the
    exact engines' memory budget ``exact.PLAN_BYTES``, before it was built.

    Carries ``needed`` (the size the request implies) and ``cap`` (the
    limit).  Certificates, roots and exact checks let it propagate;
    ``compute_phi`` catches it for percolation only and returns a Monte
    Carlo estimate instead, and ``best_bound`` skips the region.
    """

    def __init__(self, what: str, needed: int, cap: int):
        self.what = what
        self.needed = needed
        self.cap = cap
        super().__init__(f"{what}: need {needed}, cap is {cap}")


class NoRoot(SubcritError):
    """Root bracketing failed: the target function does not cross zero."""


class DegenerateFit(SubcritError):
    """A decay fit was requested on unusable data (zero means, too few points)."""

    def __init__(self, message: str, dropped=()):
        self.dropped = tuple(dropped)
        super().__init__(message)


class NoPath(SubcritError):
    """A backbone was requested for a current with no path between its sources."""


class ConfigError(SubcritError):
    """A run configuration failed validation.

    ``field`` holds a dotted path into the offending entry so CLI users get
    actionable diagnostics.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
