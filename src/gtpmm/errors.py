"""Exception types shared across the package."""

from __future__ import annotations


class GtpError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(GtpError):
    """Invalid or inconsistent configuration (fares, modes, category sizing);
    ``edge`` is the index of the edge at fault in the edges added or priced,
    when one is."""

    def __init__(self, message: str, *, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


class ParseError(GtpError):
    """Malformed input file; carries the file name and, when known, the line."""

    def __init__(self, message: str, *, file: str, line: int | None = None):
        location = f"{file}:{line}" if line is not None else file
        super().__init__(f"{location}: {message}")
        self.file = file
        self.line = line


class InfeasibleRouteError(GtpError):
    """No route exists between two PoIs that the query requires to be connected."""

    def __init__(self, u: int, v: int):
        super().__init__(f"no route between PoIs {u} and {v}")
        self.pair = (u, v)


class EnumerationLimitError(GtpError):
    """Exhaustive enumeration would exceed the configured tuple budget."""

    def __init__(self, n_tuples: int, limit: int):
        super().__init__(
            f"enumeration of {n_tuples} candidate tuples exceeds the limit of {limit}"
        )
        self.n_tuples = n_tuples
        self.limit = limit


class InternalConsistencyError(GtpError):
    """A reconstructed result disagrees with its own bookkeeping."""
