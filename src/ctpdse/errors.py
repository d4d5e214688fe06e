"""Exception hierarchy shared across the package.

The CLI maps these onto stable exit codes: ConfigError -> 2,
MeasurementMissError -> 3, EvaluationError -> 4.
"""


class CtpDseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CtpDseError):
    """Invalid configuration, malformed input file, or bad profile/registry text."""


class MeasurementMissError(CtpDseError):
    """A cached-measurement lookup had no row for a requested (ctp, sequence, qp).

    ``missing`` holds the full keys; the message lists only their sequence
    and qp, because the caller that asked for the profile names it.
    """

    def __init__(self, missing):
        self.missing = tuple(missing)
        keys = ", ".join(f"(sequence={s}, qp={q})" for _, s, q in self.missing)
        super().__init__(f"measurement miss: no rows for {keys}")


class EvaluationError(CtpDseError):
    """An evaluation backend failed (child process, result parsing, CI validation)."""
