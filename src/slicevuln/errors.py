"""Exception types shared across the library.

The CLI maps these onto exit codes: DataError -> 2, NumericError -> 3.
"""


class SliceVulnError(Exception):
    pass


class DataError(SliceVulnError):
    """Malformed input data: bad records, unknown labels, format violations."""


class LexError(DataError):
    """Source text that cannot be tokenized. Carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line

    def __reduce__(self):  # rebuilt from its own arguments, e.g. across a process pool
        return type(self), (self.message, self.line)


class NumericError(SliceVulnError):
    """Non-finite loss or gradients during training or verification."""
