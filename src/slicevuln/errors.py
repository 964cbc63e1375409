"""Exception types shared across the library.

The CLI maps these onto exit codes: DataError -> 2, NumericError -> 3.
"""

from pathlib import Path


def clip(text: str) -> str:
    """``text`` cut to 80 characters and "..." when longer: a message quotes
    an input value through it, so it stays short however large the value."""
    return text if len(text) <= 80 else text[:80] + "..."


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


class NumericError(SliceVulnError):
    """Non-finite loss or gradients during training or verification."""


def not_utf8(path: str | Path) -> DataError:
    """The data error for a file that does not decode, naming its first bad
    line.  A newline byte never occurs inside a UTF-8 sequence, so decoding
    line by line finds the line the whole-file decode failed on."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                return DataError(f"{path}:{lineno}: not UTF-8 "
                                 f"(byte 0x{raw[e.start]:02x}: {e.reason})")
    return DataError(f"{path}: not UTF-8")


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; one that is not UTF-8 is a DataError naming
    its first bad line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise not_utf8(path) from e
