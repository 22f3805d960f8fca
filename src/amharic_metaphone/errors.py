"""Exception types shared across the package."""

from __future__ import annotations


class AmharicMetaphoneError(Exception):
    """Base class for all package errors."""


class InvalidInputError(AmharicMetaphoneError, ValueError):
    """A word contains a scalar the encoder cannot process.

    Attributes:
        char: the offending character.
        position: its index within the input word.
    """

    def __init__(self, char: str, position: int, word: str | None = None):
        self.char = char
        self.position = position
        self.word = word
        where = f" in {word!r}" if word else ""
        super().__init__(
            f"unsupported scalar {char!r} (U+{ord(char):04X}) "
            f"at position {position}{where}"
        )


class EmptyWordError(AmharicMetaphoneError, ValueError):
    """encode() was called with an empty string."""


class LoadError(AmharicMetaphoneError):
    """A data file (tables, lexicon, corpus, index) failed to parse.

    Attributes:
        path: the file being loaded.
        line: 1-based line number of the offending record, if known.
    """

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


class ConfigMismatchError(AmharicMetaphoneError):
    """An index built under one encoder config was queried under another."""


class EmptyCorpusError(AmharicMetaphoneError):
    """evaluate() was called with no corpus entries."""
