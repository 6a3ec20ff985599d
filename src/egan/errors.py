"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid experiment configuration (bad field, bad value, bad config file)."""


class ShapeError(ValueError):
    """Array arguments whose shapes do not line up."""


class UsageError(RuntimeError):
    """An operation called out of sequence or on state it cannot accept."""


class CsvParseError(ValueError):
    """A curve file that cannot be parsed; carries the offending line number."""

    def __init__(self, path: str, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number
