"""Exception types shared across the package, ``reject_repeats``,
``missing_key`` and ``read_text``, the one way a text input is read.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataFormatError -> 3, DivergenceError -> 4.
"""


class QuantbenchError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(QuantbenchError):
    """Invalid configuration, arguments, or preconditions (exit code 2)."""


class DimensionError(ConfigError):
    """Tensor shapes incompatible with the requested operation."""


class UsageError(ConfigError):
    """API misuse, e.g. a stale forward cache or missing shadow weights."""


class DataFormatError(QuantbenchError):
    """Malformed input files: datasets, CSVs, checkpoints (exit code 3)."""


class DivergenceError(QuantbenchError):
    """Training produced a non-finite loss (exit code 4)."""

    def __init__(self, epoch: int, lr: float):
        self.epoch = epoch
        self.lr = lr
        super().__init__(
            f"training diverged: non-finite loss at epoch {epoch} (learning rate {lr:g})"
        )

    def __reduce__(self):
        # args holds the formatted message, not (epoch, lr); reconstruct from
        # the originals so the error survives a trip through a process pool.
        return (DivergenceError, (self.epoch, self.lr))


def reject_repeats(values: list, key: str) -> None:
    """Raise ConfigError naming ``key`` and the first value listed twice."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{key}: {v} is listed twice")


def missing_key(path: str) -> ConfigError:
    """The error for a config key that is required and absent at ``path``."""
    return ConfigError(f"{path}: required key is missing")


def read_text(path: str, what: str, unreadable: type = DataFormatError) -> str:
    """The UTF-8 text of the file at ``path``, a ``what`` (e.g. "config").

    A file that cannot be opened raises ``unreadable``; bytes that are not
    UTF-8 raise DataFormatError naming the path and the byte offset.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise unreadable(f"cannot read {what} {path}: {exc}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})"
        ) from None
