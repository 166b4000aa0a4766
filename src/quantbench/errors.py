"""Exception types shared across the package, and ``reject_repeats``.

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
