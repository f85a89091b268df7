"""Exception taxonomy shared across the package."""


class CrossModalError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CrossModalError):
    """Tensor extents do not conform to an operation's contract."""


class ConfigError(CrossModalError):
    """Invalid configuration value or combination."""


class ContractError(CrossModalError):
    """An operation precondition or postcondition was violated."""


class DegenerateInputError(CrossModalError):
    """Input is structurally valid but numerically degenerate (e.g. zero-norm row)."""


class DataFormatError(CrossModalError):
    """A file does not match its declared binary or CSV format."""


class NumericError(CrossModalError):
    """A computation produced NaN/Inf, or training aborted on a non-finite loss."""


def require(cfg, ok: bool, name: str, rule: str) -> None:
    """Raise a ConfigError naming field ``name`` of config ``cfg`` unless ``ok``."""
    if not ok:
        raise ConfigError(f"{type(cfg).__name__} field {name!r} must be {rule}, "
                          f"got {getattr(cfg, name)!r}")
