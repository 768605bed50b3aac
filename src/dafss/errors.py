"""Exception types shared across the package, and the checks of a setting."""

from numbers import Integral, Real


class InputError(ValueError):
    """A label, prediction, texture or class id is malformed or outside its valid range."""


class ShapeError(ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class GraphError(RuntimeError):
    """Backward was called again on a graph it has already swept."""


class NumericError(RuntimeError):
    """A non-finite value appeared where a finite one is required."""


class DegenerateBatchError(ValueError):
    """Batch statistics were requested on a batch that is too small."""


class DegenerateSupportError(ValueError):
    """A support mask selects no points, so no prototype can be pooled."""


class CapacityError(ValueError):
    """A scene configuration could exceed the point budget."""


class SamplingError(ValueError):
    """The scene pool cannot supply the requested episode."""


class SceneParseError(ValueError):
    """A scene file is malformed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigurationError(ValueError):
    """A structural hyperparameter is inconsistent."""


class UndefinedMetricError(ValueError):
    """No foreground class is present, so the metric is undefined."""


def require(owner, ok: bool, field: str, rule: str) -> None:
    """Raise ``ConfigurationError`` naming ``owner.<field>``, its value and
    the broken ``rule`` unless ``ok``."""
    if not ok:
        raise ConfigurationError(f"{field} = {getattr(owner, field)!r}: {rule}")


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real number; a bool is not one."""
    return isinstance(value, Real) and not isinstance(value, bool)
