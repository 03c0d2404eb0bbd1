"""Exception types shared across the package.

Each class maps to one failure category so callers (and the CLI) can
translate problems into stable machine-readable codes.
"""


class ShapeError(ValueError):
    """Operands have incompatible or invalid dimensions."""

    code = "ESHAPE"


class DomainError(ValueError):
    """A value is outside the mathematical domain of the operation."""

    code = "EDOMAIN"
    fields: tuple[tuple[str, str], ...] = ()  # (name, reason) per refused dataclass field


def check_fields(checks) -> None:
    """Raise one DomainError naming each (name, holds, reason) check that does
    not hold, as ``name: reason``: the rule of every settings dataclass."""
    wrong = tuple((name, reason) for name, holds, reason in checks if not holds)
    if wrong:
        error = DomainError("; ".join(f"{name}: {reason}" for name, reason in wrong))
        error.fields = wrong
        raise error


class SizeError(ValueError):
    """Input exceeds a documented size cap."""

    code = "ESIZE"


class FormatError(ValueError):
    """A file or stream does not match its documented layout."""

    code = "EFORMAT"


class DegenerateGraphError(ValueError):
    """The graph has no usable structure (edgeless, too few vertices)."""

    code = "EDEGENERATE"


class ConfigError(ValueError):
    """Experiment configuration failed validation.

    The message lists every violated field, semicolon separated.
    """

    code = "ECONFIG"
