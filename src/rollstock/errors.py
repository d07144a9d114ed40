"""Exception types shared across the package."""

from __future__ import annotations


class RollstockError(Exception):
    """Base class for all package errors."""


class MalformedInstance(RollstockError):
    """Instance text that is not JSON or does not have the instance shape,
    a DIMACS formula with a line that does not parse, or LP text with a line
    that ``write_lp`` would not write."""


class NotFound(RollstockError):
    """A named entity (instance, catalog entry) does not exist."""


class UnknownDepot(RollstockError):
    """A direct-arc spec references a station/type with no usable depot."""


class InfeasibleInstance(RollstockError):
    """The instance admits no hyperflow at all (e.g. a trip with no servable composition)."""


class NonConservingInput(RollstockError):
    """A hyperflow violates node balances beyond tolerance."""


class DecompositionFailure(RollstockError):
    """Path decomposition could not consume the whole base flow."""


class VariantMismatch(RollstockError):
    """An operation received a hypergraph of the wrong variant."""


class InvalidOptions(RollstockError):
    """Incompatible model options (e.g. composition model without connection constraints)."""


class NumericalFailure(RollstockError):
    """The LP solver could not reach a reliable conclusion."""


class LimitExceeded(RollstockError):
    """Instance too large for exhaustive enumeration, or a search stopped at
    its limit before it could decide."""


class CutViolated(RollstockError):
    """A composition-model solution violates a depot cut constraint."""


class ConfigError(RollstockError):
    """Invalid generator configuration."""
