"""Exception hierarchy.

Domain errors carry a short module-local name so the CLI can surface it;
``InternalInvariantError`` marks conditions that should be impossible for a
valid preset (these abort with a distinct exit code).
"""


class AffweylError(Exception):
    """Base class for all domain errors."""

    name = "error"


class RootDatumError(AffweylError):
    name = "root_datum.invalid"


class UnknownPresetError(AffweylError):
    name = "presets.unknown"


class PresetSyntaxError(AffweylError):
    name = "presets.syntax"


class FoldingError(AffweylError):
    name = "folding.invalid_action"


class PairingError(AffweylError):
    name = "folding.pairing"


class EchelonnageError(AffweylError):
    name = "iwahori.table_gap"


class InfiniteGroupError(AffweylError):
    name = "iwahori.infinite_subgroup"


class CapExceededError(AffweylError):
    name = "facets.cap_exceeded"


class FacetError(AffweylError):
    name = "facets.unknown_letter"


class DominanceError(AffweylError):
    name = "dual.nondominant"


class PeelingError(AffweylError):
    name = "dual.peeling"


class ElementParseError(AffweylError):
    name = "cli.element_syntax"


class CoordinateCountError(AffweylError):
    name = "cli.coordinate_count"


class InternalInvariantError(Exception):
    """An internal consistency check failed; indicates a bug or bad preset."""
