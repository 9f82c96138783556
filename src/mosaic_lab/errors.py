"""Exception classes shared across the package, and the helper that cuts an
input value short where their messages quote it."""

_ECHO_LIMIT = 60


def _echo(value) -> str:
    """repr(value), cut after _ECHO_LIMIT characters and marked "...", so that
    a message quoting a label or a malformed pair stays one short line."""
    text = repr(value)
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT] + "..."


class MosaicLabError(Exception):
    """Base class for every structural error raised by this package."""


class DuplicateLabel(MosaicLabError):
    pass


class CyclicCovers(MosaicLabError):
    pass


class NotBounded(MosaicLabError):
    pass


class NotAnOrder(MosaicLabError, ValueError):
    """Up-set rows that are not reflexive, antisymmetric and transitive.
    Also a ValueError, which such rows raised before this class existed."""


class NotALattice(MosaicLabError):
    """Some pair has no unique least upper / greatest lower bound."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NotAnOrthocomplementation(MosaicLabError):
    pass


class NotASublattice(MosaicLabError, ValueError):
    """A subset that is empty or not closed under join and meet, or an empty
    seed set for generated_sublattice.  Also a ValueError, which the empty
    seed set raised before it was typed."""


class SizeMismatch(MosaicLabError, ValueError):
    """Carriers, tables or maps whose sizes disagree, or a cell that names
    an element past its carrier.  Also a ValueError, which some of these
    raised before they were typed."""


class InvalidStructure(MosaicLabError, ValueError):
    """Parts that do not make the structure a constructor was asked for: a
    map that is no involution, a neutral element that is not neutral.  Also
    a ValueError, which these raised before this class existed."""


class NoUniqueExtremum(MosaicLabError):
    pass


class ReconstructionFailure(MosaicLabError):
    """A claimed dualizable L-mosaic does not define a pi-ortholattice."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PreconditionFailed(MosaicLabError):
    pass


class UnknownName(MosaicLabError):
    pass


class SizeTooLarge(MosaicLabError):
    pass


class FormatError(MosaicLabError):
    """Malformed lattice / mosaic-table JSON."""
