"""Error taxonomy shared by every module.

Each error carries an ``exit_code`` so the command line tool can map failures
onto its contract: 1 for bad input, 2 for exhausted budgets / partial results,
3 for internal invariant violations.
"""

from __future__ import annotations


class ShiftSpaceError(Exception):
    """Base class for everything raised deliberately by this package."""

    exit_code = 3


class InputError(ShiftSpaceError):
    """The caller handed us something malformed; nothing was computed."""

    exit_code = 1


class EmptyAlphabet(InputError):
    pass


class DuplicateSymbol(InputError):
    pass


class InvalidSymbol(InputError):
    """Symbols must be nonempty strings without the ``.`` separator."""


class ZeroRow(InputError):
    """A transition matrix row is all zero, so that symbol has no successor."""


class DanglingEdge(InputError):
    """A labeled-graph edge refers to a vertex that does not exist."""


class EmptyShift(InputError):
    """After trimming vertices with no outgoing edges, nothing is left."""


class InputFormatError(InputError):
    """JSON document does not follow the shiftspace-v1 layout."""


class WordNotInLanguage(InputError):
    pass


class WrongKind(InputError):
    """Operation is only defined for a different presentation kind."""


class BudgetError(ShiftSpaceError):
    """A configured resource cap was hit before the computation finished."""

    exit_code = 2


class MonoidBudgetExceeded(BudgetError):
    pass


class DepthTooLarge(BudgetError):
    pass


class IdealBudgetExceeded(BudgetError):
    """The ideal lattice has more elements than ``IDEAL_CAP``."""


class WordBudgetExceeded(BudgetError):
    """Rendering past sets would list more words than the cap allows."""


class RelationBudgetExceeded(BudgetError):
    """Relation checks would take more word pairs times basis words than
    ``repcheck.RELATION_CAP``."""


class TowerTooShallow(BudgetError):
    """The tower did not stabilize within the level budget."""


class NotStabilized(BudgetError):
    """A stabilized tower is required and this one is not."""


class IllDefinedTransition(ShiftSpaceError):
    """Refinement invariant broke: members of one class disagree on a
    symbol transition.  Always a bug, never a user error."""
