"""Exception types shared across the package."""


class ErgodicTilerError(Exception):
    """Base class for all package errors."""


class MalformedGraph(ErgodicTilerError):
    """Edge list contains self-loops, duplicates, or out-of-range endpoints."""


class CrossComponent(ErgodicTilerError):
    """Operation requires vertices from a single connected component."""


class DisconnectedClass(ErgodicTilerError):
    """An equivalence class is not connected in the graph."""


class EmptySet(ErgodicTilerError):
    """Operation requires a nonempty vertex set."""


class NotDisjoint(ErgodicTilerError):
    """Sets expected to be disjoint overlap."""


class MalformedFlow(ErgodicTilerError):
    """Flow file line does not parse, or a flow has negative entries, endpoints
    outside the graph, or breaks the unit bounds."""


class InsufficientCapacity(ErgodicTilerError):
    """A class lacks receiving capacity for the requested out-flow."""

    def __init__(self, message, class_anchor=None):
        super().__init__(message)
        self.class_anchor = class_anchor


class NotClosed(ErgodicTilerError):
    """Flow domain leaks outside the given source/target rectangle."""


class NotCoherent(ErgodicTilerError):
    """A later prepartition breaks a cell of an earlier one."""


class BadMagnification(ErgodicTilerError):
    """Block magnification must be at least 1."""


class NoNextBlock(ErgodicTilerError):
    """The block already fills its component; no strictly larger block exists."""


class InvariantBreach(ErgodicTilerError):
    """A structural law that must hold on finite instances was violated."""


class TooLargeForExact(ErgodicTilerError):
    """Exact search requested on a component beyond the exact-size limit."""


class BadModel(ErgodicTilerError):
    """Degenerate model parameters."""


class BadDenominator(ErgodicTilerError):
    """Ratio statistics need a strictly positive denominator function."""


class NotFitted(ErgodicTilerError):
    """Estimator method called before fit()."""


class StallDiagnostic(ErgodicTilerError):
    """Tiling made no progress before reaching its target.

    Carries the partial state so callers can inspect what was built.
    """

    def __init__(self, message, state=None, report=None, components=()):
        super().__init__(message)
        self.state = state
        self.report = report
        self.components = tuple(components)


class VanishingPrecondition(UserWarning):
    """Input sets do not actually vanish: the last input set keeps positive mass.

    A finite list of sets stands for the sequence in which the last set
    repeats forever, so its tails then never become null.
    """
