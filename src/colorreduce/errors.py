"""Exception types and the small guards shared across the package."""


class ColorReduceError(Exception):
    """Base class for all package errors."""


class GraphError(ColorReduceError):
    """Invalid graph structure (asymmetric adjacency, loops, bad coloring, ...)."""


class CoverageError(ColorReduceError):
    """A color assignment does not cover every node of the graph."""


class PaletteMismatchError(ColorReduceError):
    """A color value falls outside the declared palette bound."""


class ParameterError(ColorReduceError):
    """Infeasible or out-of-contract parameters for an operation."""


class CapExceededError(ColorReduceError):
    """A construction would exceed its configured size cap."""

    def __init__(self, projected, cap, what="vertices"):
        super().__init__(f"projected {projected} {what} exceeds cap {cap}")
        self.projected = projected
        self.cap = cap


class SimulationError(ColorReduceError):
    """A node program failed during a simulated round."""

    def __init__(self, node, round_index, cause):
        super().__init__(f"node {node}, round {round_index}: {cause!r}")
        self.node = node
        self.round_index = round_index
        self.cause = cause


class ConstructionError(ColorReduceError):
    """An internal step that is guaranteed to succeed failed.

    Raised by the refuters, the homomorphism builders and the chromatic
    solver's witness check on states their correctness arguments rule
    out; any occurrence is a bug, never an expected runtime condition.
    """


class _Immutable:
    """Base of values whose fields __init__ sets through
    object.__setattr__; later assignment and deletion raise."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


def _need_ints(**params):
    """ParameterError unless every parameter is an int (bool is not)."""
    if not all(type(p) is int for p in params.values()):
        raise ParameterError(f"need integer {', '.join(params)}, got "
                             + ", ".join(f"{k}={v!r}" for k, v in params.items()))
