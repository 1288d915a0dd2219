"""Exception hierarchy shared by all flatgeom modules, and the integer check."""


class FlatgeomError(Exception):
    """Base class for all errors raised by this package."""


class InvalidElement(FlatgeomError):
    """An element id is not part of the ground set."""


class GroundTooLarge(FlatgeomError):
    """An exhaustive check would exceed its configured bound and no
    sampling fallback was requested."""


class NoLargeCircuit(FlatgeomError):
    """The matroid has no circuit of size greater than 2, so the
    circuit-parameter machinery does not apply."""


class NotIndependent(FlatgeomError):
    """A tuple required to be independent (possibly over a base set) is not."""


class EmptyCollection(FlatgeomError):
    """An inclusion-exclusion value was requested for an empty collection."""


class InvalidConfig(FlatgeomError):
    """A ping-pong configuration violates its invariants."""


class InvalidSequence(FlatgeomError):
    """A ping-pong sequence violates the step rule."""


class InvalidStructure(FlatgeomError):
    """A relational structure or scenario fails validation."""


class IncoherentSchedule(FlatgeomError):
    """Stage schedules are inconsistent with each other or the horizon."""


class NotExtendable(FlatgeomError):
    """A tuple cannot be extended to a basis (it is dependent)."""


class ProfileInvalid(FlatgeomError):
    """A theory profile has a non-integer entry or fails its inequality constraints."""


class MatroidContractError(FlatgeomError):
    """Two computations that must agree on a valid matroid disagreed,
    indicating a broken oracle."""


class InputError(FlatgeomError):
    """Malformed external input (JSON files, CLI values)."""


def check_int(what: str, *values, least=None, error: type[FlatgeomError] = InputError) -> None:
    """The one rule for every count and bound: refuse, as ``error``, the
    first of ``values`` that is not an int (a bool is not one here) with
    ``<what> must be an integer, got <value!r>``, or that is below a given
    ``least`` with ``<what> must be >= <least>, got <value!r>``."""
    for v in values:
        # A plain int, the common case, passes on the first test.
        if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
            raise error(f"{what} must be an integer, got {v!r}")
        if least is not None and v < least:
            raise error(f"{what} must be >= {least}, got {v!r}")
