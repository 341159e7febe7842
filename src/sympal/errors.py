"""Exception hierarchy shared by all sympal modules (the CLI maps them to
exit codes by one table, `cli._EXITS`), and `exact_int` for document numbers."""


def exact_int(x, what: str) -> int:
    """x if it is an int and not a bool, else ValueError naming `what`."""
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an int")
    return x


class SympalError(Exception):
    """Base class for all errors raised by sympal."""


# --- finite fields ---

class NotPrime(SympalError):
    pass


class ZeroArgument(SympalError):
    pass


class NotGenerator(SympalError):
    pass


class NoEmbedding(SympalError):
    pass


class FieldTooLarge(SympalError):
    pass


class SpecMismatch(SympalError):
    """Arithmetic between elements of different field specs (embed first)."""


# --- symplectic layer ---

class Singular(SympalError):
    pass


class NotSimilitude(SympalError):
    pass


# --- group enumeration ---

class CapExceeded(SympalError):
    """A group's order, or the rows reached while finding it, is past the
    enumeration cap; `count` is that order or row count, and the message
    says which."""

    def __init__(self, count: int, message: str):
        super().__init__(message)
        self.count = count


# --- classification ---

class NoTransvection(SympalError):
    pass


class CharTooSmall(SympalError):
    pass


class WitnessCheckFailed(SympalError):
    """Internal inconsistency: a produced witness failed its own invariant."""


class NoOrderMatch(SympalError):
    pass


# --- (n,p)-groups ---

class InvalidParams(SympalError):
    pass


class NoInvariantForm(SympalError):
    pass


class NotIrreducible(SympalError):
    pass


# --- regularity ---

class TwistBreaksRegularity(SympalError):
    pass


# --- character theory ---

class NotSubgroup(SympalError):
    pass


class HypothesisFailed(SympalError):
    def __init__(self, clause: str):
        super().__init__(f"hypothesis violated: {clause}")
        self.clause = clause
