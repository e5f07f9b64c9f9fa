"""Exception taxonomy shared across the package.

The CLI maps every ForgeError to exit code 2.  A search that runs out of
budget raises nothing: it returns its best result flagged `exhausted`, and
the CLI exits 3.
"""


class ForgeError(Exception):
    """Base class for all package errors."""

    def payload(self) -> dict:
        return {"type": type(self).__name__, "message": str(self)}


class ValidationError(ForgeError):
    """Malformed or inconsistent input data."""


class BasisMismatchError(ValidationError):
    """Operands built over different semigroup bases."""


class PreconditionError(ForgeError):
    """A documented operation precondition does not hold."""


class SingularElementError(PreconditionError):
    """Inversion requested for an element with vanishing constant term."""


class NeumannInapplicableError(PreconditionError):
    """Neumann contraction ratio q >= 1; carries the measured q."""

    def __init__(self, q: float):
        super().__init__(f"Neumann series inapplicable: contraction ratio q = {q} >= 1")
        self.q = q

    def payload(self) -> dict:
        out = super().payload()
        out["q"] = self.q
        return out


class CapExceededError(ForgeError):
    """A configured enumeration or precision cap was exhausted."""
