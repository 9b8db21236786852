"""Exception hierarchy for pauliexp."""


class PauliExpError(Exception):
    """Base class for all pauliexp errors."""


class ClosureExplosion(PauliExpError):
    """Raised when a multiplicative closure would hold more strings than its cap.

    Attributes
    ----------
    size : int
        Exact number of non-identity strings in the closure, 2**rank - 1.
    cap : int
        The cap that was exceeded.
    """

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(
            f"closure has {size} non-identity strings, more than the cap {cap}"
        )


class SingularSystem(PauliExpError):
    """Raised when a shifted linear system (zI - A) r = e0 cannot be solved
    to the required residual, typically because z sits on an eigenvalue of A."""

    def __init__(self, z: complex, residual: float | None = None):
        self.z = z
        self.residual = residual
        detail = f", residual {residual:.3e}" if residual is not None else ""
        super().__init__(f"singular or ill-conditioned system at z = {z}{detail}")


class ContourError(PauliExpError):
    """Raised when an integration contour fails to enclose the spectrum."""


class FormatError(PauliExpError):
    """Raised on malformed input files (Hamiltonian text/JSON, dense JSON/binary)."""
