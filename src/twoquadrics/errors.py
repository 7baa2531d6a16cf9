"""Exception types shared across the library."""


class TwoQuadricsError(Exception):
    pass


class IncompatibleOrder(TwoQuadricsError):
    """Requested cyclotomic order is not a multiple of the element's order."""


class NotARoot(TwoQuadricsError):
    pass


class NotClosed(TwoQuadricsError):
    """A map was expected to permute a finite set but left it."""


class NotFiniteOrder(TwoQuadricsError):
    pass


class DimensionMismatch(TwoQuadricsError):
    pass


class Singular(TwoQuadricsError):
    pass


class CapExceeded(TwoQuadricsError):
    pass


class NonScalarDiscrepancy(TwoQuadricsError):
    pass


class RelationsFailProjectively(TwoQuadricsError):
    pass


class LabelMismatch(TwoQuadricsError):
    pass


class NotASymmetry(TwoQuadricsError):
    pass


class NotAbelian(TwoQuadricsError):
    pass


class GenusMismatch(TwoQuadricsError):
    pass


class OddParity(TwoQuadricsError):
    pass


class UnsupportedCase(TwoQuadricsError):
    """An exact computation would leave the supported coefficient fields.

    Raised loudly instead of silently dropping solutions.
    """


class SchemaError(TwoQuadricsError):
    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
