"""Structured exceptions shared across the package.

Every error that reports a concrete witness (indices, residuals) stores it
as attributes so callers and the CLI can serialize it.
"""


class ErgospecError(Exception):
    """Base class for all package errors."""


class NotCommutative(ErgospecError):
    def __init__(self, i, j):
        self.i, self.j = i, j
        super().__init__(f"table[{i}][{j}] != table[{j}][{i}]")


class NotAssociative(ErgospecError):
    def __init__(self, i, j, k):
        self.i, self.j, self.k = i, j, k
        super().__init__(f"(({i}+{j})+{k}) != ({i}+({j}+{k}))")


class BadNeutral(ErgospecError):
    def __init__(self, i):
        self.i = i
        super().__init__(f"neutral violated at element {i}")


class ExponentOverflow(ErgospecError):
    pass


class InternalInconsistency(ErgospecError):
    """A theorem-backed invariant failed; indicates a bug, not bad input."""


class MismatchedSemigroup(ErgospecError):
    pass


class HomomorphismViolation(ErgospecError):
    def __init__(self, s, t, residual):
        self.s, self.t, self.residual = s, t, residual
        super().__init__(f"M[{s}]*M[{t}] != M[{s}+{t}], residual {residual:.3e}")


class NotCommuting(ErgospecError):
    def __init__(self, i, j, residual):
        self.i, self.j, self.residual = i, j, residual
        super().__init__(f"matrices {i} and {j} do not commute, residual {residual:.3e}")


class NotInvariant(ErgospecError):
    def __init__(self, s, residual):
        self.s, self.residual = s, residual
        super().__init__(f"subspace not invariant under matrix for {s}, residual {residual:.3e}")


class NotBounded(ErgospecError):
    """Raised when an analysis requires a Certified boundedness certificate."""


class NonPoleSpectrum(ErgospecError):
    def __init__(self, character, detail):
        self.character, self.detail = character, detail
        super().__init__(f"spectral character failed the pole test: {detail}")


class LostCharacter(ErgospecError):
    def __init__(self, radius):
        self.radius = radius
        super().__init__(f"the unitary spectrum is empty but rho(T_u) = {radius:.10g} "
                         f">= 1 - tol_char: the spectrum lost a character")


class EquivalenceViolation(ErgospecError):
    def __init__(self, details):
        self.details = details
        super().__init__(f"theorem-equivalence check failed: {details}")


class DominationViolation(ErgospecError):
    def __init__(self, character, dims):
        self.character, self.dims = character, dims
        super().__init__(f"dim ker(chi - T) = {dims[0]} > dim fix(T) = {dims[1]}")


class ParseError(ErgospecError):
    def __init__(self, message, line=None, column=None):
        self.line, self.column = line, column
        loc = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(message + loc)
