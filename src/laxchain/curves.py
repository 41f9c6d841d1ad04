"""Elliptic spectral curves ``w**2 = F(z)`` with F the monic cubic.

``F(z) = z**3 + c2*z**2 + c1*z + c0``; the leading coefficient is implicit.
Evaluation is generic in the scalar so the same curve object serves exact
rationals, floats, extension elements, and jets.
"""

from dataclasses import dataclass

from .errors import UnsupportedCurveError

__all__ = ["SpectralCurve"]


@dataclass(frozen=True)
class SpectralCurve:
    """Monic cubic ``F``; ``coeffs`` lists ``c0, c1, c2`` in ascending order.
    A bool coefficient, an int only by inheritance, raises ``TypeError``."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != 3:
            raise UnsupportedCurveError(
                f"the monic cubic needs 3 coefficients c0, c1, c2, got {len(self.coeffs)}"
            )
        for name, c in zip(("c0", "c1", "c2"), self.coeffs):
            if isinstance(c, bool):
                raise TypeError(f"curve coefficient {name} is a bool ({c!r}), not a number")

    @classmethod
    def elliptic(cls, c2, c1, c0):
        """The curve ``w**2 = z**3 + c2*z**2 + c1*z + c0``."""
        return cls((c0, c1, c2))

    def to_float(self):
        """The same curve with float coefficients, for float64 site arrays.

        ``float + Fraction`` rounds through ``float(c)``, so :meth:`eval` of
        a float gives the same bits on both curves; the float copy keeps
        arrays float64 where a Fraction would make them object arrays.
        """
        return SpectralCurve(tuple(float(c) for c in self.coeffs))

    def eval(self, z):
        """Horner evaluation of ``F(z)``."""
        c0, c1, c2 = self.coeffs
        return ((z + c2) * z + c1) * z + c0

    def eval_derivative(self, z, order=1):
        """First or second derivative of ``F`` at ``z``."""
        _, c1, c2 = self.coeffs
        if order == 1:
            return (3 * z + 2 * c2) * z + c1
        if order == 2:
            return 6 * z + 2 * c2
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
