"""Hyperelliptic spectral curves ``w**2 = F_g(z)`` with monic odd-degree F.

``F_g(z) = z^(2g+1) + c_{2g} z^(2g) + ... + c_0``; the leading coefficient is
implicit.  Evaluation is generic in the scalar so the same curve object serves
exact rationals, floats, extension elements, and jets.
"""

from dataclasses import dataclass

from .errors import UnsupportedCurveError

__all__ = ["SpectralCurve"]


@dataclass(frozen=True)
class SpectralCurve:
    """Monic polynomial ``F_g`` of degree ``2*genus + 1``.

    ``coeffs`` lists ``c_0 .. c_{2g}`` in ascending order.
    """

    genus: int
    coeffs: tuple

    def __post_init__(self):
        if self.genus < 1:
            raise UnsupportedCurveError(f"genus must be positive, got {self.genus}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != 2 * self.genus + 1:
            raise UnsupportedCurveError(
                f"genus {self.genus} needs {2 * self.genus + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )

    @classmethod
    def elliptic(cls, c2, c1, c0):
        """Genus-1 curve ``w**2 = z**3 + c2*z**2 + c1*z + c0``."""
        return cls(1, (c0, c1, c2))

    @property
    def degree(self):
        return 2 * self.genus + 1

    def to_float(self):
        """The same curve with float coefficients, for float64 site arrays.

        ``float + Fraction`` rounds through ``float(c)``, so :meth:`eval` of
        a float gives the same bits on both curves; the float copy keeps
        arrays float64 where a Fraction would make them object arrays.
        """
        return SpectralCurve(self.genus, tuple(float(c) for c in self.coeffs))

    def eval(self, z):
        """Horner evaluation of ``F_g(z)``."""
        acc = z + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + c
        return acc

    def eval_derivative(self, z, order=1):
        """First or second derivative of ``F_g`` at ``z``."""
        if order not in (1, 2):
            raise ValueError(f"derivative order must be 1 or 2, got {order}")
        d = self.degree
        if order == 1:
            # F' = d*z^(d-1) + sum_i i*c_i*z^(i-1)
            acc = d * z + (d - 1) * self.coeffs[d - 1]
            for i in range(d - 2, 0, -1):
                acc = acc * z + i * self.coeffs[i]
            return acc
        acc = d * (d - 1) * z + (d - 1) * (d - 2) * self.coeffs[d - 1]
        for i in range(d - 2, 1, -1):
            acc = acc * z + i * (i - 1) * self.coeffs[i]
        return acc
