"""2D affine transforms in PostScript matrix convention.

A matrix [a b c d tx ty] maps a point (x, y) to
(a*x + c*y + tx, b*x + d*y + ty), i.e. (a, b) is the image of the unit
x vector and (c, d) the image of the unit y vector.
"""

from __future__ import annotations

import math

from .records import record


@record
class Affine:
    a: float = 1.0
    b: float = 0.0
    c: float = 0.0
    d: float = 1.0
    tx: float = 0.0
    ty: float = 0.0

    @staticmethod
    def translation(tx: float, ty: float) -> "Affine":
        return Affine(1.0, 0.0, 0.0, 1.0, tx, ty)

    @staticmethod
    def rotation(degrees: float) -> "Affine":
        r = math.radians(degrees)
        cos_r, sin_r = math.cos(r), math.sin(r)
        return Affine(cos_r, sin_r, -sin_r, cos_r, 0.0, 0.0)

    @staticmethod
    def scaling(sx: float, sy: float | None = None) -> "Affine":
        return Affine(sx, 0.0, 0.0, sx if sy is None else sy, 0.0, 0.0)

    def apply(self, x: float, y: float) -> tuple[float, float]:
        return (self.a * x + self.c * y + self.tx,
                self.b * x + self.d * y + self.ty)

    def apply_vector(self, x: float, y: float) -> tuple[float, float]:
        """Transform a direction, ignoring the translation part."""
        return (self.a * x + self.c * y, self.b * x + self.d * y)

    def __matmul__(self, other: "Affine") -> "Affine":
        """Composition: (A @ B).apply(p) == A.apply(*B.apply(*p))."""
        return Affine(
            self.a * other.a + self.c * other.b,
            self.b * other.a + self.d * other.b,
            self.a * other.c + self.c * other.d,
            self.b * other.c + self.d * other.d,
            self.a * other.tx + self.c * other.ty + self.tx,
            self.b * other.tx + self.d * other.ty + self.ty,
        )

    def rotation_degrees(self) -> float:
        """Slope of the transformed x axis, in (-180, 180]."""
        r = math.degrees(math.atan2(self.b, self.a))
        if r <= -180.0:
            r += 360.0
        return r

    def x_scale(self) -> float:
        """Norm of the x column relative to unit."""
        return math.hypot(self.a, self.b)

    def determinant(self) -> float:
        return self.a * self.d - self.b * self.c

    def as_ps_array(self) -> tuple[float, float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.tx, self.ty)
