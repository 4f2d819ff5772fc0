"""Scalar fields on uniform square grids, their grid differences and files.

Fields live on the nodes of an N x N grid with spacing h over
[0, (N-1) h]^2 and extend by zero outside; gradients are forward
differences per cell, so a field that is zero on the boundary nodes has
all of its energy inside the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aniso2d import SampledFn2D

__all__ = ["GridField2D", "forward_gradient", "divergence_of"]


@dataclass
class GridField2D:
    values: np.ndarray
    h: float

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def cell_area(self):
        return self.h * self.h

    def axis(self):
        return self.h * np.arange(self.n)

    @classmethod
    def zeros(cls, n, h):
        return cls(values=np.zeros((n, n)), h=h)

    @classmethod
    def unit_square(cls, n):
        """n x n nodes over [0, 1]^2."""
        return cls.zeros(n, 1.0 / (n - 1))

    def to_binary(self, path):
        SampledFn2D(x0=0.0, y0=0.0, hx=self.h, hy=self.h, values=self.values).to_binary(path)


def forward_gradient(values, h):
    """Cell gradients ((N-1) x (N-1) arrays): forward differences at each
    cell's lower-left node."""
    gx = (values[1:, :-1] - values[:-1, :-1]) / h
    gy = (values[:-1, 1:] - values[:-1, :-1]) / h
    return gx, gy


def divergence_of(ax, ay, h, n):
    """Discrete divergence adjoint to forward_gradient: node array from
    cell vector fields with sum_cells(grad u . (ax, ay)) = -sum_nodes(u * div)."""
    out = np.zeros((n, n))
    out[:-1, :-1] += ax + ay
    out[1:, :-1] -= ax
    out[:-1, 1:] -= ay
    return out / h
