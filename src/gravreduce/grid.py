"""Values of a closed form over the axes of a sweep grid, without numpy.

``sweep`` gives each gridded variable as a :class:`Grid` along its own axis
and the ``criticality`` closed forms run on them unchanged, so each column
of a sweep is evaluated once, over just the axes it depends on.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, repeat


class Grid:
    """A parameter or value of a closed form over the axes of a sweep grid.

    ``values`` holds Python numbers (a list, or an ``array('d')`` of floats)
    in row-major order over ``shape``, which has one length per grid axis:
    the axis's point count where the value varies along it, 1 where it does
    not.  ``* / + - **``, ``abs`` and ``< <= > >=`` act element by element,
    with a number on either side or with another grid over the same axes,
    the two shapes broadcast against each other as numpy broadcasts.  Each
    element is computed by the Python arithmetic a scalar closed form runs,
    so it has the bits of the scalar result; a result is a list.
    """

    __slots__ = ("values", "shape")

    def __init__(self, values, shape: tuple):
        self.values = values
        self.shape = shape

    def broadcast(self, shape: tuple):
        """An iterator over the values at every point of ``shape``, row-major;
        ``shape`` is this grid's with lengths in place of some of its 1s."""
        return _spread(self.values, self.shape, shape)

    def __abs__(self):
        return Grid(list(map(abs, self.values)), self.shape)


def _spread(values, shape: tuple, to: tuple):
    if shape == to:
        return iter(values)
    if len(values) == 1:
        return repeat(values[0], math.prod(to))
    if shape[0] == 1:
        return chain.from_iterable(_spread(values, shape[1:], to[1:]) for _ in range(to[0]))
    size = len(values) // shape[0]
    return chain.from_iterable(_spread(values[i:i + size], shape[1:], to[1:])
                               for i in range(0, len(values), size))


def _elementwise(op, a, b) -> Grid:
    if type(a) is not Grid:
        return Grid(list(map(op, repeat(a), b.values)), b.shape)
    if type(b) is not Grid:
        return Grid(list(map(op, a.values, repeat(b))), a.shape)
    if a.shape == b.shape:
        return Grid(list(map(op, a.values, b.values)), a.shape)
    shape = tuple(map(max, a.shape, b.shape))
    return Grid(list(map(op, a.broadcast(shape), b.broadcast(shape))), shape)


def _operator(op, reflected: bool):
    if reflected:
        return lambda self, other: _elementwise(op, other, self)
    return lambda self, other: _elementwise(op, self, other)


for _name in ("add", "sub", "mul", "truediv", "pow"):
    setattr(Grid, f"__{_name}__", _operator(getattr(operator, _name), False))
    setattr(Grid, f"__r{_name}__", _operator(getattr(operator, _name), True))
for _name in ("lt", "le", "gt", "ge"):    # x < grid is grid > x, and so on
    setattr(Grid, f"__{_name}__", _operator(getattr(operator, _name), False))
