"""Fixtures shared by the test modules."""

import pytest

from trianglemap import simplex


class _FloorOffBy:
    """The queries of one branch decision with every floor answered ``delta`` off."""

    def __init__(self, ops, delta: int):
        self.ops, self.delta = ops, delta

    def __getattr__(self, name):
        return getattr(self.ops, name)

    def certified_floor(self, num, den) -> int:
        return self.ops.certified_floor(num, den) + self.delta


@pytest.fixture
def floor_off_by(monkeypatch):
    """``floor_off_by(delta)`` makes the kernel answer every floor of the branch
    rule ``delta`` off, on batched and ordinary steps alike."""
    def inject(delta: int) -> None:
        real = simplex._decide
        monkeypatch.setattr(simplex, "_decide", lambda ops, cols: real(_FloorOffBy(ops, delta), cols))
    return inject
