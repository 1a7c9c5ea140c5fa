"""Fixtures shared by the test modules."""

import warnings

import pytest

from trianglemap import simplex

# hypothesis imports this module to report a failing example; where libcst is
# installed that import warns (mypy_extensions.TypedDict is deprecated), and
# under -W error the warning would replace the report with an INTERNALERROR.
# Importing it once here, with that warning ignored, keeps reports readable;
# pyproject's filterwarnings cannot, as the command line's -W error comes last.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


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
