import random
from fractions import Fraction

import pytest

from trianglemap.errors import DegenerateInputError
from trianglemap.realization import (
    DOMAIN_VERTICES,
    TriangleRegion,
    preimage_region,
    realize,
    witness,
)
from trianglemap.triangle import Point2, sequence, step


def test_domain_region():
    domain = TriangleRegion(tuple((Fraction(x), Fraction(y)) for x, y in DOMAIN_VERTICES))
    assert domain.contains((Fraction(1, 2), Fraction(1, 3)))
    assert not domain.contains((Fraction(1, 3), Fraction(1, 2)))
    assert domain.contains((Fraction(1), Fraction(0)))
    assert not domain.contains((Fraction(1), Fraction(0)), strict=True)


def test_degenerate_region_rejected():
    flat = TriangleRegion(((Fraction(0), Fraction(0)),
                           (Fraction(1), Fraction(1)),
                           (Fraction(2), Fraction(2))))
    with pytest.raises(DegenerateInputError):
        flat.contains((Fraction(1, 2), Fraction(1, 2)))


def test_preimage_point_inverts_map():
    target = (Fraction(2, 3), Fraction(1, 3))
    src = preimage_region(1, TriangleRegion((target,) * 3)).vertices[0]
    k, image = step(Point2(*src))
    assert k == 1
    assert (image.alpha, image.beta) == target


def test_realize_single_symbol():
    region = realize((2,))
    assert region.vertices == ((Fraction(1), Fraction(0)),
                               (Fraction(1, 3), Fraction(1, 3)),
                               (Fraction(1, 4), Fraction(1, 4)))
    assert region.centroid() == (Fraction(19, 36), Fraction(7, 36))
    assert region.diameter_sq() == Fraction(5, 8)


def test_contains_ignores_vertex_order():
    region = realize((1, 2))
    flipped = TriangleRegion(region.vertices[::-1])
    assert region.orientation() > 0 > flipped.orientation()
    centroid, vertex, outside = region.centroid(), region.vertices[1], (Fraction(1, 2), Fraction(1, 3))
    for point, inside, interior in ((centroid, True, True), (vertex, True, False),
                                    (outside, False, False)):
        for r in (region, flipped):
            assert r.contains(point) is inside
            assert r.contains(point, strict=True) is interior


def test_realize_empty_is_domain():
    region = realize(())
    assert region.vertices == tuple(
        (Fraction(x), Fraction(y)) for x, y in DOMAIN_VERTICES)


def test_witness_reproduces_prefix():
    prefix = (2, 0, 1, 3)
    w = witness(prefix)
    rec = sequence(Point2(*w), len(prefix))
    assert rec.symbols == prefix


def test_regions_nest_strictly():
    prefix = (1, 2, 0, 2, 1)
    prev = realize(())
    for i in range(1, len(prefix) + 1):
        cur = realize(prefix[:i])
        assert prev.contains_region(cur)
        assert abs(cur.orientation()) < abs(prev.orientation())
        prev = cur


def test_preimage_region_matches_realize():
    inner = realize((3,))
    again = preimage_region(2, inner)
    assert again.vertices == realize((2, 3)).vertices


def test_random_prefixes_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        prefix = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 8)))
        w = witness(prefix)
        rec = sequence(Point2(*w), len(prefix))
        assert rec.symbols == prefix


def test_vertex_sequences_on_wedge_boundary():
    # the wedge is half-open: its near diagonal vertex carries symbol k,
    # the far one already belongs to wedge k + 1
    from trianglemap.triangle import classify
    for k in range(4):
        region = realize((k,))
        _, near, far = region.vertices
        assert classify(Point2(*near)) == k
        assert classify(Point2(*far)) == k + 1


# realize and preimage_region against the planar inverse branch ----------------


def _oracle_preimage_point(k, point):
    """The source in wedge k of a point, from the inverse branch written out:
    (u, v) comes from (1, u) / (1 + k*u + v)."""
    u, v = Fraction(point[0]), Fraction(point[1])
    den = 1 + k * u + v
    return Fraction(1, 1) / den, u / den


def _oracle_realize(symbols):
    """The cylinder folded back one symbol at a time from the domain."""
    verts = DOMAIN_VERTICES
    for k in reversed(symbols):
        verts = tuple(_oracle_preimage_point(k, v) for v in verts)
    return verts


def test_realize_matches_fold():
    rng = random.Random(808)
    for _ in range(250):
        prefix = tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 8)))
        assert realize(prefix).vertices == _oracle_realize(prefix), prefix


def test_preimage_region_matches_fold_outside_domain():
    rng = random.Random(809)

    def coord():
        # whole numbers often enough that 1 + k*u + v hits zero
        return Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 7)))

    raised = 0
    for _ in range(2000):
        k = rng.randint(0, 6)
        region = TriangleRegion(tuple((coord(), coord()) for _ in range(3)))
        try:
            expected = tuple(_oracle_preimage_point(k, v) for v in region.vertices)
        except ZeroDivisionError:
            raised += 1
            with pytest.raises(DegenerateInputError, match="no finite preimage"):
                preimage_region(k, region)
            continue
        assert preimage_region(k, region).vertices == expected, (k, region)
    assert 0 < raised < 2000


def test_realize_rejects_bad_symbols():
    for bad in ((1, -1), (2, "3"), (1.0,), (True,), (False,)):
        with pytest.raises(DegenerateInputError, match="bad symbol"):
            realize(bad)
    with pytest.raises(ValueError):
        preimage_region(-1, realize(()))
