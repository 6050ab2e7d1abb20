"""Intervals, boxes, and the LP-dual certificate hull."""

import itertools

import numpy as np
import pytest

from ofbdec.interval import (
    Box,
    HullCertificates,
    Interval,
    _certificate_hull,
    box_hull_lp,
    matvec_box,
)


def hull(A, x0, c):
    """Certificate hull of {x in x0 : A x in c}, every row subset of
    [I; A] enumerated, so exact."""
    n = x0.dim
    if x0.is_empty or c.is_empty:
        return Box.empty(n)
    stacked = np.vstack([np.eye(n), A])
    cert = HullCertificates(stacked, list(itertools.combinations(range(stacked.shape[0]), n)))
    lo, hi, empty = _certificate_hull(cert, np.r_[x0.lo, c.lo], np.r_[x0.hi, c.hi])
    return Box.empty(n) if empty else Box(lo, hi)


def meet(a, b):
    """Intersection of two boxes, as the certificate hull computes it:
    the hull of {x in a : x in b}, on A = [I; I]."""
    return hull(np.eye(a.dim), a, b)


class TestInterval:
    """Interval is the validated (lo, hi) pair; sums, scalings and
    intersections of intervals are checked on the operations that
    compute them, matvec_box and the certificate hull, over 1-d boxes."""

    def test_add(self):
        # [0, 1] + [2, 3], the image of the box under the row (1, 1)
        got = matvec_box(np.array([[1.0, 1.0]]), Box([0.0, 2.0], [1.0, 3.0]))
        assert got == Box([2.0], [4.0])

    def test_scale_negative(self):
        assert matvec_box(np.array([[-2.0]]), Box([-1.0], [1.0])) == Box([-2.0], [2.0])
        assert matvec_box(np.array([[-2.0]]), Box([0.5], [1.0])) == Box([-2.0], [-1.0])

    def test_empty_absorbs(self):
        e = Box.empty(1)
        assert matvec_box(np.array([[3.0]]), e).is_empty
        assert meet(e, Box([0.0], [1.0])).is_empty
        assert meet(Box([0.0], [1.0]), e).is_empty

    def test_intersect(self):
        assert meet(Box([0.0], [2.0]), Box([1.0], [3.0])) == Box([1.0], [2.0])
        assert meet(Box([0.0], [1.0]), Box([2.0], [3.0])).is_empty
        assert meet(Box([0.0], [1.0]), Box([0.0], [1.0])) == Box([0.0], [1.0])

    def test_touching_intersection_is_a_point(self):
        got = meet(Box([0.0], [1.0]), Box([1.0], [3.0]))
        assert not got.is_empty
        assert got.lo[0] == got.hi[0] == 1.0
        # a gap within the rounding margin is no proof of emptiness
        got = meet(Box([0.0], [1.0]), Box([1.0 + 1e-15], [3.0]))
        assert not got.is_empty and got.lo[0] == got.hi[0]

    def test_width_center_contains(self):
        iv = Interval(-1, 3)
        assert iv.width == 4
        assert iv.center == 1
        assert iv.contains(3) and iv.contains(-1) and not iv.contains(3.5)

    def test_invalid_endpoints(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_empty_is_distinct(self):
        assert Box.empty(1) != Box.point([0.0])
        assert Box.empty(1).is_empty and not Box.point([0.0]).is_empty
        assert Interval(0, 0).width == 0.0


class TestBox:
    def test_empty_iff_any_component(self):
        # one infeasible component makes the whole box empty
        got = meet(Box([0.0, 0.0], [1.0, 1.0]), Box([0.0, 2.0], [1.0, 3.0]))
        assert got.is_empty and np.all(np.isnan(got.lo))
        assert not meet(Box([0.0, 0.0], [1.0, 3.0]), Box([0.0, 2.0], [1.0, 3.0])).is_empty
        # Box.empty is the only empty box: crossed or NaN endpoints are rejected
        for lo in ([2.0, 0.0], [np.nan, 0.0]):
            with pytest.raises(ValueError, match="lo <= hi"):
                Box(lo, [1.0, 1.0])

    def test_center_width_componentwise(self):
        b = Box(np.array([0.0, -2.0]), np.array([1.0, 2.0]))
        assert np.allclose(b.center, [0.5, 0.0])
        assert np.allclose(b.width, [1.0, 4.0])
        assert np.allclose(b.radius, [0.5, 2.0])

    def test_add_sub(self):
        # a + b and a - b, the images of the stacked box (a; b) under
        # (I I) and (I -I)
        ab = Box(np.r_[np.zeros(2), np.full(2, 2.0)], np.r_[np.ones(2), np.full(2, 3.0)])
        eye = np.eye(2)
        s = matvec_box(np.hstack([eye, eye]), ab)
        assert np.allclose(s.lo, 2) and np.allclose(s.hi, 4)
        d = matvec_box(np.hstack([eye, -eye]), ab)
        assert np.allclose(d.lo, -3) and np.allclose(d.hi, -1)

    def test_intersect_empty(self):
        a = Box(np.zeros(2), np.ones(2))
        b = Box(np.full(2, 2.0), np.full(2, 3.0))
        assert meet(a, b).is_empty
        assert meet(a, a) == a

    def test_point_and_uniform(self):
        p = Box.point(np.array([1.0, 2.0]))
        assert np.allclose(p.width, 0)
        u = Box.uniform(-1, 1, 3)
        assert u.dim == 3 and np.allclose(u.lo, -1) and np.allclose(u.hi, 1)

    def test_contains(self):
        b = Box(np.zeros(2), np.ones(2))
        assert b.contains(np.array([0.5, 1.0]))
        assert not b.contains(np.array([0.5, 1.1]))


class TestMatvecBox:
    def test_identity(self):
        b = Box(np.array([0.0, -1.0]), np.array([2.0, 5.0]))
        assert matvec_box(np.eye(2), b) == b

    def test_row_sum(self):
        b = Box(np.zeros(2), np.ones(2))
        got = matvec_box(np.array([[1.0, 1.0]]), b)
        assert np.allclose(got.lo, [0.0]) and np.allclose(got.hi, [2.0])

    def test_row_difference(self):
        b = Box(np.full(2, 2.0), np.full(2, 3.0))
        got = matvec_box(np.array([[1.0, -1.0]]), b)
        assert np.allclose(got.lo, [-1.0]) and np.allclose(got.hi, [1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matvec_box(np.eye(3), Box.uniform(0, 1, 2))

    def test_encloses_samples(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 4))
        b = Box(rng.uniform(-2, 0, 4), rng.uniform(0, 2, 4))
        out = matvec_box(A, b)
        x = rng.uniform(b.lo, b.hi, size=(100_000, 4))
        z = x @ A.T
        assert np.all(z >= out.lo - 1e-12) and np.all(z <= out.hi + 1e-12)


class TestBoxHullLP:
    def test_matches_contractor_on_exact_case(self):
        A = np.array([[1.0, 1.0]])
        x0 = Box.uniform(0, 1, 2)
        c = Box(np.array([1.5]), np.array([2.0]))
        got = box_hull_lp(A, x0, c)
        assert np.allclose(got.lo, [0.5, 0.5]) and np.allclose(got.hi, [1.0, 1.0])

    def test_infeasible_is_empty(self):
        got = box_hull_lp(
            np.array([[1.0, -1.0]]), Box.uniform(0, 1, 2),
            Box(np.array([5.0]), np.array([6.0])),
        )
        assert got.is_empty

    def test_hull_inside_contractor_box_and_contains_samples(self):
        rng = np.random.default_rng(4)
        compared = 0
        for _ in range(40):
            m, n = rng.integers(1, 6), rng.integers(1, 5)
            A = rng.normal(size=(m, n))
            x0 = Box(rng.uniform(-2, 0, n), rng.uniform(0, 2, n))
            c = Box(rng.uniform(-1.5, 0, m), rng.uniform(0, 1.5, m))
            lp = box_hull_lp(A, x0, c)
            fb = hull(A, x0, c)
            x = rng.uniform(x0.lo, x0.hi, size=(50_000, n))
            z = x @ A.T
            feas = np.all((z >= c.lo) & (z <= c.hi), axis=1)
            if lp.is_empty:
                assert not np.any(feas)
                continue
            compared += 1
            # the certificate hull, the decoder's consistency step, never
            # cuts into the LP hull
            assert not fb.is_empty
            assert np.all(lp.lo >= fb.lo - 1e-7)
            assert np.all(lp.hi <= fb.hi + 1e-7)
            pts = x[feas]
            if pts.size:
                assert np.all(pts >= lp.lo - 1e-7)
                assert np.all(pts <= lp.hi + 1e-7)
        assert compared >= 10
