"""Intervals, boxes, and the affine contractor."""

import numpy as np
import pytest

from ofbdec.interval import (
    Box,
    Interval,
    _contract_affine_batch,
    box_hull_lp,
    contract_affine,
    matvec_box,
)


def meet(a, b):
    """Intersection of two boxes, as the contractor computes it: a
    contracted against the identity constraint x in b."""
    return contract_affine(np.eye(a.dim), a, b)


class TestInterval:
    """Interval is the validated (lo, hi) pair; sums, scalings and
    intersections of intervals are checked on the operations that
    compute them, matvec_box and the contractor, over 1-d boxes."""

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


class TestContractAffine:
    def test_single_variable_projection(self):
        got = contract_affine(
            np.array([[1.0]]), Box.uniform(0, 10, 1),
            Box(np.array([2.0]), np.array([3.0])),
        )
        assert np.allclose(got.lo, [2.0]) and np.allclose(got.hi, [3.0])

    def test_backward_sweep_sum(self):
        got = contract_affine(
            np.array([[1.0, 1.0]]), Box.uniform(0, 1, 2),
            Box(np.array([1.5]), np.array([2.0])),
        )
        assert np.allclose(got.lo, [0.5, 0.5])
        assert np.allclose(got.hi, [1.0, 1.0])

    def test_forward_disjoint_is_empty(self):
        got = contract_affine(
            np.array([[1.0, -1.0]]), Box.uniform(0, 1, 2),
            Box(np.array([5.0]), np.array([6.0])),
        )
        assert got.is_empty

    def test_result_inside_prior(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m, n = rng.integers(1, 7), rng.integers(1, 5)
            A = rng.normal(size=(m, n))
            x0 = Box(rng.uniform(-2, 0, n), rng.uniform(0, 2, n))
            c = Box(rng.uniform(-2, 0, m), rng.uniform(0, 2, m))
            got = contract_affine(A, x0, c)
            if not got.is_empty:
                assert np.all(got.lo >= x0.lo - 1e-12)
                assert np.all(got.hi <= x0.hi + 1e-12)

    def test_soundness_against_sampling(self):
        # no sampled feasible point may fall outside the contracted box,
        # and EMPTY may only be returned when no sampled point fits
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(60):
            m, n = rng.integers(1, 7), rng.integers(1, 5)
            A = rng.normal(size=(m, n))
            x0 = Box(rng.uniform(-2, 0, n), rng.uniform(0, 2, n))
            c = Box(rng.uniform(-1.5, 0, m), rng.uniform(0, 1.5, m))
            got = contract_affine(A, x0, c)
            x = rng.uniform(x0.lo, x0.hi, size=(100_000, n))
            z = x @ A.T
            feas = np.all((z >= c.lo) & (z <= c.hi), axis=1)
            if got.is_empty:
                assert not np.any(feas)
                continue
            pts = x[feas]
            if pts.size:
                checked += 1
                assert np.all(pts >= got.lo - 1e-9)
                assert np.all(pts <= got.hi + 1e-9)
        assert checked >= 10  # the draw must actually exercise the check

    def test_idempotent_at_fixpoint(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m, n = rng.integers(1, 7), rng.integers(1, 5)
            A = rng.normal(size=(m, n))
            x0 = Box(rng.uniform(-2, 0, n), rng.uniform(0, 2, n))
            c = Box(rng.uniform(-1.5, 0, m), rng.uniform(0, 1.5, m))
            once = contract_affine(A, x0, c, tol=1e-6)
            if once.is_empty:
                continue
            twice = contract_affine(A, once, c, tol=1e-6)
            assert not twice.is_empty
            tol = 1e-6 * np.maximum(1.0, once.width)
            assert np.all(once.lo - tol <= twice.lo)
            assert np.all(twice.hi <= once.hi + tol)

    def test_groups_stop_at_their_own_stall(self):
        # groups contracted together give, bit for bit, the boxes and
        # EMPTY flags each group gets alone, though they stall after
        # different numbers of sweeps
        rng = np.random.default_rng(6)
        m, n, G, K = 6, 4, 5, 7
        A = rng.normal(size=(m, n))
        lo = rng.uniform(-2, 0, (G * K, n))
        hi = rng.uniform(0, 2, (G * K, n))
        # constraint widths scaled per group, so groups stall at different sweeps
        c_lo = rng.uniform(-1.5, 0, (G * K, m)) * np.repeat(rng.uniform(0.1, 1.0, G), K)[:, None]
        c_hi = rng.uniform(0, 1.5, (G * K, m))
        alone = []
        for g in range(G):
            rows = slice(g * K, (g + 1) * K)
            a_lo, a_hi = lo[rows].copy(), hi[rows].copy()
            empty = _contract_affine_batch(A, a_lo, a_hi, c_lo[rows], c_hi[rows], 1e-6, 50)
            alone.append((a_lo, a_hi, empty))
        t_lo, t_hi = lo.copy(), hi.copy()
        empty = _contract_affine_batch(A, t_lo, t_hi, c_lo, c_hi, 1e-6, 50, group=K)
        assert empty.tobytes() == np.concatenate([e for _, _, e in alone]).tobytes()
        assert t_lo.tobytes() == np.concatenate([a for a, _, _ in alone]).tobytes()
        assert t_hi.tobytes() == np.concatenate([b for _, b, _ in alone]).tobytes()
        # one group for all rows sweeps on while any row still contracts
        o_lo, o_hi = lo.copy(), hi.copy()
        _contract_affine_batch(A, o_lo, o_hi, c_lo, c_hi, 1e-6, 50)
        assert not np.array_equal(o_lo, t_lo) or not np.array_equal(o_hi, t_hi)

    def test_empty_prior_propagates(self):
        got = contract_affine(
            np.array([[1.0, 1.0]]), Box.empty(2),
            Box(np.array([0.0]), np.array([1.0])),
        )
        assert got.is_empty

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contract_affine(np.eye(2), Box.uniform(0, 1, 3), Box.uniform(0, 1, 2))


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
            hull = box_hull_lp(A, x0, c)
            fb = contract_affine(A, x0, c)
            x = rng.uniform(x0.lo, x0.hi, size=(50_000, n))
            z = x @ A.T
            feas = np.all((z >= c.lo) & (z <= c.hi), axis=1)
            if hull.is_empty:
                assert not np.any(feas)
                continue
            compared += 1
            # the exact hull is never wider than the sweep contractor
            assert not fb.is_empty
            assert np.all(hull.lo >= fb.lo - 1e-7)
            assert np.all(hull.hi <= fb.hi + 1e-7)
            pts = x[feas]
            if pts.size:
                assert np.all(pts >= hull.lo - 1e-7)
                assert np.all(pts <= hull.hi + 1e-7)
        assert compared >= 10
