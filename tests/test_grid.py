import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import truncate

from degelab.grid import (
    build_radial_grid,
    face_gradient,
    face_upwind_values,
    grid_function,
    read_grid_function,
    sphere_surface,
    write_grid_function,
)


def ball_volume(N, R):
    return sphere_surface(N) * R**N / N


def integral(u):
    """Discrete integral of u over the ball."""
    return float(np.dot(u.grid.weights, u.values))


class TestBuild:
    def test_uniform_cell_centers(self):
        grid = build_radial_grid(3, 1.0, 8)
        assert np.allclose(grid.nodes[:4], [0.0625, 0.1875, 0.3125, 0.4375])
        assert np.allclose(grid.widths, 0.125)
        assert np.allclose(grid.nodes, (np.arange(8) + 0.5) / 8)

    def test_five_dimensional(self):
        grid = build_radial_grid(5, 2.0, 8)
        assert grid.M == 8
        assert np.allclose(grid.widths, 0.25)

    def test_graded_first_cell_half_width(self):
        grid = build_radial_grid(3, 1.0, 64, grading=2.0)
        uniform = 1.0 / 64
        assert grid.widths[0] == pytest.approx(uniform / 2, rel=1e-9)
        assert grid.widths.sum() == pytest.approx(1.0, abs=1e-12)
        ratios = grid.widths[1:] / grid.widths[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-8)
        assert np.all(np.diff(grid.faces) > 0)

    @pytest.mark.parametrize("args", [
        (2, 1.0, 64, None),
        (3, -1.0, 64, None),
        (3, 1.0, 4, None),
        (3, 1.0, 64, 0.5),
        (3, 1.0, 64, 5.0),
    ])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            build_radial_grid(*args)

    def test_one_read_only_grid_per_mesh(self):
        # equal arguments, however spelled, share one grid and its weights;
        # another mesh gets its own
        grid = build_radial_grid(3, 1.0, 16, grading=2.0)
        assert build_radial_grid(3.0, 1, 16.0, 2) is grid
        assert build_radial_grid(3, 1.0, 16) is build_radial_grid(3, 1.0, 16, None)
        assert build_radial_grid(3, 1.0, 16) is not grid
        assert build_radial_grid(3, 1.0, 32, grading=2.0) is not grid
        for name in ("faces", "nodes", "widths", "gaps"):
            with pytest.raises(ValueError):
                getattr(grid, name)[1] = 0.0


class TestQuadrature:
    def test_total_weight_is_ball_volume(self):
        for N in (3, 4, 5, 7):
            grid = build_radial_grid(N, 1.0, 64)
            assert grid.weights.sum() == pytest.approx(ball_volume(N, 1.0), rel=5e-13)

    def test_sphere_surface_values(self):
        assert sphere_surface(3) == pytest.approx(4 * math.pi, rel=1e-14)
        assert sphere_surface(4) == pytest.approx(2 * math.pi**2, rel=1e-14)

    def test_first_weight_is_exact_shell_volume(self):
        grid = build_radial_grid(3, 1.0, 8)
        assert grid.weights[0] == pytest.approx(4 * math.pi * 0.125**3 / 3, rel=1e-13)

    def test_geometry_computed_once_and_read_only(self):
        grid = build_radial_grid(3, 1.0, 8, grading=2.0)
        assert grid.volumes is grid.volumes and grid.face_areas is grid.face_areas
        assert grid.weights is grid.weights and grid.face_weights is grid.face_weights
        xs = grid.faces**3
        assert np.array_equal(grid.volumes, (xs[1:] - xs[:-1]) / 3)
        assert np.array_equal(grid.weights, sphere_surface(3) * grid.volumes)
        assert np.array_equal(grid.face_areas, grid.faces**2)
        wf = np.zeros(grid.M + 1)
        wf[1:] = sphere_surface(3) * grid.faces[1:] ** 2 * grid.gaps[1:]
        assert np.array_equal(grid.face_weights, wf)
        with pytest.raises(ValueError):
            grid.volumes[0] = 0.0
        with pytest.raises(ValueError):
            grid.weights[0] = 0.0
        with pytest.raises(ValueError):
            grid.face_weights[1] = 0.0

    def test_integrate_constant(self):
        grid = build_radial_grid(3, 1.0, 128)
        assert integral(grid_function(grid, 1.0)) == pytest.approx(4 * math.pi / 3, rel=5e-3)

    def test_integrate_zero(self):
        grid = build_radial_grid(3, 1.0, 16)
        assert integral(grid_function(grid, 0.0)) == 0.0

    def test_integrate_r_squared(self):
        grid = build_radial_grid(3, 1.0, 128)
        val = integral(grid_function(grid, lambda r: r**2))
        assert val == pytest.approx(4 * math.pi / 5, rel=1e-2)

    def test_linear_integrand_second_order(self):
        exact = sphere_surface(3) / 4  # integral of r over the unit 3-ball
        errs = []
        for M in (32, 64, 128):
            grid = build_radial_grid(3, 1.0, M)
            errs.append(abs(integral(grid_function(grid, lambda r: r)) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


class TestFaceGradient:
    def test_constant_field(self):
        grid = build_radial_grid(3, 1.0, 16)
        grad = face_gradient(grid_function(grid, 3.0))
        assert np.allclose(grad[1:-1], 0.0)
        assert grad[0] == 0.0
        assert grad[-1] == pytest.approx(-3.0 / (1.0 - grid.nodes[-1]))

    def test_linear_field(self):
        grid = build_radial_grid(3, 1.0, 16)
        grad = face_gradient(grid_function(grid, lambda r: r))
        assert np.allclose(grad[1:-1], 1.0)

    def test_zero_field(self):
        grid = build_radial_grid(3, 1.0, 16)
        assert np.all(face_gradient(grid_function(grid, 0.0)) == 0.0)

    def test_upwind_values_take_the_right_node_at_a_tie(self):
        # faces 1 and 5 sit between nodes of opposite sign and equal |u|
        grid = build_radial_grid(3, 1.0, 8)
        vals = np.array([1.0, -1.0, 2.0, 2.0, -3.0, 3.0, 0.5, 0.0])
        assert face_upwind_values(grid, vals).tolist() == \
            [1.0, -1.0, 2.0, 2.0, -3.0, 3.0, 3.0, 0.5, 0.0]

    def test_face_weights_pair_with_volume(self):
        # sum of face measures covers [r_0, R] of the radial extent
        grid = build_radial_grid(3, 1.0, 64)
        wf = grid.face_weights
        assert wf[0] == 0.0
        assert np.all(wf[1:] > 0)


class TestTruncate:
    def test_examples(self):
        grid = build_radial_grid(3, 1.0, 8)
        u = grid_function(grid, np.array([-3, 0.5, 7, 0, 2, -2, 1, -1], dtype=float))
        t1 = truncate(u, 1.0)
        assert np.allclose(t1.values, [-1, 0.5, 1, 0, 1, -1, 1, -1])
        t10 = truncate(u, 10.0)
        assert np.allclose(t10.values, u.values)
        t2 = truncate(u, 2.0)
        assert t2.values[4] == 2.0 and t2.values[5] == -2.0

    def test_rejects_nonpositive_level(self):
        grid = build_radial_grid(3, 1.0, 8)
        with pytest.raises(ValueError):
            truncate(grid_function(grid, 1.0), 0.0)

    @given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6),
           k=st.floats(1e-6, 1e6))
    def test_pointwise_lipschitz(self, a, b, k):
        ta = min(max(a, -k), k)
        tb = min(max(b, -k), k)
        assert abs(ta - tb) <= abs(a - b) * (1 + 1e-15)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.floats(0.1, 10.0))
    def test_face_product_inequality(self, seed, k):
        # (u_{i+1}-u_i)(T_k(u)_{i+1}-T_k(u)_i) >= (T_k(u)_{i+1}-T_k(u)_i)^2,
        # including the boundary face against the ghost value 0
        rng = np.random.default_rng(seed)
        grid = build_radial_grid(3, 1.0, 32)
        u = grid_function(grid, rng.normal(0, 5, grid.M))
        tk = truncate(u, k)
        du = np.diff(np.append(u.values, 0.0))
        dtk = np.diff(np.append(tk.values, 0.0))
        assert np.all(du * dtk >= dtk**2 - 1e-12 * np.maximum(dtk**2, 1))

    def test_truncated_power_integral_monotone_in_k(self):
        rng = np.random.default_rng(7)
        grid = build_radial_grid(3, 1.0, 64)
        u = grid_function(grid, rng.normal(0, 3, grid.M))
        for s in (0.5, 1.0, 2.0):
            vals = [integral(grid_function(grid, np.abs(truncate(u, k).values) ** s))
                    for k in (0.5, 1.0, 2.0, 4.0, 8.0)]
            assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(vals, vals[1:]))


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        grid = build_radial_grid(4, 2.0, 32, grading=1.5)
        rng = np.random.default_rng(3)
        u = grid_function(grid, rng.normal(0, 1e3, grid.M))
        path = tmp_path / "field.dat"
        write_grid_function(u, path, extra={"n_final": 128})
        back, extra = read_grid_function(path)
        assert np.array_equal(back.values, u.values)
        assert back.grid.N == 4 and back.grid.M == 32
        assert back.grid.grading == 1.5
        assert extra["n_final"] == "128"

    def test_header_and_columns(self, tmp_path):
        grid = build_radial_grid(3, 1.0, 8)
        path = tmp_path / "field.dat"
        write_grid_function(grid_function(grid, 1.0), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# N 3"
        assert lines[1].startswith("# R ")
        assert lines[2] == "# M 8"
        assert lines[3].startswith("# grading ")
        assert len(lines) == 4 + 8
        assert all(len(line.split()) == 2 for line in lines[4:])

    def test_rejects_mangled_file(self, tmp_path):
        grid = build_radial_grid(3, 1.0, 8)
        path = tmp_path / "field.dat"
        write_grid_function(grid_function(grid, 1.0), path)
        text = path.read_text().replace("# M 8", "# M 16")
        path.write_text(text)
        with pytest.raises(ValueError):
            read_grid_function(path)
