import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import femcond as fc
from femcond.assembly import _element_metric
from femcond.mesh import (
    DegenerateElementError,
    MeshError,
    MeshFormatError,
    NonConformingMeshError,
    _mesh_from_axis_nodes,
)
from conftest import box_mesh, random_mesh, random_spd_field
from oracles import (
    boundary_distance_brute,
    boundary_facets_unique_rows,
    half_spaces_from_volume_centroid,
    p1_gradient,
    p_min,
)


class TestGenerateUniform:
    def test_1d_two_elements(self):
        m = fc.generate_uniform(1, 2)
        assert np.allclose(sorted(m.vertices.ravel()), [0.0, 0.5, 1.0])
        assert m.n_interior == 1

    def test_2d_counts(self):
        m = fc.generate_uniform(2, 2)
        assert m.n_vertices == 9
        assert m.n_elements == 8
        assert m.n_interior == 1

    def test_3d_kuhn_counts(self):
        m = fc.generate_uniform(3, 2)
        assert m.n_vertices == 27
        assert m.n_elements == 48
        # brute-force check of the split: 6 congruent tets per cell, each of
        # volume cell_volume / 6
        assert np.allclose(m.volumes, (0.5**3) / 6.0)
        assert m.domain_volume == pytest.approx(1.0, rel=1e-13)

    def test_dim_validation(self):
        with pytest.raises(MeshError):
            fc.generate_uniform(4, 2)
        with pytest.raises(MeshError):
            fc.generate_uniform(2, 0)

    def test_custom_domain(self):
        m = box_mesh(2, 3, [(0, 2), (1, 4)])
        assert m.domain_volume == pytest.approx(6.0, rel=1e-13)


class TestAxisNodeTriangulation:
    """The exact element arrays of the tensor-grid triangulation, so that
    vertex order and element order stay fixed."""

    def test_2d_two_cells(self):
        m = _mesh_from_axis_nodes(2, [np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])])
        assert m.vertices.tolist() == [[0, 0], [0, 1], [0.5, 0], [0.5, 1], [1, 0], [1, 1]]
        assert m.elements.tolist() == [[0, 2, 3], [2, 4, 5], [0, 3, 1], [2, 5, 3]]

    def test_3d_one_cell(self):
        m = _mesh_from_axis_nodes(3, [np.array([0.0, 1.0])] * 3)
        assert m.elements.tolist() == [
            [0, 4, 6, 7], [0, 4, 7, 5], [0, 2, 7, 6],
            [0, 2, 3, 7], [0, 1, 5, 7], [0, 1, 7, 3],
        ]

    def test_1d_chain(self):
        m = _mesh_from_axis_nodes(1, [np.array([0.0, 0.25, 1.0])])
        assert m.vertices.tolist() == [[0], [0.25], [1]]
        assert m.elements.tolist() == [[0, 1], [1, 2]]


class TestGenerateChebyshev:
    def test_n4_interior_nodes(self):
        m = fc.generate_chebyshev_1d(4)
        expected = [(1 - math.cos(math.pi * (2 * j - 1) / 6)) / 2 for j in (1, 2, 3)]
        assert np.allclose(sorted(m.vertices.ravel())[1:-1], expected, rtol=0, atol=1e-15)
        assert expected == pytest.approx([0.066987, 0.5, 0.933013], abs=1e-6)

    def test_n2_symmetry(self):
        m = fc.generate_chebyshev_1d(2)
        assert sorted(m.vertices.ravel()) == pytest.approx([0.0, 0.5, 1.0], abs=1e-15)

    def test_n8_strictly_increasing(self):
        m = fc.generate_chebyshev_1d(8)
        nodes = np.sort(m.vertices.ravel())
        assert np.all(np.diff(nodes) > 0)
        assert np.all((nodes[1:-1] > 0) & (nodes[1:-1] < 1))

    def test_validation(self):
        with pytest.raises(MeshError):
            fc.generate_chebyshev_1d(1)


class TestGeneratePower2:
    def test_n4_nodes(self):
        m = fc.generate_power2_1d(4)
        assert np.allclose(sorted(m.vertices.ravel()), [0, 0.125, 0.25, 0.5, 1.0])

    def test_n2_nodes(self):
        m = fc.generate_power2_1d(2)
        assert sorted(m.vertices.ravel()) == [0.0, 0.5, 1.0]

    def test_n10_smallest_width_at_zero(self):
        m = fc.generate_power2_1d(10)
        nodes = np.sort(m.vertices.ravel())
        widths = np.diff(nodes)
        assert widths.min() == pytest.approx(2.0**-9, rel=1e-15)
        assert widths[0] == widths.min()

    def test_validation(self):
        with pytest.raises(MeshError):
            fc.generate_power2_1d(1)
        with pytest.raises(MeshError):
            fc.generate_power2_1d(53)


class TestGenerateBoundaryLayer:
    def test_aspect_one_is_uniform(self):
        m = fc.generate_boundary_layer(2, 5, 1.0)
        u = fc.generate_uniform(2, 4)
        assert np.array_equal(m.vertices, u.vertices)
        assert np.array_equal(m.elements, u.elements)
        # all elements congruent right triangles
        verts = m.vertices[m.elements]
        edge_sets = np.sort(
            np.stack(
                [
                    np.linalg.norm(verts[:, i] - verts[:, j], axis=1)
                    for i, j in itertools.combinations(range(3), 2)
                ],
                axis=1,
            ),
            axis=1,
        )
        assert np.allclose(edge_sets, edge_sets[0], rtol=1e-12)

    def test_2d_aspect_125(self):
        m = fc.generate_boundary_layer(2, 20, 125.0)
        ar = fc.max_aspect_ratio(m)
        assert 125.0 <= ar <= 250.0
        # count of near-max-aspect elements scales with the boundary, O(sqrt(N))
        verts = m.vertices[m.elements]
        lengths = np.stack(
            [
                np.linalg.norm(verts[:, i] - verts[:, j], axis=1)
                for i, j in itertools.combinations(range(3), 2)
            ],
            axis=1,
        )
        ratios = lengths.max(axis=1) / lengths.min(axis=1)
        thin = int((ratios >= ar / 2).sum())
        assert 4 * 19 <= thin <= 8 * 19

    def test_3d_aspect_25(self):
        m = fc.generate_boundary_layer(3, 8, 25.0)
        ar = fc.max_aspect_ratio(m)
        assert 25.0 <= ar <= 50.0

    # sha256 of elements.tobytes() for the largest 2D and 3D benchmark instances.
    @pytest.mark.parametrize("args, digest", [
        ((2, 100, 125.0), "4bdec1b0d69e3917c911057cae8a477ba7d1cbfe808d942d01b42f36b5bcec8d"),
        ((3, 11, 25.0), "a364779c4010f53eb73fec7d8f34de3a576b2d14565cbe252d8a2e115cb6449c"),
    ])
    def test_elements_are_pinned(self, args, digest):
        m = fc.generate_boundary_layer(*args)
        assert m.elements.dtype == np.int64
        assert hashlib.sha256(m.elements.tobytes()).hexdigest() == digest

    def test_aspect_validation(self):
        with pytest.raises(MeshError):
            fc.generate_boundary_layer(2, 10, 0.5)
        with pytest.raises(MeshError):
            fc.generate_boundary_layer(2, 10, 1.5)
        with pytest.raises(MeshError):
            fc.generate_boundary_layer(1, 10, 4.0)


class TestImportExport:
    def test_native_roundtrip_bit_exact(self, tmp_path, rng):
        mesh = random_mesh(rng)
        path = tmp_path / "mesh.json"
        fc.export_mesh(mesh, path)
        back = fc.import_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.elements, mesh.elements)

    def test_two_triangle_square(self, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(
            '{"dim": 2, "version": 1,'
            ' "vertices": [[0,0],[1,0],[1,1],[0,1]],'
            ' "elements": [[0,1,2],[0,2,3]]}'
        )
        m = fc.import_mesh(path)
        assert m.n_vertices == 4
        assert m.n_elements == 2
        assert m.n_interior == 0

    def test_duplicated_element_conformity_error(self, tmp_path):
        base = fc.generate_uniform(2, 2)
        elements = np.vstack([base.elements, base.elements[3]])
        path = tmp_path / "dup.json"
        fc.export_mesh(SimplicialLike(base.vertices, elements), path)
        with pytest.raises(NonConformingMeshError) as err:
            fc.import_mesh(path)
        assert "facet" in str(err.value)

    def test_triangle_format_matches_generator(self, tmp_path):
        mesh = fc.generate_uniform(2, 2)
        fc.export_mesh(mesh, tmp_path / "square.node")
        back = fc.import_mesh(tmp_path / "square.ele")
        m1, _ = fc.compute_metrics(mesh)
        m2, _ = fc.compute_metrics(back)
        assert m2.k_min_volume == pytest.approx(m1.k_min_volume, rel=1e-15)
        assert m2.k_avg_volume == pytest.approx(m1.k_avg_volume, rel=1e-15)
        assert p_min(back) == p_min(mesh)

    def test_parse_error_reports_line(self, tmp_path):
        node = tmp_path / "bad.node"
        node.write_text("3 2 0 1\n1 0.0 0.0 1\n2 1.0 zero 1\n3 0.0 1.0 1\n")
        (tmp_path / "bad.ele").write_text("1 3 0\n1 1 2 3\n")
        with pytest.raises(MeshFormatError) as err:
            fc.import_mesh(node)
        assert "bad.node:3" in str(err.value)

    def test_zero_volume_element_reports_id(self, tmp_path):
        path = tmp_path / "degenerate.json"
        path.write_text(
            '{"dim": 2, "version": 1,'
            ' "vertices": [[0,0],[1,0],[2,0],[0,1]],'
            ' "elements": [[0,1,2],[0,1,3]]}'
        )
        with pytest.raises(DegenerateElementError) as err:
            fc.import_mesh(path)
        assert err.value.element_id == 0

    @pytest.mark.parametrize("dim", ["2.7", "null", "true", '"2"'])
    def test_dim_must_be_an_integer(self, tmp_path, dim):
        path = tmp_path / "square.json"
        path.write_text(
            f'{{"dim": {dim}, "version": 1,'
            ' "vertices": [[0,0],[1,0],[1,1],[0,1]],'
            ' "elements": [[0,1,2],[0,2,3]]}'
        )
        with pytest.raises(MeshFormatError, match="square.json: dim must be an integer"):
            fc.import_mesh(path)

    def test_fractional_element_index_rejected(self, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(
            '{"dim": 2, "version": 1,'
            ' "vertices": [[0,0],[1,0],[1,1],[0,1]],'
            ' "elements": [[0,1,2],[0,2,2.7]]}'
        )
        with pytest.raises(MeshError, match="whole numbers"):
            fc.import_mesh(path)

    def test_ele_file_without_elements(self, tmp_path):
        (tmp_path / "empty.node").write_text("3 2 0 1\n1 0 0 1\n2 1 0 1\n3 0 1 1\n")
        (tmp_path / "empty.ele").write_text("0 3 0\n")
        with pytest.raises(MeshFormatError, match="empty.ele:1: no elements"):
            fc.import_mesh(tmp_path / "empty.node")

    # A row shorter than the header's width used to be broadcast: the node
    # row "2 0.5" read as (0.5, 0.5).
    @pytest.mark.parametrize("node, ele, where", [
        ("3 2 0 0\n1 0 0\n2 0.5\n3 0 1\n", "1 3 0\n1 1 2 3\n", "short.node:3: bad node row"),
        ("3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n", "1 3 0\n1 1 2\n", "short.ele:2: bad element row"),
    ], ids=["node", "element"])
    def test_short_row_rejected(self, tmp_path, node, ele, where):
        (tmp_path / "short.node").write_text(node)
        (tmp_path / "short.ele").write_text(ele)
        with pytest.raises(MeshFormatError, match=where):
            fc.import_mesh(tmp_path / "short.node")

    @pytest.mark.parametrize("node, ele, where", [
        ("3 -2 0 0\n1 0 0\n2 1 0\n3 0 1\n", "1 3 0\n1 1 2 3\n", "bad.node:1: bad .node header"),
        ("-1 2 0 0\n", "1 3 0\n1 1 2 3\n", "bad.node:1: bad .node header"),
        ("3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n", "-1 3 0\n", "bad.ele:1: bad .ele header"),
    ], ids=["negative-dim", "negative-node-count", "negative-element-count"])
    def test_negative_header_field_rejected(self, tmp_path, node, ele, where):
        (tmp_path / "bad.node").write_text(node)
        (tmp_path / "bad.ele").write_text(ele)
        with pytest.raises(MeshFormatError, match=where):
            fc.import_mesh(tmp_path / "bad.node")

    def test_triangle_pair_with_comments_attributes_and_free_ids(self, tmp_path):
        # Zero-based ids out of order, attribute and marker columns, comments.
        (tmp_path / "free.node").write_text(
            "# unit square\n4 2 2 1  # two attributes, one marker\n\n"
            "3 0 1 7 8 1\n0 0 0 7 8 1\n2 1 1 7 8 1\n1 1 0 7 8 1\n"
        )
        (tmp_path / "free.ele").write_text("2 3 1\n# triangles\n10 0 1 2 5.5\n11 0 2 3 6.5 # last\n")
        mesh = fc.import_mesh(tmp_path / "free.ele")
        assert mesh.vertices.tolist() == [[0, 1], [0, 0], [1, 1], [1, 0]]
        assert mesh.elements.tolist() == [[1, 3, 2], [1, 2, 0]]

    @pytest.mark.parametrize("content, reason", [
        (b'{"dim": 2, "vertices": [\xff]}', "raw.json: not a UTF-8 text file"),
        (b'{"dim": 2, "vertices": "abc", "elements": [[0, 1, 2]]}',
         "raw.json: vertices must be an array of numbers"),
        (b'{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "elements": [["a", 1, 2]]}',
         "raw.json: elements must be an array of numbers"),
        (b"[1, 2]", "raw.json: not a JSON object"),
    ], ids=["not-utf8", "string-vertices", "string-element", "not-an-object"])
    def test_native_json_errors_name_the_file(self, tmp_path, content, reason):
        path = tmp_path / "raw.json"
        path.write_bytes(content)
        with pytest.raises(MeshFormatError, match=reason):
            fc.import_mesh(path)


class SimplicialLike:
    """Minimal stand-in so export can write intentionally broken meshes."""

    def __init__(self, vertices, elements):
        self.dim = vertices.shape[1]
        self.vertices = vertices
        self.elements = elements


def _distance(mesh, point):
    return fc.mesh._boundary_distance_batch(mesh, np.atleast_2d(point))[0]


class TestDistance:
    def test_unit_square_point(self):
        m = fc.generate_uniform(2, 4)
        assert _distance(m, (0.3, 0.4)) == pytest.approx(0.3, abs=1e-14)

    def test_unit_interval_midpoint(self):
        m = fc.generate_uniform(1, 4)
        assert _distance(m, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_unit_cube_center(self):
        m = fc.generate_uniform(3, 2)
        assert _distance(m, (0.5, 0.5, 0.5)) == pytest.approx(0.5, abs=1e-14)

    def test_lipschitz_on_random_pairs(self, rng):
        for mesh in (fc.generate_uniform(2, 4), fc.generate_uniform(3, 2)):
            pts = _random_interior_points(mesh, rng, 1000)
            d = fc.mesh._boundary_distance_batch(mesh, pts)
            perm = rng.permutation(len(pts))
            gap = np.linalg.norm(pts - pts[perm], axis=1)
            assert np.all(np.abs(d - d[perm]) <= gap + 1e-12)


def _corner_removed(dim: int, n_per_axis: int) -> fc.SimplicialMesh:
    """[0, 2]^dim without the corner (1, 2]^dim: a non-convex domain."""
    box = box_mesh(dim, n_per_axis, [(0, 2)] * dim)
    elems = box.elements[~np.all(box.centroids() > 1, axis=1)]
    used = np.unique(elems)
    renumber = np.full(box.n_vertices, -1)
    renumber[used] = np.arange(len(used))
    return fc.SimplicialMesh(dim, box.vertices[used], renumber[elems])


def _l_shaped_mesh() -> fc.SimplicialMesh:
    """[0, 2]^2 without the quadrant (1, 2]^2."""
    return _corner_removed(2, 8)


def _boundary_points(mesh):
    """Boundary vertices and the centres of the boundary facets."""
    corners = mesh.vertices[mesh.boundary_facets]
    return np.concatenate([mesh.vertices[mesh.boundary_vertex_flags], corners.mean(axis=1)])


def _points_of(mesh, rng):
    """Vertices, centroids and 500 random interior points."""
    return np.concatenate([
        mesh.vertices, mesh.centroids(), _random_interior_points(mesh, rng, 500),
    ])


class TestBoundaryDistanceSearch:
    """The pruned search equals the all-pairs search bit for bit."""

    @staticmethod
    def _assert_exact(mesh, pts):
        fast = fc.mesh._boundary_distance_search(mesh, pts)
        assert np.array_equal(fast, boundary_distance_brute(mesh, pts))
        return fast

    def _assert_exact_on_mesh(self, mesh, rng):
        self._assert_exact(mesh, _points_of(mesh, rng))

    @pytest.mark.parametrize("dim, n_core, aspect", [
        (2, 12, 1.0), (2, 20, 125.0), (3, 4, 25.0), (3, 5, 4.0),
    ])
    def test_boundary_layer_meshes(self, dim, n_core, aspect, rng):
        self._assert_exact_on_mesh(fc.generate_boundary_layer(dim, n_core, aspect), rng)

    def test_random_perturbed_meshes(self, rng):
        for _ in range(8):
            self._assert_exact_on_mesh(random_mesh(rng, dim=int(rng.integers(2, 4))), rng)

    def test_non_convex_l_shape(self, rng):
        mesh = _l_shaped_mesh()
        assert mesh.domain_volume == pytest.approx(3.0, rel=1e-14)
        self._assert_exact_on_mesh(mesh, rng)
        # Below and left of the re-entrant corner (1, 1) the nearest boundary
        # point is the corner itself, closer than every outer side.
        near_corner = 1.0 + rng.uniform(-0.3, 0.0, size=(200, 2))
        d = self._assert_exact(mesh, near_corner)
        assert d == pytest.approx(np.hypot(*(1.0 - near_corner).T), abs=1e-14)

    def test_non_convex_cube_without_an_octant(self, rng):
        mesh = _corner_removed(3, 4)
        assert mesh.convex_half_spaces is None
        assert mesh.domain_volume == pytest.approx(7.0, rel=1e-14)
        self._assert_exact_on_mesh(mesh, rng)
        # Below the re-entrant corner (1, 1, 1) it is the nearest boundary point.
        near_corner = 1.0 + rng.uniform(-0.3, 0.0, size=(200, 3))
        d = self._assert_exact(mesh, near_corner)
        assert d == pytest.approx(np.linalg.norm(1.0 - near_corner, axis=1), abs=1e-14)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_nan_point_stays_nan(self, dim):
        mesh = _corner_removed(dim, 4)
        pts = np.array([[np.nan] * dim, [0.5] * dim, [0.25, np.nan, 0.5][:dim]])
        fast = fc.mesh._boundary_distance_search(mesh, pts)
        assert np.array_equal(fast, boundary_distance_brute(mesh, pts), equal_nan=True)
        assert np.isnan(fast[[0, 2]]).all() and fast[1] == 0.5

    def test_points_on_the_boundary(self):
        for mesh in (fc.generate_boundary_layer(2, 6, 8.0),
                     fc.generate_boundary_layer(3, 3, 4.0), _l_shaped_mesh()):
            d = self._assert_exact(mesh, _boundary_points(mesh))
            assert np.all(d[:int(mesh.boundary_vertex_flags.sum())] == 0.0)
            assert d.max() <= 1e-15

    def test_single_point(self, rng):
        for mesh in (fc.generate_boundary_layer(2, 6, 8.0),
                     fc.generate_boundary_layer(3, 3, 4.0), _l_shaped_mesh()):
            for p in _random_interior_points(mesh, rng, 5):
                assert _distance(mesh, p) == boundary_distance_brute(mesh, p[None])[0]


class TestHalfSpaceDistance:
    """On a convex domain the boundary distance is read from the facet
    planes; elsewhere the pruned search runs."""

    @staticmethod
    def _spy_search(monkeypatch):
        calls = []
        search = fc.mesh._boundary_distance_search

        def spy(mesh, points):
            calls.append(mesh)
            return search(mesh, points)

        monkeypatch.setattr(fc.mesh, "_boundary_distance_search", spy)
        return calls

    @pytest.mark.parametrize("mesh", [
        fc.generate_boundary_layer(2, 12, 1.0), fc.generate_boundary_layer(2, 20, 125.0),
        fc.generate_boundary_layer(3, 4, 25.0), fc.generate_boundary_layer(3, 5, 4.0),
        fc.generate_uniform(2, 7), fc.generate_uniform(3, 3),
        box_mesh(2, 5, [(-1.0, 3.0), (0.5, 0.75)]),
        fc.generate_chebyshev_1d(1024), fc.generate_power2_1d(24),
        box_mesh(1, 7, (-3.0, 2.5)),
    ], ids=lambda m: repr(m))
    def test_equals_brute_force_on_boxes(self, mesh, rng, monkeypatch):
        calls = self._spy_search(monkeypatch)
        pts = _points_of(mesh, rng)
        d = fc.mesh._boundary_distance_batch(mesh, pts)
        assert np.array_equal(d, boundary_distance_brute(mesh, pts))
        normals, offsets = mesh.convex_half_spaces
        assert normals.shape == (2 * mesh.dim, mesh.dim)  # coplanar facets merged
        assert calls == []

    def test_equals_brute_force_on_perturbed_meshes(self, rng, monkeypatch):
        calls = self._spy_search(monkeypatch)
        for _ in range(8):
            mesh = random_mesh(rng, dim=int(rng.integers(2, 4)))
            pts = _points_of(mesh, rng)
            d = fc.mesh._boundary_distance_batch(mesh, pts)
            assert np.array_equal(d, boundary_distance_brute(mesh, pts))
        assert calls == []

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sheared_box(self, dim, rng, monkeypatch):
        base = fc.generate_boundary_layer(dim, 5, 4.0)
        shear = np.eye(dim)
        shear[0, 1:] = 0.7
        shear[-1, 0] = -0.3
        mesh = fc.SimplicialMesh(dim, 3.0 * base.vertices @ shear.T, base.elements)
        calls = self._spy_search(monkeypatch)
        assert mesh.convex_half_spaces is not None
        assert len(mesh.convex_half_spaces[1]) == 2 * dim
        pts = _points_of(mesh, rng)
        d = fc.mesh._boundary_distance_batch(mesh, pts)
        scale = np.abs(mesh.vertices).max()
        assert np.abs(d - boundary_distance_brute(mesh, pts)).max() <= 1e-14 * scale
        assert calls == []

    def test_l_shape_is_not_convex_and_searches(self, rng, monkeypatch):
        mesh = _l_shaped_mesh()
        assert mesh.convex_half_spaces is None
        calls = self._spy_search(monkeypatch)
        pts = _points_of(mesh, rng)
        d = fc.mesh._boundary_distance_batch(mesh, pts)
        assert calls == [mesh]
        assert np.array_equal(d, boundary_distance_brute(mesh, pts))


def _graded_sheared(dim: int, n: int) -> fc.SimplicialMesh:
    """The unit-box mesh with every coordinate cubed (cells crowd towards
    the origin), then sheared: a convex domain whose vertex mean lies far
    from its volume centroid."""
    base = fc.generate_uniform(dim, n)
    shear = np.eye(dim)
    shear[0, 1:] = 0.7
    return fc.SimplicialMesh(dim, base.vertices**3 @ shear.T, base.elements)


class TestConvexHalfSpaces:
    """The facet planes are oriented from the vertex mean; any interior
    point gives the same planes as the volume centroid."""

    @pytest.mark.parametrize("dim, n", [(1, 12), (2, 12), (3, 5)])
    def test_vertex_mean_orients_like_the_volume_centroid(self, dim, n):
        mesh = _graded_sheared(dim, n)
        centre = mesh.volumes @ mesh.centroids() / mesh.volumes.sum()
        assert np.linalg.norm(mesh.vertices.mean(axis=0) - centre) > 0.15 * math.sqrt(dim)
        planes = mesh.convex_half_spaces
        expected = half_spaces_from_volume_centroid(mesh)
        assert planes is not None and expected is not None
        assert len(planes[1]) == 2 * dim
        for got, want in zip(planes, expected):
            assert np.array_equal(got, want)

    def test_l_shape_is_none_from_either_point(self):
        mesh = _l_shaped_mesh()
        assert mesh.convex_half_spaces is None
        assert half_spaces_from_volume_centroid(mesh) is None

    @pytest.mark.parametrize("dim", [2, 3])
    def test_centroids_once_per_report(self, dim, monkeypatch):
        # d_K's sample points are the only element centroids an instance needs
        calls = []
        centroids = fc.SimplicialMesh.centroids

        def spy(mesh):
            calls.append(mesh)
            return centroids(mesh)

        monkeypatch.setattr(fc.SimplicialMesh, "centroids", spy)
        mesh = fc.generate_boundary_layer(dim, 4, 8.0)
        fc.build_report(mesh, fc.DiffusionField.identity(dim))
        assert calls == [mesh]


def _random_interior_points(mesh, rng, count):
    elems = rng.integers(0, mesh.n_elements, size=count)
    bary = rng.dirichlet(np.ones(mesh.dim + 1), size=count)
    verts = mesh.vertices[mesh.elements[elems]]
    return np.einsum("pi,pid->pd", bary, verts)


class TestElementDk:
    def test_1d_uniform_first_element(self):
        m = fc.generate_uniform(1, 4)
        first = int(np.argmin(m.vertices[m.elements].mean(axis=1)))
        assert fc.compute_metrics(m)[1].d_k[first] == pytest.approx(0.25, abs=1e-15)

    def test_single_element_interval(self):
        m = fc.SimplicialMesh(1, [[0.0], [1.0]], [[0, 1]])
        assert fc.compute_metrics(m)[1].d_k[0] == pytest.approx(0.5, abs=1e-15)

    def test_boundary_element_close_to_thickness(self, rng):
        mesh = fc.generate_uniform(2, 16)
        _, geom = fc.compute_metrics(mesh)
        k = int(np.argmin(geom.d_k))
        # dense sampling oracle over that element
        pts = _random_interior_points_of_element(mesh, k, rng, 2000)
        d_dense = fc.mesh._boundary_distance_batch(mesh, pts).max()
        h = 1.0 / 16
        assert geom.d_k[k] <= d_dense + 1e-12
        assert d_dense <= geom.d_k[k] + math.hypot(h, h)
        assert geom.d_k[k] == pytest.approx(h, abs=h)

    def test_sandwich_property(self, rng):
        for _ in range(5):
            mesh = random_mesh(rng)
            _, geom = fc.compute_metrics(mesh)
            dv = fc.mesh._boundary_distance_batch(mesh, mesh.vertices)[mesh.elements]
            verts = mesh.vertices[mesh.elements]
            diam = np.zeros(mesh.n_elements)
            for i, j in itertools.combinations(range(mesh.dim + 1), 2):
                diam = np.maximum(diam, np.linalg.norm(verts[:, i] - verts[:, j], axis=1))
            assert np.all(geom.d_k >= dv.max(axis=1) - 1e-12)
            assert np.all(geom.d_k <= (dv + diam[:, None]).min(axis=1) + 1e-12)


def _random_interior_points_of_element(mesh, k, rng, count):
    bary = rng.dirichlet(np.ones(mesh.dim + 1), size=count)
    verts = mesh.vertices[mesh.elements[k]]
    return bary @ verts


class TestComputeMetrics:
    def test_uniform_1d(self):
        m = fc.generate_uniform(1, 4)
        metrics, _ = fc.compute_metrics(m)
        assert metrics.k_avg_volume == pytest.approx(0.25, rel=1e-15)
        assert metrics.k_min_volume == pytest.approx(0.25, rel=1e-15)
        assert p_min(m) == 2

    def test_power2_n4(self):
        m = fc.generate_power2_1d(4)
        metrics, _ = fc.compute_metrics(m)
        assert metrics.k_min_volume == pytest.approx(0.125, rel=1e-15)
        assert metrics.k_avg_volume == pytest.approx(0.25, rel=1e-15)

    def test_chebyshev_n4(self):
        m = fc.generate_chebyshev_1d(4)
        metrics, _ = fc.compute_metrics(m)
        x1 = (1 - math.cos(math.pi / 6)) / 2
        assert metrics.k_min_volume == pytest.approx(x1, rel=1e-12)

    def test_sigma_h_with_field(self):
        m = fc.generate_uniform(2, 3)
        field = fc.DiffusionField.constant_matrix(np.diag([4.0, 1.0]))
        # sigma_h = sum |K| det(D_K)^(-1/2)
        dk = fc.average_diffusion_all(m, field)
        sigma_h = float((m.volumes / np.sqrt(np.linalg.det(dk))).sum())
        assert sigma_h == pytest.approx(m.domain_volume / 2.0, rel=1e-12)

    def test_jacobian_determinant_is_volume(self, rng):
        for _ in range(5):
            mesh = random_mesh(rng)
            _, geom = fc.compute_metrics(mesh)
            jacobians = mesh.edge_matrices() / fc.mesh.reference_scale(mesh.dim)
            dets = np.abs(np.linalg.det(jacobians)) if mesh.dim > 1 else np.abs(
                jacobians[:, 0, 0]
            )
            assert np.allclose(dets, geom.volumes, rtol=1e-12)

    def test_element_metric_matches_oracle_gradients(self, rng):
        # M_K = G D_K G^T, the rows of G the gradients of the basis functions
        # of local vertices 1..d, and s_d G J = I for the jacobian J = E / s_d
        for dim in (1, 2, 3):
            for _ in range(3):
                mesh = random_mesh(rng, dim=dim)
                dk = fc.average_diffusion_all(mesh, random_spd_field(rng, dim))
                dk *= rng.uniform(0.5, 2.0, mesh.n_elements)[:, None, None]
                metric = _element_metric(mesh, dk)
                np.testing.assert_array_equal(metric, np.swapaxes(metric, 1, 2))
                scale = fc.mesh.reference_scale(dim)
                jacobians = mesh.edge_matrices() / scale
                for k, elem in enumerate(mesh.elements):
                    verts = mesh.vertices[elem]
                    g = np.array([p1_gradient(verts, i) for i in range(1, dim + 1)])
                    np.testing.assert_allclose(scale * g @ jacobians[k], np.eye(dim),
                                               rtol=0, atol=1e-12)
                    oracle = g @ dk[k] @ g.T
                    np.testing.assert_allclose(metric[k], oracle, rtol=0,
                                               atol=1e-12 * np.abs(oracle).max())


class TestMeshInvariants:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_volume_partition(self, seed):
        mesh = random_mesh(np.random.default_rng(seed))
        box = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
        assert mesh.domain_volume == pytest.approx(float(np.prod(box)), rel=1e-12)

    def test_facet_classification(self, rng):
        mesh = random_mesh(rng, dim=2)
        d = mesh.dim
        facet_list = []
        for drop in range(d + 1):
            keep = [i for i in range(d + 1) if i != drop]
            facet_list.append(mesh.elements[:, keep])
        facets = np.sort(np.concatenate(facet_list), axis=1)
        uniq, counts = np.unique(facets, axis=0, return_counts=True)
        boundary_set = {tuple(f) for f in np.sort(mesh.boundary_facets, axis=1)}
        for f, c in zip(uniq, counts):
            assert c in (1, 2)
            assert (tuple(f) in boundary_set) == (c == 1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_facets_equal_the_unique_rows_oracle(self, dim, rng):
        graded = {1: fc.generate_chebyshev_1d(40),
                  2: fc.generate_boundary_layer(2, 30, 125.0),
                  3: fc.generate_boundary_layer(3, 6, 25.0)}[dim]
        for mesh in [graded] + [random_mesh(rng, dim) for _ in range(3)]:
            # Relabel the vertices and shuffle the elements, so that neither
            # the facet rows nor their keys arrive in order.
            perm = rng.permutation(mesh.n_vertices)
            relabeled = fc.SimplicialMesh(
                dim, mesh.vertices[np.argsort(perm)],
                perm[mesh.elements][rng.permutation(mesh.n_elements)])
            for m in (mesh, relabeled):
                expected = boundary_facets_unique_rows(m)
                np.testing.assert_array_equal(m.boundary_facets, expected)
                flags = np.zeros(m.n_vertices, dtype=bool)
                flags[expected.ravel()] = True
                np.testing.assert_array_equal(m.boundary_vertex_flags, flags)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_element_facets_index_the_facets(self, dim, rng):
        for mesh in [fc.generate_boundary_layer(dim, 4, 8.0) if dim > 1
                     else fc.generate_chebyshev_1d(12)] + [random_mesh(rng, dim)]:
            for j in range(dim + 1):
                opposite = np.sort(np.delete(mesh.elements, j, axis=1), axis=1)
                np.testing.assert_array_equal(mesh.facets[mesh.element_facets[:, j]], opposite)
            assert len(np.unique(mesh.facets, axis=0)) == len(mesh.facets)
            uses = np.bincount(mesh.element_facets.ravel(), minlength=len(mesh.facets))
            assert set(uses.tolist()) == {1, 2}  # interior facets twice
            np.testing.assert_array_equal(mesh.facets[uses == 1], mesh.boundary_facets)
            assert not (mesh.facets.flags.writeable or mesh.element_facets.flags.writeable)

    def test_reflection_symmetry_of_metrics(self):
        for dim in (1, 2, 3):
            mesh = fc.generate_uniform(dim, 3)
            reflected = fc.SimplicialMesh(
                dim, mesh.vertices * np.array([-1.0] + [1.0] * (dim - 1)) + np.eye(dim)[0],
                mesh.elements,
            )
            m1, _ = fc.compute_metrics(mesh)
            m2, _ = fc.compute_metrics(reflected)
            assert m2.k_avg_volume == pytest.approx(m1.k_avg_volume, rel=1e-12)
            assert m2.k_min_volume == pytest.approx(m1.k_min_volume, rel=1e-12)
            assert p_min(reflected) == p_min(mesh)

    @pytest.mark.parametrize("elements", [
        [[0, 1.7]], [[0.0, 0.5]], [[0, float("nan")]], [[0, float("inf")]], [[0, None]],
    ])
    def test_element_indices_must_be_whole(self, elements):
        with pytest.raises(MeshError, match="whole numbers"):
            fc.SimplicialMesh(1, [0.0, 1.0], elements)

    def test_whole_float_element_indices_accepted(self):
        mesh = fc.SimplicialMesh(1, [0.0, 1.0, 2.0], np.array([[0.0, 1.0], [1.0, 2.0]]))
        assert mesh.elements.dtype == np.int64
        assert mesh.elements.tolist() == [[0, 1], [1, 2]]

    # Two simplices meeting at one vertex (2D) or one edge (3D): each facet
    # belongs to one element, but that ridge bounds four boundary facets.
    @pytest.mark.parametrize("dim, vertices, elements", [
        (2, [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 1, 2], [0, 3, 4]]),
        (3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0], [0, 0, -1]],
         [[0, 1, 2, 3], [0, 1, 4, 5]]),
    ], ids=["2d", "3d"])
    def test_boundary_must_be_watertight(self, dim, vertices, elements):
        with pytest.raises(NonConformingMeshError,
                           match="a boundary ridge is shared by 4 boundary facets"):
            fc.SimplicialMesh(dim, vertices, elements)

    def test_mesh_is_immutable(self):
        mesh = fc.generate_uniform(2, 2)
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 9.9
