"""Simplicial meshes: representation, generators, file I/O, geometric metrics.

Meshes are conforming simplicial complexes in d = 1, 2 or 3 with a
homogeneous Dirichlet orientation: vertices on the boundary are flagged and
the remaining (interior) vertices get a contiguous row index used by the
assembly routines.  Instances are immutable after construction and all
queries are safe to call concurrently.

Stacks of per-element d x d matrices go through two closed-form kernels,
`_det` (cofactor expansion) and `_inv` (adjugate over determinant): the
element volumes and orientation here, the element metric in `assembly` and
the 3 x 3 eigenvalue formula in `bounds`.  On the benchmark meshes' 2 x 2
and 3 x 3 stacks they run 7 to 50 times faster than batched LAPACK; in 1D
they are the entries and their reciprocals, bit for bit LAPACK's results.
Symmetric eigenvalue ranges in 3D stay with LAPACK (see `assembly`): the
trigonometric closed form is too coarse near a double eigenvalue for the
range check.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "MeshError",
    "NonConformingMeshError",
    "DegenerateElementError",
    "MeshFormatError",
    "SimplicialMesh",
    "ElementGeometry",
    "MeshMetrics",
    "generate_uniform",
    "generate_chebyshev_1d",
    "generate_power2_1d",
    "generate_boundary_layer",
    "import_mesh",
    "export_mesh",
    "compute_metrics",
    "max_aspect_ratio",
]


# Points x facets (or planes) per block of a boundary-distance pass; 512 KiB
# stays in cache.  Geometric comparisons carry a slack of _SLACK times the
# coordinate scale.
_BLOCK = 1 << 16
_SLACK = 1e-10


class MeshError(ValueError):
    """Base class for mesh construction and query failures."""


class NonConformingMeshError(MeshError):
    """A facet is shared by more than two elements, or the boundary is not
    a closed surface."""


class DegenerateElementError(MeshError):
    def __init__(self, element_id: int, volume: float):
        super().__init__(
            f"element {element_id} is degenerate (volume {volume:.3e})"
        )
        self.element_id = element_id
        self.volume = volume


class MeshFormatError(MeshError):
    def __init__(self, path, line: int | None, message: str):
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


class SimplicialMesh:
    """Conforming simplicial mesh with interior-vertex row indexing.

    Construction normalizes element orientation (positive signed volume),
    verifies conformity (every facet belongs to one or two elements, the
    one-element facets forming a closed boundary) and computes boundary
    flags and the interior index.  Arrays are frozen after construction.

    The facet topology is kept once: `facets` holds every distinct facet as
    its sorted vertex tuple, (n_facets, d); `element_facets[k, j]` is the
    row of `facets` opposite vertex j of element k, (n_elements, d + 1);
    `boundary_facets` are the facets of one element only.  In 2D the facets
    are the mesh edges.
    """

    def __init__(self, dim: int, vertices, elements):
        if dim not in (1, 2, 3):
            raise MeshError(f"dim must be 1, 2 or 3, got {dim}")
        self.dim = dim

        vertices = np.array(vertices, dtype=float)
        if vertices.ndim == 1:
            vertices = vertices[:, None]
        if vertices.ndim != 2 or vertices.shape[1] != dim:
            raise MeshError(
                f"vertices must have shape (n, {dim}), got {vertices.shape}"
            )
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertex coordinates must be finite")

        elements = np.asarray(elements)
        if elements.dtype.kind not in "iu":
            whole = np.asarray(elements, dtype=float)
            if not np.all(np.isfinite(whole) & (whole == np.trunc(whole))):
                raise MeshError("element vertex indices must be whole numbers")
        elements = np.array(elements, dtype=np.int64)
        if elements.ndim != 2 or elements.shape[1] != dim + 1:
            raise MeshError(
                f"elements must have shape (n, {dim + 1}), got {elements.shape}"
            )
        if elements.size and (elements.min() < 0 or elements.max() >= len(vertices)):
            raise MeshError("element vertex index out of range")
        if len(elements) == 0:
            raise MeshError("mesh has no elements")

        used = np.zeros(len(vertices), dtype=bool)
        used[elements.ravel()] = True
        if not used.all():
            raise MeshError(
                f"vertex {int(np.flatnonzero(~used)[0])} is not used by any element"
            )

        # Orientation: positive signed volume, swapping the last two vertices
        # where needed.
        dets = _det(vertices[elements[:, 1:]] - vertices[elements[:, :1]])
        flip = dets < 0
        if flip.any():
            elements[flip, dim - 1:] = elements[flip, dim - 1:][:, ::-1]
            dets = np.abs(dets)
        volumes = dets / math.factorial(dim)
        bad = ~(volumes > 0) | ~np.isfinite(volumes)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise DegenerateElementError(k, float(volumes[k]))

        self.vertices = vertices
        self.elements = elements
        self.volumes = volumes

        self._build_facets()

        for arr in (self.vertices, self.elements, self.volumes, self.facets,
                    self.element_facets, self.boundary_facets, self.boundary_vertex_flags,
                    self.interior_index):
            arr.setflags(write=False)

    def _build_facets(self):
        d = self.dim
        # Block j of the stacked facets: each element's facet opposite vertex j.
        facets = np.sort(
            np.concatenate([np.delete(self.elements, j, axis=1) for j in range(d + 1)]), axis=1
        )
        # One integer key per sorted row: its index in an (nv,) * d array, so
        # the keys sort in the rows' lexicographic order.
        nv = len(self.vertices)
        _, first, inverse, counts = np.unique(
            np.ravel_multi_index(facets.T, (nv,) * d),
            return_index=True, return_inverse=True, return_counts=True,
        )
        uniq = facets[first]
        if counts.max(initial=0) > 2:
            f = uniq[int(np.argmax(counts))]
            raise NonConformingMeshError(
                f"facet {tuple(int(v) for v in f)} is shared by "
                f"{int(counts.max())} elements"
            )
        boundary = uniq[counts == 1]
        if len(boundary) == 0:
            raise NonConformingMeshError("mesh has no boundary facets")

        # Watertightness: the boundary facets must form a closed surface, on
        # which every ridge (a (d - 1)-vertex face of a boundary facet, kept
        # sorted as the facet rows are) is shared by exactly two facets.
        if d == 1:
            if len(boundary) != 2:
                raise NonConformingMeshError(
                    f"1D mesh must have exactly 2 boundary points, "
                    f"found {len(boundary)}"
                )
        else:
            ridges = np.concatenate(
                [boundary[:, cols] for cols in itertools.combinations(range(d), d - 1)]
            )
            _, rcounts = np.unique(
                np.ravel_multi_index(ridges.T, (nv,) * (d - 1)), return_counts=True
            )
            if not np.all(rcounts == 2):
                raise NonConformingMeshError(
                    "boundary is not watertight: a boundary ridge is shared "
                    f"by {int(rcounts[rcounts != 2][0])} boundary facets"
                )

        flags = np.zeros(len(self.vertices), dtype=bool)
        flags[boundary.ravel()] = True
        interior = np.full(len(self.vertices), -1, dtype=np.int64)
        interior[~flags] = np.arange(int((~flags).sum()))

        self.facets = uniq
        self.element_facets = inverse.reshape(d + 1, -1).T.copy()
        self.boundary_facets = boundary
        self.boundary_vertex_flags = flags
        self.interior_index = interior

    # -- basic queries ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_interior(self) -> int:
        return int((~self.boundary_vertex_flags).sum())

    @property
    def domain_volume(self) -> float:
        return float(self.volumes.sum())

    @cached_property
    def convex_half_spaces(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Facet planes (normals, offsets) of a convex domain, else None.

        Each boundary facet spans a plane n . x = c with unit normal n
        pointing away from the mean of the vertices; coplanar facets are
        merged into one plane (normal and offset rounded to 12 digits of
        the coordinate scale).  The domain is called convex when every
        boundary vertex v satisfies every plane, n . v <= c + slack with the
        slack 1e-10 times the coordinate scale.  Every facet then lies on a
        supporting plane of the convex hull of the vertices, so the boundary
        of the domain lies on the hull's boundary and the domain is the hull
        itself, {x : n . x <= c for every plane}.  None for a non-convex
        domain.  In 1D the boundary is the two end points of one interval
        (SimplicialMesh refuses any other count), whose planes have the
        normals -1 and +1.

        Any point strictly inside a convex domain is strictly inside every
        facet plane, so it turns them all outward, and the vertex mean (every
        vertex with a positive weight) is one.  A non-convex domain has a
        facet plane with boundary vertices beyond it on both sides, so it
        fails the test however that plane is turned.
        """
        corners = self.vertices[self.boundary_facets]  # facet, corner, coordinate
        edges = corners[:, 1:] - corners[:, :1]
        if self.dim == 1:
            normal = np.ones((len(corners), 1))
        elif self.dim == 2:
            normal = np.stack([edges[:, 0, 1], -edges[:, 0, 0]], axis=1)
        else:
            normal = np.cross(edges[:, 0], edges[:, 1])
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        offset = (normal * corners[:, 0]).sum(axis=1)
        outward = np.where(offset >= normal @ self.vertices.mean(axis=0), 1.0, -1.0)
        normal *= outward[:, None]
        offset *= outward
        scale = float(np.abs(self.vertices).max()) or 1.0
        key = np.round(np.column_stack([normal, offset / scale]), 12)
        first = np.sort(np.unique(key, axis=0, return_index=True)[1])
        normal, offset = normal[first], offset[first]

        limit = offset + _SLACK * scale
        b = self.vertices[self.boundary_vertex_flags]
        chunk = max(1, _BLOCK // len(offset))
        for s in range(0, len(b), chunk):
            if np.any(b[s:s + chunk] @ normal.T > limit):
                return None
        return normal, offset

    def centroids(self) -> np.ndarray:
        return self.vertices[self.elements].mean(axis=1)

    def edge_matrices(self) -> np.ndarray:
        """Per-element matrix of edge vectors v_i - v_0, shape (n, d, d)."""
        return np.swapaxes(
            self.vertices[self.elements[:, 1:]] - self.vertices[self.elements[:, :1]],
            1, 2,
        )

    def __repr__(self):
        return (
            f"SimplicialMesh(dim={self.dim}, vertices={self.n_vertices}, "
            f"elements={self.n_elements}, interior={self.n_interior})"
        )


# -- closed-form d x d kernels -------------------------------------------------


def _cofactor3(m: np.ndarray, i: int, j: int) -> np.ndarray:
    """Cofactor (i, j) of an (n, 3, 3) stack; with cyclic indices the sign
    is built in."""
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return m[:, i1, j1] * m[:, i2, j2] - m[:, i1, j2] * m[:, i2, j1]


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of an (n, d, d) stack, d <= 3, by cofactor expansion
    along the first row; in 1D the entries themselves."""
    d = m.shape[-1]
    if d == 1:
        return m[:, 0, 0]
    if d == 2:
        return m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    return sum(m[:, 0, j] * _cofactor3(m, 0, j) for j in range(3))


def _inv(m: np.ndarray) -> np.ndarray:
    """Inverses of an (n, d, d) stack, d <= 3: the adjugate divided by the
    determinant, 1 / m in 1D."""
    d = m.shape[-1]
    if d == 1:
        return 1.0 / m
    adj = np.empty(m.shape)
    if d == 2:
        adj[:, 0, 0], adj[:, 1, 1] = m[:, 1, 1], m[:, 0, 0]
        adj[:, 0, 1], adj[:, 1, 0] = -m[:, 0, 1], -m[:, 1, 0]
    else:
        for i, j in itertools.product(range(3), repeat=2):
            adj[:, i, j] = _cofactor3(m, j, i)
    return adj / _det(m)[:, None, None]


@dataclass(frozen=True)
class ElementGeometry:
    """Per-element geometry, stored as arrays indexed by element.

    volumes[k] is the measure |K| of element k.  d_k is the sampled maximum
    distance from the element to the domain boundary (vertices plus
    centroid; underestimates the true maximum by at most the element
    diameter).  patch_ids[k] lists the interior row indices of element k's
    vertices, -1 for boundary vertices.
    """

    volumes: np.ndarray    # (n,)
    d_k: np.ndarray        # (n,)
    patch_ids: np.ndarray  # (n, d+1), interior row index or -1


@dataclass(frozen=True)
class MeshMetrics:
    """Global mesh quantities used by the conditioning bounds."""

    k_min_volume: float
    k_avg_volume: float


# -- generators ----------------------------------------------------------


def _mesh_from_axis_nodes(dim: int, axes: list[np.ndarray]) -> SimplicialMesh:
    """Tensor grid of the node arrays axes (vertices in C order), cut by
    Kuhn's rule (H. W. Kuhn, IBM J. Res. Dev. 4, 1960): one simplex per
    order in which a path from a cell's lowest corner to its highest steps
    along the axes, conforming for any tensor grid.  That is the chain of
    segments in 1D, two triangles split along the (lowest, highest) diagonal
    in 2D and six tetrahedra around the main diagonal in 3D.  Elements come
    grouped by path (itertools.permutations order), cells in C order."""
    shape = tuple(len(a) for a in axes)
    verts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    lowest = np.indices([n - 1 for n in shape]).reshape(dim, -1)
    elems = []
    for path in itertools.permutations(range(dim)):
        corner = lowest.copy()
        ids = [np.ravel_multi_index(corner, shape)]
        for axis in path:
            corner[axis] += 1
            ids.append(np.ravel_multi_index(corner, shape))
        elems.append(np.stack(ids, axis=1))
    return SimplicialMesh(dim, verts, np.concatenate(elems))


def generate_uniform(dim: int, n_per_axis: int) -> SimplicialMesh:
    """Uniform mesh of the unit box.

    1D: equal segments; 2D: each grid cell split into two congruent right
    triangles; 3D: each cell split into six tetrahedra.
    """
    if dim not in (1, 2, 3):
        raise MeshError(f"dim must be 1, 2 or 3, got {dim}")
    if n_per_axis < 1:
        raise MeshError("n_per_axis must be >= 1")
    return _mesh_from_axis_nodes(dim, [np.linspace(0.0, 1.0, n_per_axis + 1)] * dim)


def generate_chebyshev_1d(n: int) -> SimplicialMesh:
    """Unit-interval mesh with interior nodes clustered at both endpoints,
    x_j = (1 - cos(pi (2j - 1) / (2 (n - 1)))) / 2 for j = 1..n-1."""
    if n < 2:
        raise MeshError("n must be >= 2")
    j = np.arange(1, n)
    xi = np.pi * (2 * j - 1) / (2 * (n - 1))
    nodes = np.concatenate([[0.0], (1.0 - np.cos(xi)) / 2.0, [1.0]])
    return _mesh_from_axis_nodes(1, [nodes])


def generate_power2_1d(n: int) -> SimplicialMesh:
    """Unit-interval mesh graded geometrically towards x = 0, interior
    nodes x_j = 2^j / 2^n for j = 1..n-1."""
    if n < 2:
        raise MeshError("n must be >= 2")
    if n > 52:
        raise MeshError("n > 52 underflows the smallest element width")
    j = np.arange(1, n)
    nodes = np.concatenate([[0.0], 2.0**j / 2.0**n, [1.0]])
    return _mesh_from_axis_nodes(1, [nodes])


def generate_boundary_layer(dim: int, n_core_per_axis: int, aspect: float) -> SimplicialMesh:
    """Unit square/cube with a uniform core and one graded layer of thin
    cells of thickness (core spacing)/aspect along the whole boundary.

    The grid is a tensor product of identical 1D ladders, so the layer-core
    transition stays conforming.  aspect must be 1 (plain uniform mesh) or
    >= 2; values in between would make the transition cells the most
    stretched ones, breaking the max-aspect contract.
    """
    if dim not in (2, 3):
        raise MeshError("boundary layer meshes are 2D or 3D")
    if n_core_per_axis < 2:
        raise MeshError("n_core_per_axis must be >= 2")
    if aspect < 1:
        raise MeshError("aspect must be >= 1")
    h = 1.0 / (n_core_per_axis - 1)
    if aspect == 1:
        axis = np.linspace(0.0, 1.0, n_core_per_axis)
    else:
        if aspect < 2:
            raise MeshError(
                "aspect in (1, 2) produces degenerate transition cells; "
                "use aspect == 1 or aspect >= 2"
            )
        delta = h / aspect
        core = np.linspace(0.0, 1.0, n_core_per_axis)[1:-1]
        axis = np.concatenate([[0.0, delta], core, [1.0 - delta, 1.0]])
        if np.any(np.diff(axis) <= 0):
            raise MeshError("degenerate transition cells (zero width)")
    return _mesh_from_axis_nodes(dim, [axis.copy() for _ in range(dim)])


# -- geometric queries ---------------------------------------------------


def _segment_distance_pairs(p, a, b):
    """Distances from points p[i] to segments a[i]->b[i]; all (P, d), out (P,)."""
    ab = b - a
    denom = (ab**2).sum(axis=1)
    w = p - a
    t = (w * ab).sum(axis=1) / denom
    t = np.clip(t, 0.0, 1.0)
    closest = a + t[:, None] * ab
    return np.sqrt(((p - closest) ** 2).sum(axis=1))


def _triangle_distance_pairs(p, a, b, c):
    """Distances from points p[i] (P, 3) to triangles (a[i], b[i], c[i])."""
    e0 = b - a
    e1 = c - a
    d00 = (e0 * e0).sum(axis=1)
    d01 = (e0 * e1).sum(axis=1)
    d11 = (e1 * e1).sum(axis=1)
    denom = d00 * d11 - d01**2
    w = p - a
    wp0 = (w * e0).sum(axis=1)
    wp1 = (w * e1).sum(axis=1)
    u = (d11 * wp0 - d01 * wp1) / denom
    v = (d00 * wp1 - d01 * wp0) / denom
    inside = (u >= 0) & (v >= 0) & (u + v <= 1)
    proj = a + u[:, None] * e0 + v[:, None] * e1
    d_in = np.sqrt(((p - proj) ** 2).sum(axis=1))

    d_edge = np.minimum(
        _segment_distance_pairs(p, a, b),
        np.minimum(
            _segment_distance_pairs(p, a, c),
            _segment_distance_pairs(p, b, c),
        ),
    )
    return np.where(inside, d_in, d_edge)


def _boundary_distance_batch(mesh: SimplicialMesh, points: np.ndarray) -> np.ndarray:
    """Distance d(p) from each point of the closed domain to its boundary.

    On a convex domain (SimplicialMesh.convex_half_spaces: every boundary
    vertex satisfies every facet plane) the domain is {x : n . x <= c} over
    its facet planes, and for a point p inside it the distance to the
    boundary is the distance to the nearest plane:
    d(p) = min over planes of (c - n . p).  Each term bounds d(p) from above
    (the foot of the perpendicular lies on the plane, and the segment to it
    leaves the domain no later than the plane), and the minimum is attained
    (the ball of that radius lies in every half-space).  Values below zero,
    which rounding can give on the boundary, are clipped to zero.  On an
    axis-aligned box the normals are exact unit vectors, so the result is
    bit-identical to the facet search.

    Any other domain goes through _boundary_distance_search.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    planes = mesh.convex_half_spaces
    if planes is None:
        return _boundary_distance_search(mesh, points)
    normal, offset = planes
    return np.maximum((offset - points @ normal.T).min(axis=1), 0.0)


def _boundary_distance_search(mesh: SimplicialMesh, points: np.ndarray) -> np.ndarray:
    """Distance d(p) = min over boundary facets f of dist(p, f), per point.

    Exact two-stage search in 2D and 3D (a 1D domain is an interval and
    takes the half-space path).  Facet f has centre c_f (mean of its corners)
    and radius rho_f = max over its corners of |corner - c_f|.

    1. Prune.  Each c_f lies on the boundary, so r_up(p) = min_f |p - c_f|
       bounds d(p) from above.  Facet f stays a candidate for p when
       |p - c_f| - rho_f <= r_up(p).  This never drops the facet that
       attains d(p): every q in f has |p - q| >= |p - c_f| - rho_f, so
       dist(p, f) >= |p - c_f| - rho_f, and the attaining facet has
       dist(p, f) = d(p) <= r_up(p).  Convexity is not used, so the rule
       holds for any polytope domain.  The comparison carries a slack of
       1e-10 times the coordinate scale, so that rounding cannot drop a
       facet whose computed distance ties the minimum.
    2. Exact distances.  The point-to-segment (2D) or point-to-triangle
       (3D) kernel runs on the candidate (point, facet) pairs only, and
       np.minimum.reduceat keeps one value per point.

    Per pair the kernel does the same operations in the same order as an
    all-pairs search, and a minimum does not depend on the order of its
    operands, so the result is bit-identical to the brute-force search.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    bf = mesh.boundary_facets
    corners = mesh.vertices[bf]  # (t, d, d): facet, corner, coordinate
    centre = corners.mean(axis=1)
    rho = np.sqrt(((corners - centre[:, None, :]) ** 2).sum(axis=2)).max(axis=1)
    ends = [corners[:, i] for i in range(mesh.dim)]
    kernel = _segment_distance_pairs if mesh.dim == 2 else _triangle_distance_pairs
    scale = max(np.abs(corners).max(), np.abs(points).max(initial=0.0))
    slack = _SLACK * scale

    out = np.empty(len(points))
    chunk = max(1, _BLOCK // len(bf))
    for s in range(0, len(points), chunk):
        p = points[s:s + chunk]
        near = np.sqrt(sum((p[:, k, None] - centre[:, k]) ** 2 for k in range(mesh.dim)))
        r_up = near.min(axis=1)
        # Negated so that a NaN point keeps every facet (and stays NaN).
        rows, cols = np.nonzero(~(near - rho > (r_up + slack)[:, None]))
        dist = kernel(p[rows], *(e[cols] for e in ends))
        out[s:s + chunk] = np.minimum.reduceat(dist, np.flatnonzero(np.diff(rows, prepend=-1)))
    return out


def _element_d_k_array(mesh: SimplicialMesh) -> np.ndarray:
    """Sampled max boundary distance per element (vertices + centroid)."""
    nv = mesh.n_vertices
    dist = _boundary_distance_batch(mesh, np.concatenate([mesh.vertices, mesh.centroids()]))
    vert_max = dist[:nv][mesh.elements].max(axis=1)
    return np.maximum(vert_max, dist[nv:])


def reference_scale(dim: int) -> float:
    """Edge length scale of the unit-volume reference simplex: an element's
    jacobian is its edge matrix divided by it."""
    return math.factorial(dim) ** (1.0 / dim)


def compute_metrics(mesh: SimplicialMesh) -> tuple[MeshMetrics, ElementGeometry]:
    """Geometry arrays and global metrics of a mesh."""
    geometry = ElementGeometry(
        volumes=mesh.volumes.copy(),
        d_k=_element_d_k_array(mesh),
        patch_ids=mesh.interior_index[mesh.elements],
    )
    metrics = MeshMetrics(
        k_min_volume=float(mesh.volumes.min()),
        k_avg_volume=mesh.domain_volume / mesh.n_elements,
    )
    return metrics, geometry


def max_aspect_ratio(mesh: SimplicialMesh) -> float:
    """Max over elements of (longest edge / shortest edge)."""
    verts = mesh.vertices[mesh.elements]  # (n, d+1, coords)
    pairs = list(itertools.combinations(range(mesh.dim + 1), 2))
    lengths = np.stack(
        [np.linalg.norm(verts[:, i] - verts[:, j], axis=1) for i, j in pairs],
        axis=1,
    )
    ratios = lengths.max(axis=1) / lengths.min(axis=1)
    return float(ratios.max())


# -- file formats ----------------------------------------------------------

NATIVE_JSON_VERSION = 1


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def _triangle_base(path) -> Path | None:
    """The base of the Triangle pair base.node and base.ele that a path
    ending in .node or .ele names; None for any other path (native JSON)."""
    path = Path(path)
    return path.with_suffix("") if path.suffix in (".node", ".ele") else None


def export_mesh(mesh: SimplicialMesh, path) -> None:
    """Write a mesh to disk, as the Triangle pair if the path ends in .node
    or .ele and as native JSON otherwise; coordinates carry 17 significant
    digits."""
    base = _triangle_base(path)
    if base is None:
        lines = ["{"]
        lines.append(f'  "dim": {mesh.dim},')
        lines.append(f'  "version": {NATIVE_JSON_VERSION},')
        vrows = ",\n".join(
            "    [" + ", ".join(_format_float(c) for c in v) + "]"
            for v in mesh.vertices
        )
        lines.append('  "vertices": [\n' + vrows + "\n  ],")
        erows = ",\n".join(
            "    [" + ", ".join(str(int(i)) for i in e) + "]"
            for e in mesh.elements
        )
        lines.append('  "elements": [\n' + erows + "\n  ]")
        lines.append("}")
        Path(path).write_text("\n".join(lines) + "\n")
    else:
        with open(base.with_suffix(".node"), "w") as f:
            f.write(f"{mesh.n_vertices} {mesh.dim} 0 1\n")
            for i, v in enumerate(mesh.vertices):
                coords = " ".join(_format_float(c) for c in v)
                f.write(f"{i + 1} {coords} {int(mesh.boundary_vertex_flags[i])}\n")
        with open(base.with_suffix(".ele"), "w") as f:
            f.write(f"{mesh.n_elements} {mesh.dim + 1} 0\n")
            for i, e in enumerate(mesh.elements):
                f.write(f"{i + 1} " + " ".join(str(int(v) + 1) for v in e) + "\n")


def import_mesh(path) -> SimplicialMesh:
    """Read a mesh written as export_mesh writes it, the format chosen by the
    same rule; boundary flags are recomputed from facet incidence, not
    trusted from the file."""
    base = _triangle_base(path)
    return _import_native_json(Path(path)) if base is None else _import_triangle(base)


def _import_native_json(path: Path) -> SimplicialMesh:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except json.JSONDecodeError as exc:
        raise MeshFormatError(path, exc.lineno, exc.msg) from exc
    except UnicodeDecodeError as exc:
        raise MeshFormatError(path, None, f"not a UTF-8 text file ({exc})") from exc
    if not isinstance(data, dict):
        raise MeshFormatError(path, None, "not a JSON object")
    for key in ("dim", "vertices", "elements"):
        if key not in data:
            raise MeshFormatError(path, None, f"missing key {key!r}")
    if data.get("version", NATIVE_JSON_VERSION) != NATIVE_JSON_VERSION:
        raise MeshFormatError(path, None, f"unsupported version {data['version']}")
    if type(data["dim"]) is not int:
        raise MeshFormatError(path, None, f"dim must be an integer, got {data['dim']!r}")
    arrays = []
    for key in ("vertices", "elements"):
        try:
            arrays.append(np.asarray(data[key], dtype=float))
        except (TypeError, ValueError, OverflowError) as exc:
            raise MeshFormatError(path, None, f"{key} must be an array of numbers ({exc})") from exc
    return SimplicialMesh(data["dim"], *arrays)


def _read_triangle_table(path: Path, noun: str, parse):
    """The header line, width, row ids and row values (lists) of one file of
    a Triangle pair (J. R. Shewchuk, Triangle, 1996).  '#' starts a comment.
    The header holds a row count >= 1 and a row width >= 0 (dimension or
    vertices per element), then fields not read.  A row holds an integer id,
    width values read by parse, then ignored columns (attributes, markers).
    Errors give file:line and call a row a noun."""
    kind = path.suffix
    lines = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            fields = line.split("#", 1)[0].split()
            if fields:
                lines.append((lineno, fields))
    if not lines:
        raise MeshFormatError(path, None, f"empty {kind} file")
    header_line, header = lines.pop(0)
    try:
        count, width = int(header[0]), int(header[1])
    except (ValueError, IndexError):
        count = width = -1
    if count < 0 or width < 0:
        raise MeshFormatError(path, header_line, f"bad {kind} header")
    if count == 0:
        raise MeshFormatError(path, header_line, f"no {noun}s")
    if len(lines) != count:
        raise MeshFormatError(
            path, header_line, f"expected {count} {noun} rows, found {len(lines)}"
        )
    ids, rows = [], []
    for lineno, fields in lines:
        try:
            if len(fields) <= width:
                raise ValueError
            ids.append(int(fields[0]))
            rows.append([parse(v) for v in fields[1:1 + width]])
        except ValueError:
            raise MeshFormatError(path, lineno, f"bad {noun} row") from None
    return header_line, width, ids, rows


def _import_triangle(base: Path) -> SimplicialMesh:
    node_path = base.with_suffix(".node")
    ele_path = base.with_suffix(".ele")
    _, dim, ids, coords = _read_triangle_table(node_path, "node", float)
    header_line, per_ele, _, elements = _read_triangle_table(ele_path, "element", int)
    if per_ele != dim + 1:
        raise MeshFormatError(
            ele_path, header_line, f"expected {dim + 1} vertices per element, got {per_ele}"
        )
    # Node ids may be 1-based and in arbitrary order; remap to row order.
    id_to_row = {node_id: row for row, node_id in enumerate(ids)}
    if len(id_to_row) != len(ids):
        raise MeshFormatError(node_path, None, "duplicate node ids")
    try:
        elements = [[id_to_row[v] for v in element] for element in elements]
    except KeyError as exc:
        raise MeshFormatError(ele_path, None, f"unknown node id {exc.args[0]}") from None
    return SimplicialMesh(dim, coords, elements)
