"""Simplicial meshes: representation, generators, file I/O, geometric metrics.

Meshes are conforming simplicial complexes in d = 1, 2 or 3 with a
homogeneous Dirichlet orientation: vertices on the boundary are flagged and
the remaining (interior) vertices get a contiguous row index used by the
assembly routines.  Instances are immutable after construction and all
queries are safe to call concurrently.
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
        edges = vertices[elements[:, 1:]] - vertices[elements[:, :1]]
        dets = np.linalg.det(edges) if dim > 1 else edges[:, 0, 0]
        flip = dets < 0
        if flip.any():
            elements = elements.copy()
            elements[flip, dim - 1], elements[flip, dim] = (
                elements[flip, dim].copy(),
                elements[flip, dim - 1].copy(),
            )
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

        for arr in (self.vertices, self.elements, self.volumes,
                    self.boundary_facets, self.boundary_vertex_flags,
                    self.interior_index):
            arr.setflags(write=False)

    def _build_facets(self):
        d = self.dim
        elements = self.elements
        facet_list = []
        for drop in range(d + 1):
            keep = [i for i in range(d + 1) if i != drop]
            facet_list.append(elements[:, keep])
        facets = np.sort(np.concatenate(facet_list, axis=0), axis=1)
        # One integer key per sorted row: its index in an (nv,) * d array, so
        # the keys sort in the rows' lexicographic order.
        nv = len(self.vertices)
        _, first, counts = np.unique(
            np.ravel_multi_index(facets.T, (nv,) * d),
            return_index=True, return_counts=True,
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

        # Watertightness: the boundary facets must form a closed surface.
        if d == 1:
            if len(boundary) != 2:
                raise NonConformingMeshError(
                    f"1D mesh must have exactly 2 boundary points, "
                    f"found {len(boundary)}"
                )
        else:
            if d == 2:
                ridges = boundary.ravel()  # endpoints of boundary edges
            else:
                ridges = np.sort(
                    np.concatenate(
                        [boundary[:, [0, 1]], boundary[:, [0, 2]],
                         boundary[:, [1, 2]]]
                    ),
                    axis=1,
                )
                ridges = np.ravel_multi_index(ridges.T, (nv, nv))
            _, rcounts = np.unique(ridges, return_counts=True)
            if not np.all(rcounts == 2):
                raise NonConformingMeshError(
                    "boundary is not watertight: a boundary ridge is shared "
                    f"by {int(rcounts[rcounts != 2][0])} boundary facets"
                )

        flags = np.zeros(len(self.vertices), dtype=bool)
        flags[boundary.ravel()] = True
        interior = np.full(len(self.vertices), -1, dtype=np.int64)
        interior[~flags] = np.arange(int((~flags).sum()))

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
        pointing away from the volume centroid of the mesh; coplanar facets
        are merged into one plane (normal and offset rounded to 12 digits of
        the coordinate scale).  The domain is called convex when every
        boundary vertex v satisfies every plane, n . v <= c + slack with the
        slack 1e-10 times the coordinate scale.  Every facet then lies on a
        supporting plane of the convex hull of the vertices, so the boundary
        of the domain lies on the hull's boundary and the domain is the hull
        itself, {x : n . x <= c for every plane}.  None for a non-convex
        domain.  In 1D the boundary is the two end points of one interval
        (SimplicialMesh refuses any other count), whose planes have the
        normals -1 and +1.
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
        centre = self.volumes @ self.centroids() / self.volumes.sum()
        outward = np.where(offset >= normal @ centre, 1.0, -1.0)
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

    @cached_property
    def inverse_edge_matrices(self) -> np.ndarray:
        """Inverses of edge_matrices(), shape (n, d, d), computed once per
        mesh (read-only): assembly's basis gradients and the anisotropy
        factors beta_k both read them."""
        inverse = np.linalg.inv(self.edge_matrices())
        inverse.setflags(write=False)
        return inverse

    def __repr__(self):
        return (
            f"SimplicialMesh(dim={self.dim}, vertices={self.n_vertices}, "
            f"elements={self.n_elements}, interior={self.n_interior})"
        )


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
    """Tensor-product grid triangulated into simplices.

    2D cells split along the (v00, v11) diagonal; 3D cells split into six
    tetrahedra along the main diagonal (one per axis permutation), which is
    conforming for any tensor grid.
    """
    if dim == 1:
        nodes = axes[0]
        elems = np.stack([np.arange(len(nodes) - 1), np.arange(1, len(nodes))], axis=1)
        return SimplicialMesh(1, nodes, elems)

    shape = [len(a) for a in axes]
    grids = np.meshgrid(*axes, indexing="ij")
    verts = np.stack([g.ravel() for g in grids], axis=1)

    def vid(*idx):
        out = idx[0]
        for k in range(1, dim):
            out = out * shape[k] + idx[k]
        return out

    elems = []
    if dim == 2:
        nx, ny = shape[0] - 1, shape[1] - 1
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        ix, iy = ix.ravel(), iy.ravel()
        v00 = vid(ix, iy)
        v10 = vid(ix + 1, iy)
        v01 = vid(ix, iy + 1)
        v11 = vid(ix + 1, iy + 1)
        elems = np.concatenate(
            [
                np.stack([v00, v10, v11], axis=1),
                np.stack([v00, v11, v01], axis=1),
            ]
        )
    else:
        nx, ny, nz = shape[0] - 1, shape[1] - 1, shape[2] - 1
        ix, iy, iz = np.meshgrid(
            np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
        )
        ix, iy, iz = ix.ravel(), iy.ravel(), iz.ravel()
        base = np.stack([ix, iy, iz], axis=1)
        tets = []
        for perm in itertools.permutations(range(3)):
            steps = np.zeros((4, 3), dtype=np.int64)
            for s, axis in enumerate(perm):
                steps[s + 1] = steps[s]
                steps[s + 1, axis] += 1
            corners = [
                vid(*(base + step[None, :]).T) for step in steps
            ]
            tets.append(np.stack(corners, axis=1))
        elems = np.concatenate(tets)
    return SimplicialMesh(dim, verts, elems)


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
    near_buf = np.empty((min(chunk, len(points)), len(bf)))
    diff_buf = np.empty_like(near_buf)
    keep_buf = np.empty(near_buf.shape, dtype=bool)
    for s in range(0, len(points), chunk):
        p = points[s:s + chunk]
        near, diff, keep = near_buf[:len(p)], diff_buf[:len(p)], keep_buf[:len(p)]
        near.fill(0.0)
        for k in range(mesh.dim):
            np.subtract.outer(p[:, k], centre[:, k], out=diff)
            near += np.multiply(diff, diff, out=diff)
        np.sqrt(near, out=near)
        r_up = near.min(axis=1)
        near -= rho
        # Negated so that a NaN point keeps every facet (and stays NaN).
        np.logical_not(np.greater(near, (r_up + slack)[:, None], out=keep), out=keep)
        rows, cols = np.nonzero(keep)
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
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as exc:
        raise MeshFormatError(path, exc.lineno, exc.msg) from exc
    for key in ("dim", "vertices", "elements"):
        if key not in data:
            raise MeshFormatError(path, None, f"missing key {key!r}")
    if data.get("version", NATIVE_JSON_VERSION) != NATIVE_JSON_VERSION:
        raise MeshFormatError(path, None, f"unsupported version {data['version']}")
    if type(data["dim"]) is not int:
        raise MeshFormatError(path, None, f"dim must be an integer, got {data['dim']!r}")
    return SimplicialMesh(data["dim"], data["vertices"], data["elements"])


def _read_rows(path: Path):
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                rows.append((lineno, stripped.split()))
    return rows


def _import_triangle(base: Path) -> SimplicialMesh:
    node_path = base.with_suffix(".node")
    ele_path = base.with_suffix(".ele")

    rows = _read_rows(node_path)
    if not rows:
        raise MeshFormatError(node_path, None, "empty .node file")
    lineno, header = rows[0]
    try:
        n_nodes, dim = int(header[0]), int(header[1])
    except (ValueError, IndexError):
        raise MeshFormatError(node_path, lineno, "bad .node header") from None
    if len(rows) - 1 != n_nodes:
        raise MeshFormatError(
            node_path, lineno, f"expected {n_nodes} node rows, found {len(rows) - 1}"
        )
    ids = np.empty(n_nodes, dtype=np.int64)
    coords = np.empty((n_nodes, dim))
    for k, (lineno, parts) in enumerate(rows[1:]):
        try:
            ids[k] = int(parts[0])
            coords[k] = [float(p) for p in parts[1:1 + dim]]
        except (ValueError, IndexError):
            raise MeshFormatError(node_path, lineno, "bad node row") from None

    rows = _read_rows(ele_path)
    if not rows:
        raise MeshFormatError(ele_path, None, "empty .ele file")
    lineno, header = rows[0]
    try:
        n_ele = int(header[0])
        per_ele = int(header[1])
    except (ValueError, IndexError):
        raise MeshFormatError(ele_path, lineno, "bad .ele header") from None
    if n_ele == 0:
        raise MeshFormatError(ele_path, lineno, "no elements")
    if per_ele != dim + 1:
        raise MeshFormatError(
            ele_path, lineno, f"expected {dim + 1} vertices per element, got {per_ele}"
        )
    if len(rows) - 1 != n_ele:
        raise MeshFormatError(
            ele_path, lineno, f"expected {n_ele} element rows, found {len(rows) - 1}"
        )
    elements = np.empty((n_ele, per_ele), dtype=np.int64)
    for k, (lineno, parts) in enumerate(rows[1:]):
        try:
            elements[k] = [int(p) for p in parts[1:1 + per_ele]]
        except (ValueError, IndexError):
            raise MeshFormatError(ele_path, lineno, "bad element row") from None
    # Node ids may be 1-based and in arbitrary order; remap to row order.
    id_to_row = {int(ids[r]): r for r in range(n_nodes)}
    if len(id_to_row) != n_nodes:
        raise MeshFormatError(node_path, None, "duplicate node ids")
    try:
        elements = np.vectorize(id_to_row.__getitem__)(elements)
    except KeyError as exc:
        raise MeshFormatError(ele_path, None, f"unknown node id {exc.args[0]}") from None
    return SimplicialMesh(dim, coords, elements)
