"""Shared fixtures and randomized mesh/field factories."""

from __future__ import annotations

import numpy as np
import pytest

from femcond import DiffusionField, SimplicialMesh
from femcond import (
    generate_boundary_layer,
    generate_chebyshev_1d,
    generate_power2_1d,
    generate_uniform,
)
from femcond.mesh import MeshError


def box_mesh(dim: int, n_per_axis: int, box) -> SimplicialMesh:
    """generate_uniform's unit-box mesh mapped onto the box of (lo, hi)
    pairs, one per axis."""
    lo, hi = np.array(box, dtype=float).reshape(dim, 2).T
    unit = generate_uniform(dim, n_per_axis)
    return SimplicialMesh(dim, lo + unit.vertices * (hi - lo), unit.elements)


def perturb_interior(mesh: SimplicialMesh, rng: np.random.Generator,
                     frac: float = 0.2) -> SimplicialMesh:
    """Randomly displace interior vertices, keeping the mesh valid.

    Displacement amplitude starts at frac times the shortest edge and is
    halved until orientation and conformity checks pass.
    """
    verts = mesh.vertices[mesh.elements]
    d = mesh.dim
    edge_min = np.inf
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            edge_min = min(edge_min, np.linalg.norm(verts[:, i] - verts[:, j], axis=1).min())
    amp = frac * edge_min
    interior = ~mesh.boundary_vertex_flags
    offsets = rng.uniform(-1.0, 1.0, size=mesh.vertices.shape)
    for _ in range(6):
        new = mesh.vertices.copy()
        new[interior] += amp * offsets[interior]
        try:
            return SimplicialMesh(mesh.dim, new, mesh.elements)
        except MeshError:
            amp *= 0.5
    return mesh


def stretched_matrices(rng: np.random.Generator, dim: int, count: int,
                       aspect: float) -> np.ndarray:
    """Random sheared matrices squeezed by 1 / aspect along their last axis
    and rotated, shape (count, dim, dim): the edge matrices of stretched
    elements."""
    q, _ = np.linalg.qr(rng.standard_normal((count, dim, dim)))
    squeeze = np.ones(dim)
    squeeze[-1] = 1.0 / aspect
    shear = np.eye(dim) + 0.3 * rng.standard_normal((count, dim, dim))
    return q @ (squeeze[:, None] * shear)


def random_spd_field(rng: np.random.Generator, dim: int,
                     cond_max: float = 100.0) -> DiffusionField:
    """Constant SPD diffusion matrix with condition number <= cond_max."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cond = rng.uniform(1.0, cond_max)
    eigs = np.concatenate([[1.0, cond], rng.uniform(1.0, cond, size=max(0, dim - 2))])
    scale = rng.uniform(0.5, 2.0)
    return DiffusionField.constant_matrix(q @ np.diag(scale * eigs[:dim]) @ q.T)


def random_mesh(rng: np.random.Generator, dim: int | None = None) -> SimplicialMesh:
    """Small random mesh: a generated family with perturbed interior nodes."""
    if dim is None:
        dim = int(rng.integers(1, 4))
    if dim == 1:
        family = rng.integers(0, 3)
        n = int(rng.integers(4, 24))
        if family == 0:
            base = generate_uniform(1, n)
        elif family == 1:
            base = generate_chebyshev_1d(n)
        else:
            base = generate_power2_1d(min(n, 16))
    elif dim == 2:
        if rng.integers(0, 2):
            base = generate_uniform(2, int(rng.integers(2, 7)))
        else:
            base = generate_boundary_layer(2, int(rng.integers(3, 6)),
                                           float(rng.choice([2.0, 4.0, 8.0])))
    else:
        if rng.integers(0, 2):
            base = generate_uniform(3, int(rng.integers(2, 4)))
        else:
            base = generate_boundary_layer(3, 3, float(rng.choice([2.0, 4.0])))
    return perturb_interior(base, rng)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
