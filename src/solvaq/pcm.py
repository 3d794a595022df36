"""Integral-equation-formalism polarizable continuum model (IEF-PCM).

The solute sits in a cavity of atom-centered spheres discretized by
equal-area angular grids.  Apparent surface charges q solve the
single-layer / double-layer master equation

    [2 pi I - f_eps D A] S q = -f_eps (2 pi I - D A) phi,
    f_eps = (eps - 1) / (eps + 1),

which is the IEF equation scaled by f_eps so that eps = 1 (f = 0) stays
well-posed and yields q = 0 exactly.  S_ij = 1/|s_i - s_j| with the
self-patch regularization S_ii = 1.0694 sqrt(4 pi / a_i);
D_ij = n_j . (s_j - s_i)/|s_j - s_i|^3 with the diagonal fixed by the
Gauss double-layer sum rule  sum_j D_ij a_j = -2 pi.

Solving the master equation is a linear map q = R_f phi, built once per
cavity and dielectric, so each charge solve of a self-consistent loop is one
matvec. The polarization free energy is G_pol = (1/2) sum_i q_i phi_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import AOBasis
from .constants import BOHR_PER_ANGSTROM, BONDI_RADII_ANGSTROM
from .errors import ConfigError
from .geometry import Geometry
from .integrals import esp_tensor

ANGULAR_GRID_SIZES = (110, 194, 302, 590)
# cavity radius / van der Waals radius: holds the default 1.2 and the 1.0-2.0
# scales used with Bondi radii, and keeps the cavity inside float range
RADIUS_SCALE_RANGE = (0.5, 5.0)
_SELF_POTENTIAL_FACTOR = 1.0694


@dataclass
class DielectricParams:
    """Solvent dielectric constant; the default is water."""

    epsilon: float = 78.3553

    def __post_init__(self):
        if not 1.0 <= self.epsilon < math.inf:
            raise ConfigError(
                f"dielectric constant must be finite and >= 1, got {self.epsilon}"
            )

    @property
    def f_eps(self) -> float:
        """(eps-1)/(eps+1), in [0, 1)."""
        return (self.epsilon - 1.0) / (self.epsilon + 1.0)


@dataclass
class CavityConfig:
    points_per_sphere: int = 302
    radius_scale: float = 1.2

    def __post_init__(self):
        if self.points_per_sphere not in ANGULAR_GRID_SIZES:
            raise ConfigError(
                f"points per sphere must be one of {ANGULAR_GRID_SIZES}, "
                f"got {self.points_per_sphere}"
            )
        low, high = RADIUS_SCALE_RANGE
        if not low <= self.radius_scale <= high:
            raise ConfigError(
                f"radius scale must be in [{low}, {high}], got {self.radius_scale}"
            )


@dataclass
class CavitySurface:
    points: np.ndarray         # (n, 3) bohr
    normals: np.ndarray        # (n, 3) outward unit normals
    areas: np.ndarray          # (n,) bohr^2, 4 pi R^2 / n_points per parent sphere
    sphere_index: np.ndarray   # (n,) parent sphere of each point

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def unit_sphere_grid(n: int) -> np.ndarray:
    """Deterministic golden-angle (Fibonacci) lattice of n quasi-uniform points."""
    i = np.arange(n) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def build_cavity(centers, radii, points_per_sphere: int = 302) -> CavitySurface:
    """Tessellate atom-centered spheres, culling points strictly inside
    any other sphere.  Surviving points keep area 4 pi R^2 / n_points."""
    if points_per_sphere not in ANGULAR_GRID_SIZES:
        raise ConfigError(
            f"points per sphere must be one of {ANGULAR_GRID_SIZES}, got {points_per_sphere}"
        )
    centers = np.asarray(centers, float).reshape(-1, 3)
    radii = np.asarray(radii, float).reshape(-1)
    if centers.shape[0] != radii.shape[0]:
        raise ConfigError("sphere centers and radii must pair up")
    if np.any(radii <= 0):
        raise ConfigError("sphere radii must be positive")
    grid = unit_sphere_grid(points_per_sphere)
    pts, nrm, area, parent = [], [], [], []
    n_sph = centers.shape[0]
    for k in range(n_sph):
        p = centers[k] + radii[k] * grid
        keep = np.ones(points_per_sphere, dtype=bool)
        for j in range(n_sph):
            if j == k:
                continue
            d = np.linalg.norm(p - centers[j], axis=1)
            keep &= d >= radii[j] * (1.0 - 1e-12)
        if not np.any(keep):
            continue
        pts.append(p[keep])
        nrm.append(grid[keep])
        area.append(np.full(keep.sum(), 4.0 * math.pi * radii[k] ** 2 / points_per_sphere))
        parent.append(np.full(keep.sum(), k, dtype=int))
    if not pts:
        raise ConfigError("cavity construction removed every surface point")
    return CavitySurface(
        points=np.concatenate(pts),
        normals=np.concatenate(nrm),
        areas=np.concatenate(area),
        sphere_index=np.concatenate(parent),
    )


def cavity_from_geometry(geometry: Geometry, config: CavityConfig) -> CavitySurface:
    """Atom-centered cavity with scaled Bondi radii."""
    radii = []
    for sym in geometry.symbols:
        r_ang = BONDI_RADII_ANGSTROM.get(sym)
        if r_ang is None:
            raise ConfigError(f"no van der Waals radius known for element {sym}")
        radii.append(r_ang * config.radius_scale * BOHR_PER_ANGSTROM)
    return build_cavity(geometry.coords, np.array(radii), config.points_per_sphere)


@dataclass
class PCMOperators:
    """Discretized single-layer (S) and double-layer (D) operators."""

    S: np.ndarray
    D: np.ndarray
    areas: np.ndarray

    def response(self, f_eps: float) -> np.ndarray:
        """The linear response of the surface charges to the solute
        potential, q = R_f phi, with

            R_f = -f [(2 pi I - f D A) S]^-1 (2 pi I - D A)."""
        n = self.S.shape[0]
        da = self.D * self.areas[None, :]
        two_pi = 2.0 * math.pi * np.eye(n)
        lhs = (two_pi - f_eps * da) @ self.S
        return np.linalg.solve(lhs, -f_eps * (two_pi - da))


def assemble_operators(surface: CavitySurface) -> PCMOperators:
    pts = surface.points
    n = surface.n_points
    diff = pts[None, :, :] - pts[:, None, :]          # s_j - s_i
    dist = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, 1.0)
    S = 1.0 / dist
    np.fill_diagonal(S, _SELF_POTENTIAL_FACTOR * np.sqrt(4.0 * math.pi / surface.areas))
    D = np.einsum("jk,ijk->ij", surface.normals, diff) / dist ** 3
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -(2.0 * math.pi + D @ surface.areas) / surface.areas)
    return PCMOperators(S=S, D=D, areas=surface.areas)


def nuclear_surface_potential(surface: CavitySurface, geometry: Geometry) -> np.ndarray:
    """phi^nuc_i = sum_A Z_A / |s_i - R_A|."""
    d = np.linalg.norm(
        surface.points[:, None, :] - geometry.coords[None, :, :], axis=2
    )
    return (geometry.numbers[None, :] / d).sum(axis=1)


@dataclass
class SolventOperator:
    """One-body reaction-field operator and its nuclear interaction energy.

    matrix:  (V_int)_{mu nu} = -sum_i q_i <mu|1/|r-s_i||nu>
    energy:  sum_i q_i sum_A Z_A/|s_i - R_A|
    """

    matrix: np.ndarray
    energy: float


@dataclass
class PCMSolution:
    """Surface charges q, the solute potential phi they answer, and the
    reaction-field operator they exert back on the solute."""

    charges: np.ndarray
    potential: np.ndarray
    operator: SolventOperator

    @property
    def g_pol(self) -> float:
        """Polarization free energy (1/2) sum_i q_i phi_i, hartree."""
        return 0.5 * float(self.charges @ self.potential)


class PCMContext:
    """Everything a solvated calculation reuses across iterations: the cavity,
    the charge response R_f of its dielectric (built here, so every solve is
    one matvec), the ESP integral tensor, and the nuclear surface potential."""

    def __init__(
        self,
        geometry: Geometry,
        basis: AOBasis,
        dielectric: DielectricParams,
        cavity: CavityConfig,
    ):
        self.dielectric = dielectric
        self.surface = cavity_from_geometry(geometry, cavity)
        self.response = assemble_operators(self.surface).response(dielectric.f_eps)
        self.esp = esp_tensor(basis, self.surface.points)
        self.phi_nuc = nuclear_surface_potential(self.surface, geometry)

    def potential(self, density: np.ndarray) -> np.ndarray:
        """phi_i = sum_A Z_A/|s_i - R_A| - sum_{mu nu} P_{mu nu} <mu|1/|r-s_i||nu>."""
        return self.phi_nuc - np.einsum("imn,mn->i", self.esp, density, optimize=True)

    def solve(self, density: np.ndarray) -> PCMSolution:
        """Surface charges of ``density`` (AO basis, nuclei included) and
        their reaction-field operator."""
        phi = self.potential(density)
        q = self.response @ phi
        v = -np.einsum("i,imn->mn", q, self.esp, optimize=True)
        return PCMSolution(q, phi, SolventOperator(v, float(q @ self.phi_nuc)))


def prepare_pcm(
    geometry: Geometry,
    basis: AOBasis,
    dielectric: DielectricParams,
    cavity: CavityConfig | None = None,
) -> PCMContext:
    return PCMContext(geometry, basis, dielectric, cavity or CavityConfig())
