"""Volume-integral solver on a voxelized inclusion.

The forward problem is a Lippmann-Schwinger equation for the polarization
density inside the scatterer. This demo voxelizes a ball, assembles the
system at zero frequency where the answers have closed forms, prints the
symmetry blocks the dense solve factors, solves for a uniform incident
gradient, and compares against the Born single pass. It ends with the
resolvent certificate that gates the imaging claims.
"""

import numpy as np

from tdscope import (
    Background,
    Ball,
    assemble,
    born_density,
    iso_contrast,
    operator_norm,
    scattered_field,
    solve_density,
    voxelize,
)

bg = Background.isotropic(a=1.0, kappa=0.0)
grid = voxelize(Ball(0.5), 1.0 / 12.0)
print("voxelized ball: cells =", grid.n_cells, " volume =", grid.volume)

sys = assemble(grid, bg)
c = iso_contrast(1.0, 2.0)

# The dense solve splits the system by the grid's symmetry: a centred ball in
# an isotropic background keeps all 48 signed axis permutations, and one LDL^T
# factor per irreducible block replaces one factor of the 3N-row matrix.
group, blocks = sys.symmetry(c)
print("symmetry:", group)
print("blocks factored:", ", ".join(f"{name} {rows}" for name, rows in blocks),
      f"(3N = {3 * grid.n_cells})")

# Uniform incident gradient along e3. For a coefficient-2 ball the interior
# total gradient is the classical factor 3 a / (2 a + a_tilde) = 0.75.
g = np.zeros((grid.n_cells, 3), dtype=complex)
g[:, 2] = 1.0
dens = solve_density(sys, c, g)
print("solver residual:", dens.residual)
print("interior factor:", dens.values[:, 2].real.mean(), "(expect 0.75)")

# Born single pass versus the full solve: first-order in the contrast.
born = born_density(c, g, grid=grid)
rel = np.linalg.norm(born.values - dens.values) / np.linalg.norm(dens.values)
print("Born single-pass relative error:", rel)

weak = iso_contrast(1.0, 1.02)
dens_w = solve_density(sys, weak, g)
born_w = born_density(weak, g, grid=grid)
rel_w = np.linalg.norm(born_w.values - dens_w.values) / np.linalg.norm(dens_w.values)
print("same with a_tilde = 1.02:", rel_w, "(Born is a weak-contrast story)")

# The moderate-size certificate: |q| times the resolvent kernel norm. The
# sign claim only needs this product below one, far weaker than Born.
nR = operator_norm(sys)
nQR = operator_norm(sys, c)
print("\noperator norm estimates: |R| =", nR, " |q R| =", nQR)
print("moderate regime holds:", nQR < 1.0)

# Scattered field radiated by the solved density, evaluated off the grid.
# (Points on the dipole equator z = 0 would read exactly zero.)
x = np.array([1.2, 0.4, 1.5])
print("\nscattered field at", x, ":", scattered_field(sys, dens, x))
