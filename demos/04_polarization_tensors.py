"""Polarization tensors by three independent routes.

The point value of the imaging functional is a quadratic form in the
polarization tensor M_z of the trial inclusion. This demo computes M_z for
a ball by closed form, as the spherical special case of the ellipsoid
formula, and by solving the static volume equation on a voxel grid, then
checks the weight -2 h^3 M_z that the imaging maps put on the response.
"""

import numpy as np

from tdscope import (
    Ball,
    SymTensor3,
    mz_ball_iso,
    mz_ellipsoid,
    mz_general,
    voxelize,
)

# Route one: scalar closed form, unit ball, a = 1, beta_z = 1.
pt_ball = mz_ball_iso(1.0, 1.0)
print("ball closed form M_z = pi I:")
print(pt_ball.M_z)

# Route two: tensor ellipsoid formula evaluated at a sphere.
A = SymTensor3.identity()
A_z = SymTensor3.scaled_identity(2.0)
pt_ell = mz_ellipsoid(A, A_z, (1.0, 1.0, 1.0))
print("\nellipsoid route at a sphere, max deviation:",
      np.abs(pt_ell.M_z - pt_ball.M_z).max())

# Route three: voxelized static solve on the same ball.
pt_gen = mz_general(A, A_z, voxelize(Ball(1.0), 1.0 / 6.0))
rel = np.abs(pt_gen.M_z - pt_ball.M_z).max() / np.pi
print("discrete route, relative deviation:", rel)
print("discrete tensor asymmetry:", pt_gen.asymmetry)

# A genuinely anisotropic ellipsoid: M_z follows the geometry.
semi = (1.0, 1.0, 0.6)
pt_flat = mz_ellipsoid(A, A_z, semi)
print("\noblate ellipsoid", semi, "M_z diagonal:", np.diag(pt_flat.M_z))

# The maps weigh the 3x3 response S(z) by -2 h^3 M_z.  For the unit ball,
# a = 1, that is the scalar prefactor -16 pi a q_z / (3 - q_z) h^3 times I.
h3 = (1.0 / 6.0) ** 3
q_z = 1.0 / 3.0  # beta_z / (beta_z + 2) at beta_z = 1
weight = -2.0 * h3 * pt_ball.M_z
scalar = -16.0 * np.pi * 1.0 * q_z / (3.0 - q_z) * h3
print("\nmap weight against the scalar prefactor, relative error:",
      np.abs(weight - scalar * np.eye(3)).max() / abs(scalar))

# Rotation covariance: rotate the ellipsoid axes, M_z conjugates.
th = 0.4
R = np.array([
    [np.cos(th), -np.sin(th), 0.0],
    [np.sin(th), np.cos(th), 0.0],
    [0.0, 0.0, 1.0],
])
pt_rot = mz_ellipsoid(A, A_z, semi, axes=R)
print("rotation covariance error:",
      np.abs(pt_rot.M_z - R @ pt_flat.M_z @ R.T).max())
