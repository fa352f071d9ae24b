"""Background Green function and the measurement-surface kernels.

The imaging functional pairs gradients of a reduced Green function G built
from near-field data on a closed sphere. This demo evaluates the free-space
building blocks, then cross-checks G three independent ways: direct surface
quadrature, the mixed second derivative of the scalar kernel L's spherical
harmonic series taken term by term (the addition-theorem factor the maps
use), and the large-radius closed form.
"""

import numpy as np

from tdscope import (
    Background,
    depolarization_factors,
    eshelby_tensor,
    grad_phi,
    hess_phi,
    kernel_G,
    kernel_G_farfield,
    kernel_G_from_L,
    kernel_L,
    kernel_L_series,
    phi,
    sphere_surface,
)

bg = Background.isotropic(a=1.0, kappa=1.0)
r = np.array([0.3, -0.2, 0.5])
print("free-space kernel at r =", r)
print("  phi      =", phi(bg, r))
print("  |grad|   =", np.linalg.norm(grad_phi(bg, r)))
print("  tr hess  =", np.trace(hess_phi(bg, r)))

# Static geometry factors for ellipsoids.
print("\ndepolarization factors")
print("  ball          :", depolarization_factors((1.0, 1.0, 1.0)))
print("  prolate (2a)  :", depolarization_factors((1.0, 1.0, 2.0)))
print("  eshelby (ball):", np.diag(eshelby_tensor(bg)))

# The reduced kernel G on a measurement sphere of radius 5.
surf = sphere_surface(5.0, 30)
z = np.array([1.5, -1.0, 2.0])
y = np.array([-2.0, 0.4, 0.8])

G_quad = kernel_G(surf, bg, z, y)
print("\nG(z, y) by surface quadrature, Frobenius:", np.linalg.norm(G_quad))
print("largest imaginary part:", np.abs(G_quad.imag).max(), "(real by reciprocity)")

# Route two: scalar kernel L, by series and by quadrature; G is its mixed
# second derivative, differentiated analytically term by term.
L_series = kernel_L_series(5.0, bg.kappa, z, y)
L_quad = kernel_L(surf, bg, z, y)
print("\nL series vs quadrature:", abs(L_series - L_quad))

G_diff = kernel_G_from_L(5.0, bg.kappa, z, y)
print("G from d2 L (series) vs quadrature:", np.abs(G_diff - G_quad).max())

# Route three: the far-pattern overlap limit for a large sphere.
kappa = 1.0
R_far = 500.0 / kappa
surf_far = sphere_surface(R_far, 40)
G_far_quad = kernel_G(surf_far, bg, z, y)
G_far_closed = kernel_G_farfield(kappa, z, y)
rel = np.linalg.norm(G_far_quad - G_far_closed) / np.linalg.norm(G_far_closed)
print("far-field closed form at kappa R = 500, relative:", rel)
