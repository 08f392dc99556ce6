# Deforming the sphere kernels of Gamma(a, b) along a boundary ray
#
# Fix the geodesic ray through the all-(1,1) step words and let d_B(v) be
# the horocycle index of a vertex v relative to that ray.  Tilting the
# uniform sphere kernels by exp(c * (d_B(y) - d_B(x))) and renormalizing by
# P_h(x_c) keeps them a compatible kernel family -- the same hypergroup
# composition law, but evaluated at a shifted spectral point x_c > s1.

import math

import numpy as np

import hyperscheme as hs

params = hs.DTParams(3, 2)
ball = hs.build_ball(params, 6)
ray = hs.BoundaryRay(ball)

# The horocycle index: 0 at the root, -k along the ray, +1 for the root's
# neighbors that leave the ray, and 1-Lipschitz along every edge.
print("horocycle at root:", ray.horocycle[ball.root])
print("along the ray:",
      [int(ray.horocycle[ball.find(((1, 1),) * k)]) for k in range(1, 7)])
print("off-ray neighbor (2,1):", int(ray.horocycle[ball.find(((2, 1),))]))

# Deform with c = 0.3.  Rows remain stochastic and the family still
# composes: K_i K_j = sum_h g~(i, j; h) K_h with the deformed coefficients.
c = 0.3
dk = hs.deform_ball_kernels(ball, ray, c)
print(f"\nc = {c}: x_c = {dk.x_c:.6f}  (s1 = {hs.special_points(params)[1]:.6f})")
print("max row-sum error:", dk.max_row_sum_error)
print("composition residual K_1 K_2:", dk.composition_residual(1, 2))

# The deformed hypergroup: conv coefficients are rescaled by the
# semicharacter alpha0(h) = P_h(x_c), and Haar becomes alpha0^2 * haar.
hg = hs.PolyHypergroup(params)
dhg = hg.deform(dk.x_c)
print("\ng~(1, 1):", {k: float(v) for k, v in dhg.g(1, 1).items()})
for n in range(4):
    print(f"deformed haar({n}) = {dhg.haar(n):.6f}"
          f"  = alpha0^2 * haar = {dhg.alpha0(n) ** 2 * hg.haar(n):.6f}")

# Unlike the group case, the deformed one-step pushforward of the walk does
# NOT match the deformed Haar measure: the two closed forms separate as soon
# as c != 0.
for cc in (0.0, 0.3, -0.5 * math.log(2)):
    pf1, haar1 = hs.pushforward_vs_haar(params, cc)
    print(f"c = {cc:+.4f}: pushforward(1) = {pf1:.6f}"
          f"   deformed haar(1) = {haar1:.6f}")

# For b > 2 the nearest-point projection onto the ray is not unique, so the
# horocycle index is ill-defined; construction refuses rather than guesses.
try:
    hs.BoundaryRay(hs.build_ball(hs.DTParams(2, 3), 2))
except hs.NonUniqueMinimizer as exc:
    print("\nb = 3 ray rejected:", exc)
