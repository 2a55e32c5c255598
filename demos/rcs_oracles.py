#!/usr/bin/env python3
"""Checks the facet-summation scattering model against closed-form cross
sections.

Two textbook monostatic results anchor the physical-optics implementation:
a square PEC plate at normal incidence (sigma = 4 pi A^2 / lambda^2) and a
finite PEC cylinder at broadside (sigma = 2 pi r h^2 / lambda).  Both are
reproduced by summing half-wavelength facets; halving the facet size shows
the discretization is converged.

Usage: python3 demos/rcs_oracles.py
"""

import math

import numpy as np

from railchan.em import CarrierConfig
from railchan.scatter import mesh_cylinder, mesh_plate, po_scattered_matrix
from railchan.scene import CylinderScatterer

carrier = CarrierConfig(1.9e9)
lam = carrier.wavelength


def rcs(t_entry, r_i, r_s):
    return abs(t_entry) ** 2 * (4.0 * math.pi) ** 3 * r_i**2 * r_s**2 / lam**2


def db(x):
    return 10.0 * math.log10(x)


print(f"carrier 1.9 GHz, wavelength {lam * 100:.2f} cm\n")

side = 10.0 * lam
sigma_ref = 4.0 * math.pi * (side * side) ** 2 / lam**2
print(f"square plate, {side / lam:.0f} lambda on a side, closed form {db(sigma_ref):.2f} dBsm")
for frac, label in ((2.0, "lambda/2"), (4.0, "lambda/4")):
    mesh = mesh_plate(
        center=np.zeros(3),
        normal=np.array([1.0, 0.0, 0.0]),
        tan_u=np.array([0.0, 1.0, 0.0]),
        width=side,
        height=side,
        max_edge=lam / frac,
    )
    antenna = np.array([100.0, 0.0, 0.0])
    t = po_scattered_matrix(mesh, antenna, antenna, carrier)
    sigma = rcs(t[0, 0], 100.0, 100.0)
    print(f"  {label:<9} mesh ({len(mesh.centers):>5} facets): {db(sigma):.2f} dBsm  (err {db(sigma) - db(sigma_ref):+.3f} dB)")

cyl = CylinderScatterer(id=1, base_center=np.zeros(3), radius=0.375, height=8.2)
sigma_ref = 2.0 * math.pi * cyl.radius * cyl.height**2 / lam
print(f"\ncatenary pylon, r = {cyl.radius} m, h = {cyl.height} m, closed form {db(sigma_ref):.2f} dBsm")
mesh = mesh_cylinder(cyl, carrier)
obs = np.array([1000.0, 0.0, 0.5 * cyl.height])
t = po_scattered_matrix(mesh, obs, obs, carrier)
sigma = rcs(t[0, 0], 1000.0, 1000.0)
print(f"  broadside at 1 km ({len(mesh.centers)} facets): {db(sigma):.2f} dBsm  (err {db(sigma) - db(sigma_ref):+.3f} dB)")
print("\nonly the lit half of the cylinder contributes; the plate needs the")
print("far-field range to be past 2 D^2 / lambda for the closed form to hold.")
