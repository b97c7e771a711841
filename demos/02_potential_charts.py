"""Charts from convex potentials and the field-level closure checks."""

import json

import numpy as np

import selfdual.charts as ch

# A quartic potential on an interval. The Hessian is the base metric.
C = ch.PotentialChart(
    ch.PolynomialPotential(1, {(2,): 0.5, (4,): 1.0 / 12.0}),
    [(-0.9, 0.9)])
print("Hessian at 0.3:", ch.hessian_metric(C, [0.3]))
print("det spread over the chart (not Monge-Ampere):",
      round(ch.monge_ampere_residual(C, ch.sample_box(C.domain, 50)), 4))

# The total space carries two pairing fields and the dual field; all
# three are closed, which is the weak self-duality of these charts.
F = ch.build_XY(C)
grid = ch.chart_grid(C, 100, seed=1)
print("closure over", len(grid), "points:")
for check in ch.verify_weak_selfdual(F, grid):
    print(f"  {check['id']}: {check['residual']:.1e} {check['verdict']}")

# Unit fibre volume: the leaf volume times the dual leaf volume is 1.
g = ch.hessian_metric(C, [0.4])
print("fibre volume product:", ch.fibre_volume_product(g))

# Curvature shows up in the covariant derivatives, not the closure.
print("covariant constancy at a point:",
      ["%.3f" % v for v in ch.covariant_constancy(F, grid[0])])

# Charts also load from JSON configs (see demos/charts/).
cfg = json.load(open("demos/charts/lse2d.cfg"))
C2 = ch.chart_from_config(cfg)
print("\nlse2d chart, Hessian at the origin:")
print(np.round(ch.hessian_metric(C2, [0.0, 0.0]), 4))
