"""The bracket correspondence, certified three ways.

A surface observable f induces F_f(loop, theta) = <f(gamma) theta^2> on the
moduli space of half-weighted level-set loops.  The moduli-space bracket of
two induced observables can be computed by three independent routes:

  matrix       pairing of the two Hamiltonian fields through the assembled
               skew matrix (linear algebra on the constrained tangent space)
  closed_form  a single loop integral of restricted tangential pairings
  target       the correspondence prediction 2 * sigma * F_{{f,g}}

Their agreement to quadrature accuracy is the headline certification; the
orientation sign sigma = -1 relating the pairing route to the prediction is
measured once and frozen.
"""

from bsmoduli import (
    BRACKET_SIGN,
    HalfDensity,
    Loop,
    ModuliPoint,
    ScalarField,
    SymplecticSurface,
    bracket_report,
    measure_bracket_sign,
    project_to_bs,
)

plane = SymplecticSurface.plane()
n = 256

# A level-3 ellipse with a non-uniform weight profile.
loop = project_to_bs(Loop.ellipse(2.0, 0.5, center=(0.5, 0.1), n=n), plane)
theta = HalfDensity.cosine_profile(n, amplitude=0.3)
point = ModuliPoint(plane, loop, theta)

print("frozen orientation sigma =", BRACKET_SIGN)
print("re-measured on a reference instance:", measure_bracket_sign(point))

pairs = [("x", "y"), ("x^2", "y"), ("sin(x)", "y"), ("x*y", "x^2-y^2")]
print(f"\n{'f':8s} {'g':10s} {'matrix':>12s} {'closed':>12s} {'target':>12s} {'spread':>9s}")
for fs, gs in pairs:
    f = ScalarField.from_expression(fs)
    g = ScalarField.from_expression(gs)
    rep = bracket_report(f, g, point)
    print(f"{fs:8s} {gs:10s} {rep['matrix']:12.8f} {rep['closed_form']:12.8f} "
          f"{rep['target']:12.8f} {rep['rel_spread']:9.1e}")

# The correspondence turns Poisson-commuting families on the surface into
# commuting families of induced observables: powers of x^2 + y^2 commute.
powers = [ScalarField.from_expression(t)
          for t in ("x^2+y^2", "(x^2+y^2)^2", "(x^2+y^2)^3")]
print("\ncommuting family (powers of x^2+y^2):")
from bsmoduli import moduli_bracket

for i in range(3):
    for j in range(i + 1, 3):
        val = moduli_bracket(powers[i], powers[j], point)
        print(f"  {{F_(p^{i+1}), F_(p^{j+1})}} = {val:.2e}")

# But the correspondence is not multiplicative: F_{x^2} != (F_x)^2.
from bsmoduli import non_multiplicativity_witness

unit_circle = ModuliPoint(plane, Loop.circle(1.0, n=n), HalfDensity.uniform(n), strict=False)
x = ScalarField.from_expression("x")
product, separate = non_multiplicativity_witness(x, x, unit_circle)
print(f"\nnon-multiplicativity on the unit circle: F_(x*x) = {product:.6f}, "
      f"F_x * F_x = {separate:.2e}")
