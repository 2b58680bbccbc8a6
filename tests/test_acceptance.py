"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s` or in
the captured output of a failing run) and then asserts, so the suite both
reports and gates.  Run it alone with:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
from bsmoduli import (
    HalfDensity,
    Loop,
    ModuliPoint,
    ScalarField,
    SymplecticSurface,
    bracket_report,
    bs_defect,
    compatibility_residuals,
    dOmega_check,
    evaluate_F,
    exact_flow,
    field_A,
    flat,
    flow_classical,
    flow_moduli,
    hamiltonian_field_H,
    integrate_density,
    is_stationary_cycle,
    loop_derivative,
    measure_kappa,
    moduli_bracket,
    non_multiplicativity_witness,
    omega,
    omega_matrix,
    oneform_B,
    project_tangent,
    project_to_bs,
    restriction_identity_residual,
    schrodinger_flow_rk4,
)
from bsmoduli import TangentVector
from bsmoduli.quantum import HermitianObservable, StateVector, projective_critical_check

PLANE = SymplecticSurface.plane()


def expr(text):
    return ScalarField.from_expression(text)


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def acceptance_loops(n):
    """The three level-set loops of the certification suite."""
    circle = Loop.circle(np.sqrt(1 / np.pi), center=(0.3, -0.2), n=n)
    ellipse = project_to_bs(Loop.ellipse(2.0, 0.5, center=(0.5, 0.1), n=n), PLANE)
    perturbed = project_to_bs(
        Loop.perturbed_circle(1.0, center=(-0.4, 0.25), n=n,
                              harmonics=[(2, 0.12, 0.0), (3, 0.0, 0.08)]),
        PLANE,
    )
    return {"circle": circle, "ellipse": ellipse, "perturbed": perturbed}


FIELD_PAIRS = [
    ("x", "y"),
    ("x^2", "y"),
    ("x", "x^2+y^2"),
    ("sin(x)", "y"),
    ("x*y", "x^2-y^2"),
]


def test_criterion_01_bracket_three_way_agreement():
    n = 512
    started = time.perf_counter()
    worst = 0.0
    loops = acceptance_loops(n)
    densities = {"uniform": HalfDensity.uniform(n), "cosine": HalfDensity.cosine_profile(n)}
    for loop in loops.values():
        for theta in densities.values():
            point = ModuliPoint(PLANE, loop, theta)
            for fs, gs in FIELD_PAIRS:
                rep = bracket_report(expr(fs), expr(gs), point)
                worst = max(worst, rep["rel_spread"])
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed <= 60.0
    report(1, ok, f"three-way bracket spread {worst:.3e} <= 1e-6 over 30 instances "
                  f"(N=512, {elapsed:.1f}s <= 60s)")
    assert worst <= 1e-6
    assert elapsed <= 60.0


def test_criterion_02_restriction_and_compatibility_identities():
    n = 256
    loops = acceptance_loops(n)
    pairs = [("sin(x)", "y"), ("x*y", "x^2-y^2"), ("x^2", "sin(x)")]
    worst_restriction = 0.0
    worst_compat = 0.0
    for loop in loops.values():
        for fs, gs in pairs:
            f, g = expr(fs), expr(gs)
            res = restriction_identity_residual(f, g, loop, PLANE)
            worst_restriction = max(worst_restriction, float(np.max(np.abs(res))))
            c1, c2 = compatibility_residuals(f, g, loop, PLANE)
            worst_compat = max(worst_compat, float(np.max(np.abs(c1))), float(np.max(np.abs(c2))))
    ok = worst_restriction <= 1e-8 and worst_compat <= 1e-12
    report(2, ok, f"restriction residual {worst_restriction:.3e} <= 1e-8 (N=256), "
                  f"split-compatibility {worst_compat:.3e} <= 1e-12")
    assert worst_restriction <= 1e-8
    assert worst_compat <= 1e-12


def test_criterion_03_duality_and_decomposition():
    n = 128
    rng = np.random.default_rng(42)
    loops = acceptance_loops(n)
    point = ModuliPoint(PLANE, loops["ellipse"], HalfDensity.cosine_profile(n))
    worst_duality = 0.0
    worst_split = 0.0
    for fs in ("x", "x^2", "sin(x)", "x*y"):
        f = expr(fs)
        a = field_A(f, point)
        ell = flat(point, a)
        for _ in range(50):
            probe = project_tangent(rng.standard_normal(n), rng.standard_normal(n), point)
            worst_duality = max(worst_duality, abs(ell(probe) - oneform_B(f, point, probe)))
        h = hamiltonian_field_H(f, point)
        worst_split = max(worst_split, float(np.max(np.abs(h.fvec - 2.0 * a.fvec))))
    ok = worst_duality <= 1e-10 and worst_split <= 1e-10
    report(3, ok, f"one-form duality {worst_duality:.3e} <= 1e-10 over 50-probe basis, "
                  f"H function part vs 2A {worst_split:.3e} <= 1e-10")
    assert worst_duality <= 1e-10
    assert worst_split <= 1e-10


def test_criterion_04_pairing_structure():
    n = 32
    loop = Loop.circle(np.sqrt(1 / np.pi), center=(0.2, 0.1), n=n)
    antisym = 0.0
    blocks = 0.0
    min_sv = np.inf
    for theta in (HalfDensity.uniform(n), HalfDensity.cosine_profile(n)):
        point = ModuliPoint(PLANE, loop, theta)
        om = omega_matrix(point)
        mat = om.matrix
        m = n - 1
        antisym = max(antisym, float(np.max(np.abs(mat + mat.T))))
        blocks = max(blocks, float(np.max(np.abs(mat[:m, :m]))), float(np.max(np.abs(mat[m:, m:]))))
        min_sv = min(min_sv, float(om.singular_values().min()))
    point = ModuliPoint(PLANE, loop, HalfDensity.cosine_profile(n))
    s = np.arange(n) / n
    u = TangentVector(np.sin(2 * np.pi * s), np.cos(2 * np.pi * s))
    v = TangentVector(np.cos(2 * np.pi * s), 0.4 * np.sin(4 * np.pi * s))
    w = TangentVector(0.7 * np.sin(4 * np.pi * s), -0.2 * np.cos(2 * np.pi * s))
    coarse = abs(dOmega_check(point, u, v, w, step=1e-3))
    fine = abs(dOmega_check(point, u, v, w, step=5e-4))
    closed_order = np.log2(coarse / fine) if fine > 0 else np.inf
    ok = antisym <= 1e-13 and blocks == 0.0 and min_sv > 1e-6 and closed_order >= 1.0
    report(4, ok, f"antisymmetry {antisym:.2e} <= 1e-13, diagonal blocks exactly zero, "
                  f"min singular value {min_sv:.3f} > 1e-6 (N=32), "
                  f"closedness order {closed_order:.2f} >= 1")
    assert antisym <= 1e-13
    assert blocks == 0.0
    assert min_sv > 1e-6
    assert closed_order >= 1.0


def test_criterion_05_gauge_invariances():
    n = 128
    rng = np.random.default_rng(7)
    point = ModuliPoint(PLANE, acceptance_loops(n)["perturbed"], HalfDensity.cosine_profile(n))
    f, g = expr("x^2+y^2"), expr("x")

    shift_change = 0.0
    for _ in range(10):
        v1 = project_tangent(rng.standard_normal(n), rng.standard_normal(n), point)
        v2 = project_tangent(rng.standard_normal(n), rng.standard_normal(n), point)
        shifted = TangentVector(v1.fvec + 3.3, v1.tvec)
        shift_change = max(shift_change, abs(omega(point, shifted, v2) - omega(point, v1, v2)))

    k = 41
    rolled = point.rolled(k)
    rotation_change = max(
        abs(evaluate_F(f, point) - evaluate_F(f, rolled)),
        abs(moduli_bracket(f, g, point, "matrix") - moduli_bracket(f, g, rolled, "matrix")),
        abs(bs_defect(point.loop, PLANE) - bs_defect(rolled.loop, PLANE)),
    )

    def zeros(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    gauges = [
        SymplecticSurface.plane(),
        SymplecticSurface.plane(potential=(zeros, lambda x, y: np.asarray(x, dtype=float))),
        SymplecticSurface.plane(potential=(lambda x, y: -np.asarray(y, dtype=float), zeros)),
    ]
    defects = [bs_defect(point.loop, surface) for surface in gauges]
    alpha_change = max(defects) - min(defects)

    ok = shift_change <= 1e-12 and rotation_change <= 1e-12 and alpha_change <= 1e-12
    report(5, ok, f"constant-shift pairing change {shift_change:.2e}, index-rotation change "
                  f"{rotation_change:.2e}, potential-gauge defect spread {alpha_change:.2e}, "
                  f"all <= 1e-12")
    assert shift_change <= 1e-12
    assert rotation_change <= 1e-12
    assert alpha_change <= 1e-12


def test_criterion_06_stationary_cycles():
    n = 128
    f = expr("x^2+y^2")
    centered = ModuliPoint(PLANE, Loop.circle(np.sqrt(1 / np.pi), n=n), HalfDensity.uniform(n))
    translated = ModuliPoint(
        PLANE, Loop.circle(np.sqrt(1 / np.pi), center=(0.5, -0.3), n=n), HalfDensity.uniform(n)
    )
    a_norm = field_A(f, centered).norm()
    ok = (
        a_norm <= 1e-12
        and is_stationary_cycle(f, centered)
        and not is_stationary_cycle(f, translated)
    )
    report(6, ok, f"centered circle: |A| = {a_norm:.2e} <= 1e-12 and detected stationary; "
                  f"translated circle detected non-stationary")
    assert a_norm <= 1e-12
    assert is_stationary_cycle(f, centered)
    assert not is_stationary_cycle(f, translated)


def test_criterion_07_commuting_family_and_non_multiplicativity():
    n = 256
    point = ModuliPoint(PLANE, acceptance_loops(n)["ellipse"], HalfDensity.cosine_profile(n))
    powers = [expr("x^2+y^2"), expr("(x^2+y^2)^2"), expr("(x^2+y^2)^3")]
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            worst = max(worst, abs(moduli_bracket(powers[i], powers[j], point)))

    unit_circle = ModuliPoint(PLANE, Loop.circle(1.0, n=n), HalfDensity.uniform(n), strict=False)
    product, separate = non_multiplicativity_witness(expr("x"), expr("x"), unit_circle)
    witness_err = max(abs(product - 0.5), abs(separate))
    ok = worst <= 3e-8 and witness_err <= 1e-12 and abs(product - separate) > 0.01
    report(7, ok, f"commuting-family brackets {worst:.2e} <= 3e-8; witness "
                  f"(F_xx, F_x^2) = ({product:.12f}, {separate:.2e}) vs (1/2, 0) to 1e-12")
    assert worst <= 3e-8
    assert witness_err <= 1e-12
    assert abs(product - separate) > 0.01


def test_criterion_08_scale_factor():
    n = 128
    point = ModuliPoint(PLANE, acceptance_loops(n)["circle"], HalfDensity.cosine_profile(n))
    f, g = expr("x"), expr("x^2+y^2")
    base = moduli_bracket(f, g, point)
    scaled = moduli_bracket(2.0 * f, 2.0 * g, point)
    rel = abs(scaled / base - 4.0)
    ok = rel <= 1e-9
    report(8, ok, f"doubling both fields scales the bracket by 4 (relative error {rel:.2e} <= 1e-9)")
    assert rel <= 1e-9


def test_criterion_09_flows():
    # classical: harmonic radius conservation
    f_cl = expr("(x^2+y^2)/2")
    traj = flow_classical(f_cl, PLANE, (1.0, 0.0), 10.0, 1e-3)
    radius_drift = float(np.max(np.abs(np.linalg.norm(traj.points, axis=1) - 1.0)))

    # moduli: self-conservation order under step halving
    n = 64
    p0 = ModuliPoint(
        PLANE, project_to_bs(Loop.ellipse(1.3, 0.8, n=n), PLANE), HalfDensity.cosine_profile(n)
    )
    f = expr("x^2+y^2")
    drifts = []
    for h in (8e-3, 4e-3, 2e-3):
        t = flow_moduli(f, p0, 0.08, h)
        drifts.append(np.max(np.abs(t.observable_values - t.observable_values[0])))
    orders = np.log2(np.array(drifts[:-1]) / np.array(drifts[1:]))
    conservation_order = float(np.min(orders))

    # moduli: conservation of a commuting observable at the pinned resolution
    n = 128
    p0 = ModuliPoint(
        PLANE, project_to_bs(Loop.ellipse(1.3, 0.8, n=n), PLANE), HalfDensity.cosine_profile(n)
    )
    g = expr("(x^2+y^2)^2")
    t = flow_moduli(f, p0, 1.0, 1e-3, snapshot_every=100)
    g_values = np.array([evaluate_F(g, snap) for _, snap in t.snapshots])
    commuting_drift = float(np.max(np.abs(g_values - g_values[0])))

    ok = radius_drift < 1e-10 and conservation_order >= 3.5 and commuting_drift < 1e-6
    report(9, ok, f"classical radius drift {radius_drift:.2e} < 1e-10 (T=10, h=1e-3); "
                  f"moduli conservation order {conservation_order:.2f} >= 3.5; commuting "
                  f"observable drift {commuting_drift:.2e} < 1e-6 (T=1, h=1e-3, N=128)")
    assert radius_drift < 1e-10
    assert conservation_order >= 3.5
    assert commuting_drift < 1e-6


def test_criterion_10_quantum_reference_suite():
    rng = np.random.default_rng(2024)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ham = HermitianObservable((raw + raw.conj().T) / 2)
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = StateVector(vec / np.linalg.norm(vec))
    flow_err = float(np.max(np.abs(
        schrodinger_flow_rk4(ham, psi, 1.0, 1e-3).amplitudes
        - exact_flow(ham, psi, 1.0).amplitudes
    )))

    worst_res = 0.0
    worst_val = 0.0
    vals, vecs = np.linalg.eigh(ham.matrix)
    for k in range(4):
        res, verr = projective_critical_check(ham, vecs[:, k], vals[k])
        worst_res = max(worst_res, res)
        worst_val = max(worst_val, verr)

    kappa_mean, kappa_dev = measure_kappa(n=4, instances=100, seed=5)
    kappa_rel = kappa_dev / abs(kappa_mean)

    ok = flow_err < 1e-8 and worst_res < 1e-10 and worst_val < 1e-10 and kappa_rel < 1e-10
    report(10, ok, f"flow vs exponential {flow_err:.2e} < 1e-8 (n=4, t=1, h=1e-3); "
                   f"critical residual {worst_res:.2e} < 1e-10, value error {worst_val:.2e} < 1e-10; "
                   f"kappa stability {kappa_rel:.2e} < 1e-10 over 100 instances")
    assert flow_err < 1e-8
    assert worst_res < 1e-10
    assert worst_val < 1e-10
    assert kappa_rel < 1e-10


def test_criterion_11_spectral_convergence():
    def derivative_error(n, analytic):
        s = np.arange(n) / n
        if analytic:
            u = 1.0 / (1.3 + np.sin(2 * np.pi * s))
            exact = -2 * np.pi * np.cos(2 * np.pi * s) / (1.3 + np.sin(2 * np.pi * s)) ** 2
        else:
            u = np.sin(2 * np.pi * s)
            exact = 2 * np.pi * np.cos(2 * np.pi * s)
        return float(np.max(np.abs(loop_derivative(u) - exact)))

    def quadrature_error(n):
        s = np.arange(n) / n
        u = 1.0 / (1.3 + np.sin(2 * np.pi * s))
        return float(abs(integrate_density(u) - 1.0 / np.sqrt(1.3**2 - 1.0)))

    floor = 1e-12
    band_limited = derivative_error(64, analytic=False)
    e64 = derivative_error(64, analytic=True)
    e128 = derivative_error(128, analytic=True)
    q64 = quadrature_error(64)
    q128 = quadrature_error(128)
    deriv_super = (e128 / e64 < 1e-3) or (e64 < floor and e128 < floor)
    quad_super = (q64 < floor and q128 < floor) or (q128 / q64 < 1e-3)

    ok = band_limited <= floor and deriv_super and quad_super
    report(11, ok, f"band-limited derivative error {band_limited:.2e} <= 1e-12 at N=64; "
                   f"analytic derivative ratio e(128)/e(64) = {e128/e64:.2e} < 1e-3; "
                   f"analytic quadrature at floor ({q64:.2e}, {q128:.2e})")
    assert band_limited <= floor
    assert deriv_super
    assert quad_super


def test_criterion_12_cross_level_pushforward():
    # sigma = -1 and the factor 2 as dynamics: the moduli flow of F_f to time t
    # carries (loop, theta^2 ds) to its pushforward under the classical flow of
    # f to time -2t, so F_g(moduli state) = <g(phi_{-2t}(gamma0)) theta0^2>
    n, t = 128, 0.1
    loop = project_to_bs(Loop.ellipse(1.3, 0.8, n=n, angle=0.4), PLANE)
    densities = [HalfDensity.uniform(n), HalfDensity.cosine_profile(n, 0.3, 2)]
    probes = [expr(text) for text in ("x", "y", "x^2", "x*y", "y^3", "sin(x)")]
    moduli_steps = (5e-3, 2.5e-3, 1.25e-3)
    classical_steps = (-4e-4, -2e-4, -2.5e-5)
    started = time.perf_counter()

    def pushed(points, theta):
        return np.array([integrate_density(g(points[:, 0], points[:, 1]) * theta.values**2)
                         for g in probes])

    def defect(moduli_values, points, theta):
        return float(np.max(np.abs(moduli_values - pushed(points, theta))))

    finest, miss = 0.0, np.inf
    moduli_orders, classical_orders = [], []
    for text in ("x*y+0.3*x^2", "sin(0.9*x)+0.8*y^2"):
        f = expr(text)
        # one batched classical run per step serves both densities
        pushforward = {hc: flow_classical(f, PLANE, loop.points, 2 * t, hc).final()
                       for hc in classical_steps}
        wrong_times = [flow_classical(f, PLANE, loop.points, 2 * t, 4e-4).final(),
                       flow_classical(f, PLANE, loop.points, t, -4e-4).final()]
        for theta in densities:
            p0 = ModuliPoint(PLANE, loop, theta)
            moduli = {}
            for h in moduli_steps:
                final = flow_moduli(f, p0, t, h, snapshot_every=round(t / h)).final()
                moduli[h] = np.array([evaluate_F(g, final) for g in probes])
            fine_h, fine_hc = moduli_steps[-1], classical_steps[-1]
            finest = max(finest, defect(moduli[fine_h], pushforward[fine_hc], theta))
            moduli_orders.append(np.log2(
                defect(moduli[moduli_steps[0]], pushforward[fine_hc], theta)
                / defect(moduli[moduli_steps[1]], pushforward[fine_hc], theta)))
            classical_orders.append(np.log2(
                defect(moduli[fine_h], pushforward[classical_steps[0]], theta)
                / defect(moduli[fine_h], pushforward[classical_steps[1]], theta)))
            miss = min([miss] + [defect(moduli[fine_h], pts, theta) for pts in wrong_times])
    elapsed = time.perf_counter() - started
    moduli_order, classical_order = min(moduli_orders), min(classical_orders)

    ok = finest <= 1e-9 and moduli_order >= 3.5 and classical_order >= 1.8 and miss >= 1e-2
    report(12, ok, f"pushforward defect {finest:.2e} <= 1e-9 (moduli h=1.25e-3, classical "
                   f"h=-2.5e-5, N=128, 2 fields x 2 densities); moduli order {moduli_order:.2f} "
                   f">= 3.5, classical order {classical_order:.2f} >= 1.8; +2t and -t candidates "
                   f"miss by {miss:.3f} >= 1e-2 ({elapsed:.1f}s)")
    assert finest <= 1e-9
    assert moduli_order >= 3.5
    assert classical_order >= 1.8
    assert miss >= 1e-2


ENCLOSURE_SLACK = 4.0


def enclosure_excess(om):
    """How far numpy's SVD of K lies outside [min|theta0|, max|theta0|], in N eps max|theta0|.

    K's assembly and its SVD each carry roundoff of a modest multiple of
    N eps |K|, with |K| <= max|theta0|, so each end gets that absolute slack:
    a value <= ENCLOSURE_SLACK is inside the enclosure.  An orthogonal K
    (uniform theta0 at N = 512) comes out at about 1.
    """
    sigma = om.singular_values()
    unit = om.n * np.finfo(float).eps * om.sigma_upper_bound
    return max((om.sigma_lower_bound - sigma.min()) / unit,
               (sigma.max() - om.sigma_upper_bound) / unit)


def random_weights(rng, count):
    """Random theta0 at N = 16...128, alternately sign-definite and sign-changing.

    One grid value is set to a magnitude 10^u, u uniform in [-6, -1], so
    min|theta0| reaches down to 1e-6.
    """
    for i in range(count):
        n = int(rng.choice([16, 32, 64, 128]))
        s = np.arange(n) / n
        modes = sum(rng.standard_normal() * np.cos(2 * np.pi * k * s + rng.uniform(0, 2 * np.pi))
                    for k in range(1, int(rng.integers(1, 5)) + 1))
        if i % 2 == 0:
            values = 1.0 + 0.9 * modes / np.max(np.abs(modes))
        else:
            values = 0.3 + modes
        j = int(np.argmin(np.abs(values)))
        values[j] = np.copysign(10.0 ** rng.uniform(-6, -1), values[j])
        yield n, HalfDensity(values).normalized()


def test_criterion_13_pairing_enclosure():
    # min|theta0| <= sigma_min(K) <= sigma_max(K) <= max|theta0| (moduli.OmegaMatrix),
    # graded against numpy's SVD as the independent oracle
    worst_shipped = 0.0
    for loop in acceptance_loops(512).values():
        for theta in (HalfDensity.uniform(512), HalfDensity.cosine_profile(512)):
            worst_shipped = max(worst_shipped,
                                enclosure_excess(omega_matrix(ModuliPoint(PLANE, loop, theta))))
    rng = np.random.default_rng(13)
    worst_random = 0.0
    floors = []
    sign_changing = 0
    for n, theta in random_weights(rng, 240):
        om = omega_matrix(ModuliPoint(PLANE, Loop.circle(np.sqrt(1 / np.pi), n=n), theta))
        worst_random = max(worst_random, enclosure_excess(om))
        floors.append(om.sigma_lower_bound)
        sign_changing += bool(np.any(theta.values < 0))
    n = 64
    grid_zero = omega_matrix(ModuliPoint(PLANE, Loop.circle(np.sqrt(1 / np.pi), n=n),
                                         HalfDensity.cosine_profile(n, 1.0, 1)))
    control = float(grid_zero.singular_values().min())
    control_floor = n * np.finfo(float).eps * grid_zero.sigma_upper_bound
    ok = (max(worst_shipped, worst_random) <= ENCLOSURE_SLACK and min(floors) <= 1e-5
          and sign_changing >= 100 and grid_zero.sigma_lower_bound == 0.0
          and control <= control_floor)
    report(13, ok, f"SVD outside [min|theta0|, max|theta0|] by {worst_shipped:.3f} (N=512, "
                   f"6 instances) and {worst_random:.3f} (240 random theta0, N=16..128, "
                   f"{sign_changing} sign-changing, min|theta0| down to {min(floors):.1e}) "
                   f"<= {ENCLOSURE_SLACK:g} N eps max|theta0|; grid-zero control sigma_min "
                   f"{control:.1e} <= {control_floor:.1e}")
    assert worst_shipped <= ENCLOSURE_SLACK
    assert worst_random <= ENCLOSURE_SLACK
    assert min(floors) <= 1e-5
    assert sign_changing >= 100
    assert grid_zero.sigma_lower_bound == 0.0
    assert control <= control_floor
