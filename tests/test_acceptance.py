"""Acceptance criteria, one test per numbered criterion.

Each test prints one ``ACCEPTANCE <n>: PASS/FAIL`` line with the measured
values and the tolerance they were held to. Criterion 5's 2D spectral-radius
clause is asserted as written and marked strict-xfail: the claimed optimizer
(zero free component) is not the spectral-radius minimizer, since any
compatible matrix has spectral radius >= |sigma nu| = 1, attained only by
balancing the trace (free component = -cos theta). The true optimum is
tested in test_optimal_bc.py.
"""

import math
import time

import numpy as np
import pytest

from trace_bounds import (
    geometry as G,
    laplace as L,
    ld_trace as LD,
    matnorm as M,
    optimal_bc as O,
    sobolev_trace as S,
)
from trace_bounds.cli import ld_battery_fields, w11_battery_fields
from trace_bounds.geometry import Field

from ld_oracles import rigid_field, rigid_projection_2d, virtual_work, virtual_work_residual

NECK_EXPR = ("min(min((x-1.1)^2+y^2-1,(x+1.1)^2+y^2-1),"
             "max(x^2-1.21,y^2-0.015625))")


def check(lines, name, ok, detail):
    lines.append((name, bool(ok), detail))


def finish(criterion, lines):
    ok = all(passed for _, passed, _ in lines)
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    for name, passed, detail in lines:
        print(f"  [{'ok' if passed else 'FAIL'}] {name}: {detail}")
    for name, passed, detail in lines:
        assert passed, f"{criterion}/{name}: {detail}"


@pytest.fixture(scope="module")
def ball_fine():
    return G.build_domain(G.DomainSpec.ball(1.0, 0.05))


@pytest.fixture(scope="module")
def neck():
    return G.build_domain(G.DomainSpec.levelset(NECK_EXPR, 0.025, 2, (-2.3, 2.3)))


def test_criterion_1_sobolev_constants():
    lines = []
    t0 = time.monotonic()
    disk = G.build_domain(G.DomainSpec.disk(1.0, 0.02))
    B_disk = S.harmonic_normal_field(disk).sup_div_boundary
    dt_disk = time.monotonic() - t0
    check(lines, "disk_B", abs(B_disk - 2.0) <= 0.02 * 2.0,
          f"B = {B_disk:.6f}, target 2 within 2% at h=0.02")
    check(lines, "disk_runtime", dt_disk < 30.0, f"{dt_disk:.1f}s < 30s")

    t0 = time.monotonic()
    ball = G.build_domain(G.DomainSpec.ball(1.0, 0.1))
    B_ball = S.harmonic_normal_field(ball).sup_div_boundary
    dt_ball = time.monotonic() - t0
    check(lines, "ball_B", abs(B_ball - 3.0) <= 0.05 * 3.0,
          f"B = {B_ball:.6f}, target 3 within 5% at h=0.1")
    check(lines, "ball_runtime", dt_ball < 300.0, f"{dt_ball:.1f}s < 5min")
    finish(1, lines)


def test_criterion_2_iso_bound_consistency(disk, ball, ellipse, annulus, neck):
    lines = []
    for name, dom in (("disk", disk), ("ball", ball),
                      ("ellipse", ellipse), ("annulus", annulus)):
        B = S.harmonic_normal_field(dom).sup_div_boundary
        iso_bound = dom.area / dom.volume
        check(lines, f"{name}_B_above_isoperimetric", B >= iso_bound * 0.98,
              f"B = {B:.4f} >= |bnd|/|Omega| = {iso_bound:.4f} (2% equality slack)")
    # the neck has four re-entrant corners, so its continuum B is infinite:
    # this B is the corner-driven grid value, 10.5104 at h 0.05 and 12.3971
    # at h 0.025 (the fixture's), and at h 0.0125 harmonic_normal_field
    # raises CheckError ("divergence sup 21.96 not attained on the
    # boundary"). The clause holds for the grid value, not a continuum one.
    B = S.harmonic_normal_field(neck).sup_div_boundary
    iso_bound = neck.area / neck.volume
    check(lines, "neck_strict_gap", B >= 1.25 * iso_bound,
          f"B = {B:.4f} >= 1.25 * {iso_bound:.4f} on the two-disk neck domain")
    finish(2, lines)


def test_criterion_3_w11_trace_battery(disk, ellipse):
    lines = []
    B_disk = S.harmonic_normal_field(disk).sup_div_boundary
    disk_fields = dict(w11_battery_fields(disk))
    five = ["constant", "linear_x", "cubic_x3", "radial_bump", "boundary_layer"]
    for name in five:
        rep = S.verify_trace_inequality(disk, disk_fields[name], B=B_disk)
        check(lines, f"disk_{name}", rep.slack >= -rep.eps_disc,
              f"slack {rep.slack:.4f} >= -eps_disc {-rep.eps_disc:.4f} (h=0.02)")
    rep = S.verify_trace_inequality(disk, disk_fields["constant"], B=B_disk)
    check(lines, "disk_constant_equality", abs(rep.slack) <= 0.02 * rep.lhs,
          f"|slack| = {abs(rep.slack):.4f} <= 2% of lhs = {0.02 * rep.lhs:.4f}")

    B_ell = S.harmonic_normal_field(ellipse).sup_div_boundary
    for name, fn in (("constant", lambda p: np.ones(p.shape[0])),
                     ("linear_x", lambda p: p[:, 0]),
                     ("sign_changing", lambda p: p[:, 0]**2 - p[:, 1]**2)):
        rep = S.verify_trace_inequality(
            ellipse, Field.from_function(ellipse, fn), B=B_ell)
        check(lines, f"ellipse_{name}", rep.slack >= -rep.eps_disc,
              f"slack {rep.slack:.4f} >= -eps_disc {-rep.eps_disc:.4f} (h=0.02)")
    finish(3, lines)


def test_criterion_4_matrix_norm_relations():
    lines = []
    for n in (2, 3):
        try:
            rows = M.verify_equivalence_constants(n, 10000, seed=20240401)
            ok, msg = True, f"0 violations over 10^4 seeded samples (n={n})"
        except G.CheckError as exc:
            ok, msg = False, str(exc)
        check(lines, f"no_violations_n{n}", ok, msg)

    def norm(T, kind):
        # one symmetric matrix as a stack of one, checked once as the pipeline does
        return M.symmetric_norms(M._check_sym(T[None]), (kind,))[kind][0]

    I3 = np.eye(3)
    w1 = abs(norm(I3, "vec2") / norm(I3, "op2") - math.sqrt(3))
    w2 = abs(norm(I3, "dual_op2") / norm(I3, "op2") - 3.0)
    check(lines, "identity_witness", max(w1, w2) <= 1e-12,
          f"vec2/op2 = sqrt(3), dual/op2 = 3 within {max(w1, w2):.1e}")
    v = np.array([2.0, -1.0, 2.0]) / 3.0
    P = np.outer(v, v)
    w3 = max(abs(norm(P, k) - 1.0) for k in ("op2", "vec2", "dual_op2"))
    check(lines, "rank_one_witness", w3 <= 1e-12,
          f"nu x nu norms all 1 within {w3:.1e}")
    T = np.zeros((2, 2))
    T[0, 0] = 1.0
    w4 = abs(norm(T, "op2") / norm(T, "vecInf") - 1.0)
    check(lines, "single_entry_witness", w4 <= 1e-12,
          f"op2/vecInf lower bound attained within {w4:.1e}")
    finish(4, lines)


def test_criterion_5_optimal_bc_oracle(theta_stack):
    lines = []
    sweeps = {norm: O.sweep_theta(norm, 91, 3) for norm in ("vec2", "vecInf")}
    for norm, sweep in sweeps.items():
        check(lines, f"gap_{norm}_3d", sweep["max_entry_gap"] <= 1e-3,
              f"closed form vs brute force entrywise gap "
              f"{sweep['max_entry_gap']:.2e} <= 1e-3 over 91 angles")
    d2, dinf = (O.optimal_stress(*theta_stack(361, 3), norm)[1].max()
                for norm in ("vec2", "vecInf"))
    check(lines, "D2_exact", abs(d2 - math.sqrt(2)) <= 1e-15,
          f"D_2 = {d2!r} = sqrt(2) from the 361-angle maximum")
    check(lines, "Dinf_exact", abs(dinf - 1.0) <= 1e-15,
          f"D_inf = {dinf!r} = 1 from the 361-angle maximum")
    best = sweeps["vec2"]["brute_force"].max()
    check(lines, "brute_sweep_bracket",
          math.sqrt(2) - 1e-3 <= best <= math.sqrt(2) + 1e-9,
          f"max brute-force value {best:.6f} in [sqrt(2)-1e-3, sqrt(2)]")
    finish(5, lines)


@pytest.mark.xfail(strict=True, reason=(
    "sigma_yy = 0 is not the 2D spectral-radius optimum: rho >= |sigma nu| "
    "= 1 for every compatible matrix, and equality needs the balanced "
    "sigma_yy = -cos(theta) (value 1). The brute-force oracle finds that "
    "true minimizer, so the z=0 closed form cannot match it within 1e-3. "
    "See README notes and test_optimal_bc.py (true-optimum test)."))
def test_criterion_5_op2_sigma_yy_zero_clause():
    sweep = O.sweep_theta("op2", 91, 2)
    print(f"\nACCEPTANCE 5 (op2 clause): entry gap {sweep['max_entry_gap']:.3f}")
    assert sweep["max_entry_gap"] <= 1e-3


def test_criterion_6_harmonic_ek_tensors(ball):
    lines = []
    for k in range(3):
        sigma, diag = LD.harmonic_ek_tensor(ball, k)
        check(lines, f"compat_k{k}", diag.compat_error <= 1e-10,
              f"sigma(nu) = e_{k} at every boundary node "
              f"within {diag.compat_error:.1e}")
        frame_ok = (abs(diag.sup_frame_inf_boundary - 1.0) <= 0.02
                    and diag.max_principle_gap <= 1e-8)
        check(lines, f"sup_inf_k{k}", frame_ok,
              f"frame-relative sup = {diag.sup_frame_inf_boundary:.4f} "
              f"(D_inf = 1 within 2%); componentwise max-principle gap "
              f"{diag.max_principle_gap:.1e} (std-basis entry sup "
              f"{diag.sup_entry_closure:.4f} is frame-dependent; see README)")
        check(lines, f"vec2_chain_k{k}",
              abs(diag.sup_vec2_closure - math.sqrt(2)) <= 0.02 * math.sqrt(2),
              f"sup |sigma|_2 over closure = {diag.sup_vec2_closure:.4f} "
              f"= D_2 = sqrt(2) within 2%")
        div_tol = 10 * ball.h * diag.div_sup_closure
        check(lines, f"div_sup_on_boundary_k{k}",
              diag.div_sup_closure - diag.div_sup_boundary <= div_tol,
              f"divergence sup {diag.div_sup_closure:.4f} attained on the "
              f"boundary ({diag.div_sup_boundary:.4f}) within {div_tol:.3f}")
    finish(6, lines)


def test_criterion_7_ld_bounds(disk, ball, ball_fine):
    lines = []
    rep3 = LD.ld_bounds(ball, "vec2")
    check(lines, "A_3d_vec2", rep3.A == 3 * math.sqrt(2),
          f"A = {rep3.A!r} = 3*sqrt(2) exactly by formula")
    rep2 = LD.ld_bounds(disk, "vecInf")
    check(lines, "A_2d_vecinf", rep2.A == 2.0,
          f"A = {rep2.A!r} = 2 exactly by formula")

    rep3_fine = LD.ld_bounds(ball_fine, "vec2")
    drift = abs(rep3.B - rep3_fine.B) / rep3_fine.B
    check(lines, "B_refinement", drift <= 0.10,
          f"B(h=0.1) = {rep3.B:.4f} vs B(h=0.05) = {rep3_fine.B:.4f}, "
          f"drift {100 * drift:.2f}% <= 10%")

    disk_rep = LD.ld_bounds(disk, "vec2")
    for name, w in ld_battery_fields(disk):
        tr = LD.verify_ld_trace_inequality(disk, w, disk_rep)
        check(lines, f"battery_{name}", tr.slack >= -tr.eps_disc,
              f"slack {tr.slack:.4f} >= -eps_disc {-tr.eps_disc:.4f} (h=0.02)")

    half = G.build_domain(G.DomainSpec.ball(0.5, 0.05))
    rep_half = LD.ld_bounds(half, "vec2")
    ratio = rep_half.B / rep3_fine.B
    check(lines, "radius_scaling", abs(ratio - 2.0) <= 0.05 * 2.0,
          f"B(r=1/2)/B(r=1) = {ratio:.4f}, target 2 within 5%")
    finish(7, lines)


def test_criterion_8_structural_properties(disk, ball, ellipse, annulus, ball_fine,
                                           neck, rng):
    lines = []
    worst = 0.0
    for _ in range(100):
        eps = LD._strain(rigid_field(disk, rng.normal(size=2), float(rng.normal())))
        worst = max(worst, np.abs(eps).max())
    check(lines, "strain_of_rigid", worst <= 1e-10,
          f"max |eps(rigid)| = {worst:.2e} <= 1e-10 over 100 random rigid fields")

    w = Field.from_function(
        disk, lambda p: np.stack([p[:, 0] ** 2 + 0.3, p[:, 1] - 0.1 * p[:, 0]],
                                 axis=1))
    a, b = rigid_projection_2d(disk, w)
    a2, b2 = rigid_projection_2d(disk, rigid_field(disk, a, b))
    drift = max(np.abs(a - a2).max() / max(1.0, np.abs(a).max()),
                abs(b - b2) / max(1.0, abs(b)))
    check(lines, "projection_idempotent", drift <= 0.01,
          f"double projection drift {100 * drift:.3f}% <= 1%")

    # the fixture domains this module solves on, each solved on here first
    # (memoized: free after the other criteria); a solve on any other domain
    # raises SolverError itself above the same 1e-8
    domains = (disk, ball, ellipse, annulus, ball_fine, neck)
    for domain in domains:
        S.harmonic_normal_field(domain)
    stats = L.solver_stats(*domains)
    check(lines, "max_principle_every_solve",
          stats["solves"] > 0 and stats["max_principle_violation"] <= 1e-8,
          f"max violation {stats['max_principle_violation']:.2e} <= 1e-8 "
          f"over {stats['solves']} Dirichlet solves on the fixture domains")

    sigma, _ = LD.harmonic_ek_tensor(disk, 0)
    worst_rel = 0.0
    for name, w in ld_battery_fields(disk):
        terms, scale = virtual_work(disk, sigma, w)
        worst_rel = max(worst_rel, virtual_work_residual(terms) / scale)
    check(lines, "virtual_work", worst_rel <= 0.02,
          f"worst relative virtual-work residual {100 * worst_rel:.3f}% <= 2%")
    finish(8, lines)
