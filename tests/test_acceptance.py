"""End-to-end acceptance gate for the package.

Every headline behavior is exercised here at its stated tolerance: the
benchmark convergence tables (Q0 and Q2 spatial decay, the inhomogeneous Q2
case, the central-flux order drop), the three temporal-rate rows, the
grading rate of the time self-convergence at a fixed mesh, the
conditioning table, the property suite (energy identity, memory-weight
chain, complementary-kernel identities, stability, memory-operator
exactness, special-function cross-checks, projection approximation orders),
and byte-level determinism of the CLI. Each test ends with one PASS line
carrying its measured numbers; `pytest -v` gives one verdict per item.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import yaml
from scipy.special import erfcx

from fracldg.analysis import rates
from fracldg.basis import (
    BasisSpec,
    DgField,
    VolumeGrid,
    edge_values,
    gauss_rule,
    legendre_derivatives,
    legendre_values,
)
from fracldg.cli import _RUNNERS, load_config, main
from fracldg.fractional import (
    History,
    L1Kernel,
    _mittag_leffler_contour,
    mittag_leffler,
)
from fracldg.ldg import FluxWeights, LdgOperators
from fracldg.meshes import GradedTimeMesh, SpatialMesh
from fracldg.problems import ProblemSpec, example2

from oracles import (
    _x_interface_traces,
    _y_interface_traces,
    bilinear_form_B,
    cell_major,
    complementary_kernels_by_inversion,
    convolution_kernel,
    dense_directional_operator,
    edges,
    l1_row,
    l2_norm,
    march,
    mittag_leffler_series,
    project_P,
    project_Q,
    solve_fields,
    time_self_convergence,
)

FLUXES = [(1.0, 0.0), (0.0, 1.0), (0.7, 0.2), (0.3, 0.8)]
MESHES = (8, 16, 32)


def _run_preset(name: str):
    cfg = load_config(name)
    return cfg, _RUNNERS[cfg.kind](cfg)


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.4e}" for v in values) + "]"


def _fmt_rates(values) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


# ---------------------------------------------------------------------------
# Benchmark tables
# ---------------------------------------------------------------------------

def test_q0_spatial_convergence_benchmark():
    # example1, flux (0, 1), alpha = 0.7, piecewise constants: errors match
    # the benchmark row to 5% and rates to +-0.05.
    _, rep = _run_preset("table1-row1")
    ref_errors = (2.9071e-04, 2.4957e-04, 2.1866e-04, 1.9459e-04)
    ref_rates = (0.9898, 0.9903, 0.9901)
    for got, ref in zip(rep.errors, ref_errors, strict=True):
        assert abs(got - ref) <= 0.05 * ref
    for got, ref in zip(rep.rates, ref_rates, strict=True):
        assert abs(got - ref) <= 0.05
    print(f"PASS Q0 spatial: errors {_fmt(rep.errors)} rates {_fmt_rates(rep.rates)}")


def test_q2_spatial_convergence_benchmark():
    # example1, flux (1, 0), alpha = 0.3, biquadratics: third-order decay
    # with rates matching the benchmark row to +-0.1.
    _, rep = _run_preset("table3-row1")
    ref_rates = (2.9778, 2.9800, 2.9762)
    for got, ref in zip(rep.rates, ref_rates, strict=True):
        assert abs(got - ref) <= 0.1
    for got, ref in zip(rep.errors, (1.9815e-06, 1.1514e-06, 7.2730e-07, 4.8878e-07),
                        strict=True):
        assert abs(got - ref) <= 0.05 * ref
    print(f"PASS Q2 spatial: errors {_fmt(rep.errors)} rates {_fmt_rates(rep.rates)}")


def test_q2_inhomogeneous_spatial_benchmark():
    # example2 (manufactured source, delta = alpha = 0.3), flux (1, 0),
    # biquadratics: first error matches 4.4230e-05 to 5%, rates 2.98 +- 0.1.
    _, rep = _run_preset("table6-row1")
    assert abs(rep.errors[0] - 4.4230e-05) <= 0.05 * 4.4230e-05
    for got in rep.rates:
        assert abs(got - 2.98) <= 0.1
    print(f"PASS Q2 inhomogeneous: errors {_fmt(rep.errors)} "
          f"rates {_fmt_rates(rep.rates)}")


def test_central_flux_order_degradation():
    # Central flux (0.5, 0.5) with bilinear elements drops a full order:
    # measured rates sit near one, matching the benchmark row to +-0.1.
    # The run must also emit the central-flux advisory.
    with pytest.warns(UserWarning, match="central"):
        _, rep = _run_preset("table5-central-a03")
    ref_rates = (1.0786, 1.0603, 1.0476)
    for got, ref in zip(rep.rates, ref_rates, strict=True):
        assert 0.95 <= got <= 1.15
        assert abs(got - ref) <= 0.1
    print(f"PASS central-flux degradation: rates {_fmt_rates(rep.rates)}")


def test_temporal_rate_benchmarks():
    # Graded-mesh time rates min(2 - alpha, gamma * delta) for the three
    # benchmark parameter rows, each matched to +-0.1.
    targets = (("table7-row1", 1.70), ("table7-row3", 1.50), ("table7-row5", 1.30))
    lines = []
    for name, target in targets:
        _, rep = _run_preset(name)
        for got in rep.rates:
            assert abs(got - target) <= 0.1, (name, got, target)
        lines.append(f"{name}->{_fmt_rates(rep.rates)} (target {target})")
    print("PASS temporal rates: " + "; ".join(lines))


def test_time_self_convergence_shows_the_grading_rate():
    # The paper's time rate min(2 - alpha, gamma delta) (example2, delta =
    # alpha) shows in the maximum over the steps, not at the final time.
    # Q1 8 x 8, T 0.1, M 200, 400, 800: the rate of the last pair of
    # max_n ||U_M^n - U_{2M}^{2n}||. Measured last-pair rates (bound):
    # alpha 0.3 at gamma 1, 2, 6: 0.056 (0.3), 0.315 (0.6), 1.574 (1.7);
    # alpha 0.7 at gamma 1, 2: 0.587 (0.7), 1.179 (1.3). So they are ordered
    # as their bounds are, each lies 0.11 to 0.29 below its bound (gate:
    # within 0.3 below, at most 0.1 above), and the final-time rates at
    # alpha 0.3, gamma 2 and 6, 1.700 and 1.655, agree within 0.1: the
    # final time does not see the grading.
    mesh, basis, fw = SpatialMesh(8, 8), BasisSpec(1), FluxWeights(1.0, 0.0)
    cases = ((0.3, 1.0), (0.3, 2.0), (0.3, 6.0), (0.7, 1.0), (0.7, 2.0))
    got = {}
    for alpha, gamma in cases:
        (max_a, final_a), (max_b, final_b) = time_self_convergence(
            example2(alpha), mesh, basis, fw, (200, 400, 800), gamma, 0.1)
        bound = min(2.0 - alpha, gamma * alpha)
        got[alpha, gamma] = (math.log2(max_a / max_b), bound, math.log2(final_a / final_b))
    by_bound = sorted(got.values(), key=lambda r: r[1])
    assert [r[0] for r in by_bound] == sorted(r[0] for r in by_bound), got
    for rate, bound, _ in got.values():
        assert bound - 0.3 <= rate <= bound + 0.1, got
    assert abs(got[0.3, 2.0][2] - got[0.3, 6.0][2]) <= 0.1, got
    print("PASS time self-convergence: " + "; ".join(
        f"alpha={a} gamma={g}: max {r:.3f} (bound {b:.1f}), final {f:.3f}"
        for (a, g), (r, b, f) in got.items()))


def test_condition_number_monotonicity_and_anchor():
    # Within every (degree, alpha) row the 2-norm condition number decreases
    # strictly as the flux pair moves from (1, 0) toward (0.7, 0.3); the
    # (Q0, alpha = 0.7, flux (1, 0)) entry stays within a factor of 2 of
    # the benchmark value 1.4294e+01.
    _, rep = _run_preset("table8-cond")
    groups = rep.meta["groups"]
    assert len(groups) == 6
    for label, vals in groups:
        assert len(vals) == 4
        for a, b in zip(vals, vals[1:]):
            assert a > b, (label, vals)
    anchor = rep.errors[rep.params.index("Q0 alpha=0.7 flux=1:0")]
    assert 1.4294e+01 / 2.0 <= anchor <= 1.4294e+01 * 2.0
    print(f"PASS conditioning: all 6 rows strictly decreasing, "
          f"anchor {anchor:.4e} vs 1.4294e+01")


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------

def test_energy_identity_nullity_suite():
    # B(u, u; p, p) = 0 whenever p is the discrete gradient of u, for 50
    # random unit fields under each of the four flux settings.
    mesh = SpatialMesh(4, 3)
    basis = BasisSpec(2)
    rng = np.random.default_rng(99)
    worst = 0.0
    for s1, s2 in FLUXES:
        fw = FluxWeights(s1, s2)
        ops = LdgOperators(mesh, basis, fw)
        Du = np.kron(dense_directional_operator(4, 2, s1), (2.0 / mesh.hx) * np.eye(3 * 3))
        Lu = np.kron((2.0 / mesh.hy) * np.eye(4 * 3), dense_directional_operator(3, 2, s2))
        for _ in range(50):
            u = DgField(rng.standard_normal((4, 3, 3, 3)), basis, mesh)
            u = DgField(u.coeffs * (1.0 / l2_norm(u)), basis, mesh)
            px = DgField((Du @ u.coeffs.ravel()).reshape(u.coeffs.shape), basis, mesh)
            py = DgField((Lu @ u.coeffs.ravel()).reshape(u.coeffs.shape), basis, mesh)
            worst = max(worst, abs(bilinear_form_B(u, u, (px, py), (px, py), fw)))
    assert worst <= 1e-11
    print(f"PASS energy identity: |B| <= {worst:.2e} over 200 fields")


def test_memory_weight_chain_positive_monotone():
    # The L1 weight chain A_0^n >= A_1^n >= ... >= A_{n-1}^n > 0 holds on
    # 200 random graded meshes across the admissible parameter box.
    rng = np.random.default_rng(7)
    for _ in range(200):
        M = int(rng.integers(1, 61))
        gamma = float(rng.uniform(1.0, 6.0))
        alpha = float(rng.uniform(0.05, 0.95))
        T = float(rng.uniform(0.05, 2.0))
        A = L1Kernel(alpha, GradedTimeMesh(M, gamma, T))
        for n in range(1, M + 1):
            row = l1_row(A, n)
            assert row[-1] > 0.0
            assert np.all(np.diff(row) <= 0.0)
    print("PASS memory-weight chain: positive and non-increasing on 200 draws")


def test_complementary_kernel_identity_and_inversion():
    # The complementary kernels invert the weight table exactly:
    # sum_j P_{n-j}^n A_{j-m}^j = 1 for every 1 <= m <= n up to M = 200,
    # and the recursion agrees with direct linear-system inversion for
    # every n <= 12.
    worst = 0.0
    for alpha, gamma in ((0.35, 4.0), (0.8, 1.0)):
        tm = GradedTimeMesh(200, gamma, 0.5)
        A = L1Kernel(alpha, tm)
        P = convolution_kernel(A)
        for n in range(1, 201):
            mat = np.zeros((n, n))
            for j in range(1, n + 1):
                mat[0:j, n - j] = l1_row(A, j)[::-1]
            worst = max(worst, float(np.max(np.abs(mat @ P.P[n] - 1.0))))
    assert worst <= 1e-11

    tm = GradedTimeMesh(12, 2.5, 0.3)
    A = L1Kernel(0.45, tm)
    P = convolution_kernel(A)
    P_ref = complementary_kernels_by_inversion(A)
    for n in range(1, 13):
        scale = max(1.0, float(np.max(np.abs(P_ref[n]))))
        assert np.max(np.abs(P.P[n] - P_ref[n])) <= 1e-11 * scale
    print(f"PASS kernel identities: worst residual {worst:.2e}, "
          f"recursion == inversion for n <= 12")


def test_stability_bound_random_homogeneous_runs():
    # 100 random source-free runs (constant and x-dependent tempering,
    # random order, grading, horizon, degree, and flux): the trajectory
    # norm never exceeds e^(C_kappa t_n) times the initial norm.
    rng = np.random.default_rng(2024)
    mesh = SpatialMesh(5, 5)
    worst = 0.0
    for run in range(100):
        alpha = float(rng.uniform(0.15, 0.95))
        gamma = float(rng.uniform(1.0, 4.0))
        T = float(rng.uniform(0.05, 1.0))
        M = int(rng.integers(4, 9))
        k = int(rng.integers(0, 3))
        s1 = float(rng.uniform(0.0, 1.0))
        s2 = float(rng.uniform(0.0, 1.0))
        if run % 2 == 0:
            k0 = float(rng.uniform(-2.0, 2.0))
            kappa = lambda x, y, k0=k0: np.full(np.broadcast(x, y).shape, k0)
            ck = abs(k0)
        else:
            a = float(rng.uniform(-1.5, 1.5))
            b = float(rng.uniform(-0.5, 0.5))
            kappa = lambda x, y, a=a, b=b: a * np.cos(2 * math.pi * x) + b
            ck = abs(a) + abs(b)
        c1, c2, c3 = rng.standard_normal(3)

        def u0(x, y, c1=c1, c2=c2, c3=c3):
            return (c1 * np.cos(2 * math.pi * x) * np.sin(2 * math.pi * y)
                    + c2 * np.sin(2 * math.pi * x) + c3 * np.cos(4 * math.pi * y))

        prob = ProblemSpec(alpha=alpha, kappa=kappa, c_kappa=ck, u0=u0, f=None,
                           exact=None)
        tm = GradedTimeMesh(M, gamma, T)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fields = solve_fields(prob, mesh, tm, BasisSpec(k), FluxWeights(s1, s2))
        norm0 = l2_norm(fields[0])
        for n in range(1, M + 1):
            ratio = l2_norm(fields[n]) / (math.exp(ck * tm.t[n]) * norm0)
            worst = max(worst, ratio)
            assert ratio <= 1.0 + 1e-10
    print(f"PASS stability: max ||u^n|| / (e^(C t_n) ||u^0||) = {worst:.6f} "
          f"over 100 runs")


def test_memory_operator_exact_on_tempered_linears():
    # The discrete substantial derivative reproduces e^{-kappa(x) t} v(t)
    # exactly (to 1e-8 relative) for v = 1 and v = t, pointwise on the
    # quadrature grid.
    mesh = SpatialMesh(4, 4)
    basis = BasisSpec(1)
    alpha = 0.6
    tm = GradedTimeMesh(6, 2.0, 0.8)
    A = L1Kernel(alpha, tm)
    kq = VolumeGrid.build(mesh, basis).at(lambda x, y: np.cos(2 * math.pi * x) + 0.0 * y)
    worst = 0.0
    for v, dv_exact in (
        (lambda t: np.ones_like(t), lambda t: 0.0),
        (lambda t: t, lambda t: t ** (1.0 - alpha) / math.gamma(2.0 - alpha)),
    ):
        hist_quad = [np.exp(-kq * t) * v(t) for t in tm.t]
        for n, hist in march(History(A, kq, 1.0), hist_quad):
            got = l1_row(A, n)[0] * hist_quad[n] + hist
            expected = np.exp(-kq * tm.t[n]) * dv_exact(tm.t[n])
            scale = l1_row(A, n)[0] * np.max(np.abs(hist_quad[n]))
            worst = max(worst, float(np.max(np.abs(got - expected)) / scale))
    assert worst <= 1e-8
    print(f"PASS memory-operator exactness: worst relative defect {worst:.2e}")


def test_relaxation_function_cross_checks():
    # Two algorithmically unrelated evaluations agree on the overlap band,
    # and the half-order special case matches the scaled complementary
    # error function.
    worst_band = 0.0
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for absz in np.linspace(3.0, 5.0, 9):
            s = mittag_leffler_series(alpha, -float(absz))
            c = _mittag_leffler_contour(alpha, -float(absz))
            worst_band = max(worst_band, abs(s - c) / abs(s))
    assert worst_band <= 1e-8
    worst_half = 0.0
    for x in np.linspace(0.05, 10.0, 40):
        got = mittag_leffler(0.5, -float(x))
        ref = float(erfcx(x))
        worst_half = max(worst_half, abs(got - ref) / abs(ref))
    assert worst_half <= 1e-9
    print(f"PASS special-function cross-checks: band {worst_band:.2e}, "
          f"half-order {worst_half:.2e}")


def _mode(x, y):
    return np.cos(2 * math.pi * x) * np.sin(2 * math.pi * y)


def _approximation_norm(mesh, basis, field) -> float:
    # ||eta|| + h^{1/2} ||eta||_Gamma for eta = u - (projection of u), with
    # the interface norm collecting both one-sided traces on every edge.
    grid = VolumeGrid.build(mesh, basis, gauss_rule(basis.k + 4))
    quad = grid.quad
    eta = grid.at(_mode) - field.eval_volume_quad(quad)
    vol = grid.norm(eta)
    tn, wq = quad.nodes, quad.weights
    total = 0.0
    y_pts = mesh.y_centers()[:, None] + 0.5 * mesh.hy * tn[None, :]
    u_if = _mode(edges(mesh.nx)[1:, None, None], y_pts[None, :, :])
    pm, pp = _x_interface_traces(field, tn)
    for tr in (u_if - pm, u_if - pp):
        total += (mesh.hy / 2.0) * np.sum(tr**2 * wq[None, None, :])
    x_pts = mesh.x_centers()[:, None] + 0.5 * mesh.hx * tn[None, :]
    u_if = _mode(x_pts[:, None, :], edges(mesh.ny)[None, 1:, None])
    pm, pp = _y_interface_traces(field, tn)
    for tr in (u_if - pm, u_if - pp):
        total += (mesh.hx / 2.0) * np.sum(tr**2 * wq[None, None, :])
    h = max(mesh.hx, mesh.hy)
    return vol + math.sqrt(h) * math.sqrt(total)


def _flux_functional_dual_norm(mesh, basis, fw: FluxWeights) -> float:
    # Exact dual norm over the discrete space of the defect functional
    # F(v) = (eta, div v) - <eta-hat, v . n>: assemble the Riesz coefficient
    # tensors of F in the orthonormal basis and take their scaled 2-norm.
    k = basis.k
    grid = VolumeGrid.build(mesh, basis, gauss_rule(k + 4))
    quad = grid.quad
    V = legendre_values(k, quad.nodes)
    Vd = legendre_derivatives(k, quad.nodes)
    e_minus, e_plus = edge_values(k)
    jac = mesh.hx * mesh.hy / 4.0
    w2 = quad.weights[:, None] * quad.weights[None, :]
    Pu = project_P(_mode, fw, mesh, basis)
    eta = cell_major(grid.at(_mode) - Pu.eval_volume_quad(quad))
    ew = eta * w2
    g1 = jac * (2.0 / mesh.hx) * np.einsum("ijqp,qr,ps->ijrs", ew, Vd, V)
    g2 = jac * (2.0 / mesh.hy) * np.einsum("ijqp,qr,ps->ijrs", ew, V, Vd)
    tn, wq = quad.nodes, quad.weights
    Vt = legendre_values(k, tn)
    y_pts = mesh.y_centers()[:, None] + 0.5 * mesh.hy * tn[None, :]
    u_if = _mode(edges(mesh.nx)[1:, None, None], y_pts[None, :, :])
    pm, pp = _x_interface_traces(Pu, tn)
    etahat = fw.sigma1 * (u_if - pm) + (1 - fw.sigma1) * (u_if - pp)
    mom = np.einsum("ijq,q,qs->ijs", etahat, wq, Vt)
    g1 -= (mesh.hy / 2.0) * np.einsum("ijs,r->ijrs", mom, e_plus)
    g1 += (mesh.hy / 2.0) * np.einsum("ijs,r->ijrs", np.roll(mom, 1, axis=0), e_minus)
    x_pts = mesh.x_centers()[:, None] + 0.5 * mesh.hx * tn[None, :]
    u_if = _mode(x_pts[:, None, :], edges(mesh.ny)[None, 1:, None])
    pm, pp = _y_interface_traces(Pu, tn)
    etahat = fw.sigma2 * (u_if - pm) + (1 - fw.sigma2) * (u_if - pp)
    mom = np.einsum("ijq,q,qr->ijr", etahat, wq, Vt)
    g2 -= (mesh.hx / 2.0) * np.einsum("ijr,s->ijrs", mom, e_plus)
    g2 += (mesh.hx / 2.0) * np.einsum("ijr,s->ijrs", np.roll(mom, 1, axis=1), e_minus)
    return math.sqrt((np.sum(g1**2) + np.sum(g2**2)) / jac)


def test_projection_and_flux_functional_orders():
    # The weighted-trace projections approximate at order k+1 in the
    # combined volume-plus-trace norm, and the interface defect functional
    # has dual norm of the same order; finest-pair rates on meshes 8->32
    # land within +-0.15 of k+1 for k = 0, 1, 2.
    makers = (
        ("P(0.7,0.2)", lambda mesh, basis: project_P(_mode, FluxWeights(0.7, 0.2), mesh, basis)),
        ("P(1,0)", lambda mesh, basis: project_P(_mode, FluxWeights(1.0, 0.0), mesh, basis)),
        ("Qx(0.8)", lambda mesh, basis: project_Q(_mode, 0.8, "x", mesh, basis)),
        ("Qy(0.3)", lambda mesh, basis: project_Q(_mode, 0.3, "y", mesh, basis)),
    )
    hs = [1.0 / n for n in MESHES]
    lines = []
    for k in (0, 1, 2):
        basis = BasisSpec(k)
        for label, make in makers:
            vals = [_approximation_norm(SpatialMesh(n, n), basis,
                                        make(SpatialMesh(n, n), basis))
                    for n in MESHES]
            rate = rates(vals, hs)[-1]
            assert abs(rate - (k + 1)) <= 0.15, (label, k, rate)
            lines.append(f"{label} k={k}: {rate:.3f}")
        for fwpair in ((0.7, 0.2), (1.0, 0.0)):
            vals = [_flux_functional_dual_norm(SpatialMesh(n, n), basis,
                                               FluxWeights(*fwpair))
                    for n in MESHES]
            rate = rates(vals, hs)[-1]
            assert abs(rate - (k + 1)) <= 0.15, (fwpair, k, rate)
            lines.append(f"F{fwpair} k={k}: {rate:.3f}")
    print("PASS approximation orders: " + "; ".join(lines))


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_deterministic_rerun_byte_identical(tmp_path):
    # Two --deterministic executions of the same config produce
    # byte-identical artifacts: a preset's CSV and SVG, and the CSV and
    # TXT of a single run of M = 100 steps, whose memory sum crosses three
    # history panels (the preset's M = 20 stays within the first).
    panels = tmp_path / "det-panels.yaml"
    panels.write_text(yaml.safe_dump({
        "name": "det-panels", "kind": "single-run", "problem": "example2",
        "alpha": 0.5, "degree": 1, "flux": [1.0, 0.0], "nx": 4,
        "time": {"M": 100, "gamma": 2.0, "T": 0.1},
    }), encoding="utf-8")
    runs = (("table1-row1", ("table1-row1.csv", "table1-row1.svg")),
            (str(panels), ("det-panels.csv", "det-panels.txt")))
    for config, fnames in runs:
        for sub in ("first", "second"):
            rc = main([
                "run", "--config", config, "--out", str(tmp_path / sub),
                "--deterministic", "--plot",
            ])
            assert rc == 0
        for fname in fnames:
            a = (tmp_path / "first" / fname).read_bytes()
            b = (tmp_path / "second" / fname).read_bytes()
            assert a == b, fname
    print("PASS determinism: preset and panel-crossing run byte-identical across reruns")
