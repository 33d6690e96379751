"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantity against its stated tolerance."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from principal_config import catalog, cli, cycles, foliation, umbilics
from principal_config.geometry import (MAXIMAL, MINIMAL, chart_bundle,
                                       normal_curvature, principal_at)


def _report(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def ellipsoid():
    return catalog.ellipsoid_chart(3.0, 2.0, 1.0)


@pytest.fixture(scope="module")
def ellipsoid_records(ellipsoid):
    return umbilics.analyze_umbilics(ellipsoid, grid=32)


# ---------------------------------------------------------------------------
# 1. Euler formula against the forms-ratio oracle
# ---------------------------------------------------------------------------

def test_criterion_1_euler_formula(ellipsoid):
    rng = np.random.default_rng(1)
    surfaces = [ellipsoid, catalog.torus_chart(2, 1),
                catalog.perturbed_torus_chart(2, 1, 0.05),
                catalog.monge_graph_chart(1.0, 1.5, 1.0, 0.4, extent=0.5)]
    worst = 0.0
    n = 0
    while n < 1000:
        surf = surfaces[n % len(surfaces)]
        (u0, u1), (v0, v1) = surf.domain
        u = rng.uniform(u0 + 0.12 * (u1 - u0), u1 - 0.12 * (u1 - u0))
        v = rng.uniform(v0 + 0.12 * (v1 - v0), v1 - 0.12 * (v1 - v0))
        b = chart_bundle(surf, u, v)
        f = SimpleNamespace(**{k: float(b[k]) for k in "EFGefg"})
        pd = principal_at(surf, u, v)
        if not pd.directions_defined:
            continue
        th = rng.uniform(0.0, 2 * math.pi)
        w = math.cos(th) * pd.d1_uv + math.sin(th) * pd.d2_uv
        num = f.e * w[0] ** 2 + 2 * f.f * w[0] * w[1] + f.g * w[1] ** 2
        den = f.E * w[0] ** 2 + 2 * f.F * w[0] * w[1] + f.G * w[1] ** 2
        oracle = num / den
        got = normal_curvature(pd, th)
        worst = max(worst, abs(got - oracle) / max(abs(oracle), 1e-12))
        n += 1
    _report(worst < 1e-9, "criterion 1 (Euler formula)",
            f"1000 samples, worst relative error {worst:.2e} < 1e-9")


# ---------------------------------------------------------------------------
# 2. Darbouxian classifier grid + Monge round-trip
# ---------------------------------------------------------------------------

def test_criterion_2_classifier_grid():
    ra_grid = np.linspace(-1.0, 4.5, 50)
    rc_grid = np.linspace(-1.4, 1.4, 50)
    band = 0.05
    checked = 0
    mismatches = 0
    roundtrip_failures = 0
    for ra in ra_grid:
        for rc in rc_grid:
            if (abs(ra - 1.0) <= band or abs(ra - 2.0) <= band
                    or abs(ra - (rc * rc + 2.0)) <= band):
                continue
            a, b, c = ra, 1.0, 2.0 * rc
            want = umbilics.classify_direct(a, b, c)

            class M:
                pass

            m = M()
            m.a, m.b, m.c = a, b, c
            got, _ = umbilics.classify(m)
            if got != want:
                mismatches += 1
            g = catalog.monge_graph_chart(1.0, a, b, c, extent=0.35)
            rec = umbilics.refine_umbilic_record(g, (0.0, 0.0))
            rec = umbilics.classify_umbilic(g, rec)
            if rec.type != want:
                roundtrip_failures += 1
            checked += 1
    _report(mismatches == 0 and roundtrip_failures == 0 and checked > 1500,
            "criterion 2 (Darbouxian classifier)",
            f"{checked} grid samples off the 0.05 bands: "
            f"{mismatches} classifier mismatches, "
            f"{roundtrip_failures} Monge round-trip failures")


# ---------------------------------------------------------------------------
# 3. Triaxial ellipsoid: umbilics, index sum, connections, stability
# ---------------------------------------------------------------------------

def test_criterion_3_ellipsoid_configuration(ellipsoid, ellipsoid_records):
    records = ellipsoid_records
    ok = len(records) == 4
    expected = catalog.ellipsoid_umbilic_points(3.0, 2.0, 1.0)
    worst_loc = max(min(np.linalg.norm(r.xyz - e["xyz"]) for e in expected)
                    for r in records)
    ok = ok and worst_loc < 1e-8
    check = umbilics.index_sum_check(ellipsoid, records)
    ok = ok and check.consistent and check.index_sum == 2.0

    scan = foliation.separatrix_connection_scan(ellipsoid, records)
    conn_ok = len(scan.connections) == 4 and not scan.undetermined
    counts = {i: 0 for i in range(4)}
    for i, j, _f in scan.connections:
        counts[i] += 1
        counts[j] += 1
    conn_ok = conn_ok and all(v == 2 for v in counts.values())

    rep = catalog.stability_report(
        ellipsoid, catalog.StabilityBudget(grid=28, cycle_seeds=4,
                                           omega_seeds=3,
                                           trace_length_factor=10))
    stab_ok = rep.overall == "FailWitness" \
        and rep.condition_c.status == "fail" \
        and len(rep.condition_c.witnesses) == 4
    _report(ok and conn_ok and stab_ok,
            "criterion 3 (triaxial ellipsoid)",
            f"4 umbilics within {worst_loc:.1e} of closed form, index sum "
            f"{check.index_sum}, {len(scan.connections)} connections, "
            f"stability {rep.overall} with witness on (c)")


# ---------------------------------------------------------------------------
# 4. Dupin drift
# ---------------------------------------------------------------------------

def test_criterion_4_dupin(ellipsoid):
    seeds = [(0.5, 0.8), (0.8, 1.1), (1.3, 1.9), (2.1, 0.7), (2.7, 1.4),
             (3.5, 2.1), (4.1, 0.9), (4.8, 1.6), (5.4, 1.2), (5.9, 2.0)]
    drifts = []
    for seed in seeds:
        for fol in (MINIMAL, MAXIMAL):
            traj = foliation.trace(ellipsoid, seed, fol,
                                   foliation.TraceOptions(rel_tol=1e-10))
            drifts.append(catalog.dupin_drift(ellipsoid, traj).drift)

    class Fake:
        points_xyz = np.array([ellipsoid.point(0.8 + t, 1.1 + 0.5 * t)
                               for t in np.linspace(0, 0.7, 60)])

    control = catalog.dupin_drift(ellipsoid, Fake()).drift
    _report(len(drifts) == 20 and max(drifts) < 1e-6 and control > 1e-3,
            "criterion 4 (Dupin drift)",
            f"20 principal lines, max confocal drift {max(drifts):.2e} "
            f"< 1e-6; negative control {control:.2e} > 1e-3")


# ---------------------------------------------------------------------------
# 5. Return-map estimators
# ---------------------------------------------------------------------------

def test_criterion_5_return_maps():
    tor = catalog.torus_chart(2, 1)
    c = cycles.find_cycles(tor, [(0.3, 0.9)], MAXIMAL)[0]
    torus_ok = (abs(c.tprime_fd - 1.0) < 1e-6
                and abs(c.log_integral_dH) < 1e-6)

    pt = catalog.perturbed_torus_chart(2, 1, 0.05)
    found = cycles.find_cycles(pt, [(0.4, 1.5), (0.4, 2.9), (0.4, 4.6)],
                               MAXIMAL)
    found += cycles.find_cycles(pt, [(1.9, 1.2), (6.15, 1.2)], MINIMAL)
    agreements = []
    variant_gaps = []
    for cyc in found:
        log_fd = math.log(cyc.tprime_fd)
        log_int = cyc.sign_branch * 0.5 * (cyc.log_integral_dH
                                           + cyc.log_integral_dk2)
        agreements.append(abs(log_fd - log_int))
        variant_gaps.append(abs(cyc.log_integral_dH
                                - cyc.log_integral_dk2))
    ok = (torus_ok and len(found) >= 3 and max(agreements) < 1e-3
          and max(variant_gaps) < 1e-6)
    _report(ok, "criterion 5 (return-map estimators)",
            f"torus parallel T'={c.tprime_fd:.9f}, integral "
            f"{c.log_integral_dH:.1e}; {len(found)} perturbed-torus "
            f"cycles, max |log T'_fd - log T'_int| = "
            f"{max(agreements):.2e} < 1e-3, max variant gap "
            f"{max(variant_gaps):.2e}")


# ---------------------------------------------------------------------------
# 6. Rotated-cap ellipsoid: 2 theta rotation and dense-line evidence
# ---------------------------------------------------------------------------

def test_criterion_6_second_return_rotation():
    errors = {}
    for theta in (0.0, 0.3, 1.0):
        surf = catalog.rotated_cap_ellipsoid_chart(theta)
        found = umbilics.locate_umbilics(surf, grid=40)
        section = foliation.DomainSection("equator", "v", 0.0)
        seeds = catalog.section_seeds(surf, section, 6)
        opts = foliation.TraceOptions(
            rel_tol=1e-6, max_step_factor=0.1, max_length=120.0,
            max_crossings=30, detect_closure=False, known_umbilics=found)
        est = catalog.rotation_estimate(surf, section, seeds, MAXIMAL,
                                        opts)
        errors[theta] = abs(est.mean_rotation - 2.0 * theta)
    rot_ok = all(err < 1e-2 for err in errors.values())

    surf = catalog.rotated_cap_ellipsoid_chart(1.0)
    found = umbilics.locate_umbilics(surf, grid=40)
    traj = foliation.trace(
        surf, (2.2, 0.02), MAXIMAL,
        foliation.TraceOptions(rel_tol=1e-6, max_step_factor=0.1,
                               max_length=2200.0, detect_closure=False,
                               known_umbilics=found,
                               exclusion_radius_factor=1e-7))
    res = foliation.omega_limit_classify(surf, traj)
    dense_ok = (res.verdict == "RecurrentOrUndetermined"
                and res.recurrent_evidence and res.returns >= 20)
    _report(rot_ok and dense_ok,
            "criterion 6 (second-return rotation 2 theta)",
            "errors " + ", ".join(f"theta={t}: {e:.1e}"
                                  for t, e in errors.items())
            + f" (tol 1e-2); dense trace: {res.verdict}, "
            f"{res.returns} eps-returns >= 20")


# ---------------------------------------------------------------------------
# 7. Quadric strata under rigid motions
# ---------------------------------------------------------------------------

def test_criterion_7_quadric_strata():
    from scipy.stats import special_ortho_group
    rng = np.random.default_rng(7)
    forms = {
        "E3_triaxial": np.diag([1 / 9, 1 / 4, 1.0]),
        "E2_revolution": np.diag([1.0, 1.0, 1 / 4]),
        "E2_revolution ": np.diag([1 / 4, 1.0, 1.0]),   # prolate
        "Sphere": np.eye(3),
        "NonCompact": np.diag([1.0, 1.0, -1.0]),
    }
    errors = 0
    total = 0
    for want, M in forms.items():
        q = catalog.QuadricSpec(M)
        for _ in range(100):
            R = special_ortho_group.rvs(3, random_state=rng)
            t = rng.uniform(-2, 2, 3)
            st = catalog.quadric_stratum(q.transformed(R, t))
            total += 1
            if st.tag != want.strip():
                errors += 1
    _report(errors == 0 and total == 500,
            "criterion 7 (quadric strata)",
            f"{total} rigid-motion conjugates over 5 forms, "
            f"{errors} classification errors")


# ---------------------------------------------------------------------------
# 8. Perturbation experiment
# ---------------------------------------------------------------------------

def test_criterion_8_perturbation_experiment():
    runs = 20
    count_ok = 0
    darboux_exceptions = 0
    empty_connections = 0
    for seed in range(runs):
        surf = catalog.perturbed_ellipsoid_chart(3, 2, 1, 8e-3, seed=seed)
        recs = umbilics.analyze_umbilics(surf, grid=32)
        if isinstance(recs, umbilics.AllUmbilicSurface) or len(recs) != 4:
            continue
        count_ok += 1
        if not all(r.type in ("D1", "D2", "D3") for r in recs):
            darboux_exceptions += 1
            continue
        scan = foliation.separatrix_connection_scan(surf, recs)
        if not scan.connections:
            empty_connections += 1
    _report(count_ok == runs and darboux_exceptions <= 2
            and empty_connections >= 18,
            "criterion 8 (perturbation experiment)",
            f"{count_ok}/{runs} runs kept 4 umbilics, "
            f"{darboux_exceptions} near-boundary exceptions, "
            f"{empty_connections}/{runs} runs with empty connection list "
            f"(need >= 18)")


# ---------------------------------------------------------------------------
# 9. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["umbilics", "--surface", "ellipsoid:3,2,1", "--grid", "24",
         "--svg", "--seed", "3"],
        ["trace", "--surface", "torus:2,1", "--start", "0.3,0.9",
         "--foliation", "maximal", "--svg", "--seed", "3"],
        ["strata", "--quadric", "diag:1/9,1/4,1", "--seed", "3"],
        ["rotation", "--sweep-rho", "0,0.05", "--n-seeds", "2",
         "--seed", "3"],
    ]
    identical = True
    for k, cmd in enumerate(commands):
        payloads = []
        for attempt in ("a", "b"):
            out = tmp_path / f"c{k}{attempt}"
            code = cli.main(cmd + ["--out", str(out)])
            assert code == 0
            blob = b""
            for name in ("report.json", "trajectories.csv", "scene.svg"):
                p = out / name
                if p.exists():
                    blob += p.read_bytes()
            payloads.append(blob)
        identical = identical and payloads[0] == payloads[1]
    _report(identical, "criterion 9 (CLI determinism)",
            f"{len(commands)} commands rerun byte-identically "
            "(reports, CSV, SVG)")


# ---------------------------------------------------------------------------
# 10. Cubic level-set rotation sweep
# ---------------------------------------------------------------------------

def test_criterion_10_rho_sweep():
    t1 = catalog.rho_sweep([0.0, 0.05, 0.1], n_seeds=3)
    t2 = catalog.rho_sweep([0.0, 0.05, 0.1], n_seeds=3)
    ok = True
    rows = []
    for r1, r2 in zip(t1, t2):
        e1, e2 = r1["estimate"], r2["estimate"]
        ok = ok and np.array_equal(e1.increments, e2.increments)
        ok = ok and e1.mean_rotation == e2.mean_rotation
        ok = ok and len(e1.increments) > 0
        ok = ok and np.isfinite(e1.mean_rotation)
        rows.append(f"rho={r1['rho']}: {e1.mean_rotation:.4f}")
    _report(ok, "criterion 10 (rho sweep)",
            "rotation table reproducible bit-for-bit: " + ", ".join(rows))
