"""Acceptance gate: twelve end-to-end checks with pinned tolerances.

Each check prints a single verdict line directly to the terminal (bypassing
pytest's capture) and then asserts, so any pytest invocation of this file
doubles as a human-readable report and a hard gate.
"""

import math
import time

import numpy as np

from helpers import amplitudes_linear_solve, rk4_steady, weak_drive_draw

from blockade.analytic import (
    amplitudes_closed_form,
    g2_analytic,
    interference_residual,
    optimal_g,
)
from blockade.model import SystemParams
from blockade.steady import (
    DensityMatrix,
    SteadyStateError,
    converged_steady_state,
    observables,
    steady_state,
)
from blockade.sweep import GridAxis, preset, run_sweep


def verdict(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"acceptance {num:02d} {label}: {word} ({detail})")
    assert ok, f"acceptance {num:02d} {label}: {detail}"


def test_01_coherent_state_limit(capsys):
    start = time.perf_counter()
    _, obs, _ = converged_steady_state(SystemParams(f=0.1), 1e-3)
    elapsed = time.perf_counter() - start
    n_dev = abs(obs.mean_photon - 0.04)
    g2_dev = abs(obs.g2 - 1.0)
    ok = n_dev <= 1e-6 and g2_dev <= 1e-3 and elapsed < 1.0
    verdict(capsys, 1, "coherent-state limit", ok, f"N dev {n_dev:.2e}, g2 dev {g2_dev:.2e}, {elapsed:.2f}s")


def test_02_vacuum_fixed_point(capsys):
    start = time.perf_counter()
    rho, obs, dim = converged_steady_state(SystemParams(), 1e-3)
    elapsed = time.perf_counter() - start
    vac = np.zeros((dim, dim), dtype=complex)
    vac[0, 0] = 1.0
    dev = float(np.max(np.abs(rho.entries - vac)))
    ok = dev <= 1e-12 and obs.mean_photon < 1e-14 and elapsed < 1.0
    verdict(capsys, 2, "vacuum fixed point", ok, f"rho dev {dev:.2e}, N {obs.mean_photon:.2e}, {elapsed:.2f}s")


def test_03_blockade_at_optimal_gain(capsys):
    start = time.perf_counter()
    g_star = optimal_g(0.1, math.pi / 12, 0.0)
    p = SystemParams(delta=0.0, u=0.5, g=g_star, f=0.1, phi=math.pi / 12)
    _, obs, _ = converged_steady_state(p, 1e-3)
    elapsed = time.perf_counter() - start
    ok = abs(g_star - 0.0273205) <= 1e-7 and obs.g2 < 1.0 and elapsed < 5.0
    verdict(capsys, 3, "blockade at optimal gain", ok, f"g_opt {g_star:.7f}, g2 {obs.g2:.3f}, {elapsed:.2f}s")


def test_04_analytic_numeric_agreement(capsys):
    # 10x10 grid inside the weak-pumping window F <= 0.05, |G| <= 0.02 where
    # the two-photon ansatz is valid; drives below 0.02 with |G| near 0.02
    # are squeezing-dominated and excluded (the ansatz itself breaks there)
    start = time.perf_counter()
    worst = 0.0
    defined = 0
    for f in np.linspace(0.02, 0.05, 10):
        for g in np.linspace(-0.01, 0.01, 10):
            p = SystemParams(delta=0.0, u=0.5, g=float(g), f=float(f), phi=math.pi / 12)
            _, obs, _ = converged_steady_state(p, 1e-3)
            approx = g2_analytic(amplitudes_closed_form(p))
            if obs.lg_g2 is None or approx is None or approx <= 0.0:
                continue
            defined += 1
            worst = max(worst, abs(math.log10(approx) - obs.lg_g2))
    elapsed = time.perf_counter() - start
    ok = defined == 100 and worst <= 0.2 and elapsed < 120.0
    verdict(capsys, 4, "analytic-numeric agreement", ok, f"worst |lg dev| {worst:.3f} over {defined} points, {elapsed:.1f}s")


def test_05_closed_form_vs_linear_solve(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        p = SystemParams(
            delta=float(rng.uniform(-2, 2)),
            u=float(rng.uniform(0, 3)),
            g=float(rng.uniform(-0.5, 0.5)),
            f=float(rng.uniform(0, 0.5)),
            phi=float(rng.uniform(0, 2 * math.pi)),
            kappa=float(rng.uniform(0.5, 2)),
        )
        a = amplitudes_closed_form(p)
        b = amplitudes_linear_solve(p)
        scale = max(abs(b.c1), abs(b.c2), 1.0)
        worst = max(worst, abs(a.c1 - b.c1) / scale, abs(a.c2 - b.c2) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict(capsys, 5, "closed form vs linear solve", ok, f"worst rel dev {worst:.2e} over 1000 draws, {elapsed:.2f}s")


def test_06_exact_two_path_cancellation(capsys):
    p = SystemParams(delta=0.5, u=0.0, g=math.sqrt(2) * 0.01, f=0.1, phi=math.pi / 8)
    amps = amplitudes_closed_form(p)
    residual = interference_residual(p)
    ok = abs(amps.c2) <= 1e-15 and abs(residual.real) <= 1e-16 and abs(residual.imag) <= 1e-16
    verdict(capsys, 6, "exact two-path cancellation", ok,
            f"|c2| {abs(amps.c2):.2e}, residuals {abs(residual.real):.2e}/{abs(residual.imag):.2e}")


def test_07_resonance_peak_and_growth(capsys):
    start = time.perf_counter()
    base, axes = preset("fig2a")
    result = run_sweep(base, axes, 1e-3)
    elapsed = time.perf_counter() - start
    deltas = axes[1].points()
    step = deltas[1] - deltas[0]
    count = len(deltas)
    peak_positions = []
    peak_heights = []
    for i in range(axes[0].count):
        rows = result.rows[i * count:(i + 1) * count]
        n = np.array([r.n_mean for r in rows])
        peak_positions.append(float(deltas[int(np.argmax(n))]))
        peak_heights.append(float(n.max()))
    centered = all(abs(pos) <= step + 1e-12 for pos in peak_positions)
    growing = all(b > a for a, b in zip(peak_heights, peak_heights[1:]))
    ok = centered and growing and elapsed < 120.0
    verdict(capsys, 7, "resonance peak at zero detuning", ok,
            f"peaks at {[round(p, 3) for p in peak_positions]}, heights {[round(h, 4) for h in peak_heights]}, {elapsed:.1f}s")


def test_08_phase_modulation_period_pi(capsys):
    start = time.perf_counter()
    base, axes = preset("fig2b")
    result = run_sweep(base, axes, 1e-3)
    elapsed = time.perf_counter() - start
    phis = axes[1].points()
    count = len(phis)
    step = phis[1] - phis[0]
    half = (count - 1) // 2  # grid step is pi/100, so a half period is 100 steps
    worst_period = 0.0
    peak_ok = True
    for i in range(axes[0].count):
        rows = result.rows[i * count:(i + 1) * count]
        n = np.array([r.n_mean for r in rows])
        shift_dev = np.max(np.abs(n[:count - half] - n[half:])) / n.max()
        worst_period = max(worst_period, float(shift_dev))
        for target in (math.pi / 2, -math.pi / 2):
            window = np.abs(phis - target) <= math.pi / 4
            local = np.where(window)[0]
            peak_phi = phis[local[np.argmax(n[local])]]
            if abs(peak_phi - target) > step + 1e-12:
                peak_ok = False
    ok = worst_period <= 1e-6 and peak_ok and elapsed < 120.0
    verdict(capsys, 8, "phase modulation period pi", ok,
            f"period rel dev {worst_period:.2e}, maxima at +/-pi/2 within one step: {peak_ok}, {elapsed:.1f}s")


def test_09_peak_drift_with_gain(capsys):
    start = time.perf_counter()
    base, axes = preset("fig2c")
    result = run_sweep(base, axes, 1e-3)
    elapsed = time.perf_counter() - start
    deltas = axes[1].points()
    step = deltas[1] - deltas[0]
    count = len(deltas)
    gains = axes[0].points()
    strong = int(np.argmax(gains))  # the G = 0.4 trace
    rows = result.rows[strong * count:(strong + 1) * count]
    n = np.array([r.n_mean for r in rows])
    peak_delta = deltas[int(np.argmax(n))]
    ok = peak_delta <= -step + 1e-12 and elapsed < 120.0
    verdict(capsys, 9, "peak drift at strong gain", ok, f"G {gains[strong]}, peak at delta {peak_delta:.2f}, {elapsed:.1f}s")


def test_10_blockade_dip_stability_in_kerr(capsys):
    start = time.perf_counter()
    axis = GridAxis.linear("g", -0.05, 0.2, 101)
    dip_indices = []
    for u in (0.1, 1.0, 2.0, 5.0):
        base = SystemParams(delta=0.0, u=u, f=0.1, phi=math.pi / 12)
        result = run_sweep(base, [axis], 1e-3)
        lg = np.array([r.lg_g2 for r in result.rows])
        dip_indices.append(int(np.argmin(lg)))
    elapsed = time.perf_counter() - start
    spread = max(dip_indices) - min(dip_indices)
    ok = spread <= 1 and elapsed < 600.0
    verdict(capsys, 10, "blockade dip stable in Kerr", ok, f"dip indices {dip_indices}, spread {spread} steps, {elapsed:.1f}s")


def test_11_physicality_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst_herm = 0.0
    worst_trace = 0.0
    min_eig = 1.0
    failures = 0
    for _ in range(200):
        p = SystemParams(
            delta=float(rng.uniform(-2, 2)),
            u=float(rng.uniform(0.1, 5)),
            g=float(rng.uniform(-0.5, 0.5)),
            f=float(rng.uniform(0.01, 0.5)),
            phi=float(rng.uniform(0, 2 * math.pi)),
        )
        try:
            rho, _, _ = converged_steady_state(p, 1e-3)
        except SteadyStateError:
            failures += 1
            continue
        m = rho.entries
        worst_herm = max(worst_herm, float(np.max(np.abs(m - m.conj().T))))
        worst_trace = max(worst_trace, abs(float(np.trace(m).real) - 1.0))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(m)[0]))
    elapsed = time.perf_counter() - start
    ok = failures == 0 and worst_herm <= 1e-10 and worst_trace <= 1e-10 and min_eig >= -1e-8
    verdict(capsys, 11, "physicality suite", ok,
            f"failures {failures}, herm {worst_herm:.2e}, trace {worst_trace:.2e}, min eig {min_eig:.2e}, {elapsed:.1f}s")


def test_12_time_evolution_oracle(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        p = weak_drive_draw(rng)
        exact = observables(steady_state(p, 12))
        evolved = observables(DensityMatrix(12, rk4_steady(p, 12)))
        worst = max(worst, abs(evolved.mean_photon - exact.mean_photon))
        if evolved.g2 is not None and exact.g2 is not None:
            worst = max(worst, abs(evolved.g2 - exact.g2))
        pop_dev = np.max(np.abs(np.array(evolved.populations) - np.array(exact.populations)))
        worst = max(worst, float(pop_dev))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 120.0
    verdict(capsys, 12, "time-evolution oracle", ok, f"worst dev {worst:.2e} over 20 draws, {elapsed:.1f}s")
