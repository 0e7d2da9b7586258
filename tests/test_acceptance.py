"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Criterion 4 asserts the resurrection law that holds for every state,
D_w(post) = delta + [S_w(rho|n_s) - min_n S_w(rho|n)] >= delta with n_s the
strong minimizer; it prints, but does not assert, the share of cases whose gap
is within 1e-3, because the gap is physical wherever the weak and strong
minimizing bases differ. Criterion 7 compares the minimizer against an
independent brute-force oracle whose grid is zoomed on its best local minima
until its own discretization error is far below the 1e-6 tolerance.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import superdiscord as sd
from superdiscord import cli, discord
from superdiscord.measure import INFINITY

from oracles import COMPUTATIONAL, binary_entropy, oracle_pure_delta, oracle_werner

STRENGTHS = (0.1, 0.5, 1.0)
ENSEMBLE_SIZE = 200


def criterion(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"{tag} criterion {num}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@dataclass
class EnsembleEntry:
    seed: int
    mutual_info: float
    discord: float
    dw_at: dict  # strength -> D_w
    dw_zero: float
    dw_inf: float
    records: dict  # strength -> ResurrectionRecord


@pytest.fixture(scope="module")
def ensemble():
    entries = []
    t0 = time.monotonic()
    for seed in range(ENSEMBLE_SIZE):
        rho = sd.random_state(seed, dim_a=2, rank=4)
        ds, _ = sd.super_discord(rho, INFINITY)
        records = {x: sd.verify_resurrection(rho, x) for x in STRENGTHS}
        # delta and D_s come from the same deterministic minimizations
        dw_at = {x: ds + rec.delta for x, rec in records.items()}
        entries.append(
            EnsembleEntry(
                seed=seed,
                mutual_info=sd.mutual_information(rho),
                discord=ds,
                dw_at=dw_at,
                dw_zero=sd.super_discord(rho, 0.0)[0],
                dw_inf=sd.super_discord(rho, INFINITY)[0],
                records=records,
            )
        )
    return entries, time.monotonic() - t0


def test_criterion_1_headline_number(capsys):
    t0 = time.monotonic()
    # independent recomputation of the headline constant before trusting it
    thetas = np.arange(0.0, math.pi + 1e-4, 1e-4)
    oracle_min = float(np.min(oracle_pure_delta(0.2, 0.2, thetas)))
    assert abs(oracle_min - 0.7010) < 1e-3

    rc = cli.main(["report", "--state", "pure", "--lambda0", "0.2", "--x", "0.2"])
    report = json.loads(capsys.readouterr().out)
    rc2 = cli.main(["resurrect", "--state", "pure", "--lambda0", "0.2", "--x", "0.2"])
    resurrect = json.loads(capsys.readouterr().out)
    elapsed = time.monotonic() - t0

    ok = (
        rc == 0
        and rc2 == 0
        and abs(report["delta"] - 0.7010) <= 1e-3
        and abs(resurrect["post_super_discord"] - 0.7010) <= 1e-3
        and resurrect["gap"] <= 1e-3
        and elapsed < 5.0
    )
    with capsys.disabled():
        criterion(
            1,
            "pure lambda0=0.2 x=0.2 gives delta = D_w(post) = 0.7010 within 1e-3",
            ok,
            f"delta={report['delta']:.6f} post={resurrect['post_super_discord']:.6f} "
            f"gap={resurrect['gap']:.2e} oracle={oracle_min:.6f} t={elapsed:.2f}s",
        )


def test_criterion_2_maximally_entangled_closed_forms():
    bell = sd.pure_schmidt(0.5)
    worst_delta = worst_post = 0.0
    for x in (0.1, 0.3, 0.7, 1.5, 3.0):
        expected = float(binary_entropy((1 + math.tanh(x)) / 2))
        worst_delta = max(worst_delta, abs(sd.analyze(bell, x).delta - expected))
        rec = sd.verify_resurrection(bell, x)
        worst_post = max(worst_post, abs(rec.post_super_discord - expected))
    ok = worst_delta <= 1e-6 and worst_post <= 1e-6
    criterion(
        2,
        "Bell-state delta and D_w(post) match h2((1+tanh x)/2) within 1e-6",
        ok,
        f"worst_delta={worst_delta:.2e} worst_post={worst_post:.2e}",
    )


def test_criterion_3_werner_closed_forms():
    worst_ce = worst_gap = 0.0
    coincide = True
    for z in np.linspace(0.1, 0.9, 9):
        w = sd.werner(float(z))
        for x in (0.1, 0.5, 1.0, 2.0):
            oracle = oracle_werner(float(z), x)
            _, weak_min = sd.minimize_conditional_entropy(w, x)
            _, strong_min = sd.minimize_conditional_entropy(w, INFINITY)
            worst_ce = max(
                worst_ce, abs(weak_min - oracle.weak_ce), abs(strong_min - oracle.strong_ce)
            )
            rec = sd.verify_resurrection(w, x)
            worst_gap = max(worst_gap, rec.gap)
            coincide = coincide and rec.coincidence
    ok = worst_ce <= 1e-6 and worst_gap <= 1e-6 and coincide
    criterion(
        3,
        "Werner conditional entropies match oracle (1e-6), gap <= 1e-6, bases coincide",
        ok,
        f"worst_ce={worst_ce:.2e} worst_gap={worst_gap:.2e} coincide={coincide}",
    )


def test_criterion_4_resurrection_at_scale(ensemble):
    """The resurrection law on every case: D_w(post) >= delta, and D_w(post) equals
    S_w(rho|n_s) - S_s(rho|n_s) in the strong basis n_s. The gap D_w(post) - delta
    is S_w(rho|n_s) - min_n S_w(rho|n), zero only when n_s also minimizes S_w; the
    share of gaps within 1e-3 is printed, not asserted."""
    entries, elapsed = ensemble
    total = violations = 0
    worst_law, worst_identity = -math.inf, 0.0
    for e in entries:
        rho = sd.random_state(e.seed, dim_a=2, rank=4)
        for x, rec in e.records.items():
            total += 1
            worst_law = max(worst_law, rec.delta - rec.post_super_discord)
            s_w = sd.weak_conditional_entropy(rho, rec.strong_basis, x)
            s_s = sd.weak_conditional_entropy(rho, rec.strong_basis, INFINITY)
            worst_identity = max(worst_identity, abs(rec.post_super_discord - (s_w - s_s)))
            if rec.gap > 1e-3:
                violations += 1
                print(
                    f"  violation: seed={e.seed} x={x} gap={rec.gap:.3e} "
                    f"strong_basis=({rec.strong_basis.gamma:.4f},{rec.strong_basis.delta:.4f}) "
                    f"post_weak_basis=({rec.post_weak_basis.gamma:.4f},{rec.post_weak_basis.delta:.4f})"
                )
    rate = 1.0 - violations / total
    ok = worst_law <= 1e-8 and worst_identity <= 1e-9 and elapsed < 600.0
    criterion(
        4,
        f"D_w(post) >= delta - 1e-8 and D_w(post) = S_w(n_s) - S_s(n_s) within 1e-9 "
        f"on all {total} random cases",
        ok,
        f"worst_delta_minus_post={worst_law:.2e} worst_identity={worst_identity:.2e} "
        f"gap<=1e-3 rate={100 * rate:.1f}% violations={violations} "
        f"ensemble_time={elapsed:.0f}s",
    )


def test_measured_states_walk_their_axis(ensemble, screen_calls):
    """Each measured state of criterion 4 has its R_k along the strong basis, so its lattice scan walks that
    axis: its estimate covers a few rounds of the walk, never the 2048 points of a hemisphere."""
    entries, _ = ensemble
    gg, dd = np.meshgrid(np.linspace(0, math.pi, 64), np.linspace(0, 2 * math.pi, 64, endpoint=False), indexing="ij")
    worst = 0
    for e in entries:
        rho = sd.random_state(e.seed, dim_a=2, rank=4)
        for x, rec in e.records.items():
            screen_calls.clear()
            post4 = sd.project_state(rho, rec.strong_basis).as_tensor()
            discord._lattice_values(post4, x, gg.ravel(), dd.ravel(), sd.OptimizerConfig())
            worst = max(worst, sum(screen_calls))
    assert worst <= 256, worst  # 64 seen: two rounds of the walk


def test_criterion_5_sandwich_and_limits(ensemble):
    entries, _ = ensemble
    worst_zero = worst_inf = 0.0
    sandwich_ok = True
    for e in entries:
        for x in STRENGTHS:
            dw = e.dw_at[x]
            sandwich_ok = sandwich_ok and (
                e.mutual_info + 1e-6 >= dw >= e.discord - 1e-6 >= -1e-6
            )
        worst_zero = max(worst_zero, abs(e.dw_zero - e.mutual_info))
        worst_inf = max(worst_inf, abs(e.dw_inf - e.discord))
    ok = sandwich_ok and worst_zero <= 1e-9 and worst_inf <= 1e-6
    criterion(
        5,
        "I >= D_w >= D_s >= 0 sandwich; D_w(0)=I within 1e-9; D_w(inf)=D_s within 1e-6",
        ok,
        f"worst_zero={worst_zero:.2e} worst_inf={worst_inf:.2e}",
    )


def test_criterion_6_monotonicity():
    ok = True
    worst = 0.0
    for seed in range(50):
        rho = sd.random_state(seed, dim_a=2, rank=4)
        values = [sd.super_discord(rho, x)[0] for x in (0.1, 0.2, 0.5, 1.0, 2.0, 5.0)]
        steps = [b - a for a, b in zip(values, values[1:])]
        worst = max(worst, max(steps))
        ok = ok and all(step <= 1e-6 for step in steps)
    criterion(6, "D_w non-increasing in x within 1e-6 on 50 random states", ok, f"worst_step={worst:.2e}")


def _oracle_weak_ce(t4, t, gg, dd):
    """Weak conditional entropy at flat (gamma, delta) arrays: own operator build,
    closed-form 2x2 eigenvalues, no package kernel."""
    ap, am = math.sqrt((1 - t) / 2), math.sqrt((1 + t) / 2)
    kets = np.stack([np.cos(gg / 2), np.exp(1j * dd) * np.sin(gg / 2)], -1)
    proj = kets[:, :, None] * kets.conj()[:, None, :]
    total = np.zeros(len(gg))
    for c0, c1 in ((ap, am), (am, ap)):
        ops = c1 * np.eye(2) + (c0 - c1) * proj
        m = np.einsum("gab,ibjc,gca->gij", ops, t4, ops)
        p = np.real(m[:, 0, 0] + m[:, 1, 1])
        det = np.real(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
        disc = np.sqrt(np.clip((p / 2) ** 2 - det, 0.0, None))
        lam = np.stack([p / 2 + disc, p / 2 - disc], -1) / np.maximum(p, 1e-300)[:, None]
        lam = np.clip(lam, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(lam > 0, lam * np.log2(lam), 0.0)
        total += np.where(p > 1e-12, -p * terms.sum(-1), 0.0)
    return total


def _brute_force_weak_ce_min(rho, x, n=256):
    """Independent brute-force oracle: a dense n x n (gamma, delta) grid, then each of
    its 4 best local minima zoomed 6 times on a 33 x 33 window.

    The bare grid is not fine enough for a 1e-6 check: its own discretization error
    reaches 7.6e-6. Each zoom spans two steps of the previous grid on either side
    of its best point (delta periodic, gamma clamped to [0, pi]), so the step shrinks
    eightfold per zoom.
    """
    starts, zooms, window = 4, 6, 33
    t = math.tanh(x) if math.isfinite(x) else 1.0
    t4 = rho.as_tensor()
    g = np.linspace(0, math.pi, n)
    d = np.linspace(0, 2 * math.pi, n, endpoint=False)
    gg, dd = np.meshgrid(g, d, indexing="ij")
    vals = _oracle_weak_ce(t4, t, gg.ravel(), dd.ravel()).reshape(n, n)
    padded = np.pad(vals, ((1, 1), (0, 0)), mode="edge")
    is_min = np.ones_like(vals, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            shifted = np.roll(padded[1 + di : 1 + di + n], dj, axis=1)
            is_min &= vals <= shifted
    cand = np.flatnonzero(is_min)
    cand = cand[np.argsort(vals.ravel()[cand])][:starts]
    best = float(vals.min())
    for k in cand:
        g0, d0 = gg.ravel()[k], dd.ravel()[k]
        hg, hd = 2 * g[1], 2 * d[1]
        for _ in range(zooms):
            wg = np.clip(np.linspace(g0 - hg, g0 + hg, window), 0.0, math.pi)
            wd = np.linspace(d0 - hd, d0 + hd, window)
            zg, zd = np.meshgrid(wg, wd, indexing="ij")
            zv = _oracle_weak_ce(t4, t, zg.ravel(), zd.ravel())
            j = int(np.argmin(zv))
            g0, d0 = zg.ravel()[j], zd.ravel()[j]
            best = min(best, float(zv[j]))
            hg, hd = 4 * hg / (window - 1), 4 * hd / (window - 1)
    return best


def test_criterion_7_optimizer_oracle():
    diffs = []
    for seed in range(20):
        rho = sd.random_state(seed, dim_a=2, rank=4)
        brute = _brute_force_weak_ce_min(rho, 0.5)
        _, two_phase = sd.minimize_conditional_entropy(rho, 0.5)
        diffs.append(brute - two_phase)
    worst = max(abs(d) for d in diffs)
    ok = worst <= 1e-6
    criterion(
        7,
        "two-phase minimizer matches the zoomed brute-force oracle "
        "(256x256 grid, 4 best local minima zoomed 6x) within 1e-6 on 20 states",
        ok,
        f"worst_abs_diff={worst:.2e} (all diffs >= 0: {all(d >= -1e-12 for d in diffs)})",
    )


def test_criterion_8_structural_suites():
    rng = np.random.default_rng(2024)
    herm_ok = complete_ok = compose_ok = idem_ok = norm_ok = True
    for i in range(100):
        rho = sd.random_state(i, dim_a=2, rank=int(rng.integers(1, 5)))
        herm_ok = herm_ok and np.abs(rho.entries - rho.entries.conj().T).max() <= 1e-10

        basis = sd.QubitBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        pair = sd.weak_pair(basis, float(rng.uniform(0, 3)))
        ident = pair[0].conj().T @ pair[0] + pair[1].conj().T @ pair[1]
        complete_ok = complete_ok and np.abs(ident - np.eye(2)).max() <= 1e-12

        x, y = rng.choice([0.1, 0.3, 0.7], size=2)
        px = sd.weak_pair(basis, float(x))[0]
        py = sd.weak_pair(basis, float(y))[0]
        pxy = sd.weak_pair(basis, float(x + y))[0]
        prod = px @ py
        compose_ok = compose_ok and (
            np.abs(prod / np.linalg.norm(prod) - pxy / np.linalg.norm(pxy)).max() <= 1e-10
        )

        once = sd.project_state(rho, basis)
        twice = sd.project_state(once, basis)
        idem_ok = idem_ok and np.abs(twice.entries - once.entries).max() <= 1e-12

        for outcomes in (
            sd.projective_outcomes(rho, basis),
            sd.weak_outcomes(rho, pair),
        ):
            norm_ok = norm_ok and abs(sum(o.probability for o in outcomes) - 1.0) <= 1e-10

    ok = herm_ok and complete_ok and compose_ok and idem_ok and norm_ok
    criterion(
        8,
        "structural invariants hold on 100 random inputs each",
        ok,
        f"hermitian={herm_ok} completeness={complete_ok} composition={compose_ok} "
        f"idempotence={idem_ok} normalization={norm_ok}",
    )
