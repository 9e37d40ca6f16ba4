"""Acceptance suite: every release gate in one module.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Tolerances are pinned here; nothing is deferred.
"""

import time

import numpy as np

from gridforest.errors import GridForestError, InfeasibleSpec
from gridforest.experiments import fig4_config, fig5_config, run_experiment
from gridforest.lines import estimate_edge
from gridforest.missing import MissingSpec, learn_with_missing
from gridforest.network import line_param_map
from gridforest.powerflow import analytic_moments
from gridforest.structure import estimate_injection_stats, learn_structure
from gridforest.synth import FeederSpec, choose_hidden, draw_injections, synth_layout

from conftest import (
    descendant_set,
    h_inverse_entry,
    moment_blocks,
    pairwise_sqdiff_analytic,
    reduced_laplacian,
    root_of,
)


def _report(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def _random_feeders(count, seed, n_lo=2, n_hi=80, k_hi=11):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        k = int(rng.integers(1, min(n, k_hi) + 1))
        cap = max((n + k) * (n + k - 1) // 2 - n, 0)
        spec = FeederSpec(
            n_loads=n, n_trees=k,
            extra_lines=min(int(rng.integers(0, 20)), cap),
        )
        forest = synth_layout(spec, int(rng.integers(2**31)))
        inj = draw_injections(forest.load_ids, int(rng.integers(2**31)))
        out.append((forest, inj))
    return out


def _analytic_momset(forest, inj, hidden=()):
    ms = analytic_moments(forest, inj)
    return ms.restrict(i for i in forest.load_ids if i not in set(hidden))


FEEDERS_100 = None


def _feeders_100():
    global FEEDERS_100
    if FEEDERS_100 is None:
        FEEDERS_100 = _random_feeders(100, seed=20240817)
    return FEEDERS_100


def test_criterion_1_population_structure_exactness():
    """100 random feeders (N <= 80, K <= 11): exact recovery from population
    moments, total runtime under 10 s."""
    t0 = time.perf_counter()
    wins = 0
    for forest, inj in _feeders_100():
        ms = _analytic_momset(forest, inj)
        rec = learn_structure(ms, forest.substation_children())
        wins += rec.parent == forest.parent
    elapsed = time.perf_counter() - t0
    _report(
        1,
        wins == 100 and elapsed < 10.0,
        f"structure exact on {wins}/100 feeders in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_injection_statistics_round_trip():
    """Statistics estimation on population moments reproduces the truth to
    1e-8 relative on every feeder of criterion 1."""
    worst = 0.0
    for forest, inj in _feeders_100():
        ms = _analytic_momset(forest, inj)
        inj_hat = estimate_injection_stats(ms, forest)
        for est, tru in (
            (inj_hat.mu_p, inj.mu_p),
            (inj_hat.mu_q, inj.mu_q),
            (inj_hat.var_p, inj.var_p),
            (inj_hat.var_q, inj.var_q),
            (inj_hat.cov_pq, inj.cov_pq),
        ):
            worst = max(worst, float(np.max(np.abs(est - tru) / np.abs(tru))))
    _report(2, worst <= 1e-8, f"worst relative estimation error {worst:.2e} (<= 1e-8)")


def test_criterion_3_line_parameter_round_trip():
    """1000 random draws with |r-x|/max > 0.05 invert to 1e-8 relative;
    r = x degenerates are flagged or exactly solved, never wrong-valued."""
    rng = np.random.default_rng(4242)
    worst = 0.0
    failures = 0
    for _ in range(1000):
        while True:
            r, x = rng.uniform(0.02, 3.0, size=2)
            if abs(r - x) / max(r, x) > 0.05:
                break
        sp, sq = rng.uniform(0.1, 5.0, size=2)
        s = rng.uniform(0.05, 0.95) * np.sqrt(sp * sq)
        a = r * r * sp + x * x * sq + 2 * r * x * s
        b = x * x * sp + r * r * sq - 2 * r * x * s
        c = r * x * (sp - sq) + (x * x - r * r) * s
        try:
            est = estimate_edge(a, b, c, sp, sq)
        except GridForestError:
            failures += 1
            continue
        worst = max(
            worst,
            abs(est.r_hat - r) / r,
            abs(est.x_hat - x) / x,
            abs(est.cov_pq_hat - s) / s,
        )
    wrong_valued = 0
    for _ in range(200):
        r = x = rng.uniform(0.05, 2.0)
        sp, sq = rng.uniform(0.1, 5.0, size=2)
        s = rng.uniform(0.05, 0.95) * np.sqrt(sp * sq)
        a = r * r * sp + x * x * sq + 2 * r * x * s
        b = x * x * sp + r * r * sq - 2 * r * x * s
        c = r * x * (sp - sq) + (x * x - r * r) * s
        try:
            est = estimate_edge(a, b, c, sp, sq)
        except GridForestError:
            continue  # flagged: acceptable
        err = max(abs(est.r_hat - r) / r, abs(est.x_hat - x) / x)
        if err > 1e-8 and not est.coincident:
            wrong_valued += 1
    _report(
        3,
        failures == 0 and worst <= 1e-8 and wrong_valued == 0,
        f"1000/1000 inversions, worst {worst:.2e} (<= 1e-8); "
        f"r=x wrong-valued: {wrong_valued}",
    )


def test_criterion_4_missing_data_population_exactness():
    """100 random (feeder, valid hidden set) instances recover the full
    forest from population moments; wrong-candidate margins stay positive."""
    rng = np.random.default_rng(99)
    wins = 0
    min_margin = np.inf
    built = 0
    while built < 100:
        n = int(rng.integers(8, 40))
        k = int(rng.integers(1, 4))
        spec = FeederSpec(n_loads=n, n_trees=k, extra_lines=int(rng.integers(0, n)))
        forest = synth_layout(spec, int(rng.integers(2**31)))
        inj = draw_injections(forest.load_ids, int(rng.integers(2**31)))
        try:
            hidden = choose_hidden(forest, int(rng.integers(1, 4)), int(rng.integers(2**31)))
        except InfeasibleSpec:
            continue
        built += 1
        ms = _analytic_momset(forest, inj, hidden)
        vp, vq, s = inj.as_maps()
        try:
            rec, diag = learn_with_missing(
                ms, MissingSpec(hidden), vp, vq, s,
                line_param_map(forest.lines), forest.substation_children(),
            )
        except GridForestError:
            continue
        if rec.parent == forest.parent:
            wins += 1
            for ev in diag.events:
                if ev.kind is not None and ev.wrong_margin < np.inf:
                    scale = max(abs(ev.lhs), 1e-300)
                    min_margin = min(min_margin, ev.wrong_margin / scale)
    _report(
        4,
        wins == 100 and min_margin > 0.0,
        f"full recovery {wins}/100; min relative wrong-candidate margin "
        f"{min_margin:.2e} (> 0)",
    )


FIG4_REPORT = None


def _fig4_report():
    global FIG4_REPORT
    if FIG4_REPORT is None:
        FIG4_REPORT = run_experiment(fig4_config(seeds=tuple(range(24))))
    return FIG4_REPORT


def test_criterion_5_statistics_error_decay():
    """13-load / 3-substation feeder, 24 seeds: covariance error decreases
    monotonically over m in {400, 1600, 6400, 25600} with log-log slope
    -0.5 +/- 0.15; runtime under 2 minutes."""
    t0 = time.perf_counter()
    report = _fig4_report()
    elapsed = time.perf_counter() - t0
    grid = fig4_config().m_grid
    errs = np.array([report.aggregate("learn", m, "omega_p_err") for m in grid])
    monotone = bool(np.all(np.diff(errs) < 0))
    slope = float(np.polyfit(np.log(grid), np.log(errs), 1)[0])
    _report(
        5,
        monotone and -0.65 <= slope <= -0.35 and elapsed < 120.0,
        f"errors {np.round(errs, 4).tolist()} monotone={monotone}, "
        f"slope {slope:.3f} in [-0.65, -0.35], {elapsed:.1f}s (< 120s)",
    )


def test_criterion_6_structure_needs_fewer_samples_than_statistics():
    """At the smallest m whose aggregate structural error reaches zero, the
    covariance estimate still misses by more than 5 percent."""
    report = _fig4_report()
    grid = fig4_config().m_grid
    first_zero = None
    for m in grid:
        if report.aggregate("learn", m, "struct_err") == 0.0:
            first_zero = m
            break
    gap_err = None if first_zero is None else report.aggregate("learn", first_zero, "omega_p_err")
    _report(
        6,
        first_zero is not None and gap_err > 0.05,
        f"structural error hits 0 at m={first_zero}; omega_p error there "
        f"{gap_err:.3f} (> 0.05)",
    )


def test_criterion_7_missing_data_trends():
    """29-load feeder, 24 seeds: structural error non-decreasing in the
    hidden count {1, 2, 3} at fixed m, and decreasing in m per count."""
    cfg = fig5_config(seeds=tuple(range(24)))
    report = run_experiment(cfg)
    table = {
        k: [report.aggregate(f"learn-missing/h{k}", m, "struct_err") for m in cfg.m_grid]
        for k in cfg.missing_counts
    }
    non_decreasing_in_hidden = all(
        table[1][j] <= table[2][j] + 1e-12 and table[2][j] <= table[3][j] + 1e-12
        for j in range(len(cfg.m_grid))
    )
    decreasing_in_m = all(col[0] > col[-1] for col in table.values())
    _report(
        7,
        non_decreasing_in_hidden and decreasing_in_m,
        f"errors by hidden count {{1: {np.round(table[1], 4).tolist()}, "
        f"2: {np.round(table[2], 4).tolist()}, 3: {np.round(table[3], 4).tolist()}}}; "
        f"non-decreasing in count={non_decreasing_in_hidden}, "
        f"decreasing in m={decreasing_in_m}",
    )


def test_criterion_8_invariant_suites():
    """Feeders up to 50 nodes: variance ordering along ancestry, parent as
    squared-difference argmin, subtree closed form vs the general pairwise
    form, and path-sum entries vs dense inversion, all at 1e-10 relative."""
    rng = np.random.default_rng(31337)
    checked = {"order": 0, "argmin": 0, "closed": 0, "dense": 0}
    worst_rel = 0.0
    for _ in range(12):
        n = int(rng.integers(3, 51))
        k = int(rng.integers(1, min(n, 6) + 1))
        spec = FeederSpec(n_loads=n, n_trees=k, extra_lines=int(rng.integers(0, 10)))
        forest = synth_layout(spec, int(rng.integers(2**31)))
        inj = draw_injections(forest.load_ids, int(rng.integers(2**31)))
        var = np.diag(moment_blocks(analytic_moments(forest, inj))["omega_eps"])
        pos = forest.load_index
        vp, vq, cs = inj.as_maps()

        # dense-inversion oracle for both weightings
        for kind in ("r", "x"):
            dense = np.linalg.inv(reduced_laplacian(forest, kind))
            for a in forest.load_ids:
                for b in forest.load_ids:
                    got = h_inverse_entry(forest, kind, a, b)
                    want = dense[pos(a), pos(b)]
                    rel = abs(got - want) / max(abs(want), 1e-30)
                    worst_rel = max(worst_rel, rel)
                    checked["dense"] += 1

        for a in forest.load_ids:
            b = forest.parent[a]
            # variance strictly grows away from the slack
            if forest.is_load(b):
                assert var[pos(a)] > var[pos(b)]
                checked["order"] += 1
            # parent is the squared-difference argmin over non-descendants
            if forest.is_load(b):
                desc = descendant_set(forest, a)
                cands = [
                    c
                    for c in forest.load_ids
                    if c not in desc and root_of(forest, c) == root_of(forest, a)
                ]
                best = min(cands, key=lambda c: pairwise_sqdiff_analytic(forest, inj, a, c))
                assert best == b
                checked["argmin"] += 1
            # subtree closed form equals the general pairwise form
            if forest.is_load(b):
                r, x = forest.edge_params[a]
                desc = descendant_set(forest, a)
                closed = (
                    r * r * sum(vp[c] for c in desc)
                    + x * x * sum(vq[c] for c in desc)
                    + 2 * r * x * sum(cs[c] for c in desc)
                )
                general = pairwise_sqdiff_analytic(forest, inj, a, b, "eps")
                rel = abs(closed - general) / max(abs(general), 1e-30)
                worst_rel = max(worst_rel, rel)
                checked["closed"] += 1
    _report(
        8,
        worst_rel <= 1e-10 and all(v > 0 for v in checked.values()),
        f"invariants checked {checked}, worst relative deviation "
        f"{worst_rel:.2e} (<= 1e-10)",
    )
