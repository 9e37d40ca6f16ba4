import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gridforest.errors import NoRealRoot, SingularSystem, UnobservedNode
from gridforest.lines import estimate_edge, learn_structure_and_params
from gridforest.moments import MomentSet
from gridforest.network import line_param_map
from gridforest.powerflow import analytic_moments, sample_voltages
from gridforest.synth import FeederSpec, draw_injections, synth_layout

from conftest import estimate_edge_linear, magnitude_only, random_feeder


def forward_stats(r, x, sp, sq, s):
    a = r * r * sp + x * x * sq + 2 * r * x * s
    b = x * x * sp + r * r * sq - 2 * r * x * s
    c = r * x * (sp - sq) + (x * x - r * r) * s
    return a, b, c


def test_worked_example():
    a, b, c = forward_stats(1.0, 2.0, 1.0, 1.0, 0.5)
    assert (a, b, c) == (7.0, 3.0, 1.5)
    est = estimate_edge(a, b, c, 1.0, 1.0)
    assert est.r_hat == pytest.approx(1.0, rel=1e-12)
    assert est.x_hat == pytest.approx(2.0, rel=1e-12)
    assert est.cov_pq_hat == pytest.approx(0.5, rel=1e-12)
    assert est.root_choice in ("plus", "minus")
    assert est.residual < 1e-10


def test_grid_search_oracle_agrees():
    """Independent oracle: brute-force (r, x) grid minimizing the statistic
    residuals, refined twice."""
    r0, x0, sp, sq, s0 = 0.8, 1.7, 1.4, 0.9, 0.55
    a, b, c = forward_stats(r0, x0, sp, sq, s0)
    t = (a + b) / (sp + sq)

    def resid(r, x):
        s = (a - r * r * sp - x * x * sq) / (2 * r * x)
        return abs(x * x * sp + r * r * sq - 2 * r * x * s - b) + abs(
            r * x * (sp - sq) + (x * x - r * r) * s - c
        )

    lo, hi = 1e-3, np.sqrt(t)
    best = None
    for _ in range(3):
        rs = np.linspace(lo, hi, 400)
        vals = [(resid(r, np.sqrt(max(t - r * r, 1e-12))), r) for r in rs]
        best = min(vals)
        span = (hi - lo) / 40
        lo, hi = max(best[1] - span, 1e-4), min(best[1] + span, np.sqrt(t) - 1e-6)
    est = estimate_edge(a, b, c, sp, sq)
    assert est.r_hat == pytest.approx(best[1], rel=1e-2)
    assert est.r_hat == pytest.approx(r0, rel=1e-10)
    assert est.x_hat == pytest.approx(x0, rel=1e-10)


def test_equal_impedances_still_recovered():
    # r == x: the mirror root is rejected by covariance positivity
    r = x = 1.3
    sp, sq, s = 2.0, 0.7, 0.6
    a, b, c = forward_stats(r, x, sp, sq, s)
    est = estimate_edge(a, b, c, sp, sq)
    assert est.r_hat == pytest.approx(r, rel=1e-9)
    assert est.x_hat == pytest.approx(x, rel=1e-9)
    assert est.cov_pq_hat == pytest.approx(s, rel=1e-9)


def test_symmetric_coincident_root():
    # equal impedances with equal variance sums collapse the quadratic
    r = x = 0.9
    sp = sq = 1.1
    a, b, c = forward_stats(r, x, sp, sq, 0.4)
    assert c == pytest.approx(0.0)
    est = estimate_edge(a, b, c, sp, sq)
    assert est.coincident
    assert est.r_hat == pytest.approx(r, rel=1e-8)
    assert est.cov_pq_hat == pytest.approx(0.4, rel=1e-8)


def test_zero_cross_statistic_with_matched_variances():
    # C = 0 with var_p = var_q pins the pq covariance to zero; (r, x) stay
    # unidentifiable beyond their square sum and the call reports exactly that
    r, x = 0.7, 1.9
    sp = sq = 1.3
    a, b, c = forward_stats(r, x, sp, sq, 0.0)
    assert c == pytest.approx(0.0)
    with pytest.raises(SingularSystem) as exc_info:
        estimate_edge(a, b, c, sp, sq)
    info = exc_info.value.identifiable
    assert info["sum_cov_pq"] == 0.0
    assert info["r2_plus_x2"] == pytest.approx(r * r + x * x, rel=1e-12)


def test_descendant_cov_subtraction():
    r, x, sp, sq = 1.0, 2.0, 3.0, 2.5
    s_total = 0.9  # subtree sum; strict descendants contribute 0.3
    a, b, c = forward_stats(r, x, sp, sq, s_total)
    est = estimate_edge(a, b, c, sp, sq, desc_cov_pq=0.3)
    assert est.cov_pq_hat == pytest.approx(0.6, rel=1e-9)


def test_no_real_root_on_inconsistent_inputs():
    with pytest.raises(NoRealRoot):
        estimate_edge(10.0, 10.0, 40.0, 1.0, 1.0)


def test_degenerate_statistics_raise_singular():
    # A == B and C == 0: only r^2 + x^2 is identifiable
    with pytest.raises(SingularSystem):
        estimate_edge(5.0, 5.0, 0.0, 1.0, 1.0)


def test_preconditions():
    with pytest.raises(ValueError):
        estimate_edge(1.0, 1.0, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        estimate_edge(-1.0, 1.0, 0.1, 1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    r=st.floats(0.05, 3.0),
    x=st.floats(0.05, 3.0),
    sp=st.floats(0.1, 5.0),
    sq=st.floats(0.1, 5.0),
    rho=st.floats(0.05, 0.95),
)
# nearly coincident roots: the discriminant must not lose half its digits
@example(r=2.8125, x=0.0625, sp=1.0, sq=0.1015625, rho=0.0625)
def test_round_trip_property(r, x, sp, sq, rho):
    assume(abs(r - x) / max(r, x) > 0.05)
    s = rho * np.sqrt(sp * sq)
    a, b, c = forward_stats(r, x, sp, sq, s)
    est = estimate_edge(a, b, c, sp, sq)
    assert est.r_hat == pytest.approx(r, rel=1e-8)
    assert est.x_hat == pytest.approx(x, rel=1e-8)
    assert est.cov_pq_hat == pytest.approx(s, rel=1e-8)
    assert est.r_hat**2 + est.x_hat**2 == pytest.approx((a + b) / (sp + sq), rel=1e-8)


def test_linear_path_agrees_with_quadratic():
    rng = np.random.default_rng(5)
    for _ in range(100):
        r, x = rng.uniform(0.05, 2.5, size=2)
        if abs(r - x) / max(r, x) < 0.02:
            continue
        sp, sq = rng.uniform(0.2, 4.0, size=2)
        s = rng.uniform(0.1, 0.9) * np.sqrt(sp * sq)
        a, b, c = forward_stats(r, x, sp, sq, s)
        r_lin, x_lin, w = estimate_edge_linear(a, b, c, sp, sq, s)
        est = estimate_edge(a, b, c, sp, sq)
        assert r_lin == pytest.approx(est.r_hat, rel=1e-8)
        assert x_lin == pytest.approx(est.x_hat, rel=1e-8)
        assert w == pytest.approx(r * x, rel=1e-8)


# -- combined learner ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_population_structure_and_params_exact(seed):
    forest, inj = random_feeder(seed, n_range=(2, 30), k_max=4)
    ms = MomentSet.from_analytic(analytic_moments(forest, inj), zero_ids=forest.slack_ids)
    vp, vq, s = inj.as_maps()
    rec, ests = learn_structure_and_params(ms, vp, vq, forest.substation_children())
    assert rec.parent == forest.parent
    params = line_param_map(forest.lines)
    for (a, b), est in ests.items():
        key = (a, b) if a < b else (b, a)
        r, x = params[key]
        assert est.r_hat == pytest.approx(r, rel=1e-6)
        assert est.x_hat == pytest.approx(x, rel=1e-6)
        assert est.cov_pq_hat == pytest.approx(s[a], rel=1e-6)


def test_single_edge_feeder_reduces_to_estimate_edge():
    spec = FeederSpec(n_loads=1, n_trees=1)
    forest = synth_layout(spec, 1)
    inj = draw_injections(spec, forest.load_ids, 2)
    ms = MomentSet.from_analytic(analytic_moments(forest, inj), zero_ids=forest.slack_ids)
    vp, vq, s = inj.as_maps()
    (load,) = forest.load_ids
    (slack,) = forest.slack_ids
    rec, ests = learn_structure_and_params(ms, vp, vq, {slack: (load,)})
    a_stat = ms.with_zero_ids((slack,)).sqdiff("eps", load, slack)
    b_stat = ms.with_zero_ids((slack,)).sqdiff("theta", load, slack)
    c_stat = ms.with_zero_ids((slack,)).sqdiff("cross", load, slack)
    single = estimate_edge(a_stat, b_stat, c_stat, vp[load], vq[load])
    est = ests[(load, slack)]
    assert est.r_hat == pytest.approx(single.r_hat, rel=1e-12)
    assert est.x_hat == pytest.approx(single.x_hat, rel=1e-12)


def test_magnitude_only_moments_rejected():
    forest, inj = random_feeder(4, n_range=(4, 10), k_max=2)
    samples = magnitude_only(sample_voltages(forest, inj, 50, seed=1))
    vp, vq, _ = inj.as_maps()
    with pytest.raises(UnobservedNode, match="theta"):
        learn_structure_and_params(
            MomentSet.from_samples(samples), vp, vq, forest.substation_children()
        )


def test_finite_sample_param_error_decays():
    spec = FeederSpec(n_loads=13, n_trees=3, extra_lines=10)
    forest = synth_layout(spec, 21)
    params = line_param_map(forest.lines)
    med_errs = []
    for m in (2000, 32_000):
        errs = []
        for seed in range(10):
            inj = draw_injections(spec, forest.load_ids, [77, seed])
            vp, vq, _ = inj.as_maps()
            samples = sample_voltages(forest, inj, m, [m, seed])
            ms = MomentSet.from_samples(samples, zero_ids=forest.slack_ids)
            try:
                rec, ests = learn_structure_and_params(
                    ms, vp, vq, forest.substation_children(), rel_tol=1e-6
                )
            except Exception:
                errs.append(1.0)
                continue
            for (a, b), est in ests.items():
                key = (a, b) if a < b else (b, a)
                if key in params:
                    errs.append(abs(est.r_hat - params[key][0]) / params[key][0])
        med_errs.append(np.median(errs))
    assert med_errs[1] < med_errs[0]
    assert med_errs[1] < 0.2
