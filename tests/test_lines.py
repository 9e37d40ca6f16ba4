import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gridforest.errors import BothRootsFeasible, NoRealRoot, SingularSystem, UnobservedNode
from gridforest import lines
from gridforest.experiments import injection_errors, line_errors
from gridforest.lines import estimate_edge, learn_structure_and_params
from gridforest.moments import MomentSet
from gridforest.network import line_param_map
from gridforest.powerflow import analytic_moments, sample_voltages
from gridforest.structure import estimate_injection_stats
from gridforest.synth import FeederSpec, draw_injections, synth_feeder, synth_layout

from conftest import (
    depths,
    estimate_edge_linear,
    magnitude_only,
    pair_stat,
    quadratic_estimate_edge,
    random_feeder,
)


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


def test_both_roots_feasible():
    # |C| <= rel_tol (A + B) leaves C's sign open, and both solutions fit
    with pytest.raises(BothRootsFeasible) as exc_info:
        estimate_edge(
            0.6560959143983695,
            0.6560959159752681,
            -4.05796786911667e-10,
            0.7634834309038385,
            0.7634834325675252,
        )
    (r0, x0, s0), (r1, x1, s1) = exc_info.value.candidates
    assert (r0, x0) == pytest.approx((0.7882257953135748, 0.48789898258725634), rel=1e-12)
    assert (r1, x1) == pytest.approx((0.924121881746607, 0.0731031414133985), rel=1e-9)
    assert s0 == pytest.approx(-6.105989145535878e-10, rel=1e-9)
    assert s1 == pytest.approx(s0, rel=1e-9)


def _outcome(solver, stats, rel_tol):
    try:
        return solver(*stats, rel_tol=rel_tol)
    except (NoRealRoot, SingularSystem, BothRootsFeasible) as exc:
        return type(exc)


def _root_gap(a, b, c, sp, sq):
    """|u+ - u-| / (u+ + u-) of the quadratic's two roots u = r^2 (0 when complex)."""
    t = (a + b) / (sp + sq)
    d, e = sp - sq, a - b
    alpha = e * e + 4.0 * c * c
    beta = t * (alpha + d * t * e)
    disc = 4.0 * c * c * t * t * (alpha - (d * t) ** 2)
    return np.sqrt(max(disc, 0.0)) / abs(beta)


@st.composite
def edge_statistics(draw):
    """(A, B, C, Sp, Sq): exact, noisy by up to 3% of A + B, or near A = B, C = 0."""
    kind = draw(st.sampled_from(["exact", "noisy", "near_singular"]))
    if kind == "near_singular":
        base, sp = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
        eps = 10.0 ** draw(st.floats(-12.0, -2.0))
        ea, eb, ec, ed = (draw(st.floats(-1.0, 1.0)) for _ in range(4))
        c_scale = draw(st.sampled_from([1.0, 1e-3, 0.0]))
        d_scale = draw(st.sampled_from([0.0, 1.0, 3.0]))
        sq = sp * (1.0 + eps * ed * d_scale)
        return base + eps * ea, base + eps * eb, base * eps * ec * c_scale, sp, sq
    r, x = draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0))
    sp, sq = draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0))
    s = draw(st.floats(-0.95, 0.95)) * np.sqrt(sp * sq)
    a, b, c = forward_stats(r, x, sp, sq, s)
    if kind == "noisy":
        a, b, c = ((a + b) * draw(st.floats(-0.03, 0.03)) + v for v in (a, b, c))
        assume(a > 0.0 and b > 0.0)
    return a, b, c, sp, sq


@settings(max_examples=400, deadline=None)
@given(stats=edge_statistics(), rel_tol=st.sampled_from([1e-9, 1e-6]))
def test_agrees_with_quadratic_oracle_property(stats, rel_tol):
    """The closed form against the quadratic in r^2 it replaced."""
    new = _outcome(estimate_edge, stats, rel_tol)
    old = _outcome(quadratic_estimate_edge, stats, rel_tol)
    a, b, c, sp, sq = stats
    t = (a + b) / (sp + sq)
    if (new is NoRealRoot) != (old is NoRealRoot):
        # past |Sp - Sq| = |W| / T the two roots turn complex; the closed
        # form takes |Sp - Sq| <= (1 + rel_tol) |W| / T as a double root, the
        # quadratic a discriminant down to -rel_tol times the roots' squared sum
        assert abs(sp - sq) * t > abs(complex(a - b, 2.0 * c))
        assert (old if new is NoRealRoot else new).coincident
        return
    if isinstance(old, type) or isinstance(new, type):
        assert new is old
        return
    if new.coincident != old.coincident:
        assert 0.1 <= _root_gap(*stats) / np.sqrt(rel_tol) <= 10.0
    if new.coincident or old.coincident:
        # the quadratic merges coincident roots to their midpoint, which
        # moves r^2 by up to half the gap, and with it the choice of root
        # and the covariance sum's sign; the closed form keeps each root
        assert new.r_hat**2 == pytest.approx(old.r_hat**2, abs=np.sqrt(rel_tol) * t)
        assert new.residual <= old.residual + rel_tol * (a + b)
        return
    assert (new.root_choice, new.sign_violation) == (old.root_choice, old.sign_violation)
    # near |Sp - Sq| = |W| / T both lose digits of a small S to cancellation
    tol = {"r_hat": np.sqrt(t), "x_hat": np.sqrt(t), "cov_pq_hat": sp + sq}
    for field, ref in tol.items():
        assert getattr(new, field) == pytest.approx(getattr(old, field), rel=1e-6, abs=1e-9 * ref)


# -- combined learner ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_population_structure_and_params_exact(seed):
    forest, inj = random_feeder(seed, n_range=(2, 30), k_max=4)
    ms = analytic_moments(forest, inj)
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


def test_population_accuracy_on_a_2000_deep_chain():
    # the statistics and the line parameters of a 2000-deep chain round-trip
    # from population moments far inside perfbench's 1e-6: each edge's
    # statistics cancel only the edge's own rows, not the whole path
    spec = FeederSpec(2000, n_trees=1, chain_bias=1.0, max_children=1)
    forest, inj = synth_feeder(spec, 1)
    assert max(depths(forest).values()) == 2000
    ms = analytic_moments(forest, inj)
    stats_err = max(injection_errors(estimate_injection_stats(ms, forest), inj).values())
    assert stats_err < 1e-8
    vp, vq, _ = inj.as_maps()
    rec, ests = learn_structure_and_params(ms, vp, vq, forest.substation_children())
    assert rec.parent == forest.parent
    assert max(line_errors(ests, forest).values()) < 1e-12


def test_single_edge_feeder_reduces_to_estimate_edge():
    spec = FeederSpec(n_loads=1, n_trees=1)
    forest = synth_layout(spec, 1)
    inj = draw_injections(forest.load_ids, 2)
    ms = analytic_moments(forest, inj)
    vp, vq, s = inj.as_maps()
    (load,) = forest.load_ids
    (slack,) = forest.slack_ids
    rec, ests = learn_structure_and_params(ms, vp, vq, {slack: (load,)})
    a_stat = pair_stat(ms.with_zero_ids((slack,)), "eps", load, slack)
    b_stat = pair_stat(ms.with_zero_ids((slack,)), "theta", load, slack)
    c_stat = pair_stat(ms.with_zero_ids((slack,)), "cross", load, slack)
    single = estimate_edge(a_stat, b_stat, c_stat, vp[load], vq[load])
    est = ests[(load, slack)]
    assert est.r_hat == pytest.approx(single.r_hat, rel=1e-12)
    assert est.x_hat == pytest.approx(single.x_hat, rel=1e-12)


@pytest.mark.parametrize("m, rel_tol", [(None, 1e-9), (4000, 1e-6)], ids=["population", "samples"])
def test_default_tolerance_follows_the_moments(monkeypatch, m, rel_tol):
    spec = FeederSpec(n_loads=13, n_trees=3, extra_lines=10)
    forest = synth_layout(spec, 21)
    inj = draw_injections(forest.load_ids, 3)
    if m is None:
        ms = analytic_moments(forest, inj)
    else:
        samples = sample_voltages(forest, inj, m, seed=4)
        ms = MomentSet.from_samples(samples, zero_ids=forest.slack_ids)
    vp, vq, _ = inj.as_maps()
    declared = forest.substation_children()
    tols = []

    def spy(*args, rel_tol, **kw):
        tols.append(rel_tol)
        return estimate_edge(*args, rel_tol=rel_tol, **kw)

    monkeypatch.setattr(lines, "estimate_edge", spy)
    rec, ests = learn_structure_and_params(ms, vp, vq, declared)
    assert set(tols) == {rel_tol}  # on this feeder both tolerances give the same edges
    want_rec, want = learn_structure_and_params(ms, vp, vq, declared, rel_tol=rel_tol)
    assert rec.parent == want_rec.parent
    assert ests == want


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
            inj = draw_injections(forest.load_ids, [77, seed])
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
