"""Monte Carlo harness: determinism, cross-route agreement, degeneracies."""

import json
import math
import os
import pathlib
import platform
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import recshrink
from recshrink import sim
from recshrink.records import DesignPair, Variant, mle_scale, sample_exponential_records
from recshrink.risk import RiskParams
from recshrink.sim import (
    _BLOCK,
    THETA2_GRID,
    SimConfig,
    _mle_batch,
    _ratio_se,
    convention_validation,
    mc_compare,
    mc_oracle_risk,
)

D22 = DesignPair(2, 2)
# mc_compare reports of (2,2) known and (3,5) location-scale at theta1 = 1e3, seed 7
FROZEN_REPORTS = pathlib.Path(__file__).parent / "data" / "mc_compare_frozen.json"


def _config(**kw):
    base = dict(
        design=D22,
        theta2_grid=(0.5, 1.0, 2.0),
        seed=1234,
        alpha=0.16,
        k=0.17,
        replicates=20_000,
    )
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _config(theta2_grid=())
        with pytest.raises(ValueError):
            _config(theta2_grid=(1.0, -2.0))
        with pytest.raises(ValueError):
            _config(alpha=0.0)
        with pytest.raises(ValueError):
            _config(k=1.5)
        with pytest.raises(ValueError):
            _config(replicates=0)
        with pytest.raises(ValueError):
            _config(theta1=-1.0)

    @pytest.mark.parametrize("replicates", [1, 0])
    def test_fewer_than_two_replicates_rejected(self, replicates):
        # one rule for both simulators: a standard error needs two replicates
        message = f"need at least two replicates for a standard error, got {replicates}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _config(replicates=replicates)
        with pytest.raises(ValueError, match=re.escape(message)):
            mc_oracle_risk(D22, 1.0, 0.16, 1.0, replicates, seed=0)

    @pytest.mark.parametrize("bad", [
        dict(alpha=0.0), dict(k=1.5), dict(theta1=-1.0),
        dict(alpha=1.5, k=-0.5, theta1=math.nan),     # alpha is checked first, theta1 last
        dict(k=2.0, theta1=0.0),
    ])
    def test_messages_are_the_closed_forms(self, bad):
        with pytest.raises(ValueError) as got:
            _config(**bad)
        with pytest.raises(ValueError) as want:
            RiskParams(D22, 1.0, **(dict(alpha=0.16, k=0.17) | bad))   # _config's alpha, k
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_scales_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            _config(theta2_grid=(1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            _config(theta1=bad)


class TestMcCompare:
    def test_bit_identical_reruns(self):
        a = mc_compare(_config())
        b = mc_compare(_config())
        assert a == b

    def test_seed_changes_results(self):
        a = mc_compare(_config())
        b = mc_compare(_config(seed=4321))
        assert a != b

    def test_seed_independent_conclusions(self):
        a = mc_compare(_config(seed=11, replicates=50_000))
        b = mc_compare(_config(seed=22, replicates=50_000))
        for ra, rb in zip(a.rows, b.rows):
            gap = abs(ra.eff_pt - rb.eff_pt)
            assert gap <= 6.0 * math.hypot(ra.se_eff_pt, rb.se_eff_pt)

    def test_k_zero_shrinkage_is_mle(self):
        report = mc_compare(_config(k=0.0))
        for row in report.rows:
            assert row.eff_s == 1.0
            assert row.se_eff_s == 0.0
            assert row.bias_s == row.bias_mle
            assert row.mse_s == row.mse_mle

    def test_unbiased_mle_known_location(self):
        report = mc_compare(_config(replicates=100_000))
        for row in report.rows:
            assert abs(row.bias_mle) <= 4.0 * row.se_bias_mle

    def test_matches_closed_form_risk(self):
        from recshrink.risk import shrink_risk

        config = _config(replicates=100_000)
        report = mc_compare(config)
        for row in report.rows:
            exact = shrink_risk(D22, row.theta2, config.alpha, config.k)
            assert abs(row.mse_s - exact) <= 3.0 * row.se_mse_s

    def test_csv_rows_layout(self):
        report = mc_compare(_config())
        rows = report.to_csv_rows()
        assert rows[0] == list(
            ("n1", "n2", "theta2", "bias_mle", "bias_pt", "bias_s", "eff_pt", "eff_s")
        )
        assert len(rows) == 1 + 3
        assert rows[1][:3] == [2, 2, 0.5]

    def test_json_includes_standard_errors(self):
        payload = mc_compare(_config()).to_json_dict()
        assert payload["seed"] == 1234
        assert {"se_eff_pt", "se_mse_s", "se_bias_mle"} <= set(payload["rows"][0])

    @pytest.mark.parametrize("scales, named", [
        (dict(theta1=1e308, theta2_grid=(1.0,)), "theta1=1e+308"),
        (dict(theta1=1e200, theta2_grid=(1.0,)), "theta1=1e+200"),
        (dict(theta1=1e-200, theta2_grid=(1.0,)), "theta1=1e-200"),
        (dict(theta2_grid=(1.0, 1e308)), "theta2=1e+308"),
        (dict(theta1=1e-10, theta2_grid=(1e300,)), "theta1=1e-10, theta2=1e+300"),
        (dict(theta1=1e-160, theta2_grid=(1.0,)), "theta1=1e-160"),   # a subnormal MSE
        # delta = theta2/theta1 underflows: to a subnormal, then to 0
        (dict(theta1=1e10, theta2_grid=(1e-300,)), "theta1=1e+10, theta2=1e-300"),
        (dict(theta1=1e300, theta2_grid=(1e-300,)), "theta1=1e+300, theta2=1e-300"),
    ])
    def test_scales_beyond_double_precision_rejected(self, scales, named):
        # these used to give NaN or inf-fed rows after numpy RuntimeWarnings
        with pytest.raises(ValueError, match=re.escape(named) + ".*leave double precision"):
            mc_compare(_config(replicates=100, **scales))

    def test_frozen_reports(self):
        # the same numbers, not only the same statistics, at a scale other than 1
        for frozen in json.loads(FROZEN_REPORTS.read_text(encoding="utf-8")):
            d = frozen["design"]
            config = SimConfig(
                design=DesignPair(d["n1"], d["n2"], Variant(d["variant"])),
                theta2_grid=[row["theta2"] for row in frozen["rows"]],
                seed=frozen["seed"], theta1=frozen["theta1"], alpha=frozen["alpha"],
                k=frozen["k"], replicates=frozen["replicates"],
            )
            payload = mc_compare(config).to_json_dict()
            assert {**payload, "rows": None} == {**frozen, "rows": None}
            for got, want in zip(payload["rows"], frozen["rows"], strict=True):
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("theta1", [1e-150, 1e-30, 1e30, 1e150])
    def test_wide_scales_give_finite_statistics(self, theta1):
        # two replicates, the fewest a standard error takes, and a hundred
        for reps in (2, 100):
            row = mc_compare(_config(theta1=theta1, replicates=reps)).rows[0]
            for name, value in vars(row).items():
                assert math.isfinite(value), name

    @pytest.mark.parametrize("theta1", [2.0**300, 2.0**-300], ids=["2**300", "2**-300"])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_theta1_scales_results_exactly(self, theta1, variant):
        # delta = theta2/theta1 is exact for a power of two, so the draws are
        # those of theta1 = 1 and only the scaling back differs
        design = DesignPair(3, 4, variant)
        unit = mc_compare(_config(design=design, replicates=2000))
        big = mc_compare(_config(design=design, replicates=2000, theta1=theta1,
                                 theta2_grid=[theta1 * t for t in (0.5, 1.0, 2.0)]))
        powers = {"theta2": 1, "bias": 1, "se_bias": 1, "mse": 2, "se_mse": 2,
                  "eff": 0, "se_eff": 0}
        for ru, rb in zip(unit.rows, big.rows):
            for name, value in vars(ru).items():
                power = powers[name.rsplit("_", 1)[0]]   # bias_pt -> bias, theta2 as is
                assert getattr(rb, name) == value * theta1**power, name


class TestMleBatch:
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("scale", [1.0, 0.37, 2.5e3, 1e-20])
    def test_known_location_equals_scalar_record_route(self, n, scale):
        reps = 64
        batch = _mle_batch(np.random.default_rng(n), n, scale, reps, Variant.KNOWN_LOCATION,
                           np.empty(reps), np.empty(_BLOCK))
        rng = np.random.default_rng(n)
        scalar = [mle_scale(sample_exponential_records(n, scale, rng=rng)) for _ in range(reps)]
        assert batch.tolist() == scalar

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("scale", [1.0, 0.37, 2.5e3, 1e-20])
    def test_location_scale_sums_the_gaps_after_the_first(self, n, scale):
        reps = 256
        batch = _mle_batch(np.random.default_rng(n), n, scale, reps, Variant.LOCATION_SCALE,
                           np.empty(reps), np.empty(_BLOCK))
        gaps = -scale * np.log1p(-np.random.default_rng(n).random((reps, n)))
        exact = np.array([math.fsum(row[1:]) / n for row in gaps])
        np.testing.assert_allclose(batch, exact, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n, variant", [
        (n, variant) for variant in Variant for n in (1, 2, 7, 10, 13, _BLOCK + 3)
        if n >= 2 or variant is Variant.KNOWN_LOCATION
    ])
    def test_blocks_keep_the_one_shot_bits(self, n, variant):
        # several whole blocks and a ragged tail; past _BLOCK, one replicate a block
        reps = 3 * (_BLOCK // n) + 7
        rng = np.random.default_rng(n)
        batch = _mle_batch(rng, n, 0.37, reps, variant, np.empty(reps), np.empty(_BLOCK))
        one_shot = np.random.default_rng(n)
        gaps = -0.37 * np.log1p(-one_shot.random((reps, n)))
        first = 0 if variant is Variant.KNOWN_LOCATION else 1
        exact = gaps[:, first].copy()
        for j in range(first + 1, n):
            exact += gaps[:, j]
        exact /= n
        assert np.array_equal(batch, exact)
        # the stream continues where the one-shot draw leaves it, so t2's draws stay put
        assert rng.random() == one_shot.random()


class TestWorkspace:
    @pytest.mark.parametrize("n", [10, 40])
    def test_memory_does_not_grow_with_the_design(self, n):
        # the draws go through one fixed block, not a (reps, n) array
        def peak(size):
            config = _config(design=DesignPair(size, size), theta2_grid=(1.0,), replicates=100_000)
            tracemalloc.start()
            try:
                mc_compare(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(n) - peak(2) <= 2 * _BLOCK * 8

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="checks glibc's dynamic mmap threshold")
    def test_steady_state_maps_no_fresh_pages(self):
        # The first call maps its workspace; freeing it raises glibc's mmap
        # threshold, so later workspaces come from the reused heap.  A
        # workspace that is never freed (kept across calls) leaves the
        # threshold low, and every call maps and faults in fresh pages.
        script = (
            "import resource\n"
            "from recshrink.records import DesignPair\n"
            "from recshrink.sim import SimConfig, mc_compare\n"
            "config = SimConfig(DesignPair(5, 6), (0.5, 1.0, 2.0), seed=1, replicates=100_000)\n"
            "for _ in range(4):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    mc_compare(config)\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(pathlib.Path(recshrink.__file__).parents[1])
        env = os.environ | {"PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        faults = [int(line) for line in run.stdout.split()]
        assert len(faults) == 4 and max(faults[2:]) < 100, faults


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkers:
    """The cells of one call run on min(cells, usable CPUs) threads."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def use(count):
            monkeypatch.setattr(sim, "_usable_cpus", lambda: count)
        return use

    @pytest.mark.parametrize("design", [DesignPair(2, 7),
                                        DesignPair(3, 5, Variant.LOCATION_SCALE)])
    def test_reports_do_not_depend_on_the_worker_count(self, cpus, design):
        # up to more workers than most test machines have cores, switching
        # threads as often as the interpreter allows: no worker may touch
        # another's arrays, and a ragged last block on each
        config = _config(design=design, theta2_grid=(0.1, 0.5, 1.0, 2.0, 3.0),
                         replicates=2 * _BLOCK + 5)
        reports, threads = [], threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for count in (1, 2, 3):
                cpus(count)
                reports.append(mc_compare(config))
        finally:
            sys.setswitchinterval(interval)
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert threading.active_count() == threads      # no worker outlives its call

    def test_the_call_waits_for_every_worker(self, cpus, monkeypatch):
        config = _config(replicates=100)
        cpus(1)
        serial = mc_compare(config)
        cell = sim._compare_cell

        def slow_off_the_calling_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
            return cell(*args)

        monkeypatch.setattr(sim, "_compare_cell", slow_off_the_calling_thread)
        cpus(2)
        threads = threading.active_count()
        assert mc_compare(config) == serial
        assert threading.active_count() == threads

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_the_first_cell_to_leave_double_precision_is_named(self, cpus, count):
        # the 2nd and the 4th theta2 both overflow; the 4th may finish first
        cpus(count)
        config = _config(theta2_grid=(1.0, 1e308, 1.0, 1.5e308, 1.0), replicates=100)
        with pytest.raises(ValueError, match=r"theta1=1, theta2=1e\+308: .*leave double precision"):
            mc_compare(config)

    @pytest.mark.parametrize("count", [1, 2])
    def test_other_errors_propagate_unchanged(self, cpus, monkeypatch, count):
        cpus(count)
        error = RuntimeError("injected")
        cell = sim._compare_cell

        def failing(config, c1, c2, theta2, child, ws):
            if theta2 == 2.0:
                raise error
            return cell(config, c1, c2, theta2, child, ws)

        monkeypatch.setattr(sim, "_compare_cell", failing)
        with pytest.raises(RuntimeError) as raised:
            mc_compare(_config(replicates=100))
        assert raised.value is error

    @pytest.mark.parametrize("count, limit", [(1, 3.8e6), (2, 7.5e6)])
    def test_each_worker_holds_four_arrays(self, cpus, count, limit):
        # four reps-length doubles (3.2 MB at 100k), two masks and the block per worker
        cpus(count)
        config = _config(theta2_grid=THETA2_GRID, replicates=100_000)
        assert _traced_peak(mc_compare, config) <= limit


def _cov_ratio_se(num, den):
    reps = num.size
    m1, m2 = num.mean(), den.mean()
    v11 = num.var(ddof=1) / reps
    v22 = den.var(ddof=1) / reps
    v12 = float(np.cov(num, den, ddof=1)[0, 1]) / reps
    var = (m1 / m2) ** 2 * (v11 / m1**2 + v22 / m2**2 - 2.0 * v12 / (m1 * m2))
    return math.sqrt(max(var, 0.0))


class TestRatioSe:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("reps", [50, 1000, 100_000])
    def test_matches_np_cov_formula(self, seed, reps):
        # the paired squared errors of the MLE and a shrinkage rule, as in a cell
        rng = np.random.default_rng(seed)
        t1 = rng.standard_gamma(3, reps) / 3
        t2 = rng.standard_gamma(4, reps) / 4
        shrunk = 0.3 * (3 * t1 + 4 * t2) / 7 + 0.7 * t1
        num, den = (t1 - 1.0) ** 2, (shrunk - 1.0) ** 2
        got = _ratio_se(num, den, float(num.mean()), float(den.mean()), np.empty(reps))
        assert got == pytest.approx(_cov_ratio_se(num, den), rel=1e-10)


class TestMcOracleRisk:
    def test_alpha_one_gives_mle_risk(self):
        est, se = mc_oracle_risk(D22, 1.5, 1.0, 1.0, 200_000, seed=5)
        assert abs(est - 0.5) <= 3.0 * se

    def test_k_zero_gives_mle_risk(self):
        est, se = mc_oracle_risk(D22, 0.7, 0.16, 0.0, 200_000, seed=6)
        assert abs(est - 0.5) <= 3.0 * se

    def test_deterministic(self):
        assert mc_oracle_risk(D22, 1.5, 0.16, 0.21, 10_000, seed=7) == mc_oracle_risk(
            D22, 1.5, 0.16, 0.21, 10_000, seed=7
        )

    def test_record_route_agrees_with_pivot_route(self):
        # mc_compare samples records; the oracle samples chi-square pivots.
        design = DesignPair(3, 3)
        config = SimConfig(
            design=design, theta2_grid=(1.0,), seed=77, alpha=0.16, k=1.0,
            replicates=200_000,
        )
        row = mc_compare(config).rows[0]
        est, se = mc_oracle_risk(design, 1.0, 0.16, 1.0, 200_000, seed=78)
        # theta1 = 1, so the plain MSE of the pre-test rule is its weighted risk
        assert abs(row.mse_pt - est) <= 3.0 * math.hypot(row.se_mse_pt, se)

    def test_location_scale_uses_reduced_df(self):
        d = DesignPair(3, 3, Variant.LOCATION_SCALE)
        est, se = mc_oracle_risk(d, 1.0, 1.0, 1.0, 200_000, seed=9)
        assert abs(est - 1.0 / 3.0) <= 3.0 * se

    @pytest.mark.parametrize("delta", [1e308, 5e-324])
    def test_extreme_finite_delta_rejects_every_draw(self, delta):
        # t2 or the ratio overflows only on rejected draws, which keep t1, so
        # the estimate equals the never-pooling alpha = 1 run on the same draws
        assert mc_oracle_risk(D22, delta, 0.16, 0.5, 10_000, seed=3) == mc_oracle_risk(
            D22, 1.0, 1.0, 0.5, 10_000, seed=3
        )

    @pytest.mark.parametrize("args, pinned", [
        ((D22, 1.0, 0.16, 0.21, 10_000, 7), (0.4467166610232662, 0.009452887607847427)),
        ((DesignPair(3, 3, Variant.LOCATION_SCALE), 1.0, 0.16, 0.21, 10_000, 7),
         (0.3101781724487926, 0.0032918094428306542)),
        ((DesignPair(5, 6), 2.0, 0.16, 1.0, 200_000, 3),
         (0.3287091472942889, 0.0011747714658947293)),
        ((DesignPair(10, 7), 0.5, 0.38, 0.21, 50_001, 11),
         (0.100016529943649, 0.0007059657399401498)),
        ((D22, 1e308, 0.16, 0.5, 10_000, 3), (0.5138147854189015, 0.01179901309287537)),
    ])
    def test_frozen_estimates(self, args, pinned):
        # the bits of the whole-array expressions the oracle used to evaluate
        assert mc_oracle_risk(*args) == pinned

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            mc_oracle_risk(D22, -1.0, 0.16, 1.0, 100, seed=0)
        for delta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                mc_oracle_risk(D22, delta, 0.16, 1.0, 100, seed=0)
        with pytest.raises(ValueError, match="k must lie in"):
            mc_oracle_risk(D22, 1.0, 0.16, 2.0, 100, seed=0)
        for alpha in (0.0, 1.5):
            with pytest.raises(ValueError, match="alpha must lie in"):
                mc_oracle_risk(D22, 1.0, alpha, 1.0, 100, seed=0)
        with pytest.raises(ValueError):
            mc_oracle_risk(D22, 1.0, 0.16, 1.0, 1, seed=0)


class TestConventionValidation:
    def test_memory_of_the_default_run(self):
        # the oracle's t1, t2 and ratio arrays (1.6 MB each at 200k) and two masks
        assert _traced_peak(convention_validation) <= 6e6

    def test_small_run_structure(self):
        result = convention_validation(replicates=20_000, seed=3)
        assert result["default_convention"] == "derived"
        assert result["default_ok"]
        assert result["surviving_conventions"] == ["derived"]
        # 3 designs x 3 deltas x 2 alphas x 2 ks x 2 conventions
        assert len(result["cells"]) == 72
        derived = [c for c in result["cells"] if c.convention == "derived"]
        assert all(c.ok for c in derived)

    def test_linear_map_closed_forms_are_frozen(self):
        # full-precision closed forms of the linear ("paper") map at (5,6),
        # alpha = 0.16, as computed when the map was still an option of
        # ``risk``; delta = 0.5 clamps both bounds to 0, so the risk is 1/n1
        result = convention_validation(replicates=2000, seed=1)
        got = {
            (c.delta, c.k): c.closed_form
            for c in result["cells"]
            if c.convention == "paper" and (c.n1, c.n2) == (5, 6) and c.alpha == 0.16
        }
        assert got == {
            (0.5, 0.21): 0.2,
            (0.5, 1.0): 0.2,
            (1.0, 0.21): 0.18474405535825558,
            (1.0, 1.0): 0.16942505267589797,
            (2.0, 0.21): 0.18260614647289095,
            (2.0, 1.0): 0.5507207938785066,
        }
