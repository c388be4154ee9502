import json
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from ginibre import pipelines, validation
from ginibre.records import SampleSet


class TestDeltaN:
    def test_positive(self):
        for n in (1, 5, 50, 400):
            assert validation.delta_n(n) > 0.0

    def test_quadrature_oracle(self):
        # delta(N) = int_{|z|>sqrt N} rho = int_N^inf Q(N, u) du
        n = 100
        from ginibre.specfun import regularized_upper_gamma
        oracle, err = integrate.quad(lambda u: regularized_upper_gamma(n, u),
                                     n, n + 200, limit=400)
        assert err < 1e-8
        assert validation.delta_n(n) == pytest.approx(oracle, abs=1e-6)

    def test_asymptotic_bracket(self):
        ratio = validation.delta_n(900) / math.sqrt(900 / (2 * math.pi))
        assert 0.9 <= ratio <= 1.1


class TestKostlanMaxCdf:
    def test_matches_mpmath_product(self):
        # P(max |X_i|^2 <= x) = prod_{i=1..N} P(i, x) at N = 50
        cdf = validation.kostlan_max_cdf(50)
        xs = np.array([30.0, 55.0, 80.0])
        got = cdf(xs)
        with mpmath.workdps(30):
            ref = [mpmath.fprod(mpmath.gammainc(i, 0, x, regularized=True)
                                for i in range(1, 51)) for x in xs]
        for g, r, x in zip(got, ref, xs):
            assert g == pytest.approx(float(r), rel=1e-10)
            assert cdf(float(x)) == g

    def test_nonpositive_arguments_are_zero(self):
        cdf = validation.kostlan_max_cdf(5)
        assert cdf(0.0) == 0.0
        np.testing.assert_array_equal(cdf(np.array([-1.0, 0.0])), [0.0, 0.0])


class TestChecksOnSynthetic:
    def _gamma_law_points(self, n, m, seed):
        # radii with exactly the Kostlan law, angles uniform
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(m):
            r2 = rng.gamma(shape=np.arange(1, n + 1), scale=1.0)
            th = rng.uniform(-math.pi, math.pi, n)
            rows.append(np.sqrt(r2) * np.exp(1j * th))
        return np.array(rows)

    def test_kostlan_check_passes_on_exact_law(self):
        checks = validation.kostlan_check(self._gamma_law_points(12, 4000, 1))
        assert all(c.passed for c in checks), [c.to_dict() for c in checks]

    def test_kostlan_check_fails_on_uniform(self):
        rng = np.random.default_rng(2)
        n, m = 12, 4000
        fakes = []
        for _ in range(m):
            r = math.sqrt(n) * np.sqrt(rng.random(n))
            th = rng.uniform(-math.pi, math.pi, n)
            fakes.append(r * np.exp(1j * th))
        checks = validation.kostlan_check(np.array(fakes))
        assert not all(c.passed for c in checks)

    def test_intensity_requires_enough_samples(self):
        few = [SampleSet(points=np.zeros(1, complex), method="matrix",
                         params={"N": 1}, seed=-1)] * 10
        with pytest.raises(ValueError):
            validation.intensity_check(few)


class TestDeterministicChecks:
    def test_trace_identity(self):
        assert all(c.passed for c in validation.trace_identity_checks())

    def test_circular_law_bounds(self):
        assert all(c.passed for c in validation.circular_law_bound_checks())

    def test_delta_asymptotics(self):
        assert all(c.passed for c in validation.delta_asymptotic_checks())


class TestReportFormat:
    def test_json_schema_and_round_trip(self):
        report = validation.ValidationReport(seed=11, checks=validation.trace_identity_checks())
        payload = json.loads(report.to_json())
        # the exact key sets the benchmark's report check requires
        assert set(payload) == {"schema_version", "seed", "runtime_seconds", "passed", "checks"}
        assert payload["schema_version"] == validation.SCHEMA_VERSION
        assert payload["seed"] == 11
        assert payload["passed"] is True
        assert len(payload["checks"]) == 4
        for chk in payload["checks"]:
            assert set(chk) == {"name", "theoretical", "empirical", "tolerance",
                                "sample_size", "passed"}

    def test_z_checks_record_two_sided_pvalue(self):
        # 620 of 1000 one-point draws inside B_1, against P = 1 - 1/e
        points = np.where(np.arange(1000)[:, None] < 620, 0.5, 2.0).astype(complex)
        [check] = validation.conditioning_probability_check(points)
        z = check.tolerance["z"]
        assert check.tolerance["rule"] == "z-score" and 0.5 < z < 1.0
        assert check.tolerance["pvalue"] == pytest.approx(2 * stats.norm.sf(z), rel=1e-12)

    def test_failed_names_enumerated(self):
        report = validation.ValidationReport(seed=0, checks=[validation.CheckResult(
            name="doomed", theoretical=0.0, empirical=1.0,
            tolerance={"rule": "absolute", "limit": 0.0},
            sample_size=1, passed=False)])
        assert report.failed_checks() == ["doomed"]
        assert not report.passed


class TestHolm:
    @staticmethod
    def check(name, passed, **tolerance):
        return validation.CheckResult(name=name, theoretical=0.0, empirical=0.0,
                                      tolerance={"rule": "z-score", **tolerance},
                                      sample_size=1, passed=passed)

    def test_step_down_order_and_levels(self):
        checks = [self.check("p0045", False, pvalue=0.0045),
                  self.check("p001", True, pvalue=0.001),
                  self.check("own_fail", False),
                  self.check("p2", False, pvalue=0.2),
                  self.check("nan", True, pvalue=math.nan),
                  self.check("p004", False, pvalue=0.004),
                  self.check("own_pass", True)]
        validation.holm(checks)
        by_name = {c.name: c for c in checks}
        # sorted: nan, 0.001, 0.004, 0.0045, 0.2 against 0.01 / (5, 4, 3, 2, 1);
        # 0.004 > 0.01 / 3 stops the step-down, so 0.0045 <= 0.01 / 2 passes
        assert validation.FAMILY_LEVEL == 0.01
        for name, family_level, passed in (("nan", 0.01 / 5, False), ("p001", 0.01 / 4, False),
                                           ("p004", 0.01 / 3, True), ("p0045", 0.01 / 2, True),
                                           ("p2", 0.01, True)):
            assert by_name[name].tolerance["family_level"] == pytest.approx(family_level)
            assert by_name[name].passed is passed
        for name, passed in (("own_fail", False), ("own_pass", True)):
            assert "family_level" not in by_name[name].tolerance
            assert by_name[name].passed is passed


@pytest.fixture(scope="module")
def conditioned_points():
    """(3000, N) point arrays of the conditioned sampler, keyed by (N, seed)."""
    return {(n, seed): np.stack([s.points for s in
                                 pipelines.ConditionedSampler(n).sample_batch(seed, 3000)])
            for n, seed in ((2, 100), (2, 200), (3, 200))}


class TestEquivalenceCheck:
    def test_same_law_passes(self, conditioned_points):
        checks = validation.method_equivalence_check(conditioned_points[2, 100],
                                                     conditioned_points[2, 200])
        assert all(c.passed for c in checks)

    def test_min_pair_sample_size_counts_draws(self, conditioned_points):
        a, b = conditioned_points[2, 100], conditioned_points[2, 200]
        checks = validation.method_equivalence_check(a, b)
        assert [c.name for c in checks] == ["equivalence_radius",
                                            "equivalence_min_pair_distance"]
        assert checks[0].sample_size == a.size + b.size
        assert checks[1].sample_size == len(a) + len(b)
        assert all(c.tolerance["pvalue"] == c.empirical for c in checks)

    def test_different_law_fails(self, conditioned_points):
        checks = validation.method_equivalence_check(conditioned_points[2, 100],
                                                     conditioned_points[3, 200])
        assert not all(c.passed for c in checks)

    def test_uniform_fake_fails(self, conditioned_points):
        [control] = validation.negative_control_equivalence(conditioned_points[3, 200], 98)
        assert control.name == "negative_control_uniform_fails_equivalence"
        assert control.tolerance["rule"] == "must-fail"
        assert control.passed and control.tolerance["probe_pvalue"] <= validation.KS_LEVEL
