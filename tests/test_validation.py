import json
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

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
    def _gamma_law_samples(self, n, m, seed):
        # radii with exactly the Kostlan law, angles uniform
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(m):
            r2 = rng.gamma(shape=np.arange(1, n + 1), scale=1.0)
            th = rng.uniform(-math.pi, math.pi, n)
            out.append(SampleSet(points=np.sqrt(r2) * np.exp(1j * th),
                                 method="matrix", params={"N": n}, seed=-1))
        return out

    def test_kostlan_check_passes_on_exact_law(self):
        report = validation.ValidationReport(seed=0)
        validation.kostlan_check(self._gamma_law_samples(12, 4000, 1), report)
        assert report.passed, [c.to_dict() for c in report.checks]

    def test_kostlan_check_fails_on_uniform(self):
        rng = np.random.default_rng(2)
        n, m = 12, 4000
        fakes = []
        for _ in range(m):
            r = math.sqrt(n) * np.sqrt(rng.random(n))
            th = rng.uniform(-math.pi, math.pi, n)
            fakes.append(SampleSet(points=r * np.exp(1j * th), method="matrix",
                                   params={"N": n}, seed=-1))
        report = validation.ValidationReport(seed=0)
        validation.kostlan_check(fakes, report)
        assert not report.passed

    def test_mixed_rank_rejected(self):
        a = SampleSet(points=np.zeros(2, complex), method="matrix", params={"N": 2}, seed=-1)
        b = SampleSet(points=np.zeros(3, complex), method="matrix", params={"N": 3}, seed=-1)
        with pytest.raises(ValueError):
            validation.kostlan_check([a, b], validation.ValidationReport(seed=0))

    def test_intensity_requires_enough_samples(self):
        few = [SampleSet(points=np.zeros(1, complex), method="matrix",
                         params={"N": 1}, seed=-1)] * 10
        with pytest.raises(ValueError):
            validation.intensity_check(few, validation.ValidationReport(seed=0))


class TestDeterministicChecks:
    def test_trace_identity(self):
        report = validation.ValidationReport(seed=0)
        validation.trace_identity_checks(report)
        assert report.passed

    def test_circular_law_bounds(self):
        report = validation.ValidationReport(seed=0)
        validation.circular_law_bound_checks(report)
        assert report.passed

    def test_delta_asymptotics(self):
        report = validation.ValidationReport(seed=0)
        validation.delta_asymptotic_checks(report)
        assert report.passed


class TestReportFormat:
    def test_json_schema_and_round_trip(self):
        report = validation.ValidationReport(seed=11)
        validation.trace_identity_checks(report)
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == validation.SCHEMA_VERSION
        assert payload["seed"] == 11
        assert payload["passed"] is True
        assert len(payload["checks"]) == 4
        for chk in payload["checks"]:
            assert {"name", "theoretical", "empirical", "tolerance",
                    "sample_size", "passed"} <= set(chk)

    def test_failed_names_enumerated(self):
        report = validation.ValidationReport(seed=0)
        report.add(validation.CheckResult(
            name="doomed", theoretical=0.0, empirical=1.0,
            tolerance={"rule": "absolute", "limit": 0.0},
            sample_size=1, passed=False))
        assert report.failed_checks() == ["doomed"]
        assert not report.passed


class TestEquivalenceCheck:
    def test_same_law_passes(self):
        sampler = pipelines.ConditionedSampler(2)
        a = sampler.sample_batch(100, 3000)
        b = sampler.sample_batch(200, 3000)
        report = validation.ValidationReport(seed=0)
        validation.method_equivalence_check(a, b, report)
        assert report.passed

    def test_different_law_fails(self):
        sampler2 = pipelines.ConditionedSampler(2)
        sampler3 = pipelines.ConditionedSampler(3)
        a = sampler2.sample_batch(100, 3000)
        b = sampler3.sample_batch(200, 3000)
        report = validation.ValidationReport(seed=0)
        validation.method_equivalence_check(a, b, report)
        assert not report.passed
