"""Numeric checks on the diagonal complex algebras."""

from __future__ import annotations

import numpy as np
import pytest

from njordan.cstar_num import (
    ALGEBRA_TOL,
    MAX_SAMPLES,
    DiagAlgebra,
    LinearMapC,
    check_corollary_2_6,
    check_step2,
    check_theorem_2_7,
    classify_njordan_functionals,
    coordinate_star_map,
    is_involution_preserving,
    is_power_jordan,
    op_norm_sup,
    preserves_star_product,
    random_linear_maps,
    step2_reduction_check,
)


class TestDiagAlgebra:
    def test_norm_is_sup_of_moduli(self):
        alg = DiagAlgebra(3)
        a = np.array([1 + 0j, -2j, 0.5 + 0.5j])
        assert alg.norm(a) == pytest.approx(2.0)

    def test_mul_and_star_are_pointwise(self):
        alg = DiagAlgebra(2)
        a = np.array([1 + 1j, 2j])
        b = np.array([2 + 0j, -1j])
        assert np.allclose(alg.mul(a, b), [2 + 2j, 2])
        assert np.allclose(alg.star(a), [1 - 1j, -2j])

    def test_cstar_identity_holds_to_algebra_tolerance(self):
        alg = DiagAlgebra(4)
        batch = alg.samples(256, seed=0)
        assert alg.cstar_identity_defect(batch) <= ALGEBRA_TOL

    def test_samples_are_reproducible(self):
        alg = DiagAlgebra(2)
        assert np.array_equal(alg.samples(16, seed=3), alg.samples(16, seed=3))


class TestOperatorNorm:
    def test_sup_induced_norm_is_max_row_l1(self):
        h = LinearMapC(np.array([[1.0, -2.0], [0.5, 0.0]]))
        assert op_norm_sup(h) == pytest.approx(3.0)

    def test_complex_entries_use_moduli(self):
        h = LinearMapC(np.array([[3 + 4j]]))
        assert op_norm_sup(h) == pytest.approx(5.0)


class TestFunctionalClassification:
    @pytest.mark.parametrize("m,n,count", [(2, 3, 5), (1, 2, 2), (2, 4, 7), (3, 3, 7)])
    def test_counts(self, m, n, count):
        fs = classify_njordan_functionals(m, n)
        assert len(fs) == count

    def test_zero_map_listed_first(self):
        fs = classify_njordan_functionals(2, 3)
        assert not fs[0].matrix.any()

    def test_every_functional_preserves_the_power(self):
        alg = DiagAlgebra(2)
        batch = alg.samples(128, seed=1)
        for f in classify_njordan_functionals(2, 3):
            ok, _ = is_power_jordan(f, 3, batch)
            assert ok

    def test_fourth_power_roots_include_complex_units(self):
        fs = classify_njordan_functionals(1, 4)
        entries = [complex(f.matrix[0, 0]) for f in fs]
        nonzero = [e for e in entries if abs(e) > 0.5]
        assert len(nonzero) == 3
        for e in nonzero:
            assert abs(e ** 3 - 1) < 1e-9


class TestHypothesisFilters:
    def test_scaled_identity_fails_star_product(self):
        h = LinearMapC(0.5 * np.eye(2))
        report = check_theorem_2_7(h, 1)
        assert report["rejected_by"] == "star_product"
        assert not report["ok"]

    def test_power_filter_fires_first(self):
        h = LinearMapC(np.array([[2.0]]))
        report = check_theorem_2_7(h, 2)
        assert report["rejected_by"] == "power_preservation"
        assert report["witness_sample"] is not None

    def test_involution_filter(self):
        h = LinearMapC(np.array([[1j]]))
        assert not is_involution_preserving(h)
        report = check_theorem_2_7(h, 1)
        assert report["rejected_by"] == "involution_preservation"

    def test_permutation_passes_all_filters(self):
        h = coordinate_star_map(3, (2, 0, 1))
        alg = DiagAlgebra(3)
        batch = alg.samples(64, seed=0)
        assert is_power_jordan(h, 3, batch)[0]
        assert is_involution_preserving(h)
        assert preserves_star_product(h, batch)[0]


class TestContractivityChecks:
    def test_functional_sweep_norms_are_exactly_one(self):
        for m in (1, 2, 3):
            for k in (1, 2, 3):
                report = check_corollary_2_6(m, k)
                assert report["ok"]
                assert report["max_norm"] <= 1.0
                assert report["injected_fake_rejected"]
                assert report["maps_checked"] == report["functionals_per_component"] ** k

    def test_functional_sweep_guard(self):
        with pytest.raises(ValueError):
            check_corollary_2_6(4, 2)

    def test_norm_chain_on_coordinate_permutations(self):
        for power in (1, 2, 3):
            report = check_theorem_2_7(coordinate_star_map(3, (1, 2, 0)), power)
            assert report["ok"]
            assert report["norm"] <= 1.0 + 1e-9
            assert report["min_slack"] >= -1e-9
            assert report["max_slack"] >= report["min_slack"]

    def test_zero_samples_are_refused(self):
        with pytest.raises(ValueError, match="at least 1"):
            DiagAlgebra(2).samples(0)
        with pytest.raises(ValueError, match="at least 1"):
            check_corollary_2_6(2, 2, samples=0)
        with pytest.raises(ValueError, match="at least 1"):
            check_theorem_2_7(coordinate_star_map(3), 1, samples=0)
        with pytest.raises(ValueError, match="at least 1"):
            step2_reduction_check(random_linear_maps(2, 2, 1)[0], 3, samples=0)
        with pytest.raises(ValueError, match="at least 1"):
            random_linear_maps(2, 2, 0)

    def test_counts_over_the_bound_are_refused(self):
        assert MAX_SAMPLES == 10 ** 5
        assert DiagAlgebra(1).samples(MAX_SAMPLES).shape == (MAX_SAMPLES, 1)
        with pytest.raises(ValueError, match="exceeds 100000"):
            DiagAlgebra(2).samples(MAX_SAMPLES + 1)
        with pytest.raises(ValueError, match="exceeds 100000"):
            check_theorem_2_7(coordinate_star_map(3), 1, samples=MAX_SAMPLES + 1)
        with pytest.raises(ValueError, match="exceeds 100000"):
            random_linear_maps(2, 2, MAX_SAMPLES + 1)

    def test_whole_equals_componentwise_reduction(self):
        maps = random_linear_maps(2, 2, 1000, seed=0)
        assert all(step2_reduction_check(h, 3) for h in maps)

    def test_step2_draws_one_batch_for_all_its_maps(self, monkeypatch):
        draws = []
        samples = DiagAlgebra.samples

        def recording(self, count, seed=0):
            draws.append((self.k, count, seed))
            return samples(self, count, seed)

        monkeypatch.setattr(DiagAlgebra, "samples", recording)
        assert check_step2(3, 2, 3, 20, 64, seed=7)["equivalence_held"] == 20
        assert draws == [(3, 64, 7)]
        # the batch that step2_reduction_check draws for each of those maps alone
        step2_reduction_check(random_linear_maps(3, 2, 1, seed=7)[0], 3, 64, 7)
        assert draws == [(3, 64, 7)] * 2

    def test_reduction_check_is_seeded(self):
        h = random_linear_maps(2, 2, 1, seed=5)[0]
        assert step2_reduction_check(h, 3, seed=9) == step2_reduction_check(
            h, 3, seed=9
        )
