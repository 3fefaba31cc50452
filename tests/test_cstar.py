"""Numeric checks on the diagonal complex algebras."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from njordan import cstar_num, errors
from njordan.cstar_num import (
    DEFAULT_SAMPLES,
    MAX_SAMPLES,
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
    sample_batch,
    step2_reduction_check,
)
from njordan.errors import GuardError


@pytest.fixture
def recorded_draws(monkeypatch):
    """The (m, count, seed) of every sample_batch call, with no step 2 draw kept from before or after the test."""
    draws = []

    def recording(m, count, seed=0):
        draws.append((m, count, seed))
        return sample_batch(m, count, seed)

    monkeypatch.setattr(cstar_num, "sample_batch", recording)
    cstar_num._kept_draw.cache_clear()
    yield draws
    cstar_num._kept_draw.cache_clear()


class TestSampleBatch:
    def test_samples_are_reproducible(self):
        assert np.array_equal(sample_batch(2, 16, seed=3), sample_batch(2, 16, seed=3))


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
        batch = sample_batch(2, 128, seed=1)
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
        batch = sample_batch(3, 64, seed=0)
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
        with pytest.raises(GuardError):
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
            sample_batch(2, 0)
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
        assert sample_batch(1, MAX_SAMPLES).shape == (MAX_SAMPLES, 1)
        with pytest.raises(GuardError, match="exceeds 100000"):
            sample_batch(2, MAX_SAMPLES + 1)
        with pytest.raises(GuardError, match="exceeds 100000"):
            check_theorem_2_7(coordinate_star_map(3), 1, samples=MAX_SAMPLES + 1)
        with pytest.raises(GuardError, match="exceeds 100000"):
            random_linear_maps(2, 2, MAX_SAMPLES + 1)

    def test_step2_sweep_bound_admits_equality(self, monkeypatch):
        # each map C^2 -> C^2 costs 3 checks at CALL_WORK (the map and its 2 rows) and 16 multiply-adds a sample:
        # 4 maps x 15 samples predict 394,176 and 60 x 1 5,899,200; at a stand-in work cap of exactly that each
        # runs, and past a cap one less, or with one more sample or map (4 x 16, 61 x 1), it is refused
        cases = (((4, 15), (4, 16), 394176), ((60, 1), (61, 1), 5899200))
        for (count, samples), (more_count, more_samples), work in cases:
            monkeypatch.setattr(errors, "WORK_CAP", work)
            assert check_step2(2, 2, 3, count, samples)["maps"] == count
            with pytest.raises(GuardError, match=f"{more_count} maps x {more_samples} samples needs"):
                check_step2(2, 2, 3, more_count, more_samples)
            monkeypatch.setattr(errors, "WORK_CAP", work - 1)
            with pytest.raises(GuardError, match=f"{count} maps x {samples} samples needs {work} multiply-adds"):
                check_step2(2, 2, 3, count, samples)

    def test_whole_equals_componentwise_reduction(self):
        maps = random_linear_maps(2, 2, 1000, seed=0)
        assert all(step2_reduction_check(h, 3) for h in maps)

    def test_step2_draws_one_batch_for_all_its_maps(self, recorded_draws):
        assert check_step2(3, 2, 3, 20, 64, seed=7)["equivalence_held"] == 20
        assert recorded_draws == [(3, 64, 7)]
        # step2_reduction_check gets the same draw for each of those maps without drawing again
        assert all(step2_reduction_check(h, 3, 64, 7) for h in random_linear_maps(3, 2, 20, seed=7))
        assert recorded_draws == [(3, 64, 7)]
        # another seed is another draw, and it replaces the kept one
        h = random_linear_maps(3, 2, 1, seed=8)[0]
        assert step2_reduction_check(h, 3, 64, 8) and step2_reduction_check(h, 3, 64, 7)
        assert recorded_draws == [(3, 64, 7), (3, 64, 8), (3, 64, 7)]
        # by default, DEFAULT_SAMPLES points at seed 0
        step2_reduction_check(h, 3)
        check_step2(3, 2, 3, 1)
        assert recorded_draws[3:] == [(3, DEFAULT_SAMPLES, 0)]

    @pytest.mark.parametrize("m,k,count,seed", [(2, 2, 50, 0), (3, 2, 20, 7), (1, 4, 5, 3), (4, 1, 33, 11)])
    def test_streamed_step2_matches_the_map_list(self, m, k, count, seed, monkeypatch):
        """check_step2 checks, in order, the maps random_linear_maps lists, and reports as if from that list."""
        maps = random_linear_maps(m, k, count, seed)
        passed = sum(step2_reduction_check(h, 3, 64, seed) for h in maps)
        seen, holds = [], cstar_num._reduction_holds
        monkeypatch.setattr(cstar_num, "_reduction_holds", lambda h, *args: seen.append(h.matrix) or holds(h, *args))
        assert check_step2(m, k, 3, count, 64, seed) == {
            "check": "step2_reduction", "maps": count, "equivalence_held": passed, "ok": passed == count, "n": 3,
            "samples": 64, "seed": seed,
        }
        assert len(seen) == count and all(np.array_equal(a, h.matrix) for a, h in zip(seen, maps))

    def test_streamed_step2_holds_one_map_at_a_time(self):
        """300 maps C^64 -> C^64 take 19.7 MB as a list; drawn one at a time the sweep peaks under 2 MiB."""
        check_step2(64, 64, 2, 1, 4)  # imports and the kept draw outside the trace
        tracemalloc.start()
        try:
            report = check_step2(64, 64, 2, 300, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["maps"] == report["equivalence_held"] == 300
        assert peak < 2 * 2 ** 20

    def test_the_step2_draw_is_read_only(self, recorded_draws):
        batch, powers = cstar_num._batch_and_powers(3, 64, 7, 3)
        assert not batch.flags.writeable and not powers.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            batch[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            powers *= 2
        assert np.array_equal(batch, sample_batch(3, 64, 7))
        assert np.array_equal(powers, sample_batch(3, 64, 7) ** 3)
        assert cstar_num._batch_and_powers(3, 64, 7, 3)[0] is batch
        assert recorded_draws == [(3, 64, 7)]

    def test_a_draw_over_the_size_bound_is_not_kept(self, recorded_draws):
        cells = DEFAULT_SAMPLES * cstar_num.MAX_DIM
        # at the bound the draw is kept: two complex128 arrays of 512 KiB in all
        batch, powers = cstar_num._batch_and_powers(2, cells // 2, 1, 3)
        assert batch.nbytes + powers.nbytes == 512 * 1024
        assert cstar_num._batch_and_powers(2, cells // 2, 1, 3)[0] is batch
        assert recorded_draws == [(2, cells // 2, 1)]
        # one sample past it, every call draws again and the kept draw stays the smaller one
        h = random_linear_maps(2, 1, 1)[0]
        step2_reduction_check(h, 3, cells // 2 + 1, 1)
        step2_reduction_check(h, 3, cells // 2 + 1, 1)
        assert recorded_draws == [(2, cells // 2, 1)] + [(2, cells // 2 + 1, 1)] * 2
        assert cstar_num._kept_draw.cache_info().currsize == 1
        assert cstar_num._batch_and_powers(2, cells // 2, 1, 3)[0] is batch

    def test_reduction_check_is_seeded(self):
        h = random_linear_maps(2, 2, 1, seed=5)[0]
        assert step2_reduction_check(h, 3, seed=9) == step2_reduction_check(
            h, 3, seed=9
        )


class TestStep2CanFail:
    """Maps whose whole-map and row verdicts differ, so step 2 compares more than False with False."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_classified_rows_pass_and_one_random_row_fails(self, n):
        functionals = classify_njordan_functionals(3, n)
        picks = np.random.default_rng(n).integers(len(functionals), size=(10, 3))
        # the batch step2_reduction_check draws at seed 0
        batch = sample_batch(3, DEFAULT_SAMPLES)
        for pick, noise in zip(picks, random_linear_maps(3, 1, 10, seed=n)):
            good = LinearMapC(np.vstack([functionals[i].matrix for i in pick]))
            bad = LinearMapC(np.vstack([noise.matrix, good.matrix[1:]]))
            assert is_power_jordan(good, n, batch)[0]
            assert not is_power_jordan(bad, n, batch)[0]
            rows = [is_power_jordan(LinearMapC(row[None, :]), n, batch)[0] for row in bad.matrix]
            assert rows == [False, True, True]
            assert step2_reduction_check(good, n) and step2_reduction_check(bad, n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_failing_last_row_of_a_tall_map_is_found(self, n):
        """Every one of the k = 4 rows is checked, past the m = 2 columns and up to the last."""
        functionals = classify_njordan_functionals(2, n)
        good = [functionals[i].matrix for i in np.random.default_rng(n).integers(len(functionals), size=3)]
        tall = LinearMapC(np.vstack([*good, random_linear_maps(2, 1, 1, seed=n)[0].matrix]))
        assert not is_power_jordan(tall, n, sample_batch(2, DEFAULT_SAMPLES))[0]
        assert step2_reduction_check(tall, n)

    def test_a_whole_map_verdict_that_disagrees_with_its_rows_fails(self, monkeypatch):
        power_holds = cstar_num._power_holds

        def whole_map_flipped(h, n, batch, powers):
            ok, witness = power_holds(h, n, batch, powers)
            return (not ok if h.matrix.shape[0] > 1 else ok), witness

        monkeypatch.setattr(cstar_num, "_power_holds", whole_map_flipped)
        maps = [coordinate_star_map(2), *random_linear_maps(2, 2, 4)]
        assert not any(step2_reduction_check(h, 3) for h in maps)
        report = check_step2(2, 2, 3, 5)
        assert (report["maps"], report["equivalence_held"], report["ok"]) == (5, 0, False)
