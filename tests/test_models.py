"""Finite rings, additive map predicates, and the counterexample search."""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from njordan import errors, models
from njordan.errors import GuardError
from njordan.freealg import NONCOMMUTATIVE
from njordan.identities import evaluate, seed
from njordan.models import (
    AdditiveMap,
    PredicateResult,
    additive_maps,
    find_njordan_maps,
    function_ring,
    gap_witness_model,
    is_n_jordan,
    is_n_ring,
    make_zm,
    matrix_ring,
    negation_map,
    nilpotency_index,
    paper_examples,
    product,
    ring_from_spec,
    search,
    strict_upper,
    transpose_map,
    truncated_free,
)


class TestRingConstruction:
    def test_modular_ring_basics(self):
        z6 = make_zm(6, override=True)
        assert z6.size == 6 and z6.dim == 1 and z6.commutative
        a, b = z6.element(4), z6.element(5)
        assert z6.index_of(z6.mul(a, b)) == 2

    def test_product_ring_multiplies_componentwise(self):
        p = product(make_zm(5), make_zm(5))
        u = p.element_vectors()[7]  # (1, 2) in big-endian coordinates
        assert u.tolist() == [1, 2]
        assert p.mul(u, u).tolist() == [1, 4]

    def test_matrix_ring_unit_and_noncommutativity(self):
        m2 = matrix_ring(2, 5)
        unit = np.array([1, 0, 0, 1])
        for e in np.eye(4, dtype=np.int64):
            assert m2.mul(unit, e).tolist() == m2.mul(e, unit).tolist() == e.tolist()
        assert not m2.commutative
        e12, e21 = np.zeros(4, np.int64), np.zeros(4, np.int64)
        e12[1] = 1
        e21[2] = 1
        assert m2.mul(e12, e21).tolist() == [1, 0, 0, 0]
        assert m2.mul(e21, e12).tolist() == [0, 0, 0, 1]

    def test_strict_upper_has_no_unit_and_is_nilpotent(self):
        # a nilpotent ring other than 0 has no unit
        assert nilpotency_index(strict_upper(3, 2)) == 3
        assert nilpotency_index(strict_upper(4, 2)) == 4

    def test_nilpotency_index_needs_a_prime_modulus(self):
        with pytest.raises(GuardError, match="prime modulus"):
            nilpotency_index(make_zm(6, override=True))

    def test_truncated_free_word_basis(self):
        tf = truncated_free(2, 3, 5)
        assert tf.dim == 2 + 4 + 8
        # letter 0 times letter 1 is the word at index 2 + 1 = 3
        a, b = tf.element(0), tf.element(0)
        u = np.zeros(tf.dim, np.int64)
        v = np.zeros(tf.dim, np.int64)
        u[0] = 1
        v[1] = 1
        uv = tf.mul(u, v)
        assert uv[3] == 1 and uv.sum() == 1
        assert nilpotency_index(tf) == 4

    def test_associativity_is_checked(self):
        struct = np.zeros((2, 2, 2), dtype=np.int64)
        struct[0, 0, 1] = 1
        struct[1, 1, 0] = 1  # not associative
        with pytest.raises(ValueError):
            models.FiniteRing("bad", 2, struct)

    def test_element_index_round_trip(self):
        m2 = matrix_ring(2, 3)
        for idx in (0, 1, 40, 80):
            assert m2.index_of(m2.element(idx)) == idx

    def test_index_of_stays_exact_past_int64(self):
        ring = ring_from_spec("freetrunc:3d3@5", override=True)
        assert ring.dim == 39
        assert ring.index_of(np.full(ring.dim, 4)) == 5 ** 39 - 1
        assert ring.index_of(np.full(ring.dim, -1)) == 5 ** 39 - 1

    @pytest.mark.parametrize(
        "spec,override,dim",
        [("freetrunc:2d5@2", False, 62), ("fun:upper:4@2,pts:3", False, 18), ("freetrunc:3d3@5", True, 39),
         ("zm:5^64", False, 64)],
    )
    def test_rings_up_to_the_dimension_bound_build(self, spec, override, dim):
        assert ring_from_spec(spec, override=override).dim == dim

    def test_dimension_bound_has_no_override(self):
        assert models.MAX_DIM == 64
        for build in (
            lambda: ring_from_spec("zm:5^65", override=True),
            lambda: matrix_ring(9, 2, override=True),
            lambda: strict_upper(13, 2, override=True),
            lambda: truncated_free(1, 10 ** 9, 5, override=True),
            lambda: function_ring(make_zm(5), 65, override=True),
            lambda: product(ring_from_spec("zm:5^40"), ring_from_spec("zm:5^40")),
            lambda: models.FiniteRing("big", 2, np.zeros((65, 65, 65), dtype=np.int64)),
        ):
            with pytest.raises(GuardError, match="exceeds 64"):
                build()

    @pytest.mark.parametrize(
        "build",
        [lambda: strict_upper(1, 2), lambda: matrix_ring(-2, 5), lambda: ring_from_spec("nilpoly:-1@5"),
         lambda: models.FiniteRing("empty", 2, np.zeros((0, 0, 0), dtype=np.int64))],
    )
    def test_rings_without_basis_elements_are_refused(self, build):
        with pytest.raises(ValueError, match="ring dimension 0 is below 1"):
            build()

    def test_associativity_join_is_bounded_before_it_starts(self, monkeypatch):
        assert models.MAX_JOIN == 2 * 10 ** 5
        dense = np.random.default_rng(0).integers(0, 2, (64, 64, 64))
        t0 = time.perf_counter()
        with pytest.raises(GuardError, match="associativity check needs"):
            models.FiniteRing("dense", 5, dense)
        assert time.perf_counter() - t0 < 1.0
        t0 = time.perf_counter()
        assert ring_from_spec("nilpoly:63@5").dim == 64
        assert time.perf_counter() - t0 < 1.0
        # the largest constructor ring's join, 91,520 products, sits at the bound
        monkeypatch.setattr(models, "MAX_JOIN", 91_520)
        assert ring_from_spec("nilpoly:63@5").dim == 64
        monkeypatch.setattr(models, "MAX_JOIN", 91_519)
        with pytest.raises(GuardError, match="needs 91520 products"):
            ring_from_spec("nilpoly:63@5")

    def test_modulus_guard(self):
        with pytest.raises(GuardError):
            make_zm(11)
        assert make_zm(11, override=True).size == 11

    def test_modulus_is_checked_before_reduction(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least 2"):
                models.FiniteRing("z0", 0, np.ones((1, 1, 1), dtype=np.int64))

    def test_override_modulus_that_overflows_int64_is_refused(self):
        with pytest.raises(GuardError, match="overflows"):
            make_zm(2 ** 40 + 15, override=True)
        m = 3037000500  # the largest m with (m - 1)^2 < 2^63
        with pytest.raises(GuardError, match="overflows"):
            make_zm(m + 1, override=True)
        assert make_zm(m, override=True).mul([m - 1], [m - 2]).tolist() == [2]

    def test_structure_constants_count_toward_the_overflow_bound(self):
        m = 2 ** 21 + 1  # (m - 1)^2 fits, (m - 1)^3 = 2^63 does not
        assert models.FiniteRing("plain", m, np.ones((1, 1, 1), dtype=np.int64)).dim == 1
        with pytest.raises(GuardError, match="overflows"):
            models.FiniteRing("scaled", m, np.full((1, 1, 1), m - 1, dtype=np.int64))


class TestRingSpecs:
    @pytest.mark.parametrize(
        "spec,size,dim",
        [
            ("zm:5", 5, 1),
            ("zm:5^2", 25, 2),
            ("mat:2x2@3", 81, 4),
            ("upper:4@2", 64, 6),
            ("fun:upper:4@2,pts:3", 2 ** 18, 18),
            ("freetrunc:2d3@5", 5 ** 14, 14),
            ("nilpoly:2@5", 125, 3),
        ],
    )
    def test_spec_strings(self, spec, size, dim):
        ring = ring_from_spec(spec)
        assert ring.size == size
        assert ring.dim == dim

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            ring_from_spec("octonions:8")

    def test_block_diagonal_rings_are_built_once_with_their_names(self, monkeypatch):
        z5 = make_zm(5)
        pair = product(z5, z5)
        triple = product(pair, z5)
        built = []
        init = models.FiniteRing.__init__

        def counting(self, name, *args):
            built.append(name)
            init(self, name, *args)

        monkeypatch.setattr(models.FiniteRing, "__init__", counting)
        ring = ring_from_spec("zm:5^3")
        assert built == ["zm:5^3"]
        assert (ring.struct == triple.struct).all()
        assert ring_from_spec("zm:5^1").name == "zm:5"
        assert pair.name == "product(zm:5,zm:5)"
        fun = ring_from_spec("fun:zm:5^2,pts:2")
        assert fun.name == "fun:zm:5^2,pts:2"
        assert (fun.struct == product(pair, pair).struct).all()


class TestAdditiveMaps:
    def test_map_index_round_trip(self):
        z5 = make_zm(5)
        p = product(z5, z5)
        for idx in (0, 13, 624):
            assert AdditiveMap.from_index(p, p, idx).index == idx

    def test_from_index_rejects_indices_outside_the_map_count(self):
        z5 = make_zm(5)
        for idx in (-1, 5, 7):
            with pytest.raises(ValueError, match="outside"):
                AdditiveMap.from_index(z5, z5, idx)

    def test_enumeration_count(self):
        z5 = make_zm(5)
        maps = list(additive_maps(z5, z5))
        assert len(maps) == 5

    def test_enumeration_guard(self):
        m2 = matrix_ring(2, 5)
        with pytest.raises(GuardError):
            list(additive_maps(m2, m2))

    def test_negation_is_3_jordan_not_2_or_4(self):
        z5 = make_zm(5)
        neg = negation_map(z5)
        assert is_n_jordan(neg, 3).ok
        r2 = is_n_jordan(neg, 2)
        r4 = is_n_jordan(neg, 4)
        assert not r2.ok and not r4.ok
        assert r2.exhaustive and r2.checked == 5

    def test_n_ring_implies_n_jordan(self):
        z6 = make_zm(6, override=True)
        for h in additive_maps(z6, z6):
            for n in (2, 3):
                if is_n_ring(h, n).ok:
                    assert is_n_jordan(h, n).ok

    @pytest.mark.parametrize("count", [0, -4])
    def test_sample_counts_below_one_are_refused(self, count):
        pair = ring_from_spec("zm:5^2")
        with pytest.raises(ValueError, match="sample count must be at least 1"):
            list(additive_maps(pair, pair, count))

    def test_powers_out_of_range_are_refused(self):
        pair = ring_from_spec("zm:5^2")
        h = AdditiveMap(pair, pair, np.eye(pair.dim, dtype=np.int64))
        with pytest.raises(ValueError, match="n must be at least 2, got 1"):
            is_n_ring(h, 1)
        with pytest.raises(ValueError, match="n must be at least 1, got 0"):
            is_n_jordan(h, 0)
        for check in (is_n_jordan, is_n_ring):
            with pytest.raises(GuardError, match="n = 65 exceeds 64"):
                check(h, models.MAX_POWER + 1)
        # 2^n basis tuples at n - 1 products of 2 terms on each side and n + 1 applications of 4 entries:
        # 2^n * 8n multiply-adds, 6,710,886,400 at n = 25 and past the cap from n = 26
        with pytest.raises(GuardError, match=r"is_n_ring on 2\^26 basis tuples needs 13958643712 multiply-adds"):
            is_n_ring(h, 26)
        with pytest.raises(GuardError, match=r"is_n_ring on 2\^64 basis tuples needs"):
            is_n_ring(h, models.MAX_POWER)
        z5 = make_zm(5)
        assert is_n_ring(AdditiveMap(z5, z5, np.eye(1, dtype=np.int64)), models.MAX_POWER).ok

    def test_ring_check_bound_admits_equality(self, monkeypatch):
        # 2^3 basis tuples, each at 2 products of 2 terms on either side and 4 applications of 4 entries:
        # 192 multiply-adds, at a stand-in work cap of 192 and past one of 191
        pair = ring_from_spec("zm:5^2")
        h = AdditiveMap(pair, pair, np.eye(pair.dim, dtype=np.int64))
        monkeypatch.setattr(errors, "WORK_CAP", 192)
        assert is_n_ring(h, 3).ok
        monkeypatch.setattr(errors, "WORK_CAP", 191)
        refusal = r"is_n_ring on 2\^3 basis tuples needs 192 multiply-adds, over the work cap 191"
        with pytest.raises(GuardError, match=refusal):
            is_n_ring(h, 3)

    def test_jordan_predicate_refuses_past_the_element_table(self):
        ring = ring_from_spec("zm:5^10")
        assert ring.size > models.ELEMENT_CAP
        with pytest.raises(GuardError, match=f"{ring.size} elements exceed the materialization cap"):
            is_n_jordan(AdditiveMap(ring, ring, np.eye(ring.dim, dtype=np.int64)), 3)

    def test_element_cap_counts_cells(self):
        # zm:2^18 has 2^18 elements under the cap, but 18 * 2^18 cells over it
        wide = ring_from_spec("zm:2^18")
        assert wide.size <= models.ELEMENT_CAP < wide.size * wide.dim
        with pytest.raises(GuardError, match=f"{wide.size} elements exceed the materialization cap"):
            is_n_jordan(negation_map(wide), 2)
        assert not wide._tables
        narrow = ring_from_spec("zm:2^17")
        assert narrow.size * narrow.dim <= models.ELEMENT_CAP
        assert is_n_jordan(negation_map(narrow), 2).ok

    def test_transpose_is_antimultiplicative_jordan(self):
        ring, t = transpose_map(2, 2)
        assert is_n_jordan(t, 2).ok
        ring_check = is_n_ring(t, 2)
        assert not ring_check.ok
        assert ring_check.checked == 256 and ring_check.exhaustive
        for n in range(2, 7):
            assert is_n_jordan(t, n).ok


class TestSearch:
    def test_third_power_but_not_second(self):
        z5 = make_zm(5)
        hits = search(z5, z5, 3, predicate="njordan_not_jordan", limit=10)
        assert [h.index for h in hits] == [4]
        assert hits[0].matrix == [[4]]

    def test_no_triple_jordan_map_on_z5_fails_triple_products(self):
        z5 = make_zm(5)
        assert search(z5, z5, 3, predicate="njordan_not_nring", limit=10) == []

    def test_matrix_functionals_collapse_to_zero(self):
        m2 = matrix_ring(2, 5)
        z5 = make_zm(5)
        hits = find_njordan_maps(m2, z5, 3, limit=10)
        assert len(hits) == 1
        assert hits[0].index == 0
        assert hits[0].matrix.tolist() == [[0, 0, 0, 0]]

    def test_limit_keeps_the_first_hits(self):
        pair = ring_from_spec("zm:5^2")
        every = search(pair, pair, 3, "njordan_not_jordan", limit=10 ** 6)
        assert len(every) == 16
        for limit in (1, 3):
            assert search(pair, pair, 3, "njordan_not_jordan", limit=limit) == every[:limit]

    def test_hits_share_equal_second_reports(self):
        pair = ring_from_spec("zm:5^2")
        hits = search(pair, pair, 5, "njordan_not_jordan", limit=10 ** 6)
        assert len(hits) == 616
        reports = {(h.second.checked, repr(h.second.witness)): h.second for h in hits}
        assert all(h.second is reports[h.second.checked, repr(h.second.witness)] for h in hits)
        assert len(reports) < 10

    def test_hit_matrix_decodes_an_index_past_int64(self):
        ring = matrix_ring(3, 2)
        index = 2 ** 80 + 2 ** 63 + 5
        second = PredicateResult(False, ring.size, ([1] * 9,))
        hit = models.SearchHit(index, (ring.dim, ring.dim), 2, "njordan_not_jordan", second)
        assert hit.matrix == AdditiveMap.from_index(ring, ring, index).matrix.tolist()
        assert hit.to_json()["matrix"] == hit.matrix and len(hit.matrix) == 9
        # the filter's report: it passed on every one of the 2^9 domain elements
        assert hit.details == {"njordan": PredicateResult(True, 2 ** 9).to_json(), "jordan": second.to_json()}

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_is_refused(self, limit):
        z5 = make_zm(5)
        with pytest.raises(ValueError, match="limit must be at least 1"):
            search(z5, z5, 3, "njordan_not_jordan", limit=limit)

    @pytest.mark.parametrize("count", [0, -4])
    def test_sample_count_below_one_is_refused(self, count):
        z5 = make_zm(5)
        with pytest.raises(ValueError, match="sample count must be at least 1"):
            search(z5, z5, 3, "njordan_not_jordan", sample_count=count)

    def test_sample_count_over_the_enumeration_cap_is_refused(self, monkeypatch):
        # each candidate Z_5 -> Z_5: the cube filter on 5 elements (2 products of 1 term on each side and 2
        # applications of 1 entry: 30), CALL_WORK and the square check (20): 32,818, so 11 of them 360,998
        z5 = make_zm(5)
        monkeypatch.setattr(errors, "WORK_CAP", 360998)
        assert {h.index for h in search(z5, z5, 3, "njordan_not_jordan", sample_count=11)} == {4}
        monkeypatch.setattr(errors, "WORK_CAP", 360997)
        refusal = "a scan of 11 candidate maps needs 360998 multiply-adds, over the work cap 360997"
        with pytest.raises(GuardError, match=refusal):
            search(z5, z5, 3, "njordan_not_jordan", sample_count=11)
        assert {h.index for h in search(z5, z5, 3, "njordan_not_jordan", sample_count=11, override=True)} == {4}
        # override lifts the count of maps, not one map's work
        monkeypatch.setattr(errors, "WORK_CAP", 32817)
        with pytest.raises(GuardError, match="one candidate map needs 32818 multiply-adds, over the work cap 32817"):
            search(z5, z5, 3, "njordan_not_jordan", sample_count=11, override=True)
        # each map handed out costs its one entry and CALL_WORK: 32,769, so 10 of them 327,690
        monkeypatch.setattr(errors, "WORK_CAP", 327690)
        assert len(list(additive_maps(z5, z5, 10))) == 10
        monkeypatch.setattr(errors, "WORK_CAP", 327689)
        with pytest.raises(GuardError, match="a scan of 10 candidate maps needs 327690 multiply-adds"):
            list(additive_maps(z5, z5, 10))

    def test_unknown_predicate_is_rejected_before_scanning(self):
        # no sampled map survives the power filter, so a late check never runs
        with pytest.raises(ValueError, match="unknown predicate"):
            search(matrix_ring(2, 5), make_zm(5), 3, "njordan_not_nrnig", sample_count=100)

    def test_survivors_get_only_the_second_check_by_module_name(self, monkeypatch):
        calls = []
        predicate = models._predicate

        def counting(name, domain, codomain, mats, n):
            calls.append((name, len(mats)))
            return predicate(name, domain, codomain, mats, n)

        monkeypatch.setattr(models, "_predicate", counting)
        z5 = make_zm(5)
        # 3-Jordan maps on Z_5 are x -> c*x with c^3 = c (three of them), 2-Jordan ones c^2 = c (two),
        # all five candidates in one block
        search(z5, z5, 3, predicate="njordan_not_jordan")
        search(z5, z5, 3, predicate="njordan_not_nring")
        search(z5, z5, 3, predicate="jordan_not_ring")
        assert calls == [("njordan_not_jordan", 3), ("njordan_not_nring", 3), ("jordan_not_ring", 2)]
        # about 40,000 of 10^5 sampled maps survive, in blocks of BLOCK_ROWS // 5 candidates: one call a block
        calls.clear()
        assert search(z5, z5, 3, "jordan_not_ring", sample_count=10 ** 5) == []
        assert len(calls) <= -(-10 ** 5 // (models.BLOCK_ROWS // 5)) == 123
        assert 30000 < sum(rows for _, rows in calls) < 50000

    def test_sampled_search_requires_enumeration_guard(self):
        m2 = matrix_ring(2, 5)
        with pytest.raises(GuardError):
            search(m2, m2, 3, limit=1)
        hits = search(m2, m2, 3, limit=1, sample_count=50, seed=0)
        assert isinstance(hits, list)


class TestGapWitness:
    def test_map_is_3_jordan_on_samples(self):
        dom, cod, h = gap_witness_model()
        rep = evaluate(seed(3, NONCOMMUTATIVE), dom, cod, h, max_assignments=10 ** 4, sample_seed=0)
        assert rep.ok and not rep.exhaustive and rep.checked == 10 ** 4

    def test_cube_kernel_argument_is_exhaustive_on_the_letter_plane(self):
        # every cube lands in the span of length-3 words, and any product
        # with a length-2-or-more component dies by truncation, so checking
        # h((a*u + b*v)^3) = 0 over all 25 letter-plane points is exhaustive
        dom, cod, h = gap_witness_model()
        eu = np.zeros(dom.dim, np.int64)
        ev = np.zeros(dom.dim, np.int64)
        eu[0] = 1
        ev[1] = 1
        for a in range(5):
            for b in range(5):
                w = (a * eu + b * ev) % 5
                cube = dom.mul(dom.mul(w, w), w)
                assert not h.apply(cube).any()
                assert not cod.power_batch(h.apply(w)[None, :], 3).any()

    def test_triple_product_is_not_preserved(self):
        dom, cod, h = gap_witness_model()
        eu = np.zeros(dom.dim, np.int64)
        ev = np.zeros(dom.dim, np.int64)
        eu[0] = 1
        ev[1] = 1
        lhs = h.apply(dom.mul(dom.mul(eu, ev), eu))
        rhs = cod.mul(cod.mul(h.apply(eu), h.apply(ev)), h.apply(eu))
        assert lhs.tolist() == [0, 1, 0]
        assert rhs.tolist() == [0, 0, 0]

    def test_is_n_ring_finds_the_uvu_witness(self):
        # the first failing triple in index order is (u, v, u): h(uvu) = e, h(u)h(v)h(u) = 0
        dom, cod, h = gap_witness_model()
        eu, ev = [0] * dom.dim, [0] * dom.dim
        eu[0] = ev[1] = 1
        assert is_n_ring(h, 3) == PredicateResult(False, 5 ** 42, (eu, ev, eu))


class TestExampleCatalogue:
    def test_catalogue_facts(self):
        report = paper_examples()
        neg = report["negation_on_z5"]
        assert neg["is_3_jordan"]["ok"] and neg["is_3_jordan"]["exhaustive"]
        assert not neg["is_2_jordan"]["ok"]
        assert not neg["is_4_jordan"]["ok"]
        assert report["jordan_functionals_on_z5"]["all_multiplicative"]
        upper = report["strict_upper_4_2"]
        assert upper["nilpotency_index"] == 4
        assert upper["triple_product_witness"]["nonzero"]
        assert upper["all_sampled_maps_4_jordan"]
        assert upper["sampled_maps"] == 10 ** 4
        fun = report["function_ring_on_3_points"]
        assert fun["dim"] == 18
        assert fun["nilpotency_index"] == 4
        assert fun["all_4_fold_products_zero"]
        tr = report["transpose_on_mat2_z2"]
        assert tr["is_2_jordan"]["ok"]
        assert not tr["is_2_ring"]["ok"]
        assert tr["is_2_ring"]["checked"] == 256
        assert all(tr["n_jordan_up_to_6"][str(n)] for n in range(2, 7))
        assert report["ok"] is True

    def test_every_sampled_upper_map_passes_the_4_jordan_scan(self):
        u42 = strict_upper(4, 2)
        kept = np.concatenate(list(models._scan(u42, u42, 4, sample_count=10 ** 4, seed=0)))
        assert len(kept) == 10 ** 4
        sampled = list(additive_maps(u42, u42, 10 ** 4, seed=0))
        assert [AdditiveMap(u42, u42, mat) for mat in kept[::997]] == sampled[::997]
