"""Acceptance criteria, one test and one reported line per criterion.

Criteria 3 and 4 are implemented exactly as stated and are expected to
fail: the statements they require are refuted by the exact replay and by
the span checker itself.  The analysis lives outside the package; the
short version is that every substitution instance of the cube seed gives
an identity whose left side is symmetric under reordering of each word's
letters, and symmetry survives both substitution and linear combination,
so no order-asymmetric target (a single product ordering, or the
transcribed forms that separate orderings) can ever be derived or lie in
the instance span.  Those two tests are marked xfail(strict=True): they
document the defect without weakening any check.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from njordan import cstar_num, derivation, models
from njordan.derivation import BUILTIN_SCRIPTS, InSpan, NotInSpan
from njordan.freealg import COMMUTATIVE, NONCOMMUTATIVE, FreePoly, parse_expr, var_id
from njordan.identities import (
    SEED_VAR,
    HIdentity,
    combine,
    evaluate,
    parse_identity,
    seed,
    substitute,
)

SINGLE = "h(x*y*z) = H(x)*H(y)*H(z)"
SYM_SIX = "h(x*y*z + x*z*y + y*x*z + y*z*x + z*x*y + z*y*x) = 6*H(x)*H(y)*H(z)"


def _report(log, name, body, fail_note=None):
    start = time.perf_counter()
    try:
        body()
    except Exception:
        wall = time.perf_counter() - start
        note = f" ({fail_note})" if fail_note else ""
        log.append(f"criterion {name}: FAIL{note} [{wall:.2f}s]")
        raise
    wall = time.perf_counter() - start
    log.append(f"criterion {name}: PASS [{wall:.2f}s]")


def test_criterion_1_cube_replay(acceptance_log):
    def body():
        t0 = time.perf_counter()
        tr = derivation.replay(BUILTIN_SCRIPTS["thm2_2_n3"])
        assert time.perf_counter() - t0 < 1.0
        assert not tr.failed
        labels = [r.label for r in tr.steps if r.kind == "assertequals"]
        assert labels == ["(1)", "final"]
        assert parse_identity(tr.final_identity(), COMMUTATIVE) == parse_identity(
            SINGLE, COMMUTATIVE
        )
        assert set(tr.denominators) <= {2, 3}

    _report(acceptance_log, "1 (cube chain)", body)


def test_criterion_2_fourth_power_replay(acceptance_log):
    def body():
        t0 = time.perf_counter()
        tr = derivation.replay(BUILTIN_SCRIPTS["thm2_2_n4"])
        assert time.perf_counter() - t0 < 1.0
        assert not tr.failed
        labels = [r.label for r in tr.steps if r.kind == "assertequals"]
        assert labels == ["(2)", "(3)", "(4)", "(5)", "(6)", "final"]
        assert parse_identity(tr.final_identity(), COMMUTATIVE) == parse_identity(
            "h(x*t*y*w) = H(x)*H(t)*H(y)*H(w)", COMMUTATIVE
        )

    _report(acceptance_log, "2 (fourth power chain)", body)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "faithful as stated, refuted mechanically: the order-separating"
        " transcribed forms cannot follow from order-symmetric instances;"
        " 8 of 12 assertions fail under exact replay"
    ),
)
def test_criterion_3_noncommutative_replay(acceptance_log):
    def body():
        t0 = time.perf_counter()
        tr = derivation.replay(BUILTIN_SCRIPTS["thm2_5_step1"])
        assert time.perf_counter() - t0 < 1.0
        labels = [r.label for r in tr.steps if r.kind == "assertequals"]
        assert labels == [
            "(7)", "(8)", "(9)", "(10)", "(11)", "(12)", "(13)", "(14)",
            "(15)", "(17)", "(18)", "final",
        ]
        noted = {r.label for r in tr.steps if r.kind == "assertequals" and r.note}
        assert {"(10)", "(11)"} <= noted  # transcription mismatches are flagged
        final = [r for r in tr.steps if r.label == "final"][0]
        assert final.expected == "h(y*x*z) = H(y)*H(x)*H(z)"
        assert tr.assertions_failed == 0  # refuted: 8 assertions fail
        assert not tr.failed

    _report(
        acceptance_log,
        "3 (order-separating chain)",
        body,
        fail_note="documented: transcribed forms refuted by exact replay",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "faithful as stated, refuted by the checker: the single ordering"
        " h(x*y*z) is outside the span of all unit-coefficient instances"
        " (rank 10, residual the target itself)"
    ),
)
def test_criterion_4_single_ordering_membership(acceptance_log):
    def body():
        t0 = time.perf_counter()
        result = derivation.consequence_check(3, SINGLE, ("x", "y", "z"), 1)
        assert time.perf_counter() - t0 < 10.0
        assert isinstance(result, InSpan)  # refuted: NotInSpan, rank 10
        assert derivation.verify_certificate(result.certificate)

    _report(
        acceptance_log,
        "4 (single ordering in span)",
        body,
        fail_note="documented: target provably outside the instance span",
    )


def test_criterion_5_pair_product_not_in_square_span(acceptance_log):
    def body():
        t0 = time.perf_counter()
        result = derivation.consequence_check(
            2, "h(x*y) = H(x)*H(y)", ("x", "y", "z"), 2
        )
        assert time.perf_counter() - t0 < 30.0
        assert isinstance(result, NotInSpan)
        assert result.rank == 6
        assert result.n_instances == 62
        assert result.residual

    _report(acceptance_log, "5 (square span rank report)", body)


def test_criterion_6_finite_example_catalogue(acceptance_log):
    def body():
        t0 = time.perf_counter()
        report = models.paper_examples()
        neg = report["negation_on_z5"]
        assert neg["is_3_jordan"]["ok"] and neg["is_3_jordan"]["exhaustive"]
        assert neg["is_3_jordan"]["checked"] == 5
        assert not neg["is_2_jordan"]["ok"]
        assert not neg["is_4_jordan"]["ok"]
        tr = report["transpose_on_mat2_z2"]
        assert tr["is_2_jordan"]["ok"] and tr["is_2_jordan"]["exhaustive"]
        assert not tr["is_2_ring"]["ok"]
        assert tr["is_2_ring"]["checked"] == 256 and tr["is_2_ring"]["exhaustive"]
        assert all(tr["n_jordan_up_to_6"][str(n)] for n in range(2, 7))
        upper = report["strict_upper_4_2"]
        assert upper["nilpotency_index"] == 4
        assert upper["triple_product_witness"]["nonzero"]
        assert upper["sampled_maps"] == 10 ** 4 and upper["sample_seed"] == 0
        assert upper["all_sampled_maps_4_jordan"]
        assert time.perf_counter() - t0 < 10.0

    _report(acceptance_log, "6 (finite example catalogue)", body)


def test_criterion_7_exhaustive_commutative_sweeps(acceptance_log):
    def body():
        t0 = time.perf_counter()
        z5 = models.make_zm(5)
        pair = models.product(models.make_zm(5), models.make_zm(5))
        assert len(models.find_njordan_maps(z5, z5, 3, limit=10)) == 3
        assert len(models.find_njordan_maps(z5, z5, 4, limit=10)) == 2
        assert len(models.find_njordan_maps(pair, pair, 3, limit=700)) == 25
        assert len(models.find_njordan_maps(pair, pair, 4, limit=700)) == 9
        for ring in (z5, pair):
            for n in (3, 4):
                bad = models.search(
                    ring, ring, n, predicate="njordan_not_nring", limit=700
                )
                assert bad == []
        assert time.perf_counter() - t0 < 10.0

    _report(acceptance_log, "7 (power maps multiply on commutative rings)", body)


def _random_chain(rng: random.Random):
    """A short random derivation from the cube seed, degree-3 homogeneous."""
    nc = lambda text: parse_expr(text, NONCOMMUTATIVE)
    X, Y, Z = var_id("x"), var_id("y"), var_id("z")
    openers = ["x", "y", "z", "-x", "x + y", "x - z", "y + z"]
    produced = [substitute(seed(3, NONCOMMUTATIVE), {SEED_VAR: nc(rng.choice(openers))})]
    renames = ["x", "y", "z", "-x", "-y", "-z"]
    binomials = ["x + y", "y - z", "x - y", "x + z"]
    for _ in range(rng.randint(1, 7)):
        roll = rng.random()
        if roll < 0.45 and len(produced) >= 2:
            i, j = rng.sample(range(len(produced)), 2)
            c1 = Fraction(rng.choice([1, -1, 2]), rng.choice([1, 2, 3]))
            c2 = Fraction(rng.choice([1, -1]), rng.choice([1, 2]))
            produced.append(combine([(c1, produced[i]), (c2, produced[j])]))
        else:
            target = produced[rng.randrange(len(produced))]
            var = rng.choice([X, Y, Z])
            pool = renames if len(target.lhs.terms) > 12 else renames + binomials
            produced.append(substitute(target, {var: nc(rng.choice(pool))}))
    return produced[-1]


def test_criterion_8_soundness_fuzz(acceptance_log):
    def body():
        rng = random.Random(0)
        m2 = models.matrix_ring(2, 5)
        z5 = models.make_zm(5)
        maps = models.find_njordan_maps(m2, z5, 3, limit=10)
        assert maps  # search-verified cube-preserving maps
        for h in maps:
            assert models.is_n_jordan(h, 3).ok
        violations = 0
        for _ in range(100):
            ident = _random_chain(rng)
            if ident.lhs.is_zero() and ident.rhs.is_zero():
                continue
            for h in maps:
                rep = evaluate(
                    ident, m2, z5, h, max_assignments=10 ** 5, sample_seed=0
                )
                if not rep.ok:
                    violations += 1
        assert violations == 0

    _report(acceptance_log, "8 (derived identities hold on models)", body)


def test_soundness_fuzz_kills_right_coefficient_mutants():
    """Criterion 8 cannot fail: its one map is zero, so both sides vanish.
    On the four nonzero cube maps Z_5^2 -> Z_5 every derived identity with
    a nonzero right side must hold exhaustively, and bumping its first
    right coefficient by 1 must break it on every map."""
    pair, z5 = models.ring_from_spec("zm:5^2"), models.make_zm(5)
    maps = [models.AdditiveMap.from_index(pair, z5, i) for i in (1, 4, 5, 20)]
    assert all(h.matrix.any() and models.is_n_jordan(h, 3).ok for h in maps)
    rng = random.Random(0)
    idents = [ident for ident in (_random_chain(rng) for _ in range(40)) if not ident.rhs.is_zero()]
    assert len(idents) == 37
    for ident in idents:
        (word, coeff), *rest = ident.rhs.terms
        mutant = HIdentity(ident.lhs, FreePoly.from_terms([(word, coeff + 1), *rest], COMMUTATIVE))
        for h in maps:
            rep = evaluate(ident, pair, z5, h)
            assert rep.ok and rep.exhaustive, (str(ident), h.index)
            assert not evaluate(mutant, pair, z5, h).ok, (str(mutant), h.index)


def test_criterion_9_functional_sweep_contractive(acceptance_log):
    def body():
        t0 = time.perf_counter()
        for m in (1, 2, 3):
            for k in (1, 2, 3):
                report = cstar_num.check_corollary_2_6(m, k)
                assert report["ok"]
                assert report["max_norm"] <= 1.0
                assert report["all_power_preserving"]
                assert report["injected_fake_rejected"]
        assert time.perf_counter() - t0 < 1.0

    _report(acceptance_log, "9 (functional sweep is contractive)", body)


def test_criterion_10_norm_chain_and_reduction(acceptance_log):
    def body():
        t0 = time.perf_counter()
        perms = [(0, 1, 2), (1, 2, 0), (2, 1, 0)]
        for power in (1, 2, 3):
            for perm in perms:
                h = cstar_num.coordinate_star_map(3, perm)
                report = cstar_num.check_theorem_2_7(h, power)
                assert report["rejected_by"] is None
                assert report["norm"] <= 1.0 + 1e-9
                assert report["ok"]
        scaled = cstar_num.LinearMapC(0.5 * np.eye(2))
        rejected = cstar_num.check_theorem_2_7(scaled, 1)
        assert rejected["rejected_by"] == "star_product"
        maps = cstar_num.random_linear_maps(2, 2, 1000, seed=0)
        assert all(cstar_num.step2_reduction_check(h, 3) for h in maps)
        assert time.perf_counter() - t0 < 5.0

    _report(acceptance_log, "10 (norm chain and reduction)", body)
