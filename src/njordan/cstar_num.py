"""Numeric checks at finite dimension for the contractivity statements.

The codomain model is the commutative algebra of complex k-vectors with
pointwise product, entrywise conjugation as the involution, and the sup
norm.  Linear maps between such algebras are complex matrices, and the
induced sup-to-sup operator norm has the closed form max row l1-sum, so
norm assertions are exact up to floating arithmetic.

Three checks live here: a sweep over every involution-preserving
cube-power-preserving functional combination asserting contractivity, a
norm check for maps passing the stronger hypothesis filter set (power
preservation, involution preservation, and h(a* a) = h(a)* h(a)), and the
componentwise reduction equivalence that mirrors evaluating a map through
the coordinate characters of the codomain.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CALL_WORK, GuardError, check_work

FILTER_TOL = 1e-9
DEFAULT_SAMPLES = 256
# Most samples per batch and maps per reduction sweep, with no override.
MAX_SAMPLES = 10 ** 5
# Largest dimension m of a domain C^m or k of a codomain C^k, with no override.
MAX_DIM = 64


def _check_count(what: str, count: int, most: int | None = MAX_SAMPLES) -> None:
    """Refuse a count, dimension or power below 1 (ValueError) or over most (GuardError), before anything is drawn."""
    if count < 1:
        raise ValueError(f"{what} must be at least 1, got {count}")
    if most is not None and count > most:
        raise GuardError(f"{what} {count} exceeds {most}")


def sample_batch(m: int, count: int, seed: int = 0) -> np.ndarray:
    """(count, m) array of points of C^m, entries uniform over the square [-1,1]^2; count is in [1, MAX_SAMPLES]."""
    _check_count("sample count", count)
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (count, m)) + 1j * rng.uniform(-1.0, 1.0, (count, m))


@dataclass(frozen=True)
class LinearMapC:
    """Linear map from C^m to C^k as a (k, m) complex matrix."""

    matrix: np.ndarray

    def apply(self, a: np.ndarray) -> np.ndarray:
        return a @ self.matrix.T


def op_norm_sup(h: LinearMapC) -> float:
    """Induced norm for sup-norm domains and codomains: max row l1-sum."""
    if h.matrix.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(h.matrix), axis=1)))


def classify_njordan_functionals(m: int, n: int) -> list[LinearMapC]:
    """All linear f: C^m -> C with f(a^n) = f(a)^n as polynomial identities.

    Comparing coefficients of both sides as polynomials in the m entries
    forces at most one nonzero matrix entry c, placed on one coordinate,
    with c^n = c; so c = 0 or c^(n-1) = 1.  The list is built in a fixed
    order: the zero functional, then for each coordinate the (n-1)-th
    roots of unity omega = exp(2*pi*i*j/(n-1)) for j = 0..n-2.
    """
    if n not in (2, 3, 4):
        raise ValueError("supported powers are 2, 3, 4")
    if m > 6:
        raise ValueError("domain dimension capped at 6")
    out = [LinearMapC(np.zeros((1, m), dtype=complex))]
    for i in range(m):
        for j in range(n - 1):
            omega = cmath.exp(2j * cmath.pi * j / (n - 1))
            row = np.zeros((1, m), dtype=complex)
            row[0, i] = omega
            out.append(LinearMapC(row))
    return out


def is_involution_preserving(h: LinearMapC) -> bool:
    """h(conj(a)) = conj(h(a)) for all a, equivalent to a real matrix."""
    return float(np.max(np.abs(h.matrix.imag), initial=0.0)) <= FILTER_TOL


def _check_finite(what: str, values: np.ndarray) -> None:
    """Refuse an overflowed value: inf or NaN compares as within any tolerance or none."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} is not finite in floating point")


def _first_bad(lhs: np.ndarray, rhs: np.ndarray) -> tuple[bool, int | None]:
    """(True, None) when every sample's sup-norm defect is within FILTER_TOL, else (False, first bad sample).

    A non-finite value on either side is refused with ValueError.
    """
    _check_finite("a power or product", lhs)
    _check_finite("a power or product", rhs)
    bad = np.flatnonzero(np.abs(lhs - rhs).max(axis=1, initial=0.0) > FILTER_TOL)
    return (False, int(bad[0])) if bad.size else (True, None)


def _power_holds(h: LinearMapC, n: int, batch: np.ndarray, powers: np.ndarray) -> tuple[bool, int | None]:
    """is_power_jordan's verdict on a batch and its n-th powers, computed once by the caller.

    Callers hold np.errstate(over="ignore", invalid="ignore") around the
    powers and this call: _first_bad refuses an inf or NaN instead.
    """
    return _first_bad(h.apply(powers), h.apply(batch) ** n)


def is_power_jordan(h: LinearMapC, n: int, samples: np.ndarray) -> tuple[bool, int | None]:
    """Does h(a^n) = h(a)^n hold on every sample; returns first bad index."""
    # an overflow gives inf or NaN, which _first_bad refuses, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        return _power_holds(h, n, samples, samples ** n)


def preserves_star_product(h: LinearMapC, samples: np.ndarray) -> tuple[bool, int | None]:
    """Does h(a* a) = h(a)* h(a) hold on every sample."""
    img = h.apply(samples)
    return _first_bad(h.apply(np.conjugate(samples) * samples), np.conjugate(img) * img)


def check_corollary_2_6(
    m: int,
    k: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> dict:
    """Contractivity sweep over componentwise cube-power-preserving maps.

    Every h: C^m -> C^k whose k components are drawn from the
    involution-preserving part of classify_njordan_functionals(m, 3) is
    checked to be cube-power-preserving on samples and to satisfy
    op_norm_sup(h) <= 1, which is exact because every matrix entry lies in
    {0, 1, -1}.  A deliberately scaled fake component (2 * first
    projection) is pushed through the same filter as a self-test and must
    be rejected before any norm reasoning.
    """
    _check_count("m", m, 3)
    _check_count("k", k, 3)
    functionals = [f for f in classify_njordan_functionals(m, 3) if is_involution_preserving(f)]
    batch = sample_batch(m, samples, seed)
    maps = [LinearMapC(np.vstack([f.matrix for f in c])) for c in itertools.product(functionals, repeat=k)]
    fake = np.zeros((1, m), dtype=complex)
    fake[0, 0] = 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        cubes = batch ** 3
        all_jordan = all([_power_holds(h, 3, batch, cubes)[0] for h in maps])
        fake_rejected = not _power_holds(LinearMapC(fake), 3, batch, cubes)[0]
    max_norm = max(op_norm_sup(h) for h in maps)
    all_contractive = max_norm <= 1.0
    return {
        "m": m,
        "k": k,
        "functionals_per_component": len(functionals),
        "maps_checked": len(maps),
        "all_power_preserving": all_jordan,
        "all_contractive": all_contractive,
        "max_norm": max_norm,
        "injected_fake_rejected": fake_rejected,
        "samples": samples,
        "seed": seed,
        "ok": all_jordan and all_contractive and fake_rejected,
    }


def step2_reduction_check(
    h: LinearMapC,
    n: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> bool:
    """Whole-map power preservation is equivalent to componentwise.

    The coordinate functionals of C^k separate points and multiply
    pointwise, so h(a^n) = h(a)^n holds on the samples exactly when every
    coordinate component satisfies its own scalar version on the same
    samples.  Both directions are checked on one shared sample batch and
    its n-th powers, computed once.
    """
    batch, powers = _batch_and_powers(h.matrix.shape[1], samples, seed, n)
    with np.errstate(over="ignore", invalid="ignore"):
        return _reduction_holds(h, n, batch, powers)


def _draw_powers(m: int, samples: int, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """sample_batch(m, samples, seed) and its n-th powers, both read-only."""
    batch = sample_batch(m, samples, seed)
    # an overflow gives inf or NaN, which _first_bad refuses, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        powers = batch ** n
    batch.flags.writeable = powers.flags.writeable = False
    return batch, powers


_kept_draw = functools.lru_cache(maxsize=1)(_draw_powers)


def _batch_and_powers(m: int, samples: int, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The one step 2 draw: a sample batch and its n-th powers, read-only.

    Every map of a sweep is checked on the same draw, so the last one is
    kept and handed out again for the same (m, samples, seed, n), but only
    while samples * m is at most DEFAULT_SAMPLES * MAX_DIM: the two
    complex128 arrays then hold at most 512 KiB.
    """
    if samples * m <= DEFAULT_SAMPLES * MAX_DIM:
        return _kept_draw(m, samples, seed, n)
    return _draw_powers(m, samples, seed, n)


def _reduction_holds(h: LinearMapC, n: int, batch: np.ndarray, powers: np.ndarray) -> bool:
    """step2_reduction_check's verdict on a drawn batch and its n-th powers."""
    whole = _power_holds(h, n, batch, powers)[0]
    rows = [LinearMapC(h.matrix[row : row + 1, :]) for row in range(h.matrix.shape[0])]
    return whole == all([_power_holds(f, n, batch, powers)[0] for f in rows])


def check_theorem_2_7(
    h: LinearMapC,
    power: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> dict:
    """Norm check for maps passing the full hypothesis filter set.

    Filters, in order: h(a^power) = h(a)^power on samples, involution
    preservation, and h(a* a) = h(a)* h(a) on samples.  A map failing any
    filter is reported as rejected with the failing hypothesis and witness
    sample index, and no norm claim is made.  A map passing all three must
    satisfy op_norm_sup(h) <= 1 + FILTER_TOL; the report also traces the
    inequality norm(h(a))^(4*power+2) <= opnorm(h)^4 * norm(a)^(4*power+2)
    on every sample and returns the smallest and largest observed slack.
    """
    _check_count("power", power, None)
    batch = sample_batch(h.matrix.shape[1], samples, seed)
    filters = (
        ("power_preservation", lambda: is_power_jordan(h, power, batch)),
        ("involution_preservation", lambda: (is_involution_preserving(h), None)),
        ("star_product", lambda: preserves_star_product(h, batch)),
    )
    for by, passes in filters:
        ok, witness = passes()
        if not ok:
            return {"rejected_by": by, "witness_sample": witness, "power": power, "samples": samples, "seed": seed,
                    "ok": False}

    norm = op_norm_sup(h)
    exponent = 4 * power + 2
    # Sup norm per sample, 0 in dimension 0.  The powers are taken on
    # Python floats: numpy's vectorized pow can differ from them in the
    # last bit.
    image_norms = np.abs(h.apply(batch)).max(axis=1, initial=0.0).astype(object)
    sample_norms = np.abs(batch).max(axis=1, initial=0.0).astype(object)
    try:
        slack = norm ** 4 * sample_norms ** exponent - image_norms ** exponent
    except OverflowError as exc:
        raise ValueError(f"slack at power {power} is not finite in floating point") from exc
    _check_finite(f"slack at power {power}", slack.astype(float))
    min_slack, max_slack = float(slack.min()), float(slack.max())
    return {
        "rejected_by": None,
        "power": power,
        "norm": norm,
        "contractive": norm <= 1.0 + FILTER_TOL,
        "min_slack": min_slack,
        "max_slack": max_slack,
        "slack_nonnegative": min_slack >= -FILTER_TOL,
        "samples": samples,
        "seed": seed,
        "ok": norm <= 1.0 + FILTER_TOL,
    }


def check_step2(m: int, k: int, n: int, count: int, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> dict:
    """step2_reduction_check on ``count`` random maps C^m -> C^k, each drawn and checked in turn on one sample batch.

    Each count is in [1, MAX_SAMPLES], m and k in [1, MAX_DIM], n at least
    1, and the work at most WORK_CAP (per map, k + 1 checks at CALL_WORK and
    4 * samples * m * k multiply-adds: the map and its rows, each applied to
    the samples and their powers), all checked before anything is drawn.
    """
    _check_count("m", m, MAX_DIM)
    _check_count("k", k, MAX_DIM)
    _check_count("n", n, None)
    _check_count("map count", count)
    _check_count("sample count", samples)
    work = count * ((k + 1) * CALL_WORK + 4 * samples * m * k)
    check_work(f"a step 2 sweep of {count} maps x {samples} samples", work)
    # every map is checked on the one draw step2_reduction_check would make for it
    batch, powers = _batch_and_powers(m, samples, seed, n)
    with np.errstate(over="ignore", invalid="ignore"):
        passed = sum(1 for h in _linear_maps(m, k, count, seed) if _reduction_holds(h, n, batch, powers))
    return {
        "check": "step2_reduction",
        "maps": count,
        "equivalence_held": passed,
        "ok": passed == count,
        "n": n,
        "samples": samples,
        "seed": seed,
    }


def coordinate_star_map(k: int, perm: tuple[int, ...] | None = None) -> LinearMapC:
    """The map permuting coordinates of C^k, a norm-one *-isomorphism; k is in [1, MAX_DIM]."""
    _check_count("k", k, MAX_DIM)
    if perm is None:
        perm = tuple(range(k))
    if sorted(perm) != list(range(k)):
        raise ValueError("perm must be a permutation of 0..k-1")
    # row i is the unit vector e_perm[i]
    return LinearMapC(np.eye(k, dtype=complex)[list(perm)])


def random_linear_maps(m: int, k: int, count: int, seed: int = 0) -> list[LinearMapC]:
    """Reproducible batch of dense complex maps for the reduction check; count is in [1, MAX_SAMPLES]."""
    _check_count("map count", count)
    return list(_linear_maps(m, k, count, seed))


def _linear_maps(m: int, k: int, count: int, seed: int) -> Iterator[LinearMapC]:
    """random_linear_maps' maps, drawn one at a time from the same seeded stream."""
    rng = np.random.default_rng(seed)
    return (LinearMapC(rng.uniform(-1.0, 1.0, (k, m)) + 1j * rng.uniform(-1.0, 1.0, (k, m))) for _ in range(count))
