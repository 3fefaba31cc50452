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
import itertools
from dataclasses import dataclass

import numpy as np

FILTER_TOL = 1e-9
ALGEBRA_TOL = 1e-12
DEFAULT_SAMPLES = 256
# Most samples per batch and maps per reduction sweep, with no override.
MAX_SAMPLES = 10 ** 5
# Most map-sample pairs one reduction sweep checks (maps times samples per map).
MAX_SWEEP_WORK = 10 ** 7
# Largest dimension m of a domain C^m or k of a codomain C^k, with no override.
MAX_DIM = 64


def _check_count(what: str, count: int, most: int | None = MAX_SAMPLES) -> None:
    """Refuse a count, dimension or power below 1 or over most, before anything is drawn or built."""
    if count < 1:
        raise ValueError(f"{what} must be at least 1, got {count}")
    if most is not None and count > most:
        raise ValueError(f"{what} {count} exceeds {most}")


@dataclass(frozen=True)
class DiagAlgebra:
    """Complex k-vectors, pointwise product, sup norm, entrywise conjugation."""

    k: int

    def norm(self, a: np.ndarray) -> float:
        return float(np.max(np.abs(a))) if self.k else 0.0

    def star(self, a: np.ndarray) -> np.ndarray:
        return np.conjugate(a)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b

    def samples(self, count: int, seed: int = 0) -> np.ndarray:
        """(count, k) array with entries uniform over the square [-1,1]^2; count is in [1, MAX_SAMPLES]."""
        _check_count("sample count", count)
        rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, (count, self.k)) + 1j * rng.uniform(
            -1.0, 1.0, (count, self.k)
        )

    def cstar_identity_defect(self, a: np.ndarray) -> float:
        """| norm(a* a) - norm(a)^2 |, exactly zero in exact arithmetic."""
        return abs(self.norm(self.star(a) * a) - self.norm(a) ** 2)


@dataclass(frozen=True)
class LinearMapC:
    """Linear map between DiagAlgebras as a (codomain, domain) complex matrix."""

    matrix: np.ndarray

    @property
    def domain_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def codomain_dim(self) -> int:
        return self.matrix.shape[0]

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


def is_power_jordan(h: LinearMapC, n: int, samples: np.ndarray) -> tuple[bool, int | None]:
    """Does h(a^n) = h(a)^n hold on every sample; returns first bad index."""
    # an overflow gives inf or NaN, which _first_bad refuses, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        return _first_bad(h.apply(samples ** n), h.apply(samples) ** n)


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
    functionals = [
        f for f in classify_njordan_functionals(m, 3) if is_involution_preserving(f)
    ]
    dom = DiagAlgebra(m)
    batch = dom.samples(samples, seed)
    maps_checked = 0
    max_norm = 0.0
    all_jordan = True
    all_contractive = True
    for components in itertools.product(functionals, repeat=k):
        h = LinearMapC(np.vstack([f.matrix for f in components]))
        ok, _ = is_power_jordan(h, 3, batch)
        norm = op_norm_sup(h)
        maps_checked += 1
        max_norm = max(max_norm, norm)
        all_jordan = all_jordan and ok
        all_contractive = all_contractive and norm <= 1.0
    fake = np.zeros((1, m), dtype=complex)
    fake[0, 0] = 2.0
    fake_rejected = not is_power_jordan(LinearMapC(fake), 3, batch)[0]
    return {
        "m": m,
        "k": k,
        "functionals_per_component": len(functionals),
        "maps_checked": maps_checked,
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
    batch = DiagAlgebra(h.domain_dim).samples(samples, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        return _reduction_holds(h, n, batch, batch ** n)


def _reduction_holds(h: LinearMapC, n: int, batch: np.ndarray, powers: np.ndarray) -> bool:
    """step2_reduction_check's verdict on a drawn batch and its n-th powers."""

    def holds(f: LinearMapC) -> bool:
        return _first_bad(f.apply(powers), f.apply(batch) ** n)[0]

    whole = holds(h)
    componentwise = all([holds(LinearMapC(h.matrix[row : row + 1, :])) for row in range(h.codomain_dim)])
    return whole == componentwise


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
    batch = DiagAlgebra(h.domain_dim).samples(samples, seed)

    def rejected(by: str, witness: int | None) -> dict:
        return {
            "rejected_by": by,
            "witness_sample": witness,
            "power": power,
            "samples": samples,
            "seed": seed,
            "ok": False,
        }

    ok, witness = is_power_jordan(h, power, batch)
    if not ok:
        return rejected("power_preservation", witness)
    if not is_involution_preserving(h):
        return rejected("involution_preservation", None)
    ok, witness = preserves_star_product(h, batch)
    if not ok:
        return rejected("star_product", witness)

    norm = op_norm_sup(h)
    exponent = 4 * power + 2
    # Sup norm per sample, 0 in dimension 0 as in DiagAlgebra.norm.  The
    # powers are taken on Python floats: numpy's vectorized pow can differ
    # from them in the last bit.
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
    """step2_reduction_check on ``count`` random maps from C^m to C^k, all on one drawn sample batch.

    Each count is in [1, MAX_SAMPLES], count * samples is at most
    MAX_SWEEP_WORK, m and k are in [1, MAX_DIM] and n is at least 1; all are
    checked before anything is drawn.
    """
    _check_count("m", m, MAX_DIM)
    _check_count("k", k, MAX_DIM)
    _check_count("n", n, None)
    _check_count("map count", count)
    _check_count("sample count", samples)
    if count * samples > MAX_SWEEP_WORK:
        raise ValueError(f"{count} maps x {samples} samples exceeds {MAX_SWEEP_WORK} map-sample pairs")
    maps = random_linear_maps(m, k, count, seed)
    # every map is checked on the one batch step2_reduction_check would draw for it
    batch = DiagAlgebra(m).samples(samples, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = batch ** n
        passed = sum(1 for h in maps if _reduction_holds(h, n, batch, powers))
    return {
        "check": "step2_reduction",
        "maps": len(maps),
        "equivalence_held": passed,
        "ok": passed == len(maps),
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
    matrix = np.zeros((k, k), dtype=complex)
    for i, j in enumerate(perm):
        matrix[i, j] = 1.0
    return LinearMapC(matrix)


def random_linear_maps(m: int, k: int, count: int, seed: int = 0) -> list[LinearMapC]:
    """Reproducible batch of dense complex maps for the reduction check; count is in [1, MAX_SAMPLES]."""
    _check_count("map count", count)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        mat = rng.uniform(-1.0, 1.0, (k, m)) + 1j * rng.uniform(-1.0, 1.0, (k, m))
        out.append(LinearMapC(mat))
    return out
