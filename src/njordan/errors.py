"""Exception types and the one work bound shared across the toolkit."""

from __future__ import annotations

# Most work one request may predict, in scalar multiply-adds: a ring product
# costs its nonzero structure terms per row, an additive map d_A * d_B per
# row, a complex map C^m -> C^k m * k per sample, and a map checked by a
# Python-level call (10 to 60 us whatever its size) CALL_WORK more, which a
# search candidate keeps as a floor, though its survivors are checked a block
# at a time.  At the cap, scans and sweeps ran 4 to 12 s on a 2-core box.
WORK_CAP = 10 ** 10
CALL_WORK = 2 ** 15


class GuardError(RuntimeError):
    """A size or safety guard refused the requested computation."""


def check_work(what: str, work: int, override: bool = False) -> None:
    """Refuse a request whose predicted work passes WORK_CAP, unless override is set."""
    if work > WORK_CAP and not override:
        raise GuardError(f"{what} needs {work} multiply-adds, over the work cap {WORK_CAP}")
