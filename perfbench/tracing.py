"""Spans around the library's public functions, for the traced run only.

``Tracer`` replaces each target with a wrapper for the duration of a
``with`` block: every module binding of a function (``derivation`` and the
package re-import names) and the class attribute of a method.  Each call
records a span (name, start, end, parent span, op id) in memory, plus the
counts the target's counter reads off its arguments and result.  Leaving
the block puts every original object back, so untraced runs execute the
unwrapped program.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _cert(args, kwargs, result):
    out = {"rank": result.rank}
    if result.member:
        out.update(cert_used=len(result.certificate.instances), cert_generated=result.n_instances)
    return out


# (span name, module, attribute path, counter or None, reported counters).
# Attribute paths with a dot name a method on a class of that module.  Each
# target with reported counters gives the per-layer metrics <name>.calls,
# <name>.self_s and <name>.<counter> for every counter listed; a target
# whose reported counters are None only feeds a ratio below.
TARGETS: tuple[tuple[str, str, str, Callable | None, tuple[str, ...] | None], ...] = (
    ("freealg.substitute_linear", "njordan.freealg", "substitute_linear",
     lambda a, k, r: {"terms_out": len(r.terms)}, ("terms_out",)),
    ("freealg.pow", "njordan.freealg", "FreePoly.__pow__", None, ()),
    ("freealg.parse_expr", "njordan.freealg", "parse_expr", None, ()),
    ("identities.substitute", "njordan.identities", "substitute", None, ()),
    ("identities.combine", "njordan.identities", "combine", None, ()),
    ("identities.evaluate", "njordan.identities", "evaluate", lambda a, k, r: {"assignments": r.checked},
     ("assignments",)),
    ("derivation.generate_instances", "njordan.derivation", "generate_instances",
     lambda a, k, r: {"instances": len(r)}, ("instances",)),
    ("derivation.consequence_check", "njordan.derivation", "consequence_check", _cert, ("rank",)),
    ("derivation.verify_certificate", "njordan.derivation", "verify_certificate", None, ()),
    ("derivation.replay", "njordan.derivation", "replay", None, ()),
    ("models.mul_batch", "njordan.models", "FiniteRing.mul_batch", _rows, ("rows",)),
    ("models.apply_batch", "njordan.models", "AdditiveMap.apply_batch", _rows, ("rows",)),
    ("models.is_n_jordan", "njordan.models", "is_n_jordan", lambda a, k, r: {"checked": r.checked}, ("checked",)),
    ("models.is_n_ring", "njordan.models", "is_n_ring", lambda a, k, r: {"checked": r.checked}, ("checked",)),
    ("models.search", "njordan.models", "search", lambda a, k, r: {"hits": len(r)}, ("hits",)),
    # search hands each survivor of its vectorized filter to _predicate
    ("models.search.full_predicate", "njordan.models", "_predicate", None, None),
    ("models.ring_build", "njordan.models", "FiniteRing.__init__", None, ()),
    ("cstar_num.check_corollary_2_6", "njordan.cstar_num", "check_corollary_2_6",
     lambda a, k, r: {"maps_checked": r["maps_checked"]}, ("maps_checked",)),
    ("cstar_num.check_theorem_2_7", "njordan.cstar_num", "check_theorem_2_7", None, ()),
    ("cstar_num.step2_reduction_check", "njordan.cstar_num", "step2_reduction_check", None, ()),
    ("cstar_num.is_power_jordan", "njordan.cstar_num", "is_power_jordan", None, ()),
)

# Per-layer metrics of the traced run, in BENCHMARK.json order, with units.
METRICS: dict[str, str] = {}
_COUNTER_METRICS: set[str] = set()
for _name, _, _, _, _counted in TARGETS:
    if _counted is None:
        continue
    METRICS[f"{_name}.calls"] = "count"
    METRICS[f"{_name}.self_s"] = "s"
    for _c in _counted:
        METRICS[f"{_name}.{_c}"] = "count"
        _COUNTER_METRICS.add(f"{_name}.{_c}")
METRICS["derivation.certificate_use_ratio"] = "ratio"
METRICS["models.search.hit_ratio"] = "ratio"
METRICS["workload.repeated_class_share"] = "ratio"
METRICS["trace.spans"] = "count"
METRICS["trace.overhead_ratio"] = "ratio"

# Counters that must repeat exactly for a fixed seed.
EXACT_COUNTERS = (
    "identities.evaluate.assignments",
    "models.is_n_ring.checked",
    "derivation.generate_instances.instances",
    "derivation.consequence_check.rank",
)


class Tracer:
    """Install span wrappers on ``__enter__`` and restore the originals on ``__exit__``.

    A tracer can be entered again; its spans and counts accumulate.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0.0, 0.0, -1, -1))
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "njordan" or n.startswith("njordan."))]
        for name, module_name, attr, counter, _ in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            if owner_name:
                self._set(owner, method, wrapper, original)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, binding, wrapper, original)

    def _set(self, owner, attr: str, wrapper, original) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                span = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time (span minus direct children) and counter sums per target."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        out: dict[str, float] = {}
        for metric in METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(base, 0)
            elif kind == "self_s":
                out[metric] = self_s.get(base, 0.0)
            elif metric in _COUNTER_METRICS:
                out[metric] = self.counts.get(metric, 0)
        c = self.counts
        used = c.get("derivation.consequence_check.cert_used", 0)
        generated = c.get("derivation.consequence_check.cert_generated", 0)
        out["derivation.certificate_use_ratio"] = used / generated if generated else 0.0
        survivors = calls.get("models.search.full_predicate", 0)
        out["models.search.hit_ratio"] = c.get("models.search.hits", 0) / survivors if survivors else 0.0
        out["trace.spans"] = len(self.spans)
        return out

