"""Per-layer timing by wrapping the package's functions from outside.

Each wrapped function is a span named ``<layer>.<fn>``.  Spans are not kept
one by one: every name aggregates its call count and its self time, the
span's duration minus the time covered by the spans it called.  A span's
self times and its children's add up to its duration, so the self times of
all names add up to the time spent inside top-level spans.

A wrapper replaces the function under every name that binds it in every
loaded ``supertorus`` module, because ``cohomology`` and ``matchings`` import
``exterior`` functions by name.  Methods are replaced on their class.  The
wrappers only measure while ``Tracer.active`` is true, so the benchmark's
own checks are never counted.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("exterior", "linalg", "cohomology", "matchings", "verify", "cli")

# (span name, module, owner class or None, attribute)
SPANS = [
    ("exterior.mul", "exterior", "Element", "__mul__"),
    ("exterior.raising", "exterior", None, "raising"),
    ("exterior.translate", "exterior", None, "translate"),
    ("exterior.pairing", "exterior", None, "pairing"),
    ("exterior.permute", "exterior", None, "permute"),
    ("exterior.format_element", "exterior", None, "format_element"),
    ("linalg.rank", "linalg", "Matrix", "rank"),
    ("linalg.kernel_basis", "linalg", "Matrix", "kernel_basis"),
    ("linalg.solve_many", "linalg", "Matrix", "solve_many"),
    ("linalg.boolean_incidence", "linalg", None, "boolean_incidence"),
    ("cohomology.raising_matrix", "cohomology", None, "raising_matrix"),
    ("cohomology.invariants_basis", "cohomology", None, "invariants_basis"),
    ("cohomology.coinvariants_representatives", "cohomology", None,
     "coinvariants_representatives"),
    ("cohomology.lefschetz_matrix", "cohomology", None, "lefschetz_matrix"),
    ("cohomology.duality_gram", "cohomology", None, "duality_gram"),
    ("cohomology.trace_on_basis", "cohomology", None, "trace_on_basis"),
    ("matchings.noncrossing_matchings", "matchings", None, "noncrossing_matchings"),
    ("matchings.matching_invariant", "matchings", None, "matching_invariant"),
    ("matchings.normal_form", "matchings", None, "normal_form"),
    ("matchings.matching_from_subsets", "matchings", None, "matching_from_subsets"),
    ("matchings.subsets_from_matching", "matchings", None, "subsets_from_matching"),
    ("cli.main", "cli", None, "main"),
    ("cli.emit", "cli", None, "_emit_json"),
    ("cli.emit", "cli", None, "_emit_csv"),
]

COUNTS = (
    "linalg.rank.bareiss_fallbacks",
    "linalg.kernel_basis.cells",
    "matchings.noncrossing_matchings.enumerated",
    "matchings.normal_form.cache_hits",
)

# The ROADMAP's named linalg probe: building boolean_incidence(12, 6, 6)
# and taking its rank, timed on their own inside whatever workload runs it.
PROBE_ARGS = (12, 6, 6)


class Tracer:
    def __init__(self):
        self.active = False
        self.frames = [0.0]  # child time covered so far, one slot per open span
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.probe: dict[str, float] = {}
        self._probe_id = None
        self.names: list[str] = []

    def wrap(self, name, fn, before=None, after=None):
        """A span around fn; ``before(args)`` and ``after(args, result, dt)``
        run outside the span, so their cost lands in the caller's self time."""
        tracer = self
        frames = self.frames
        calls, self_s = self.calls, self.self_s
        if name not in self.names:
            self.names.append(name)

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frames.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                frames[-2] += dt
                self_s[name] += dt - frames.pop()
                calls[name] += 1
            if after is not None:
                after(args, result, dt)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def counter(self, name, fn):
        """Counts calls without opening a span."""
        tracer = self
        counts = self.counts

        def counted(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        import supertorus
        from supertorus import linalg, matchings, verify

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "supertorus"]

        def rebind(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)

        hooks = {
            "linalg.kernel_basis": (None, self._kernel_cells),
            "linalg.boolean_incidence": (None, self._probe_build),
            "linalg.rank": (None, self._probe_rank),
            "matchings.noncrossing_matchings": (None, self._enumerated),
            "matchings.normal_form": (self._cache_lookup, None),
        }
        for name, module_name, owner, attr in SPANS:
            module = getattr(supertorus, module_name)
            before, after = hooks.get(name, (None, None))
            if owner is None:
                original = getattr(module, attr)
                rebind(original, self.wrap(name, original, before, after))
            else:
                cls = getattr(module, owner)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr), before, after))

        original = linalg._bareiss_rank
        rebind(original, self.counter("linalg.rank.bareiss_fallbacks", original))

        for suite in verify.SUITES.values():
            for k, (label, fn) in enumerate(suite):
                suite[k] = (label, self.wrap(f"verify.{fn.__name__}", fn))

        self._cache = matchings._normal_form_cache
        self._cache_start = len(self._cache)

    # -- counters measured at the layer boundary --------------------------

    def _kernel_cells(self, args, result, dt):
        self.counts["linalg.kernel_basis.cells"] += args[0].nrows * args[0].ncols

    def _enumerated(self, args, result, dt):
        self.counts["matchings.noncrossing_matchings.enumerated"] += len(result)

    def _cache_lookup(self, args):
        if args[0] in self._cache:
            self.counts["matchings.normal_form.cache_hits"] += 1

    def _probe_build(self, args, result, dt):
        if tuple(args) == PROBE_ARGS:
            self.probe["boolean_incidence_12_6_6.build_s"] = dt
            self._probe_id = id(result)

    def _probe_rank(self, args, result, dt):
        if self._probe_id is not None and id(args[0]) == self._probe_id:
            self.probe["boolean_incidence_12_6_6.rank_s"] = dt
            self._probe_id = None

    # -- results ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.names:
            if not name.startswith(("verify.", "cli.emit")):
                out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update({name: self.counts[name] for name in COUNTS})
        enumerated = self.counts["matchings.noncrossing_matchings.enumerated"]
        invariants = self.calls["matchings.matching_invariant"]
        out["matchings.basis_yield"] = invariants / enumerated if enumerated else 0.0
        lookups = self.calls["matchings.normal_form"]
        hits = self.counts["matchings.normal_form.cache_hits"]
        out["matchings.normal_form.hit_ratio"] = hits / lookups if lookups else 0.0
        out["matchings.normal_form.cache_misses"] = len(self._cache) - self._cache_start
        covered = 0.0
        for layer in LAYERS:
            total = sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))
            out[f"{layer}.self_s"] = total
            covered += total
        out["trace.gap_s"] = wall_s - covered
        return out
