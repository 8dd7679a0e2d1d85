"""Per-layer tracing from outside the library.

Each traced function is replaced, in every ``isolab`` module namespace and
class that holds the very same function object, by a timing wrapper; so
re-bound imports (``poset.np_precedes``, ``weil.np_of_polynomial``,
everything ``cli`` imports) and aliases such as ``__rmul__ = __mul__`` are
covered.  A class listed as a layer is traced through its ``__init__``.

Spans (function, op id, parent span, start, end) are kept in memory and
written when the run ends.  Kernels called far more than 10^5 times per
run only aggregate count and time.  A span's self time is its duration
minus the time covered by traced children; wrapper overhead lands in the
caller's self time.
"""

import importlib
import pkgutil
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "newton", "poset", "unramified", "witt", "cartier", "dieudonne", "snf", "weil", "semimodule")

TRACED = (
    "cli.main",
    "cli.build_parser",
    "cli.parse_polygon",
    "newton.np_compare",
    "newton.np_precedes",
    "newton.np_of_polynomial",
    "newton.np_diamond",
    "poset.enumerate_polygons",
    "poset.NPPoset",
    "poset.longest_chain",
    "poset.specialization_witness",
    "unramified.UnramifiedRing",
    "unramified.UnramifiedRing.teichmuller",
    "unramified.UElement.__mul__",
    "unramified.FFElement.__mul__",
    "unramified.FFElement.frobenius",
    "witt.ghost_components",
    "witt.ghost_inverse",
    "witt.WittContext.from_coordinates",
    "witt.WittElement.coordinates",
    "cartier.cartier_normalize",
    "cartier.CartierElement.__mul__",
    "cartier.artin_hasse",
    "dieudonne.np_of_display",
    "dieudonne.np_sigma_trivial",
    "dieudonne.a_number",
    "dieudonne.serre_tate_torsion",
    "snf.smith_normal_form",
    "weil.weil_verify",
    "weil.is_irreducible_q",
    "weil.count_real_roots",
    "weil.honda_tate",
    "semimodule.sm_enumerate",
    "semimodule.sm_normalize",
    "semimodule.sm_dual",
)

AGGREGATE_ONLY = frozenset(("unramified.UElement.__mul__", "unramified.FFElement.__mul__"))
MAX_SPANS = 400_000  # about 60 MB; spans past it are counted, not kept

# counters that match the library's planned stats channel
COUNTERS = (
    "unramified.teichmuller.distinct_ratio",
    "unramified.rings_built",
    "cartier.normalize.truncated_ratio",
    "weil.honda_tate.places_refused",
    "newton.np_compare.per_element_pair",
)


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in TRACED:
        out += [(name + ".calls", "count"), (name + ".busy_s", "s"), (name + ".self_s", "s")]
    out += [(layer + ".errors", "count") for layer in LAYERS]
    out += [(name, "count" if name.endswith(("rings_built", "places_refused")) else "ratio") for name in COUNTERS]
    out += [
        ("trace.throughput_ops_s", "1/s"),
        ("trace.untraced_throughput_ops_s", "1/s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.spans_kept", "count"),
        ("trace.spans_dropped", "count"),
    ]
    return out


def _resolve(name):
    """(layer, function object); a class resolves to its ``__init__``."""
    layer, _, qual = name.partition(".")
    obj = importlib.import_module("isolab." + layer)
    for part in qual.split("."):
        obj = getattr(obj, part)
    return layer, obj.__init__ if isinstance(obj, type) else obj


class Tracer:
    """Times the traced functions while ``active``; one instance per run.
    With ``keys_per_op`` (a workload whose library caches are cleared
    before each op) Teichmuller keys are counted distinct per op, the
    lifetime of any lift table there."""

    def __init__(self, keys_per_op=False):
        self.keys_per_op = keys_per_op
        self.active = False
        self.op_id = 0
        self.calls = Counter()
        self.busy = Counter()
        self.self_time = Counter()
        self.errors = Counter()
        self.spans = []
        self.spans_dropped = 0
        self._depth = Counter()
        self._stack = []
        self._next_span = 0
        self.teich_keys = set()
        self.normalized = 0
        self.truncated = 0
        self.places_refused = 0
        self.element_pairs = 0

    # -- patching -----------------------------------------------------------

    def install(self):
        import isolab

        modules = [isolab] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(isolab.__path__, "isolab.")
            if info.name != "isolab.__main__"  # importing it runs the CLI
        ]
        classes = {id(v): v for mod in modules for v in vars(mod).values() if isinstance(v, type)}
        holders = modules + [cls for cls in classes.values() if cls.__module__.startswith("isolab")]
        patched = Counter()
        for name in TRACED:
            layer, func = _resolve(name)
            wrapper = self._wrap(name, layer, func)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is func:
                        setattr(holder, attr, wrapper)
                        patched[name] += 1
        missing = [name for name in TRACED if not patched[name]]
        if missing:
            raise RuntimeError("traced functions not found: %s" % ", ".join(missing))

    def _wrap(self, name, layer, func):
        keep_spans = name not in AGGREGATE_ONLY
        hook = {
            "unramified.UnramifiedRing.teichmuller": self._on_teichmuller,
            "cartier.cartier_normalize": self._on_normalize,
            "poset.NPPoset": self._on_poset,
        }.get(name)
        stack, depth = self._stack, self._depth
        calls, busy, self_time, errors, spans = self.calls, self.busy, self.self_time, self.errors, self.spans
        from isolab.errors import PlaceResolutionError

        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            parent = stack[-1] if stack else None
            if keep_spans:
                span = self._next_span
                self._next_span += 1
            else:
                span = parent[1] if parent else -1
            frame = [0.0, span, layer]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as ex:
                if name == "weil.honda_tate" and isinstance(ex, PlaceResolutionError):
                    self.places_refused += 1
                if parent is None or parent[2] != layer:
                    errors[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                dur = t1 - t0
                calls[name] += 1
                self_time[name] += dur - frame[0]
                if not depth[name]:
                    busy[name] += dur  # inclusive time counts the outermost activation only
                if parent is not None:
                    parent[0] += dur
                if keep_spans:
                    if len(spans) < MAX_SPANS:
                        spans.append((span, parent[1] if parent else -1, self.op_id, name, t0, t1))
                    else:
                        self.spans_dropped += 1
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # -- counters -------------------------------------------------------------

    def _on_teichmuller(self, args, result):
        ring, c = args[0], args[1]
        op = self.op_id if self.keys_per_op else 0
        self.teich_keys.add((op, ring.p, ring.m, ring.N, ring.modulus, getattr(c, "coeffs", c)))

    def _on_normalize(self, args, result):
        self.normalized += 1
        self.truncated += bool(result.truncated)

    def _on_poset(self, args, result):
        self.element_pairs += len(args[0].elements) ** 2

    # -- report -----------------------------------------------------------------

    def metrics(self):
        out = {}
        for name in TRACED:
            out[name + ".calls"] = self.calls[name]
            out[name + ".busy_s"] = self.busy[name]
            out[name + ".self_s"] = self.self_time[name]
        for layer in LAYERS:
            out[layer + ".errors"] = self.errors[layer]
        teich = self.calls["unramified.UnramifiedRing.teichmuller"]
        out["unramified.teichmuller.distinct_ratio"] = len(self.teich_keys) / teich if teich else 0.0
        out["unramified.rings_built"] = self.calls["unramified.UnramifiedRing"]
        out["cartier.normalize.truncated_ratio"] = self.truncated / self.normalized if self.normalized else 0.0
        out["weil.honda_tate.places_refused"] = self.places_refused
        pairs = self.element_pairs
        out["newton.np_compare.per_element_pair"] = self.calls["newton.np_compare"] / pairs if pairs else 0.0
        out["trace.spans_kept"] = len(self.spans)
        out["trace.spans_dropped"] = self.spans_dropped
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span,parent,op,function,start_s,end_s\n")
            for span, parent, op, name, t0, t1 in self.spans:
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % (span, parent, op, name, t0, t1))
