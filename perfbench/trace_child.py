"""Run one `qh` command with spans around the public functions of each layer.

Usage: python3 perfbench/trace_child.py SPANS_JSON ARG...

ARG... are the `qh` arguments, as for `python -m qhandle.cli ARG...`; the
command's stdout, stderr and exit code are those of the untraced command.
The tracer wraps names from outside the package: every `qhandle` module that
holds a wrapped function (a `from .linalg import mat_vec` copy, or a list of
functions such as `acceptance.CRITERIA`) is rebound to the wrapper, which
also covers lazy imports inside functions; methods are rebound on their
class.  Spans are aggregated in memory per (parent span, span) edge and
written to SPANS_JSON when the command returns.

A span's self time is its duration minus the time of the named spans it
called.  Targets the package no longer defines are skipped and listed under
"missing", so a refactor that removes a function loses only that metric.
"""

import functools
import json
import sys
import time

perf = time.perf_counter


def _count_terms(tracer, result):
    tracer.add("partitions.lr_expand.terms", len(result))


def _count_zero(tracer, result):
    tracer.add("rings.reduce_sigma_hat.zero", result[2] is None)


def _count_states(tracer, result):
    tracer.add("complexity.trajectory.states", len(result.states))


def _count_exact(tracer, result):
    tracer.add("complexity.s_infinity.exact", bool(result.exact))


# (module, attribute, span name, observer of the returned value)
TARGETS = [
    ("partitions", "lr_expand", "partitions.lr_expand", _count_terms),
    ("rings", "reduce_sigma_hat", "rings.reduce_sigma_hat", _count_zero),
    ("rings", "grassmannian", "rings.grassmannian", None),
    ("rings", "delta_closed_form", "rings.delta_closed_form", None),
    ("rings", "fci_report", "rings.fci_report", None),
    ("frobenius", "FrobeniusRing.validate", "frobenius.validate", None),
    ("frobenius", "FrobeniusRing._validate_associativity",
     "frobenius.validate.assoc", None),
    ("frobenius", "FrobeniusRing._validate_frobenius",
     "frobenius.validate.frobenius", None),
    ("frobenius", "FrobeniusRing.handle_element", "frobenius.handle_element", None),
    ("frobenius", "FrobeniusRing.f_span_dim", "frobenius.f_span_dim", None),
    ("frobenius", "FrobeniusRing.mult_matrix", "frobenius.mult_matrix", None),
    ("frobenius", "FrobeniusRing.product", "frobenius.product", None),
    ("linalg", "solve_linear", "linalg.solve_linear", None),
    ("linalg", "mat_rank", "linalg.mat_rank", None),
    ("linalg", "nullspace", "linalg.nullspace", None),
    ("linalg", "mat_vec", "linalg.mat_vec", None),
    ("linalg", "mat_mul", "linalg.mat_mul", None),
    ("linalg", "mat_pow", "linalg.mat_pow", None),
    ("linalg", "char_poly", "linalg.char_poly", None),
    ("linalg", "rational_eigenstructure", "linalg.rational_eigenstructure", None),
    ("linalg", "rational_roots", "linalg.rational_roots", None),
    ("linalg", "is_positive_definite", "linalg.is_positive_definite", None),
    ("linalg", "_jacobi", "linalg.jacobi", None),
    ("complexity", "trajectory", "complexity.trajectory", _count_states),
    ("complexity", "exact_complexity", "complexity.exact_complexity", None),
    ("complexity", "approx_complexity", "complexity.approx_complexity", None),
    ("complexity", "limit_points_real", "complexity.limit_points_real", None),
    ("complexity", "s_infinity", "complexity.s_infinity", _count_exact),
] + [("acceptance", f"criterion_{i}", f"acceptance.criterion_{i}", None)
     for i in range(1, 9)] + [
    ("cli", "build_ring", "cli.build_ring", None),
    ("cli", "render", "cli.render", None),
    ("cli", "run", "cli.run", None),
]


class Tracer:
    """Span and counter aggregates for one process, kept in memory."""

    def __init__(self):
        self.stack = []  # open spans: [name, time spent in named children]
        self.edges = {}  # (parent, name) -> [calls, inclusive s, self s]
        self.counters = {}

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def record(self, parent, name, inclusive, self_time):
        edge = self.edges.setdefault((parent, name), [0, 0.0, 0.0])
        edge[0] += 1
        edge[1] += inclusive
        edge[2] += self_time

    def wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            frame = [name, 0.0]
            self.stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += took
                self.record(parent, name, took, took - frame[1])
            if observe is not None:
                observe(self, result)
            return result
        return span

    def dump(self, path, missing):
        edges = [{"parent": p, "name": n, "calls": c, "incl_s": i, "self_s": s}
                 for (p, n), (c, i, s) in self.edges.items()]
        with open(path, "w") as fh:
            json.dump({"edges": edges, "counters": self.counters,
                       "missing": missing}, fh)


def _swap(value, orig, wrapped):
    """Replace orig by wrapped inside a module-level list of tuples in place."""
    if isinstance(value, list):
        for pos, item in enumerate(value):
            if isinstance(item, tuple) and any(x is orig for x in item):
                value[pos] = tuple(wrapped if x is orig else x for x in item)


def install(tracer, package):
    """Wrap every target; return the targets the package does not define."""
    modules = [m for n, m in sys.modules.items()
               if n == package or n.startswith(package + ".")]
    missing = []
    for module, attr, name, observe in TARGETS:
        home = sys.modules.get(f"{package}.{module}")
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        orig = getattr(owner, leaf, None)
        if orig is None:
            missing.append(name)
            continue
        wrapped = tracer.wrap(name, orig, observe)
        if owner_name:
            setattr(owner, leaf, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                else:
                    _swap(value, orig, wrapped)
    return missing


def main(argv):
    spans_path, qh_args = argv[0], argv[1:]
    tracer = Tracer()
    start = perf()
    import qhandle.cli as cli
    took = perf() - start
    tracer.record(None, "cli.import", took, took)
    # builds and hits of the functools.cache that the span wraps from outside
    grassmannian = getattr(sys.modules["qhandle.rings"], "grassmannian", None)
    missing = install(tracer, "qhandle")
    try:
        code = cli.run(qh_args)
    finally:
        if hasattr(grassmannian, "cache_info"):
            stats = grassmannian.cache_info()
            tracer.add("rings.grassmannian.builds", stats.misses)
            tracer.add("rings.grassmannian.hits", stats.hits)
        tracer.dump(spans_path, missing)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
