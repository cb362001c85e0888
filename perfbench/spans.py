"""Spans around the public functions of each ``abpscalc`` layer, recorded
from outside the program.

``Tracer.install()`` rebinds each traced function under every name the
package looks it up by: its own module attribute, the names other modules
imported it as, and, for methods, the class attribute.  Every call then
records a span (name, parent span, item id, start, end) in flat arrays
kept in memory; ``write`` dumps them when the pass ends.

Self time is a span's duration minus the time its child spans cover.  The
tracer's own bookkeeping inside a parent span is timed and booked apart.
Time inside an item's call but outside every span is library code with no
span of its own (``geometric_eq``, ``param_record``, ...); time outside
the items' calls is the benchmark's own (rendering, digesting, speed
probes).  So

    pass time = benchmark's own + unspanned + sum of self times + bookkeeping.

These layers are single-threaded and have no queue, so no work waits on
them: there is no wait time to report.
"""

import gzip
import sys
import time
from array import array
from collections import Counter

# (module, attribute) of each traced function; "Class.method" for methods.
TARGETS = (
    ("combicore", "smith_normal_form"),
    ("extquot", "intersect_cosets"),
    ("extquot", "fixed_locus"),
    ("extquot", "stabilizer"),
    ("extquot", "TorusCoset.contains_torsion"),
    ("extquot", "MonomialAction.__init__"),
    ("extquot", "strata"),
    ("extquot", "spectral_eq"),
    ("langlands", "validate"),
    ("langlands", "centralizer_restriction"),
    ("langlands", "enhancements"),
    ("langlands", "cuspidal_support"),
    ("springer", "generalized_springer"),
    ("springer", "springer_blocks"),
    ("springer", "unipotent_classes"),
    ("springer", "component_group"),
    ("abps", "build_inertial"),
    ("abps", "mu"),
    ("cli", "parse_parameter"),
    ("cli", "render"),
    ("cli", "run"),
)

# Functions whose share of repeated arguments is reported.
DISTINCT = ("extquot.intersect_cosets", "extquot.strata", "langlands.enhancements")

# lru_cached functions whose hit ratio is read from cache_info().
CACHED = (("combicore", "all_signed_permutations"), ("springer", "springer_blocks"))


def span_name(module, attr):
    return f"{module}.{attr.replace('.__init__', '.init')}"


NAMES = tuple(span_name(m, a) for m, a in TARGETS)


def layer_metric_names():
    """Every per-layer metric a traced run reports, in order."""
    out = []
    for name in NAMES:
        out += [f"{name}.calls", f"{name}.self_s"]
        if name in DISTINCT:
            out.append(f"{name}.distinct_ratio")
    out += [f"{m}.{f}.cache_hit_ratio" for m, f in CACHED]
    out += ["langlands.cuspidal_support.fail_ratio", "abps.mu.candidate_yield",
            "setup.import_s", "trace.pass_s", "trace.bench_self_s",
            "trace.unspanned_s", "trace.bookkeeping_s", "trace.overhead_ratio"]
    return out


def _key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    def __init__(self):
        self.item = -1  # id of the running item; -1 outside items
        self.name_ix = array("i")
        self.parent = array("i")
        self.item_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []  # [span index, time covered by children]
        self.calls = Counter()
        self.self_s = Counter()
        self.failures = Counter()
        self.keys = {name: set() for name in DISTINCT}
        self.mu_depth = 0  # calls of abps.mu under way
        self.bookkeeping = 0.0
        self.top = 0.0  # time inside top-level spans, bookkeeping included
        self.support_in_mu = 0
        self.mu_entries = 0
        self.cached = {}  # (module, attr) -> (cached function, hits, misses)

    def install(self):
        pkg = {n: m for n, m in sys.modules.items() if n.startswith("abpscalc.")}
        for mod, attr in CACHED:
            fn = getattr(pkg[f"abpscalc.{mod}"], attr)
            info = fn.cache_info()
            self.cached[(mod, attr)] = (fn, info.hits, info.misses)
        for ix, (mod, attr) in enumerate(TARGETS):
            owner = pkg[f"abpscalc.{mod}"]
            if "." in attr:
                cls, meth = attr.split(".")
                klass = getattr(owner, cls)
                setattr(klass, meth, self._wrap(ix, getattr(klass, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(ix, original)
            for module in pkg.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)

    def _wrap(self, ix, fn):
        name = NAMES[ix]
        keys = self.keys.get(name)
        is_mu = name == "abps.mu"
        is_support = name == "langlands.cuspidal_support"
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            enter = clock()
            frame = [len(self.start), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            if keys is not None:
                keys.add(_key(args, kwargs))
            if is_support and self.mu_depth:
                self.support_in_mu += 1
            if is_mu:
                self.mu_depth += 1
            self.name_ix.append(ix)
            self.parent.append(parent)
            self.item_ix.append(self.item)
            self.start.append(0.0)
            self.end.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if is_mu:
                    self.mu_entries += len(result.entries)
                return result
            except BaseException:
                self.failures[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                self.start[frame[0]] = start
                self.end[frame[0]] = end
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[1]
                if is_mu:
                    self.mu_depth -= 1
                leave = clock()
                self.bookkeeping += (start - enter) + (leave - end)
                if stack:
                    stack[-1][1] += leave - enter
                else:
                    self.top += leave - enter

        traced.__wrapped__ = fn
        return traced

    def metrics(self, pass_s, items_s):
        """Per-layer figures of one traced pass that spent ``items_s`` of
        its ``pass_s`` inside the items' calls."""
        out = {}
        for name in NAMES:
            calls = self.calls[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
            if name in DISTINCT:
                out[f"{name}.distinct_ratio"] = len(self.keys[name]) / calls if calls else 0.0
        for (mod, attr), (fn, hits0, misses0) in self.cached.items():
            info = fn.cache_info()
            hits, misses = info.hits - hits0, info.misses - misses0
            out[f"{mod}.{attr}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        calls = self.calls["langlands.cuspidal_support"]
        out["langlands.cuspidal_support.fail_ratio"] = (
            self.failures["langlands.cuspidal_support"] / calls if calls else 0.0)
        out["abps.mu.candidate_yield"] = (
            self.mu_entries / self.support_in_mu if self.support_in_mu else 0.0)
        out["trace.pass_s"] = pass_s
        out["trace.bench_self_s"] = pass_s - items_s
        out["trace.unspanned_s"] = items_s - self.top
        out["trace.bookkeeping_s"] = self.bookkeeping
        return out

    def write(self, path, origin):
        """All spans as gzipped TSV: name, parent span, item, start, end
        (seconds from ``origin``); the row number is the span id."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tparent\titem\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(f"{NAMES[self.name_ix[i]]}\t{self.parent[i]}\t{self.item_ix[i]}\t"
                          f"{self.start[i] - origin:.9f}\t{self.end[i] - origin:.9f}\n")
