"""Per-module call tracing for the benchmark's traced run.

Tracing is installed from the benchmark's own files by replacing module
attributes inside the benchmark's child process: every public function of
the package modules, ``FormalSum.__init__`` and ``SemiringHandle.elements``
are swapped for timing wrappers.  Nothing under ``src/`` is edited.

Each wrapper pushes a frame on one span stack, so a module's self time is
the time spent in its functions minus the time of wrapped calls they made.
Calls are counted per function.  Coarse spans (analysis queries,
``SemiringHandle.elements`` and ``cli.main``) are kept in memory and written
out by :meth:`Tracer.dump`; the hot element ops are only counted, because
millions of span records would cost more memory than the run itself.
"""

import functools
import importlib
import json
import time
import types
from collections import Counter, defaultdict

PACKAGE = "intervalsemirings"
MODULES = ("domains", "formalsums", "matrices", "carriers", "expressions",
           "analysis", "cli")

# analysis entry point -> query name used in the per-layer metric names
QUERIES = {
    "find_zero_divisors": "zero_divisors",
    "find_units": "units",
    "find_idempotents": "idempotents",
    "find_nilpotents": "nilpotents",
    "find_s_special": None,  # named after its kind argument
    "classify_semiring": "classify",
    "verify_axioms": "verify_axioms",
    "smarandache_search": "smarandache",
    "check_substructure": "check_substructure",
    "semifield_within": "semifield_within",
    "theorem_sweep": "theorem_sweep",
}

# the element multiplication of each handle kind; sweeps run on domains
ELEMENT_MUL = {
    "domain": "domains.dom_mul",
    "formal-sum": "formalsums.fs_mul",
    "matrix": "matrices.mat_mul",
}


def _query_name(fname, args, kwargs):
    name = QUERIES[fname]
    if name is None:
        kind = args[1] if len(args) > 1 else kwargs["kind"]
        name = kind.replace("-", "_") + "s"
    return name


class Tracer:
    """Span stack, call counters and per-query statistics of one process."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        # query -> [seconds, pairs_scanned, element muls, findings, calls]
        self.queries = defaultdict(lambda: [0.0, 0, 0, 0, 0])
        self.spans = []
        self.job = None
        self._stack = []
        self._coarse = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the package's public functions in this process."""
        pkg = importlib.import_module(PACKAGE)
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        swap = {}
        for mname, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    coarse = (mname == "analysis" and name in QUERIES) or \
                        (mname == "cli" and name == "main")
                    swap[obj] = self._wrap(mname, name, obj, coarse)
        fs_cls = mods["formalsums"].FormalSum
        fs_cls.__init__ = self._wrap("formalsums", "FormalSum", fs_cls.__init__,
                                     False)
        handle_cls = mods["analysis"].SemiringHandle
        handle_cls.elements = self._wrap("analysis", "elements",
                                         handle_cls.elements, True)
        # rebind every module-level name that holds a wrapped function, so
        # `from .domains import dom_mul` style imports are traced too
        for mod in [pkg] + list(mods.values()):
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in swap:
                    setattr(mod, name, swap[obj])

    def _wrap(self, module, fname, fn, coarse):
        key = f"{module}.{fname}"
        calls = self.calls
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        if not coarse:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[key] += 1
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    self_s[module] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
            return wrapper

        @functools.wraps(fn)
        def coarse_wrapper(*args, **kwargs):
            calls[key] += 1
            query = mul_key = None
            if module == "analysis" and fname in QUERIES:
                query = _query_name(fname, args, kwargs)
                handle = args[0] if args and hasattr(args[0], "kind") else None
                mul_key = ELEMENT_MUL[handle.kind if handle else "domain"]
            muls0 = calls[mul_key] if mul_key else 0
            span_id = len(self.spans)
            parent = self._coarse[-1] if self._coarse else None
            span = [span_id, parent, query or key, self.job, 0.0, 0.0]
            self.spans.append(span)
            self._coarse.append(span_id)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                self._coarse.pop()
                self_s[module] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                span[4], span[5] = t0, t1
                if fname == "elements":
                    self.queries["elements"][0] += dur
                if query is not None:
                    q = self.queries[query]
                    q[0] += dur
                    q[2] += calls[mul_key] - muls0
                    q[4] += 1
                    budget = getattr(result, "budget_spent", None)
                    if budget is not None:
                        q[1] += budget["pairs_scanned"]
                        q[3] += len(result.findings)
        return coarse_wrapper

    # -- output -------------------------------------------------------------

    def snapshot(self):
        """Counters and aggregates as plain JSON data."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "queries": {k: list(v) for k, v in self.queries.items()},
        }

    def dump(self, path, extra=None):
        """Write the aggregates and every coarse span to a JSON file."""
        doc = self.snapshot()
        doc["spans"] = [
            {"id": s[0], "parent": s[1], "name": s[2], "job": s[3],
             "start": s[4], "end": s[5]} for s in self.spans]
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def merge(total, part):
    """Add one snapshot's counters into an accumulating snapshot."""
    for k, v in part["calls"].items():
        total["calls"][k] = total["calls"].get(k, 0) + v
    for k, v in part["self_s"].items():
        total["self_s"][k] = total["self_s"].get(k, 0.0) + v
    for k, v in part["queries"].items():
        acc = total["queries"].setdefault(k, [0.0, 0, 0, 0, 0])
        for i, x in enumerate(v):
            acc[i] += x
    return total


def empty_snapshot():
    return {"calls": {}, "self_s": {}, "queries": {}}
