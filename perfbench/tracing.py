"""Per-layer tracing, installed from outside the program.

`Tracer.install()` wraps sympal's layer boundaries without editing any
file under src/: a traced function is replaced in every loaded module
namespace that holds it (so `from .groupkit import spin` copies in
classify, cli, npgroup and the benchmark itself are caught), and a traced
method is replaced under every name its class gives it (`Cyc.__rmul__`
is `Cyc.__mul__`).  `uninstall()` puts the originals back.

Two kinds of boundary:

* spans -- one record per call: name, start, end and the index of the
  enclosing span.  They are kept in memory and written out at the end;
  inclusive seconds (`.s`, outermost call only) and self seconds
  (`.self_s`, minus the time of child spans and counters) come from them.
* counters -- boundaries called more than ~10^4 times per run (spin,
  extend_echelon, detect_transvection, Cyc arithmetic, mackey.induce) keep only a call
  count and a total time, since a span per call would cost more than the
  call.

The ffield scalar ops (_Fq.add/sub/neg/mul/inv) stay unwrapped: counting
them slowed the (4,7,5,31) build from 6.3 s to 20.6 s (14.4M calls, one
core of a 2-core x86-64 host, Python 3.11).  Their counts wait for call
statistics kept inside sympal itself.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import defaultdict
from importlib import import_module

# import_module, because the package re-exports the function `classify`
# under the name of its submodule
(classify, cli, cyclotomic, ffield, groupkit, linalg, mackey, npgroup, regularity,
 symplectic) = (import_module(f"sympal.{m}") for m in (
    "classify", "cli", "cyclotomic", "ffield", "groupkit", "linalg", "mackey",
    "npgroup", "regularity", "symplectic"))

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.stack: list[list] = [[-1, 0.0]]  # open spans: [index, covered seconds]
        self.depth = defaultdict(int)
        self.s = defaultdict(float)           # inclusive seconds, outermost calls
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)         # derived counts and per-op seconds
        self.tables_seen: set = set()
        self.op = ""                          # benchmark operation running now
        self._hot = 0
        self._patched: list[tuple[dict | type, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, hook=None):
        tr = self

        def wrapper(*args, **kwargs):
            rec = [name, perf(), 0.0, tr.stack[-1][0]]
            frame = [len(tr.spans), 0.0]
            tr.spans.append(rec)
            tr.stack.append(frame)
            tr.depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf()
                dt = end - rec[1]
                tr.stack.pop()
                tr.stack[-1][1] += dt
                tr.depth[name] -= 1
                if not tr.depth[name]:
                    tr.s[name] += dt
                tr.self_s[name] += dt - frame[1]
                tr.calls[name] += 1
            if hook is not None:
                hook(tr, args, result, dt)
            return result

        return wrapper

    def counter(self, name, fn, hook=None):
        tr = self
        calls, total = self.calls, self.s

        def wrapper(*args, **kwargs):
            tr._hot += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                tr._hot -= 1
                calls[name] += 1
                total[name] += dt
                if not tr._hot:
                    tr.stack[-1][1] += dt
                if hook is not None:
                    hook(tr)

        return wrapper

    def first_call_span(self, name, fn, attr):
        """Span on an instance's first call only; the instance then calls
        the original directly.  For memoizing accessors called per scalar
        op (_Fq.exp_log), where only the first call can build anything."""
        inner = self.span(name, fn)

        def wrapper(obj, *args, **kwargs):
            obj.__dict__[attr] = types.MethodType(fn, obj)
            return inner(obj, *args, **kwargs)

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _wrap(self, name, kind, fn, attr, hook):
        if kind == "first":
            return self.first_call_span(name, fn, attr)
        return (self.span if kind == "span" else self.counter)(name, fn, hook)

    def _set(self, home, key, value):
        if isinstance(home, type):
            setattr(home, key, value)
        else:
            home[key] = value

    def install(self):
        functions = {}   # id(original) -> (original, wrapper)
        for name, owner, attr, kind, hook in BOUNDARIES:
            orig = vars(owner)[attr]
            wrapper = self._wrap(name, kind, orig, attr, hook)
            if isinstance(owner, type):
                for key, val in list(vars(owner).items()):
                    if val is orig:
                        self._patched.append((owner, key, orig))
                        self._set(owner, key, wrapper)
            else:
                functions[id(orig)] = (orig, wrapper)
        for module in list(sys.modules.values()):
            home = getattr(module, "__dict__", None)
            if not isinstance(home, dict):
                continue
            for key, val in list(home.items()):
                hit = functions.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((home, key, val))
                    self._set(home, key, hit[1])

    def uninstall(self):
        for home, key, orig in reversed(self._patched):
            self._set(home, key, orig)
        self._patched.clear()

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        s, self_s, calls, count = self.s, self.self_s, self.calls, self.count

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for metric, unit in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if field == "s":
                value = s[base]
            elif field == "self_s":
                value = self_s[base]
            elif field == "calls":
                value = calls[base]
            else:   # derived counts; trace.overhead_s compares two processes, run.py sets it
                value = count[metric]
            out[metric] = (value, unit)
        out["groupkit.closure.elements_per_s"] = (
            ratio(count["groupkit.closure.elements"], s["groupkit.closure_enumerate"]), "1/s")
        out["groupkit.harvest.hit_ratio"] = (
            ratio(count["groupkit.harvest.hits"], count["groupkit.harvest.candidates"]), "ratio")
        out["mackey.character_table.distinct_ratio"] = (
            ratio(len(self.tables_seen), calls["mackey.character_table"]), "ratio")
        out["cyclotomic.ops"] = (sum(calls[f"cyclotomic.Cyc.{op}"] for op in CYC_OPS), "count")
        out["cyclotomic.reduce_calls"] = (calls["cyclotomic._reduce_mod_phi"], "count")
        out["cyclotomic.s"] = (sum(s[f"cyclotomic.Cyc.{op}"] for op in CYC_OPS)
                               + s["cyclotomic._reduce_mod_phi"], "s")
        return out


# -- hooks: derived counts measured where the work happens ----------------

def _closure_hook(tr, args, result, dt):
    tr.count["groupkit.closure.elements"] += len(result)
    key = CLOSURE_BY_OP.get(tr.op)
    if key:
        tr.count[key] += dt


def _harvest_hook(tr, args, result, dt):
    tr.count["groupkit.harvest.hits"] += len(result)


def _detect_hook(tr):
    if tr.depth["groupkit.harvest_transvections"]:
        tr.count["groupkit.harvest.candidates"] += 1


def _classify_hook(tr, args, result, dt):
    tr.count[f"classify.classify.{result.case}_s"] += dt


def _character_table_hook(tr, args, result, dt):
    g = args[0]
    cyc_order = args[1] if len(args) > 1 else None
    tr.tables_seen.add((g.table, cyc_order))


# closure seconds attributed to the closure operations of the groups workload
CLOSURE_BY_OP = {
    "prime": "groupkit.closure.sp2_f101_s",
    "cached": "groupkit.closure.cached_s",
    "extension": "groupkit.closure.sp2_f125_s",
}

CYC_OPS = ("__add__", "__sub__", "__mul__")

# (name, owner, attribute, kind, hook); kind is "span", "counter" or "first"
BOUNDARIES = [
    ("groupkit.closure_enumerate", groupkit, "closure_enumerate", "span", _closure_hook),
    ("groupkit.group_order", groupkit, "group_order", "span", None),
    ("groupkit.membership", groupkit.ElementSet, "__contains__", "span", None),
    ("groupkit.harvest_transvections", groupkit, "harvest_transvections", "span", _harvest_hook),
    ("groupkit.is_irreducible", groupkit, "is_irreducible", "span", None),
    ("groupkit.spin", groupkit, "spin", "counter", None),
    ("linalg.extend_echelon", linalg, "extend_echelon", "counter", None),
    ("linalg.nullspace", linalg, "nullspace", "span", None),
    ("symplectic.detect_transvection", symplectic, "detect_transvection", "counter", _detect_hook),
    ("classify.classify", classify, "classify", "span", _classify_hook),
    ("classify.recognize_sp_over_subfield", classify, "recognize_sp_over_subfield", "span", None),
    ("classify.extract_induction", classify, "extract_induction", "span", None),
    ("npgroup.build_np_group", npgroup, "build_np_group", "span", None),
    ("npgroup.twist_unramified", npgroup, "twist_unramified", "span", None),
    ("npgroup.find_np_primes", npgroup, "find_np_primes", "span", None),
    ("regularity.check_npower_distinct", regularity, "check_npower_distinct", "span", None),
    ("mackey.all_subgroups", mackey, "all_subgroups", "span", None),
    ("mackey.character_table", mackey, "character_table", "span", _character_table_hook),
    ("mackey.induce", mackey, "induce", "counter", None),
    ("mackey.restrict", mackey, "restrict", "span", None),
    ("mackey.mackey_check", mackey, "mackey_check", "span", None),
    ("mackey.verify_prop_nh", mackey, "verify_prop_nh", "span", None),
    ("mackey.check_res_nontrivial", mackey, "check_res_nontrivial", "span", None),
    ("cyclotomic._reduce_mod_phi", cyclotomic, "_reduce_mod_phi", "counter", None),
    *[(f"cyclotomic.Cyc.{op}", cyclotomic.Cyc, op, "counter", None) for op in CYC_OPS],
    ("ffield.tables", ffield._Fq, "exp_log", "first", None),
    ("ffield.tables", ffield._Fq, "tables", "first", None),
    ("cli.main", cli, "main", "span", None),
]

# Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER = [
    ("groupkit.closure_enumerate.s", "s"),
    ("groupkit.closure_enumerate.calls", "count"),
    ("groupkit.closure.elements", "count"),
    ("groupkit.closure.elements_per_s", "1/s"),
    ("groupkit.closure.sp2_f101_s", "s"),
    ("groupkit.closure.sp2_f125_s", "s"),
    ("groupkit.closure.cached_s", "s"),
    ("groupkit.membership.s", "s"),
    ("groupkit.membership.calls", "count"),
    ("groupkit.harvest_transvections.s", "s"),
    ("groupkit.harvest_transvections.self_s", "s"),
    ("groupkit.harvest.candidates", "count"),
    ("groupkit.harvest.hits", "count"),
    ("groupkit.harvest.hit_ratio", "ratio"),
    ("symplectic.detect_transvection.s", "s"),
    ("symplectic.detect_transvection.calls", "count"),
    ("classify.classify.s", "s"),
    ("classify.classify.calls", "count"),
    ("classify.classify.reducible_s", "s"),
    ("classify.classify.induced_s", "s"),
    ("classify.classify.huge_s", "s"),
    ("classify.recognize_sp_over_subfield.s", "s"),
    ("classify.extract_induction.s", "s"),
    ("classify.extract_induction.self_s", "s"),
    ("groupkit.is_irreducible.s", "s"),
    ("groupkit.is_irreducible.calls", "count"),
    ("groupkit.spin.s", "s"),
    ("groupkit.spin.calls", "count"),
    ("linalg.extend_echelon.s", "s"),
    ("linalg.extend_echelon.calls", "count"),
    ("linalg.nullspace.s", "s"),
    ("npgroup.build_np_group.s", "s"),
    ("npgroup.build_np_group.self_s", "s"),
    ("npgroup.twist_unramified.s", "s"),
    ("npgroup.find_np_primes.s", "s"),
    ("regularity.check_npower_distinct.s", "s"),
    ("regularity.check_npower_distinct.calls", "count"),
    ("mackey.all_subgroups.s", "s"),
    ("mackey.character_table.s", "s"),
    ("mackey.character_table.self_s", "s"),
    ("mackey.character_table.calls", "count"),
    ("mackey.character_table.distinct_ratio", "ratio"),
    ("mackey.induce.s", "s"),
    ("mackey.induce.calls", "count"),
    ("mackey.restrict.s", "s"),
    ("mackey.mackey_check.s", "s"),
    ("mackey.mackey_check.self_s", "s"),
    ("mackey.verify_prop_nh.s", "s"),
    ("mackey.check_res_nontrivial.s", "s"),
    ("cyclotomic.ops", "count"),
    ("cyclotomic.reduce_calls", "count"),
    ("cyclotomic.s", "s"),
    ("ffield.tables.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]

# Which workloads a layer's metrics must be non-zero on ("uses") and zero
# on ("bypass"), and the end-to-end metric they should move.
LAYERS = {
    "groupkit closure": {
        "metrics": ["groupkit.closure_enumerate.s", "groupkit.closure_enumerate.calls",
                    "groupkit.closure.elements", "groupkit.closure.elements_per_s"],
        "uses": ["groups"], "bypass": ["characters"],
        "moves": "wall_s (~35% of it) and peak_rss_mb on groups; nothing on characters",
    },
    "groupkit closure by group": {
        "metrics": ["groupkit.closure.sp2_f101_s", "groupkit.closure.sp2_f125_s",
                    "groupkit.closure.cached_s", "groupkit.membership.s",
                    "groupkit.membership.calls"],
        "uses": ["groups"], "bypass": ["characters"],
        "moves": "wall_s on groups",
    },
    "groupkit harvest": {
        "metrics": ["groupkit.harvest_transvections.s", "groupkit.harvest_transvections.self_s",
                    "groupkit.harvest.candidates", "groupkit.harvest.hits",
                    "groupkit.harvest.hit_ratio", "symplectic.detect_transvection.s",
                    "symplectic.detect_transvection.calls"],
        "uses": ["groups"], "bypass": ["characters"],
        "moves": "wall_s on groups (its classify operations); the closure and "
                 "np-group operations never harvest",
    },
    "classify": {
        "metrics": ["classify.classify.s", "classify.classify.calls",
                    "classify.classify.reducible_s", "classify.classify.induced_s",
                    "classify.classify.huge_s", "classify.recognize_sp_over_subfield.s",
                    "classify.extract_induction.s", "classify.extract_induction.self_s"],
        "uses": ["groups"], "bypass": ["characters"],
        "moves": "wall_s on groups (~35% of it, mostly extract_induction)",
    },
    "groupkit spin": {
        "metrics": ["groupkit.is_irreducible.s", "groupkit.is_irreducible.calls",
                    "groupkit.spin.s", "groupkit.spin.calls", "linalg.extend_echelon.s",
                    "linalg.extend_echelon.calls"],
        "uses": ["groups"], "bypass": ["characters"],
        "moves": "wall_s on groups (~25% of it, the np-group builds)",
    },
    "npgroup and regularity": {
        "metrics": ["npgroup.build_np_group.s", "npgroup.build_np_group.self_s",
                    "npgroup.twist_unramified.s", "npgroup.find_np_primes.s",
                    "regularity.check_npower_distinct.s",
                    "regularity.check_npower_distinct.calls", "linalg.nullspace.s"],
        "uses": ["groups"], "bypass": ["characters"],
        "moves": "wall_s on groups",
    },
    "mackey": {
        "metrics": ["mackey.all_subgroups.s", "mackey.character_table.s",
                    "mackey.character_table.self_s", "mackey.character_table.calls",
                    "mackey.character_table.distinct_ratio", "mackey.induce.s",
                    "mackey.induce.calls", "mackey.restrict.s", "mackey.mackey_check.s",
                    "mackey.mackey_check.self_s", "mackey.verify_prop_nh.s",
                    "mackey.check_res_nontrivial.s"],
        "uses": ["characters"], "bypass": ["groups"],
        "moves": "wall_s on characters only",
    },
    "cyclotomic": {
        "metrics": ["cyclotomic.ops", "cyclotomic.reduce_calls", "cyclotomic.s"],
        "uses": ["characters"], "bypass": ["groups"],
        "moves": "wall_s on characters only",
    },
    "ffield tables": {
        "metrics": ["ffield.tables.s"],
        "uses": ["groups"], "bypass": ["characters"],
        "moves": "a small share of wall_s on groups",
    },
    "cli": {
        "metrics": ["cli.main.s", "cli.main.self_s"],
        "uses": ["characters"], "bypass": ["groups"],
        "moves": "a small share of wall_s on characters",
    },
}
