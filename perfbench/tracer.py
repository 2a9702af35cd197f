"""Spans around calls into qwk's public functions, installed from outside.

``Tracer.install`` wraps each function named in ``TARGETS`` and rebinds the
wrapper wherever qwk holds a reference to the original: the defining module,
every qwk module that imported the name, and the dispatch tables
(``capacity.FORMULAS``, ``verify.SUITES``).  Methods are wrapped on their
class.  A span is (id, name, start, end, parent id, request id, thread id);
spans stay in memory until ``write_spans``.  Parent links follow the call
stack of each thread, so the suites that ``verify --jobs 2`` runs in worker
threads are roots of their own thread.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

CAPACITY_FORMULAS = {
    "b1": "classical_csi_capacity",
    "b1prime": "classical_nocsi_lower",
    "csicap": "qwiretap_csi_capacity",
    "nocsicap": "qwiretap_nocsi_lower",
    "e1q": "cq_csi_capacity",
    "qnocsie1q": "cq_nocsi_capacity",
    "entheorem": "entgen_lower_bound",
    "propo1": "entgen_csi_capacity",
}
INFOTHEORY = ("shannon_entropy", "binary_entropy", "mutual_information", "von_neumann_entropy",
              "conditional_qentropy", "holevo_chi", "coherent_information",
              "conditional_channel_entropy", "cq_mutual_information", "fannes_bound")
VERIFY_SUITES = ("typicality", "gentle", "fannes", "covering", "fidelity")
ENTGEN_STAGES = {
    "build_code": "build_entgen_code",
    "partners": "compute_uhlmann_partners",
    "align": "phase_align",
    "corrections": "build_decoder_unitaries",
    "audit": "run_full_audit",
}

# (span name, module, attribute); a dotted attribute is a method on a class
TARGETS = [
    ("cli.parse", "qwk.cli", "build_parser"),
    ("cli.parse", "qwk.cli", "load_spec"),
    ("cli.parse", "qwk.cli", "load_family"),
    ("cli.write", "qwk.cli", "write_report"),
    *((f"capacity.{fid}", "qwk.capacity", fn) for fid, fn in CAPACITY_FORMULAS.items()),
    ("capacity.project_simplex", "qwk.capacity", "project_simplex"),
    ("capacity.simplex_grid", "qwk.capacity", "simplex_grid"),
    ("channels.build_tau_net", "qwk.channels", "build_tau_net"),
    ("channels.project_cptp", "qwk.channels", "project_cptp"),
    ("channels.cq_word_state", "qwk.channels", "cq_word_state"),
    ("channels.n_fold", "qwk.channels", "n_fold"),
    ("qcore.density_check", "qwk.qcore", "DensityOperator.__init__"),
    ("qcore.eigensystem", "qwk.qcore", "hermitian_eigensystem"),
    ("qcore.psd_sqrt", "qwk.qcore", "psd_sqrt"),
    ("qcore.trace_norm", "qwk.qcore", "trace_norm"),
    *((f"infotheory.{fn}", "qwk.infotheory", fn) for fn in INFOTHEORY),
    ("typicality.typical_set", "qwk.typicality", "typical_set"),
    ("typicality.projector", "qwk.typicality", "typical_projector"),
    ("typicality.projector", "qwk.typicality", "conditional_typical_projector"),
    ("typicality.averaged_output_projector", "qwk.typicality", "averaged_output_projector"),
    ("typicality.sandwiched_output", "qwk.typicality", "sandwiched_output"),
    ("wiretapsim.sample_codebook", "qwk.wiretapsim", "sample_codebook"),
    ("wiretapsim.build_decoder", "qwk.wiretapsim", "build_decoder"),
    ("wiretapsim.eval_error", "qwk.wiretapsim", "eval_error"),
    ("wiretapsim.eval_leakage", "qwk.wiretapsim", "eval_leakage"),
    ("wiretapsim.decide", "qwk.wiretapsim", "TypicalityDecoder.decide"),
    *((f"entgen.{stage}", "qwk.entgen", fn) for stage, fn in ENTGEN_STAGES.items()),
    ("verify.run_suite", "qwk.verify", "run_suite"),
    *((f"verify.{suite}", "qwk.verify", f"suite_{suite}") for suite in VERIFY_SUITES),
]
QWK_MODULES = ("qwk.qcore", "qwk.channels", "qwk.infotheory", "qwk.typicality", "qwk.capacity",
               "qwk.wiretapsim", "qwk.entgen", "qwk.verify", "qwk.cli")


def _rebind(modules, old, new) -> int:
    """Replace every reference to ``old`` that qwk holds by ``new``."""
    hits = 0
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)
                hits += 1
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is old:
                        val[k] = new
                        hits += 1
                    elif isinstance(v, tuple) and any(x is old for x in v):
                        val[k] = tuple(new if x is old else x for x in v)
                        hits += 1
    return hits


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.unitary_side = 0
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen_avg: set = set()

    # -- recording ---------------------------------------------------------

    def begin_request(self, rid) -> None:
        self.request = rid
        self._seen_avg = set()

    def end_request(self) -> None:
        self.request = None

    def add(self, key: str, amount) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rid = tracer.request
            if rid is None:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, rid, threading.get_ident()))
            if note is not None:
                note(args, kwargs, out)
            return out

        return traced

    # -- per-target counters -----------------------------------------------

    def _notes(self, fn_lookup):
        sig_typical_set = inspect.signature(fn_lookup("qwk.typicality", "typical_set"))
        sig_avg = inspect.signature(fn_lookup("qwk.typicality", "averaged_output_projector"))

        def grid_points(args, kwargs, out):
            self.add("capacity.simplex_grid.points", len(out))

        def net_elements(args, kwargs, out):
            self.add("channels.tau_net.elements", len(out.elements))

        def density_dim3(args, kwargs, out):
            self.add("qcore.density_check_dim3", args[0].matrix.shape[0] ** 3)

        def eig_dim3(args, kwargs, out):
            self.add("qcore.eigensystem_dim3", len(out[0]) ** 3)

        def typical_words(args, kwargs, out):
            b = sig_typical_set.bind(*args, **kwargs).arguments
            self.add("typicality.typical_set.words_scanned", len(b["p"]) ** int(b["n"]))
            self.add("typicality.typical_set.words_kept", len(out))

        def avg_repeat(args, kwargs, out):
            b = sig_avg.bind(*args, **kwargs).arguments
            v = b["v"]
            key = (tuple(v.input_alphabet),
                   b"".join(v.state_matrix(x).tobytes() for x in v.input_alphabet),
                   tuple(float(x) for x in b["prior"]), b["params"])
            with self._lock:
                repeat = key in self._seen_avg
                self._seen_avg.add(key)
            self.add("typicality.averaged_output_projector.repeats", int(repeat))

        def unitary(args, kwargs, out):
            with self._lock:
                self.unitary_side = max(self.unitary_side, out.v_unitary.shape[0])

        return {
            "capacity.simplex_grid": grid_points,
            "channels.build_tau_net": net_elements,
            "qcore.density_check": density_dim3,
            "qcore.eigensystem": eig_dim3,
            "typicality.typical_set": typical_words,
            "typicality.averaged_output_projector": avg_repeat,
            "entgen.build_code": unitary,
        }

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in QWK_MODULES]

        def lookup(module, attr):
            obj = importlib.import_module(module)
            for part in attr.split("."):
                obj = getattr(obj, part)
            return obj

        notes = self._notes(lookup)
        for name, module, attr in TARGETS:
            fn = lookup(module, attr)
            wrapper = self.wrap(name, fn, notes.get(name))
            if "." in attr:
                cls_name, meth = attr.split(".")
                setattr(lookup(module, cls_name), meth, wrapper)
            elif _rebind(modules, fn, wrapper) == 0:
                raise RuntimeError(f"{module}.{attr} is not referenced anywhere in qwk")
        parse_args = argparse.ArgumentParser.parse_args
        argparse.ArgumentParser.parse_args = self.wrap("cli.parse", parse_args)

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self, rows: list[dict]) -> dict:
        """Per-layer metrics of the traced pass; ``rows`` are its timed
        requests as recorded by child.py."""
        spans = self.spans
        by_id = {s[0]: s for s in spans}
        calls = Counter(s[1] for s in spans)
        child_time = defaultdict(float)
        for s in spans:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]

        def in_group(name, group):
            return name in group if isinstance(group, (set, frozenset)) else name.startswith(group)

        def nearest(s, group):
            p = s[4]
            while p is not None:
                if in_group(by_id[p][1], group):
                    return p
                p = by_id[p][4]
            return None

        # names on the call stack above each span; a parent starts before,
        # so it has the smaller id
        above = {}
        for s in sorted(spans):
            p = s[4]
            above[s[0]] = above[p] | {by_id[p][1]} if p is not None else frozenset()

        def inclusive(group) -> float:
            """Time inside the group, counting nested calls of it once."""
            return sum(s[3] - s[2] for s in spans if in_group(s[1], group)
                       and not any(in_group(a, group) for a in above[s[0]]))

        def exclusive(group) -> dict:
            """Per name: time inside, minus nested calls of the same group."""
            nested = defaultdict(float)
            for s in spans:
                if in_group(s[1], group):
                    p = nearest(s, group)
                    if p is not None:
                        nested[p] += s[3] - s[2]
            out = defaultdict(float)
            for s in spans:
                if in_group(s[1], group):
                    out[s[1]] += s[3] - s[2] - nested[s[0]]
            return out

        def ratio(num, den) -> float:
            return num / den if den else 0.0

        c = self.counts
        m = {
            "cli.parse_s": inclusive({"cli.parse"}),
            "cli.write_s": inclusive({"cli.write"}),
        }
        for fid in CAPACITY_FORMULAS:
            m[f"capacity.{fid}_s"] = inclusive({f"capacity.{fid}"})
        m["capacity.project_simplex.calls"] = calls["capacity.project_simplex"]
        m["capacity.simplex_grid.points"] = c["capacity.simplex_grid.points"]
        m["channels.build_tau_net_s"] = sum(s[3] - s[2] - child_time[s[0]] for s in spans
                                            if s[1] == "channels.build_tau_net")
        m["channels.project_cptp.calls"] = calls["channels.project_cptp"]
        m["channels.tau_net.accept_ratio"] = ratio(c["channels.tau_net.elements"],
                                                   calls["channels.project_cptp"])
        m["channels.cq_word_state.calls"] = calls["channels.cq_word_state"]
        m["channels.cq_word_state_s"] = inclusive({"channels.cq_word_state"})
        m["channels.n_fold_s"] = inclusive({"channels.n_fold"})
        m["qcore.density_checks"] = calls["qcore.density_check"]
        m["qcore.density_check_s"] = inclusive({"qcore.density_check"})
        m["qcore.density_check_dim3"] = c["qcore.density_check_dim3"]
        for fn in ("eigensystem", "psd_sqrt", "trace_norm"):
            m[f"qcore.{fn}.calls"] = calls[f"qcore.{fn}"]
            m[f"qcore.{fn}_s"] = inclusive({f"qcore.{fn}"})
        m["qcore.eigensystem_dim3"] = c["qcore.eigensystem_dim3"]
        m["infotheory.calls"] = sum(n for k, n in calls.items() if k.startswith("infotheory."))
        m["infotheory_s"] = inclusive("infotheory.")
        m["typicality.typical_set.calls"] = calls["typicality.typical_set"]
        m["typicality.typical_set.words_scanned"] = c["typicality.typical_set.words_scanned"]
        m["typicality.typical_set.keep_ratio"] = ratio(c["typicality.typical_set.words_kept"],
                                                       c["typicality.typical_set.words_scanned"])
        m["typicality.typical_set_s"] = inclusive({"typicality.typical_set"})
        for fn in ("projector", "sandwiched_output"):
            m[f"typicality.{fn}.calls"] = calls[f"typicality.{fn}"]
            m[f"typicality.{fn}_s"] = inclusive({f"typicality.{fn}"})
        m["typicality.averaged_output_projector.repeat_share"] = ratio(
            c["typicality.averaged_output_projector.repeats"],
            calls["typicality.averaged_output_projector"])
        for fn in ("sample_codebook", "build_decoder", "eval_error", "eval_leakage"):
            m[f"wiretapsim.{fn}_s"] = inclusive({f"wiretapsim.{fn}"})
        m["wiretapsim.decide.calls"] = calls["wiretapsim.decide"]
        m["wiretapsim.decide_s"] = inclusive({"wiretapsim.decide"})
        wasted = sum(r["seconds"] for r in rows if r["rc"] == 5)
        m["refused.wasted_s"] = wasted
        m["refused.wasted_share"] = ratio(wasted, sum(r["seconds"] for r in rows))
        stages = exclusive(frozenset(f"entgen.{st}" for st in ENTGEN_STAGES))
        for st in ENTGEN_STAGES:
            m[f"entgen.{st}_s"] = stages[f"entgen.{st}"]
        m["entgen.unitary_side"] = self.unitary_side
        m["entgen.unitary_bytes"] = self.unitary_side ** 2 * 16
        suites = {s: inclusive({f"verify.{s}"}) for s in VERIFY_SUITES}
        for s, v in suites.items():
            m[f"verify.{s}_s"] = v
        m["verify.jobs_overlap"] = ratio(sum(suites.values()), inclusive({"verify.run_suite"}))
        m["trace.spans"] = len(spans)
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, rid, tid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid, "thread": tid}) + "\n")
