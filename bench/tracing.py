"""Spans and counts around probeint's public functions, for the traced run.

The tracer replaces each traced function by a wrapper in every probeint
module that holds it, since modules import one another's functions by name
(`probes` binds `couple_graph` and `two_color` itself).  Spans are kept in
memory; a layer's self time is its span's duration minus the durations of
the spans opened inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute) -> span name; attributes with a dot are methods
SPANS = {
    ("intervals", "find_quasi_linear_order"): "intervals.order_search",
    ("intervals", "intervals_from_quasi_linear"): "intervals.read_off",
    ("intervals", "verify_interval_rep"): "intervals.verify",
    ("ferrers", "couple_graph"): "ferrers.couple_graph",
    ("ferrers", "two_color"): "ferrers.two_color",
    ("ferrers", "decompose_two_ferrers"): "ferrers.decompose",
    ("ferrers", "FerrersFactorization.validate"): "ferrers.validate",
    ("ferrers", "probe_dim3_decomposition"): "ferrers.dim3",
    ("bigraphs", "find_rc_partition"): "bigraphs.rc_search",
    ("bigraphs", "diagonalize_with_method"): "bigraphs.diagonalize",
    ("bigraphs", "intervals_from_diagonalized"): "bigraphs.read_off",
    ("bigraphs", "verify_bigraph_rep"): "bigraphs.verify",
    ("probes", "recognize_qxl"): "probes.qxl",
    ("probes", "recognize_char1"): "probes.char1",
    ("probes", "recognize_char2"): "probes.char2",
    ("probes", "reduced_associated_graph"): "probes.reduced_graph",
    ("probes", "align_probe_columns"): "probes.align",
    ("probes", "scan_forbidden"): "probes.scan_forbidden",
    ("probes", "probe_representation"): "probes.representation",
    ("probes", "verify_probe_rep"): "probes.verify",
    ("graphs", "build_graph"): "graphs.build",
    ("graphs", "augmented_adjacency"): "graphs.matrix_build",
    ("graphs", "probe_bigraph"): "graphs.matrix_build",
    ("graphs", "symmetric_bigraph"): "graphs.matrix_build",
    ("io", "parse_input"): "io.parse",
    ("io", "emit_certificate"): "io.emit",
    ("io", "factorization_to_dict"): "io.emit",
    ("io", "certificate_to_dict"): "io.emit",
    ("sweeps", "graph_class_representatives"): "sweeps.classes",
    ("sweeps", "independent_set_orbits"): "sweeps.classes",
    ("oracles", "interval_oracle"): "oracles.oracle",
    ("oracles", "probe_oracle"): "oracles.oracle",
    ("cli", "dispatch"): "cli.dispatch",
}

# (module, attribute) -> count name; counted without a span
COUNTS = {
    ("bigraphs", "check_rc_valid"): "bigraphs.rc_check_calls",
    ("probes", "scan_forbidden"): "probes.scan_forbidden_calls",
    ("matrices", "LabeledMatrix.entry"): "matrices.entry_calls",
    ("matrices", "LabeledMatrix.permuted"): "matrices.permuted_calls",
    ("matrices", "LabeledMatrix.__post_init__"): "matrices.built",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self._open = []
        self._restore = []

    def reset(self) -> None:
        # in place: the installed wrappers hold these containers
        self.spans.clear()
        self.counts.clear()

    def _span(self, name, fn):
        spans, opened = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = opened[-1] if opened else -1
            record = [name, time.perf_counter(), None, parent]
            spans.append(record)
            opened.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                opened.pop()
            if name == "ferrers.couple_graph":
                self.counts["ferrers.couple_zeros"] += len(out)
                self.counts["ferrers.couples"] += sum(len(v) for v in out.values()) // 2
            return out

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, only=None) -> None:
        """Wrap every traced function, or only those whose span or count
        name is in `only`."""
        # spans wrap outside counts, so a counted and timed function gets both
        targets = {}
        for kind, table in (("count", COUNTS), ("span", SPANS)):
            for key, name in table.items():
                if only is None or name in only:
                    targets.setdefault(key, []).append((kind, name))
        for (mod_name, attr), wraps in targets.items():
            module = sys.modules[f"probeint.{mod_name}"]
            owner, field = module, attr
            if "." in attr:
                cls_name, field = attr.split(".")
                owner = getattr(module, cls_name)
            original = owner.__dict__[field] if isinstance(owner, type) else getattr(owner, field)
            wrapped = original
            for kind, name in wraps:
                wrapped = (self._count if kind == "count" else self._span)(name, wrapped)
            if isinstance(owner, type):
                self._restore.append((owner, field, original))
                setattr(owner, field, wrapped)
                continue
            for mod in [m for n, m in sys.modules.items() if n == "probeint" or n.startswith("probeint.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, field, original in reversed(self._restore):
            setattr(owner, field, original)
        self._restore = []

    def layer_times(self) -> dict:
        """Per span name: inclusive seconds of its outermost spans, and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, self_time = Counter(), Counter()
        for k, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += end - start - child[k]
            # count a nested span of the same name only once
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += end - start
        return {"inclusive": inclusive, "self": self_time}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
