"""In-memory span tracer for the layers of ``ppmbqc``.

The tracer wraps public functions of the library from outside, without
editing it: a function is replaced in every loaded ``ppmbqc`` module that
holds it under some name (``apply_parity_phase`` lives in both
``ppmbqc.statevec`` and ``ppmbqc.executor``), and methods are replaced on
their class. Each wrapper records one span -- name, start, end, parent span
and op id -- and updates counters at the same boundary. Spans stay in
memory until :meth:`Tracer.write` dumps them as CSV.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the library is single threaded.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

from ppmbqc.statevec import Statevector

# Bytes an elementwise kernel call touches on an n-qubit register: every
# complex128 amplitude read once and written once. Computed, not measured.
AMPLITUDE_BYTES = 16


def _register_size(obj) -> int | None:
    return obj.qubit_count if isinstance(obj, Statevector) else None


def _kernel(elementwise: bool):
    def hook(counts: dict, args, out) -> None:
        sizes = [_register_size(args[0]) if args else None, _register_size(out)]
        sizes = [n for n in sizes if n is not None]
        if not sizes:
            return
        counts["statevec.peak_qubits"] = max(counts["statevec.peak_qubits"], *sizes)
        if elementwise:
            n = _register_size(args[0])
            counts["statevec.bytes_computed"] += 2 * AMPLITUDE_BYTES << n

    return hook


def _rows(counts: dict, args, out) -> None:
    counts["executor.rows"] += int(out.states.shape[0])


def _verified(counts: dict, args, out) -> None:
    counts["verifier.branches_checked"] += out.branch_count
    counts["verifier.branches_impossible"] += out.impossible_count


def _bricks(counts: dict, args, out) -> None:
    counts["compiler.bricks"] += len(out)


def _compiled(counts: dict, args, out) -> None:
    """Exact ANF size of the compiled choices and corrections."""
    fns = [m.choice for m in out.pattern.measurements.values()]
    for corr in out.corrections.values():
        fns.extend((corr.zeta, corr.xi))
    for fn in fns:
        counts["boolfn.monomials_out"] += len(fn.monomials)
        degree = max((len(m) for m in fn.monomials), default=0)
        counts["boolfn.max_degree"] = max(counts["boolfn.max_degree"], degree)


def _relabelled(counts: dict, args, out) -> None:
    counts["pgraph.edges_out"] += len(out.edges)


# (module, attribute, span group, counter hook). An attribute of the form
# ``Class.method`` is wrapped on the class. The span group names the layer
# metric; ``statevec.other`` gathers the remaining register kernels.
TARGETS = (
    ("statevec", "apply_parity_phase", "statevec.apply_parity_phase", _kernel(True)),
    ("statevec", "measure", "statevec.measure", _kernel(True)),
    ("statevec", "apply_matrix", "statevec.apply_matrix", _kernel(True)),
    ("statevec", "apply_edges", "statevec.other", _kernel(False)),
    ("statevec", "embed_state", "statevec.other", _kernel(False)),
    ("statevec", "permute", "statevec.other", _kernel(False)),
    ("statevec", "tensor", "statevec.other", _kernel(False)),
    ("statevec", "plus_state", "statevec.other", _kernel(False)),
    ("executor", "enumerate_fragment", "executor.enumerate_fragment", _rows),
    ("executor", "run_fragment", "executor.run_fragment", None),
    ("executor", "measurement_order", "executor.measurement_order", None),
    ("verifier", "verify_fragment", "verifier.verify_fragment", _verified),
    ("fragments", "brick", "fragments.brick", None),
    ("compiler", "parse_circuit", "compiler.parse_circuit", None),
    ("compiler", "compile_to_bricks", "compiler.compile_to_bricks", _bricks),
    ("compiler", "layout_brickwork", "compiler.layout_brickwork", _compiled),
    ("compiler", "export", "compiler.export", None),
    ("pattern", "compose_with_map", "pattern.compose_with_map", None),
    ("pattern", "dependency_schedule", "pattern.dependency_schedule", None),
    ("pattern", "fragment_to_dict", "pattern.fragment_to_dict", None),
    ("pgraph", "PGraph.relabel", "pgraph.relabel", _relabelled),
    ("boolfn", "BoolFn.substitute", "boolfn.substitute", None),
    ("boolfn", "BoolFn.evaluate", "boolfn.evaluate", None),
    ("boolfn", "BoolFn.evaluate_rows", "boolfn.evaluate_rows", None),
)

# Spans the harness itself opens around set-up and each op.
ROOT_GROUPS = ("setup", "op")
SPAN_GROUPS = tuple(dict.fromkeys(g for _, _, g, _ in TARGETS)) + ROOT_GROUPS
COUNTERS = {
    "statevec.peak_qubits": "qubits",
    "statevec.bytes_computed": "B",
    "executor.rows": "count",
    "verifier.branches_checked": "count",
    "verifier.branches_impossible": "count",
    "compiler.bricks": "count",
    "boolfn.monomials_out": "count",
    "boolfn.max_degree": "count",
    "pgraph.edges_out": "count",
}


class Tracer:
    """Collects spans and boundary counters while installed and active."""

    def __init__(self) -> None:
        # (group, name, start_ns, end_ns, parent index or -1, op id); None
        # while the span is open.
        self.spans: list[tuple[str, str, int, int, int, str] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = "setup"
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, group: str, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (group, name, start, end, parent, self.op)
            if hook is not None:
                hook(counts, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target wherever a loaded ppmbqc module holds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("ppmbqc")]
        for mod_name, attr, group, hook in TARGETS:
            home = importlib.import_module(f"ppmbqc.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._swap(owner, meth, self._wrap(attr, group, original, hook))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", group, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, wrapper)

    def _swap(self, owner, key: str, new) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- harness spans -------------------------------------------------

    @contextlib.contextmanager
    def root(self, group: str, op: str):
        """Root span around set-up or one op; layers are traced only inside."""
        self.op, self.active = op, True
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (group, group, start, end, parent, op)
            self.active = False

    # -- results -------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Calls and self time per span group, plus the boundary counters."""
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = dict.fromkeys(SPAN_GROUPS, 0)
        self_ns: dict[str, int] = dict.fromkeys(SPAN_GROUPS, 0)
        for i, (group, _, start, end, _, _) in enumerate(self.spans):
            calls[group] += 1
            self_ns[group] += end - start - child_ns[i]
        out: dict[str, tuple[float, str]] = {}
        for group in SPAN_GROUPS:
            if group not in ROOT_GROUPS:
                out[f"{group}.calls"] = (calls[group], "count")
            out[f"{group}.self_s"] = (self_ns[group] / 1e9, "s")
        for name, unit in COUNTERS.items():
            out[name] = (self.counts[name], unit)
        checked = self.counts["verifier.branches_checked"]
        enumerated = checked + self.counts["verifier.branches_impossible"]
        out["verifier.branches_enumerated"] = (enumerated, "count")
        out["verifier.useful_branch_ratio"] = (
            checked / enumerated if enumerated else 0.0,
            "ratio",
        )
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "group", "name", "start_ns", "end_ns", "parent", "op"])
            for i, span in enumerate(self.spans):
                writer.writerow([i, *span])
