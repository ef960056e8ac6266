"""Spans around calls into the package's layers, and the per-layer metrics.

Package modules import each other's functions by name, so each function is
wrapped at the name its caller looks up (``odexpand.cli.expand``, not
``odexpand.engine.expand``).  Methods are wrapped on their class, and
``scipy.linalg.lu_factor`` / ``expm`` on ``scipy.linalg``, which is where
the package looks them up; their spans get the package span that made the
call as parent.

Spans live in flat arrays while the pass runs (a pass makes about a
million of them): a name id, start, end and the index of the parent span,
-1 for a root.  A span's self time is its duration minus the durations of
its direct children, which nest inside it because the benchmark runs one
op at a time on one thread.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    """Span recorder for one pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, after=None):
        """fn, recording a span per call; after(tracer, args, result) counts."""
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- analysis ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
        }

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, total (inclusive) seconds and self seconds of each span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ``ancestor`` span above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[name], self._ids[ancestor]
        hits = 0
        for idx in np.flatnonzero(np.frombuffer(self.name_id, dtype=np.int32) == nid):
            p = self.parent[idx]
            while p >= 0 and self.name_id[p] != aid:
                p = self.parent[p]
            hits += p >= 0
        return hits

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# What is wrapped.  Each entry: span name, module, attribute path on it.

def _count_raw(prefix: str):
    # build(cls, ..., raw): count terms in and canonical terms out.
    def after(tr, args, result):
        tr.counts[f"{prefix}.terms_in"] += len(args[-1])
        tr.counts[f"{prefix}.terms_out"] += len(result.terms)

    return after


def _count_orders(tr, args, result):
    tr.counts["engine.orders"] += result.order_count()


def _count_resonant(tr, args, result):
    tr.counts["resolvent.resonant_solves"] += bool(result[1])


def _count_steps(tr, args, result):
    for key in ("steps", "rejected", "rhs_evals"):
        tr.counts[f"rk45.{key}"] += result.meta[key]


TARGETS = (
    ("cli.load_config", "odexpand.cli", "load_config", None),
    ("cli.expansion_records", "odexpand.cli", "expansion_records", None),
    ("engine.expand", "odexpand.cli", "expand", _count_orders),
    ("engine.ladder_take", "odexpand.engine", "ExponentLadder.take", None),
    ("multilinear.call", "odexpand.multilinear", "MultiLinearMap.__call__", None),
    ("logpower.mul_apply", "odexpand.engine", "mul_apply_logpower", None),
    ("logpower.build", "odexpand.logpower", "LogPowerSum.build", _count_raw("logpower")),
    ("logpower.shifted_inverse", "odexpand.engine", "shifted_inverse", None),
    ("logpower.lu_solve", "odexpand.logpower", "ShiftedInverseCache.solve", None),
    ("logpower.eval", "odexpand.logpower", "LogPowerSum.eval", None),
    ("expsum.mul_apply", "odexpand.engine", "mul_apply_exp", None),
    ("expsum.build", "odexpand.expsum", "ExpPolySum.build", _count_raw("expsum")),
    ("resolvent.solve", "odexpand.engine", "resolvent_solve_exp", _count_resonant),
    ("rk45.integrate", "odexpand.numerics", "integrate_rhs", _count_steps),
    ("ladder.eval", "odexpand.logpower", "ladder_eval", None),
    ("numerics.remainder", "odexpand.cli", "remainder_series", None),
    ("numerics.partial_sum", "odexpand.numerics", "eval_partial_sum", None),
    ("numerics.fit_decay", "odexpand.cli", "fit_decay", None),
    ("numerics.fit_kernel", "odexpand.cli", "fit_kernel_constants", None),
    ("numerics.certificate", "odexpand.cli", "smallness_certificate", None),
    ("realify.to_trig_ladder", "odexpand.cli", "to_trig_ladder", None),
    ("realify.to_trig_poly", "odexpand.cli", "to_trig_poly", None),
    ("realify.residue", "odexpand.cli", "imag_residue", None),
    ("scipy.lu_factor", "scipy.linalg", "lu_factor", None),
    ("scipy.expm", "scipy.linalg", "expm", None),
)
# numerics.make_rhs is wrapped separately: the callable it returns is the span.
RHS_FACTORY = ("odexpand.numerics", "make_rhs")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore them."""
    saved = []
    try:
        for name, module, path, after in TARGETS:
            owner, attr = _resolve(module, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, after))
            else:
                wrapped = tracer.wrap(name, raw, after)
            setattr(owner, attr, wrapped)
        owner, attr = _resolve(*RHS_FACTORY)
        factory = getattr(owner, attr)
        saved.append((owner, attr, factory))

        def make_rhs(spec):
            return tracer.wrap("rk45.rhs", factory(spec))

        setattr(owner, attr, tracer.wrap("numerics.make_rhs", make_rhs))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass; 0 where a layer was idle."""
    s = tracer.per_name()
    c = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def own(name):
        return s.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps, rejected = c["rk45.steps"], c["rk45.rejected"]
    return {
        "cli.load_s": total("cli.load_config"),
        "cli.records_s": total("cli.expansion_records"),
        "cli.bytes_written": bytes_written,
        "engine.expand_calls": calls("engine.expand"),
        "engine.expand_self_s": own("engine.expand"),
        "engine.ladder_s": total("engine.ladder_take"),
        "engine.orders": c["engine.orders"],
        "multilinear.calls": calls("multilinear.call"),
        "multilinear.call_s": total("multilinear.call"),
        "logpower.mul_apply_calls": calls("logpower.mul_apply"),
        "logpower.mul_apply_self_s": own("logpower.mul_apply"),
        "logpower.build_calls": calls("logpower.build"),
        "logpower.build_s": total("logpower.build"),
        "logpower.terms_in": c["logpower.terms_in"],
        "logpower.terms_out": c["logpower.terms_out"],
        "logpower.merge_ratio": ratio(c["logpower.terms_out"], c["logpower.terms_in"]),
        "logpower.shifted_inverse_s": total("logpower.shifted_inverse"),
        "logpower.lu_factors": tracer.calls_under("scipy.lu_factor", "logpower.shifted_inverse"),
        "logpower.lu_solves": calls("logpower.lu_solve"),
        "logpower.eval_calls": calls("logpower.eval"),
        "logpower.eval_s": total("logpower.eval"),
        "expsum.mul_apply_calls": calls("expsum.mul_apply"),
        "expsum.mul_apply_self_s": own("expsum.mul_apply"),
        "expsum.build_calls": calls("expsum.build"),
        "expsum.build_s": total("expsum.build"),
        "expsum.terms_in": c["expsum.terms_in"],
        "expsum.terms_out": c["expsum.terms_out"],
        "resolvent.solve_calls": calls("resolvent.solve"),
        "resolvent.solve_s": total("resolvent.solve"),
        "resolvent.resonant_solves": c["resolvent.resonant_solves"],
        "resolvent.lu_factors": tracer.calls_under("scipy.lu_factor", "resolvent.solve"),
        "rk45.integrate_s": total("rk45.integrate"),
        "rk45.steps": steps,
        "rk45.rejected": rejected,
        "rk45.accept_ratio": ratio(steps, steps + rejected),
        "rk45.rhs_evals": c["rk45.rhs_evals"],
        "rk45.rhs_s": total("rk45.rhs"),
        "ladder.eval_calls": calls("ladder.eval"),
        "ladder.eval_s": total("ladder.eval"),
        "numerics.remainder_s": total("numerics.remainder"),
        "numerics.partial_sum_calls": calls("numerics.partial_sum"),
        "numerics.fit_decay_s": total("numerics.fit_decay"),
        "numerics.fit_kernel_s": total("numerics.fit_kernel"),
        "numerics.certificate_s": total("numerics.certificate"),
        "numerics.expm_calls": calls("scipy.expm"),
        "realify.convert_s": total("realify.to_trig_ladder") + total("realify.to_trig_poly"),
        "realify.residue_s": total("realify.residue"),
    }
