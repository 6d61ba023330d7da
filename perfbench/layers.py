"""Outside-in layer tracing: spans around the calls into each layer.

The traced benchmark run installs wrappers at the public functions of
every layer (:data:`FUNCTION_PROBES`, :data:`METHOD_PROBES`).  Call
sites bind with ``from ... import``, so a function wrapper replaces
*every* binding of the original object across the loaded ``repro``
modules, not only the defining module's.  The batch kernels are reached
through :func:`repro.routing.backend.routing_kernels`, which returns the
kernel module itself, so patching the module attributes patches the
table.

Each span records name, start, end, parent and one measured value (a
pruned flag, an affected-destination count, a column count).  Spans stay
in memory in flat arrays and are written out once, at the end; a span's
self time is its duration minus its children's.  Only the process that
installed the tracer records: forked pool workers inherit the wrappers
but call straight through, so worker time shows up as the executor
layer's busy time instead.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _value_none(args, kwargs, result) -> float:
    return 0.0


def _pruned(args, kwargs, result) -> float:
    return 1.0 if result is None else 0.0


def _returned_int(args, kwargs, result) -> float:
    return float(result)


def _plan_groups(args, kwargs, result) -> float:
    return float(len(result.batch_groups))


def _batch_cells(args, kwargs, result) -> float:
    return float(sum(len(handoff.cells) for handoff in result[1]))


def _vector_columns(args, kwargs, result) -> float:
    dests = args[4] if len(args) > 4 else kwargs["dests"]
    return float(len(dests))


def _one_column(args, kwargs, result) -> float:
    return 1.0


#: ``(module, attribute, span name, value function)`` of module-level
#: functions; every binding of the function in a ``repro`` module is
#: replaced.
FUNCTION_PROBES = (
    ("repro.core.phase1", "run_phase1", "phase1", None),
    ("repro.core.phase2", "run_phase2", "phase2", None),
    ("repro.core.phase2", "bounded_failure_cost", "phase2.bounded", _pruned),
    ("repro.core.phase2", "_ordered_sweep", "phase2.ordered", None),
    ("repro.routing.sweep", "plan_sweep", "sweep.plan", _plan_groups),
    (
        "repro.routing.sweep",
        "route_scenario_batch",
        "sweep.route_batch",
        _batch_cells,
    ),
    ("repro.routing.sweep", "flush_delay_batch", "sweep.flush_delay", None),
    ("repro.core.sla", "sla_outcome", "cost.sla", None),
    ("repro.core.fortz", "fortz_cost", "cost.fortz", None),
    ("repro.core.delay", "arc_delays", "cost.delay", None),
    ("repro.routing.spf", "distance_columns", "spf.columns", None),
    ("repro.routing.spf", "_dijkstra_to", "spf.dijkstra", None),
    (
        "repro.routing.fastpath",
        "fast_propagate_loads",
        "kern.python.propagate_loads",
        _one_column,
    ),
    (
        "repro.routing.fastpath",
        "fast_propagate_worst_delay",
        "kern.python.propagate_worst_delay",
        _one_column,
    ),
    (
        "repro.routing.vectorized",
        "batch_propagate_loads",
        "kern.vector.propagate_loads",
        _vector_columns,
    ),
    (
        "repro.routing.vectorized",
        "batch_propagate_worst_delay",
        "kern.vector.propagate_worst_delay",
        _vector_columns,
    ),
)

#: ``(module, class, method, span name, value function)`` of methods,
#: patched on the defining class (subclasses inherit the wrapper).
METHOD_PROBES = (
    ("repro.core.evaluation", "DtrEvaluator", "evaluate", "eval", None),
    (
        "repro.core.evaluation",
        "DtrEvaluator",
        "evaluate_move",
        "eval.move",
        None,
    ),
    (
        "repro.core.evaluation",
        "DtrEvaluator",
        "revert_move",
        "eval.revert",
        None,
    ),
    (
        "repro.core.evaluation",
        "DtrEvaluator",
        "evaluate_scenario_costs",
        "eval.sweep",
        None,
    ),
    ("repro.core.parallel", "RoutingCache", "get", "cache.get", None),
    ("repro.core.parallel", "RoutingCache", "put", "cache.put", None),
    (
        "repro.routing.incremental",
        "IncrementalRouter",
        "sync",
        "incr.sync",
        None,
    ),
    (
        "repro.routing.incremental",
        "IncrementalRouter",
        "set_arc_weight",
        "incr.set_arc_weight",
        _returned_int,
    ),
    (
        "repro.routing.incremental",
        "IncrementalRouter",
        "route_scenario",
        "incr.route_scenario",
        None,
    ),
    (
        "repro.routing.engine",
        "RoutingEngine",
        "path_delays",
        "engine.delay",
        None,
    ),
    ("repro.core.resilience", "SweepSupervisor", "run", "exec.dispatch", None),
)


class Tracer:
    """In-memory span recorder for the process that creates it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.value.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int, value: float) -> None:
        self.end[index] = time.perf_counter()
        self.value[index] = value
        self._stack.pop()

    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, value_fn=None, name_fn=None):
        """A wrapper recording one span per call of ``fn``."""
        value_fn = value_fn or _value_none
        fixed_id = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            name_id = (
                fixed_id
                if name_fn is None
                else tracer.name_id(name_fn(args, kwargs))
            )
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(index, 0.0)
                raise
            tracer._close(index, value_fn(args, kwargs, result))
            return result

        return traced

    def _rebind_everywhere(self, original, wrapper) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every probe (imports the probed modules first)."""
        import importlib

        from repro.routing.failures import NORMAL

        def eval_kind(args, kwargs):
            scenario = args[2] if len(args) > 2 else kwargs.get("scenario")
            if scenario is None or scenario is NORMAL:
                return "eval.normal"
            return "eval.scenario"

        for module_name, attr, name, value_fn in FUNCTION_PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._rebind_everywhere(
                original, self.wrap(original, name, value_fn)
            )
        for module_name, cls_name, attr, name, value_fn in METHOD_PROBES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = vars(cls)[attr]
            name_fn = eval_kind if name == "eval" else None
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name, value_fn, name_fn))

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as NumPy arrays (plus derived self time)."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        value = np.frombuffer(self.value, dtype=np.float64).copy()
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent],
            weights=duration[has_parent],
            minlength=len(name),
        )
        return {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "value": value,
            "duration": duration,
            "self": duration - child,
        }

    def write(self, path: Path) -> None:
        """Write the spans out (compressed ``.npz``)."""
        spans = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{
                key: spans[key]
                for key in ("name", "start", "end", "parent", "value")
            },
        )


def _phase_of(names: list[str], name: np.ndarray, parent: np.ndarray):
    """Per span, the name id of its nearest phase ancestor (or -1)."""
    phase_ids = {i for i, n in enumerate(names) if n in ("phase1", "phase2")}
    phase = np.full(len(name), -1, dtype=np.int64)
    for i in range(len(name)):
        if int(name[i]) in phase_ids:
            phase[i] = name[i]
        elif parent[i] >= 0:
            phase[i] = phase[parent[i]]
    return phase


def layer_metrics(tracer: Tracer, counters: dict, setup: dict) -> dict:
    """The per-layer metrics (name -> value) of one traced run.

    ``counters`` are the program's own counters read around the timed
    body (cache, sweep memo, transport, resilience; see
    :func:`workloads.program_counters`), ``setup`` the benchmark's own
    set-up timings.
    """
    spans = tracer.arrays()
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}
    name, dur, self_s, value = (
        spans["name"],
        spans["duration"],
        spans["self"],
        spans["value"],
    )

    def sel(span: str) -> np.ndarray:
        return name == ids.get(span, -1)

    def calls(*span: str) -> int:
        return int(sum(sel(s).sum() for s in span))

    def self_time(*span: str) -> float:
        return float(sum(self_s[sel(s)].sum() for s in span))

    def total(*span: str) -> float:
        return float(sum(dur[sel(s)].sum() for s in span))

    def summed(span: str) -> float:
        return float(value[sel(span)].sum())

    def p50_ms(mask: np.ndarray) -> float:
        return float(np.median(dur[mask]) * 1e3) if mask.any() else 0.0

    phase = _phase_of(names, name, spans["parent"])
    in_phase1 = phase == ids.get("phase1", -2)
    moves = sel("eval.move") & in_phase1
    reverts = sel("eval.revert") & in_phase1
    bounded = calls("phase2.bounded")

    out = {
        "phase1.s": total("phase1"),
        "phase1.moves": int(moves.sum()),
        "phase1.move_ms_p50": p50_ms(moves),
        "phase1.revert_ms_p50": p50_ms(reverts),
        "phase2.s": total("phase2"),
        "phase2.bounded_sweeps": bounded,
        "phase2.pruned_frac": (
            summed("phase2.bounded") / bounded if bounded else 0.0
        ),
        "phase2.ordered_sweeps": calls("phase2.ordered"),
    }
    for key in ("normal", "scenario", "sweep", "move", "revert"):
        out[f"eval.{key}.calls"] = calls(f"eval.{key}")
        out[f"eval.{key}.self_s"] = self_time(f"eval.{key}")
    memo_lookups = counters["memo_hits"] + counters["memo_misses"]
    out["eval.sweep_memo.lookups"] = memo_lookups
    out["eval.sweep_memo.hit_rate"] = (
        counters["memo_hits"] / memo_lookups if memo_lookups else 0.0
    )
    out["cache.lookups"] = counters["cache_lookups"]
    out["cache.hit_rate"] = (
        counters["cache_hits"] / counters["cache_lookups"]
        if counters["cache_lookups"]
        else 0.0
    )
    out["cache.get_put_s"] = self_time("cache.get", "cache.put")
    out["cache.entries"] = counters["cache_entries"]
    out["incr.calls"] = calls("incr.set_arc_weight", "incr.route_scenario")
    out["incr.self_s"] = self_time(
        "incr.sync", "incr.set_arc_weight", "incr.route_scenario"
    )
    out["incr.affected_dests"] = int(summed("incr.set_arc_weight"))
    out["engine.delay.calls"] = calls("engine.delay")
    out["engine.delay.self_s"] = self_time("engine.delay")
    out["spf.calls"] = calls("spf.columns", "spf.dijkstra")
    out["spf.self_s"] = self_time("spf.columns", "spf.dijkstra")
    out["sweep.groups"] = int(summed("sweep.plan"))
    out["sweep.cells"] = int(summed("sweep.route_batch"))
    out["sweep.route_batch.self_s"] = self_time("sweep.route_batch")
    out["sweep.flush_delay.self_s"] = self_time("sweep.flush_delay")
    for _, _, span, _ in FUNCTION_PROBES:
        if span.startswith("kern."):
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.self_s"] = self_time(span)
            out[f"{span}.cells"] = int(summed(span))
    for key in ("sla", "fortz", "delay"):
        out[f"cost.{key}.calls"] = calls(f"cost.{key}")
        out[f"cost.{key}.self_s"] = self_time(f"cost.{key}")
    blocked = total("exec.dispatch")
    out["exec.tasks"] = counters["tasks"]
    out["exec.task_bytes"] = counters["task_bytes"]
    out["exec.worker_busy_s"] = counters["busy_s"]
    out["exec.wait_s"] = (
        blocked - counters["busy_s"] / counters["jobs"] if blocked else 0.0
    )
    out["exec.retries"] = counters["retries"]
    out["setup.instance_s"] = setup["instance_s"]
    out["setup.evaluator_s"] = setup["evaluator_s"]
    out["setup.trace_s"] = setup["trace_s"]
    out["trace.spans"] = len(name)
    return out
