"""Per-layer spans and counters, wrapped around ``repro``'s public functions.

The benchmark never edits ``src/``: :func:`install` replaces each listed
function or method with a wrapper that records a span (inclusive and
self time, call count) and the layer's counters, then calls through.
Every module attribute that still points at the original is rebound, so
call sites that did ``from module import name`` see the wrapper too, and
pickled work-unit functions resolve to it by import path.  The wrappers
return exactly what the wrapped call returns, so traced result bytes
equal untraced ones.

"Self" time is a span's duration minus the time of wrapped calls made
inside it on the same thread; self times therefore add up to the
top-level span of each thread.

A :class:`Recorder` belongs to one process.  ``dump`` writes its totals
as ``<dir>/<pid>.json``; :func:`merge` adds the files of every process
of an operation together.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Span name -> (module, attribute path).  A dotted attribute path names
#: a method on a class.
SPANS = {
    "spec.plan": ("repro.core.spec", "plan_experiment"),
    "executor.map_units": ("repro.core.executor", "Executor.map_units"),
    "ansatz.build": ("repro.ansatz.random_pqc", "RandomPQC.build"),
    "initializers.sample": ("repro.initializers.base", "Initializer.sample"),
    "simulator.megabatch_plan": ("repro.backend.simulator", "MegaBatchPlan.__init__"),
    # Private, but it is the one entry every mega-batched pass (the
    # shared prefix and the folded shifted rows) goes through.
    "simulator.megabatch_run": (
        "repro.backend.simulator",
        "StatevectorSimulator._run_megabatch_data",
    ),
    "gradients.megabatch_shift": (
        "repro.backend.gradients",
        "megabatch_parameter_shift",
    ),
    "gradients.batch_adjoint": (
        "repro.backend.gradients",
        "batch_adjoint_value_and_gradient",
    ),
    "gradients.batch_adjoint_gradient": (
        "repro.backend.gradients",
        "batch_adjoint_gradient",
    ),
    "statevector.apply_matrix": ("repro.backend.statevector", "apply_matrix"),
    "statevector.apply_diagonal": ("repro.backend.statevector", "apply_diagonal"),
    "array_api.take_rows": ("repro.utils.array_api", "ArrayBackend.take_rows"),
    "array_api.put_rows": ("repro.utils.array_api", "ArrayBackend.put_rows"),
    "variance.merge": ("repro.core.variance", "merge_variance_outputs"),
    "experiments.outcome": (
        "repro.core.experiments",
        "variance_outcome_from_result",
    ),
    "cost.value_and_gradient_batch": (
        "repro.core.cost",
        "ObservableCost.value_and_gradient_batch",
    ),
    "io.save_result": ("repro.io.serialization", "save_result"),
}

#: Work-unit functions: each call is one ``executor.unit`` span whose
#: duration is also kept as a sample.
UNIT_FUNCTIONS = [
    ("repro.core.variance", "run_variance_shard"),
    ("repro.core.training", "run_training_unit"),
    ("repro.core.training", "run_labelled_training_unit"),
    ("repro.core.training", "run_lockstep_training_unit"),
]


class Recorder:
    """Span totals, counters and samples of one process."""

    def __init__(self) -> None:
        # Re-entrant: a SIGUSR1 dump may interrupt a span holding it.
        self.lock = threading.RLock()
        #: Where forked workers flush after each unit (set by :func:`install`).
        self.dump_dir: Optional[Path] = None
        self.origin_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.local = threading.local()

    def count(self, name: str, amount: float = 1) -> None:
        with self.lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self.lock:
            self.samples[name].append(value)

    def span(self, name: str, fn: Callable, args, kwargs, on_done=None):
        """Call ``fn`` inside span ``name``; ``on_done(result, args, kwargs)``
        adds the layer's counters from the call's own arguments/result."""
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        frame = [0.0, name]  # time covered by child spans, span name
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            with self.lock:
                self.total[name] += duration
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
        if on_done is not None:
            on_done(result, args, kwargs, duration)
        return result

    def enclosing(self) -> Optional[str]:
        """Name of the innermost open span on this thread.

        Called from an ``on_done`` hook, it names the span that encloses
        the one that just ended.
        """
        stack = getattr(self.local, "stack", None)
        return stack[-1][1] if stack else None

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "pid": self.pid,
                "total": dict(self.total),
                "self": dict(self.self_s),
                "calls": dict(self.calls),
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }

    def dump(self, directory: Path) -> None:
        """Write this process's totals to ``directory/<pid>.json`` atomically."""
        target = Path(directory) / f"{os.getpid()}.json"
        tmp = target.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, target)


def merge(snapshots: List[dict]) -> dict:
    """Sum the snapshots of every process of one operation."""
    out: Dict[str, Any] = {
        "total": defaultdict(float),
        "self": defaultdict(float),
        "calls": defaultdict(int),
        "counters": defaultdict(float),
        "samples": defaultdict(list),
    }
    for snap in snapshots:
        for key in ("total", "self", "calls", "counters"):
            for name, value in snap[key].items():
                out[key][name] += value
        for name, values in snap["samples"].items():
            out["samples"][name].extend(values)
    return out


def load_dir(directory: Path) -> List[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


# -- counters each layer adds ---------------------------------------------


def _rows(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _kernel_counters(prefix: str) -> Callable:
    def done(result, args, kwargs, duration) -> None:
        state = args[0] if args else kwargs["state"]
        REC.count(f"{prefix}.rows", _rows(state))
        # One read of the input stack plus one write of the output stack.
        REC.count("statevector.bytes_computed", 2 * int(getattr(state, "nbytes", 0)))

    return done


def _take_rows_done(result, args, kwargs, duration) -> None:
    rows = len(args[2])
    REC.count("array_api.rows_copied", rows)
    REC.count("array_api.bytes_copied_computed", 2 * int(getattr(result, "nbytes", 0)))


def _put_rows_done(result, args, kwargs, duration) -> None:
    values = args[3]
    REC.count("array_api.rows_copied", len(args[2]))
    REC.count("array_api.bytes_copied_computed", 2 * int(getattr(values, "nbytes", 0)))


def _sample_done(result, args, kwargs, duration) -> None:
    if type(args[0]).__name__ == "Orthogonal":
        REC.count("initializers.orthogonal_sample_s", duration)


def _plan_done(result, args, kwargs, duration) -> None:
    REC.count("spec.units", len(result.units))


def _megabatch_plan_done(result, args, kwargs, duration) -> None:
    REC.count("simulator.plan_steps", len(args[0].steps))


def _megabatch_run_done(result, args, kwargs, duration) -> None:
    # Folded rows are the rows of the pass ``megabatch_parameter_shift``
    # runs to the circuit's end.  Its shared-prefix pass (``stop`` set)
    # carries only the base rows; the row-chunk calls a large pass makes
    # of itself are enclosed by that pass, and other engines' forward
    # passes by other spans, so neither is counted.
    # (self, plan, params_batch, row_circuits, initial_state, start, stop)
    stop = args[6] if len(args) > 6 else kwargs.get("stop")
    if stop is None and REC.enclosing() == "gradients.megabatch_shift":
        REC.count("gradients.folded_rows", _rows(result))


def _adjoint_done(result, args, kwargs, duration) -> None:
    params = args[2] if len(args) > 2 else kwargs["params"]
    shape = getattr(params, "shape", None)
    REC.count("gradients.adjoint_rows", shape[0] if shape and len(shape) > 1 else len(params))


def _save_done(result, args, kwargs, duration) -> None:
    REC.count("io.bytes_written", os.path.getsize(result))


DONE = {
    "spec.plan": _plan_done,
    "initializers.sample": _sample_done,
    "simulator.megabatch_plan": _megabatch_plan_done,
    "simulator.megabatch_run": _megabatch_run_done,
    "gradients.batch_adjoint": _adjoint_done,
    "gradients.batch_adjoint_gradient": _adjoint_done,
    "statevector.apply_matrix": _kernel_counters("statevector.apply_matrix"),
    "statevector.apply_diagonal": _kernel_counters("statevector.apply_diagonal"),
    "array_api.take_rows": _take_rows_done,
    "array_api.put_rows": _put_rows_done,
    "io.save_result": _save_done,
}


def _map_units_wrapper(original: Callable) -> Callable:
    """``Executor.map_units`` span plus retry/rebuild counts and the tail.

    ``executor.tail_idle_s`` runs from the completion that leaves fewer
    units outstanding than the executor has workers to the last one.
    """

    @functools.wraps(original)
    def wrapper(self, units, *args, **kwargs):
        on_result = kwargs.get("on_result")
        on_event = kwargs.get("on_event")
        done_at: List[float] = []

        def result_hook(unit, output):
            done_at.append(time.perf_counter())
            if on_result is not None:
                on_result(unit, output)

        def event_hook(kind, payload):
            if kind == "retry":
                REC.count("executor.retries")
            elif kind == "pool_rebuild":
                REC.count("executor.pool_rebuilds")
            if on_event is not None:
                on_event(kind, payload)

        # Every caller passes the callbacks by keyword.
        kwargs["on_result"] = result_hook
        kwargs["on_event"] = event_hook
        result = REC.span("executor.map_units", original, (self, units) + args, kwargs)
        workers = max(1, int(getattr(self, "workers", 1) or 1))
        first_tail = len(done_at) - workers  # index of the completion starting the tail
        if workers > 1 and 0 <= first_tail < len(done_at):
            REC.count("executor.tail_idle_s", done_at[-1] - done_at[first_tail])
        return result

    return wrapper


def _span_wrapper(name: str, original: Callable) -> Callable:
    on_done = DONE.get(name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return REC.span(name, original, args, kwargs, on_done)

    return wrapper


def _unit_wrapper(original: Callable) -> Callable:
    def on_done(result, args, kwargs, duration) -> None:
        REC.sample("executor.unit_s", duration)
        if REC.dump_dir is not None and os.getpid() != REC.origin_pid:
            # Forked pool workers leave through os._exit: flush per unit.
            REC.dump(REC.dump_dir)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return REC.span("executor.unit", original, args, kwargs, on_done)

    return wrapper


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind(wrappers: Dict[int, Callable]) -> None:
    """Point every ``repro`` module attribute, or module-level registry
    entry, that holds a wrapped original at its wrapper.

    ``wrappers`` maps ``id(original)`` to the wrapper; one pass over the
    modules rebinds them all.
    """
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if id(entry) in wrappers:
                        value[key] = wrappers[id(entry)]


def install(dump_dir: Optional[Path]) -> None:
    """Wrap every layer listed in :data:`SPANS`, optimizer steps and units."""
    import importlib

    REC.dump_dir = dump_dir
    REC.origin_pid = os.getpid()
    os.register_at_fork(after_in_child=REC.reset)
    # Only the wrapped modules: a module imported later (the service
    # stack under ``serve``/``worker``) binds the wrappers when it does.
    for module_name in {m for m, _ in SPANS.values()} | {
        m for m, _ in UNIT_FUNCTIONS
    } | {"repro.optim"}:
        importlib.import_module(module_name)

    # Module-level functions to rebind wherever else they are held; the
    # originals stay referenced here, so their ids stay unique.
    rebind: Dict[int, Callable] = {}
    originals: List[Callable] = []
    for name, target in SPANS.items():
        owner, attr = _resolve(*target)
        original = getattr(owner, attr)
        if name == "executor.map_units":
            wrapper = _map_units_wrapper(original)
        else:
            wrapper = _span_wrapper(name, original)
        setattr(owner, attr, wrapper)
        if not isinstance(owner, type):
            rebind[id(original)] = wrapper
            originals.append(original)

    for module_name, attr in UNIT_FUNCTIONS:
        owner, attr = _resolve(module_name, attr)
        original = getattr(owner, attr)
        wrapper = _unit_wrapper(original)
        setattr(owner, attr, wrapper)
        rebind[id(original)] = wrapper
        originals.append(original)
    _rebind(rebind)

    from repro.optim.base import Optimizer

    pending = list(Optimizer.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "step" in vars(cls):
            cls.step = _span_wrapper("optim.step", vars(cls)["step"])


#: The process's recorder: wrappers are module functions, so they share it.
REC = Recorder()
