"""Layer spans and counters recorded from outside lcoupler.

``Tracer.install`` replaces each traced function with a wrapper in the
namespace of the module that calls it (``from x import f`` copies the name,
so ``lcoupler.benchmarking.apply_to_qubits`` is what the executor actually
calls).  A span records its name, start, end and parent; spans are folded
into per-name totals as they close, so a 400k-call run stays small.  Self
time is a span's duration minus the time its child spans cover.

The integrator counters wrap the solver that ``lcoupler.dynamics`` calls
(today ``solve_ivp``): ``nfev`` is the right-hand-side evaluations and the
accepted steps are the points of the returned time grid.  They read 0 once
that route is gone.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# (module the caller lives in, attribute, span name)
SPANS = (
    ("lcoupler.config", "load_config", "config.load_config"),
    ("lcoupler.cli", "load_config", "config.load_config"),
    ("lcoupler.cliffords", "load_config", "config.load_config"),
    ("lcoupler.benchmarking", "load_config", "config.load_config"),
    ("lcoupler.cli", "sweep_transfer", "dynamics.sweep_transfer"),
    ("lcoupler.dynamics", "build_transfer_schedule", "pulses.build_transfer_schedule"),
    ("lcoupler.pulses", "build_transfer_schedule", "pulses.build_transfer_schedule"),
    ("lcoupler.dynamics", "simulate_transfer", "dynamics.simulate_transfer"),
    ("lcoupler.dynamics", "build_hamiltonian", "dynamics.build_hamiltonian"),
    ("lcoupler.dynamics", "extract_channel", "dynamics.extract_channel"),
    ("lcoupler.dynamics", "SweepResult.to_csv", "dynamics.SweepResult.to_csv"),
    ("lcoupler.benchmarking", "NoiseModel.from_config", "benchmarking.NoiseModel.from_config"),
    ("lcoupler.benchmarking", "apply_to_qubits", "channels.apply_to_qubits"),
    ("lcoupler.benchmarking", "two_qubit_clifford", "cliffords.two_qubit_clifford"),
    ("lcoupler.cliffords", "two_qubit_clifford", "cliffords.two_qubit_clifford"),
    ("lcoupler.cliffords", "compile_remote_cnot", "cliffords.compile_remote_cnot"),
    ("lcoupler.benchmarking", "invert_sequence", "cliffords.invert_sequence"),
    ("lcoupler.benchmarking", "spam_apply", "benchmarking.spam_apply"),
    ("lcoupler.tomography", "spam_apply", "benchmarking.spam_apply"),
    ("lcoupler.benchmarking", "run_two_qubit_rb", "benchmarking.run_two_qubit_rb"),
    ("lcoupler.benchmarking", "run_network_benchmarking", "benchmarking.run_network_benchmarking"),
    ("lcoupler.benchmarking", "fit_exponential", "benchmarking.fit_exponential"),
    ("lcoupler.tomography", "state_tomography", "tomography.state_tomography"),
    ("lcoupler.tomography", "optimize_bell_phases", "tomography.optimize_bell_phases"),
    ("lcoupler.cli", "write_svg", "svg.write_svg"),
)

SOLVER = ("lcoupler.dynamics", "solve_ivp")


def _resolve(module_name: str, attr: str):
    """(owner object, final attribute name, raw attribute) for a dotted path."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


class Tracer:
    """Per-name span totals, parent-child call counts and solver counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self.rhs_evals = 0
        self.solver_steps = 0
        self._stack: list[list] = []  # open spans: [name, start, child_s]
        self._saved: list[tuple] = []

    def wrap(self, fn, name: str):
        stack, stats, edges, clock = self._stack, self.stats, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, clock(), 0.0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - span[1]
                stack.pop()
                entry = stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - span[2]
                if parent is not None:
                    parent[2] += duration
                edges[(parent[0] if parent else None, name)] += 1

        return traced

    def _count_solver(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.rhs_evals += int(sol.nfev)
            self.solver_steps += len(sol.t) - 1
            return sol

        return counted

    def _patch(self, module_name: str, attr: str, make):
        try:
            owner, name, raw = _resolve(module_name, attr)
        except (AttributeError, KeyError):
            return  # the route is gone from the program; its metrics read 0
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, new)

    def install(self) -> "Tracer":
        for module_name, attr, span in SPANS:
            self._patch(module_name, attr, lambda fn, span=span: self.wrap(fn, span))
        self._patch(*SOLVER, self._count_solver)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def get(self, name: str, field: str) -> float:
        entry = self.stats.get(name, [0, 0.0, 0.0])
        return entry[{"calls": 0, "s": 1, "self_s": 2}[field]]

    def calls(self) -> int:
        return sum(entry[0] for entry in self.stats.values())

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "edges": [
                {"parent": p, "child": c, "calls": n}
                for (p, c), n in sorted(self.edges.items(), key=str)
            ],
            "rhs_evals": self.rhs_evals,
            "solver_steps": self.solver_steps,
        }


def wrapper_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call over a bare call, in seconds."""
    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap(noop, "probe")
    best = float("inf")
    for _ in range(3):  # the least disturbed of three passes
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)
