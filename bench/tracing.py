"""Span tracing for the traced benchmark run.

Timing wrappers are installed by rebinding public names of the eecoop
package (module attributes and class methods) and are removed again when
the traced pass ends, so untraced passes execute the package unmodified.
Each wrapper records one span: name, start, end, the span that was open
when it started (its parent), and whether the call raised.  Exceptions are
recorded and re-raised unchanged, because the solver relies on the
``LinAlgError`` from ``cho_factor`` to escalate its jitter.  Spans stay in
memory until the run ends and are only aggregated then.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np
import scipy.linalg

import eecoop.baselines
import eecoop.cli
import eecoop.model
import eecoop.montecarlo
import eecoop.outage
import eecoop.solver


def _table_terms(tables):
    return sum(t.n_terms for t in tables)


def _wrap_targets():
    """(owner, attribute, span name, observer) for every traced binding.

    One function is wrapped at each binding its callers look up, so a span
    name can come from several owners.  An observer maps a call's return
    value to a number that is summed per span name.
    """
    cli, solver, outage = eecoop.cli, eecoop.solver, eecoop.outage
    baselines, model = eecoop.baselines, eecoop.model
    problem, table = solver.EEProblem, outage.MonomialTable
    targets = [
        (cli, "main", "cli.main", None),
        (cli, "estimate_outage", "montecarlo.estimate_outage",
         lambda mc: mc.trials * len(mc.pr_out)),
        (solver, "phase1", "solver.phase1", None),
        (solver, "inner_solve", "solver.inner_solve",
         lambda res: res.newton_iters),
        (solver, "outage_tables", "outage.outage_tables", _table_terms),
        (problem, "__init__", "solver.problem_build", None),
        (problem, "barrier_fgh", "solver.barrier_fgh", None),
        (problem, "barrier_value", "solver.barrier_value", None),
        # the solver reaches cho_factor as eecoop.solver.sla.cho_factor
        (scipy.linalg, "cho_factor", "solver.cho_factor", None),
        (outage, "build_outage_tables", "outage.build_outage_tables",
         _table_terms),
        (outage, "network_outage_exact", "outage.network_outage_exact",
         None),
        (table, "value", "outage.value", None),
        (table, "value_grad_hess", "outage.value_grad_hess", None),
        (eecoop.montecarlo, "sample_channel_power_gain", "montecarlo.draw",
         lambda draws: np.asarray(draws).nbytes),
    ]
    for kind in ("no_transfer", "depleted_energy", "nonc_df",
                 "uniform_power"):
        targets.append((cli, f"{kind}_policy", f"baselines.{kind}_policy",
                        None))
    for owner in (cli, baselines, solver):
        targets.append((owner, "dinkelbach_optimize",
                        "solver.dinkelbach_optimize", None))
    for owner in (cli, baselines, solver, model):
        targets.append((owner, "validate_policy", "model.validate_policy",
                        None))
    for owner in (cli, baselines, solver, outage):
        targets.append((owner, "network_outage_report",
                        "outage.network_outage_report", None))
    return targets


class Tracer:
    """In-memory span recorder.

    `installed()` rebinds the traced names for the duration of a with
    block; `wrap()` also serves the benchmark to open one root span per
    operation, so that every span of an operation descends from it.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.observed = {}
        self._stack = [-1]
        self._next_id = 0
        self._sid = array("q")
        self._parent = array("q")
        self._name = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._failed = array("b")

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _store(self, sid, parent, name_id, t0, t1, failed):
        self._sid.append(sid)
        self._parent.append(parent)
        self._name.append(name_id)
        self._t0.append(t0)
        self._t1.append(t1)
        self._failed.append(failed)

    def wrap(self, fn, name, observer=None):
        """fn with one span recorded per call."""
        name_id = self._name_id(name)
        stack, observed, clock = self._stack, self.observed, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            failed = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                self._store(sid, parent, name_id, t0, t1, failed)
            if observer is not None:
                observed[name] = observed.get(name, 0) + observer(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced name to its wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name, observer in _wrap_targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, observer))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _arrays(self):
        """Span columns ordered by span id: parent, name id, duration,
        failed."""
        order = np.argsort(np.frombuffer(self._sid, dtype=np.int64))
        if order.size != self._next_id or len(self._stack) != 1:
            raise RuntimeError("a traced span is still open")
        dur = (np.frombuffer(self._t1, dtype=np.float64)
               - np.frombuffer(self._t0, dtype=np.float64))
        return (np.frombuffer(self._parent, dtype=np.int64)[order],
                np.frombuffer(self._name, dtype=np.int32)[order],
                dur[order],
                np.frombuffer(self._failed, dtype=np.int8)[order])

    def summary(self):
        """Per span name: calls, total_s, self_s and failures.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        parent, name_id, dur, failed = self._arrays()
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_dur = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = name_id == i
            out[name] = {"calls": int(sel.sum()),
                         "total_s": float(dur[sel].sum()),
                         "self_s": float(self_dur[sel].sum()),
                         "failures": int(failed[sel].sum())}
        return out

    def parents_with_child(self, parent_name, child_name):
        """How many parent_name spans have at least one child_name child."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        parent, name_id, _dur, _failed = self._arrays()
        kids = parent[name_id == self._ids[child_name]]
        owners = np.unique(kids[kids >= 0])
        return int(np.sum(name_id[owners] == self._ids[parent_name]))
