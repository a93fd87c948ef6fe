"""Per-layer tracing, from the benchmark's own files.

``Tracer.install`` replaces public names of each ``puselect`` module with
timing wrappers, at the place where their callers look them up (the
importing module's namespace, or the class for ``Dataset.subset``), and
``uninstall`` puts the originals back.  The program itself is not changed.

Each wrapped call is a span with a layer, a name, a start, an end and the
span that caused it.  A layer's self time is the duration of its spans
minus the part their child spans cover.  The value and gradient closures
that ``minimize`` calls run tens of thousands of times per trial, so they
are summed into counts and times instead of being kept one by one; every
other span is kept in memory and written out by ``write``.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import defaultdict
from statistics import median

KINDS = ("spm", "psychm", "naive", "elkan", "real")
METHODS = ("adam", "lbfgs")

_FIT_KIND = {
    "fit_spm": "spm",
    "fit_psychm": "psychm",
    "fit_naive": "naive",
    "fit_elkan": "elkan",
    "fit_real_oracle": "real",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, layer, name, start ns, end ns)
        self.stack: list[list] = []  # [span id, ns covered by children]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.loss_rows: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.minimize_calls: list[dict] = []
        self.closure = {"grad": [0, 0, 0], "value": [0, 0]}  # calls, ns (, rows)
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> tuple[list, int]:
        frame = [len(self.spans), 0]
        self.stack.append(frame)
        return frame, time.perf_counter_ns()

    def _exit(self, frame, start, layer, name) -> int:
        end = time.perf_counter_ns()
        self.stack.pop()
        dur = end - start
        self.self_ns[layer] += dur - frame[1]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dur
        self.spans.append((frame[0], parent[0] if parent else None, layer, name, start, end))
        self.durations[name].append(dur)
        return dur

    def wrap(self, layer: str, name: str, fn, kind_of=None):
        """Span around every call of ``fn``, named ``name.<kind_of(args)>``
        when ``kind_of`` is given."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = f"{name}.{kind_of(args)}" if kind_of else name
                self._exit(frame, start, layer, key)

        return traced

    def _closure(self, fn, which: str, layer: str, rows: int, counter: list):
        stats = self.closure[which] if layer == "objective" else None

        def traced(theta):
            start = time.perf_counter_ns()
            try:
                return fn(theta)
            finally:
                dur = time.perf_counter_ns() - start
                self.self_ns[layer] += dur
                self.stack[-1][1] += dur
                counter[0] += 1
                if stats is not None:
                    stats[0] += 1
                    stats[1] += dur
                    if which == "grad":
                        stats[2] += rows

        return traced

    # -- wrappers with layer-specific bookkeeping --------------------------

    def _make_loss_functions(self, fn):
        @functools.wraps(fn)
        def traced(data, kind, reg):
            objective, gradient = fn(data, kind, reg)
            self.loss_rows[objective] = data.n
            self.loss_rows[gradient] = data.n
            return objective, gradient

        return traced

    def _minimize(self, fn):
        @functools.wraps(fn)
        def traced(objective, gradient, init, cfg):
            method = "lbfgs" if cfg.method.value == "lbfgs" else "adam"  # Nadam counts as Adam
            layer = "objective" if objective in self.loss_rows else "estimators"
            rows = self.loss_rows.get(gradient, 0)
            evals = [0]
            frame, start = self._enter()
            try:
                result = fn(
                    self._closure(objective, "value", layer, rows, evals),
                    self._closure(gradient, "grad", layer, rows, evals),
                    init,
                    cfg,
                )
            finally:
                dur = self._exit(frame, start, "optimize", f"minimize.{method}")
            self.minimize_calls.append({
                "method": method,
                "iterations": result.iterations,
                "capped": result.iterations >= cfg.max_iters and not result.converged,
                "evals": evals[0],
                "ns": dur,
            })
            return result

        return traced

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from puselect import cli, data, estimators, metrics, runner

        for name in ("run_synth_benchmark", "run_real_benchmark", "fit_single"):
            self._patch(cli, name, self.wrap("runner", name, getattr(cli, name)))

        def kind_of(args):  # train_model(data, kind, ...), select_hyperparams(data, kind, ...)
            return args[1].value

        for owner in (runner, estimators):  # bootstrap_evaluate imports it from estimators
            self._patch(owner, "train_model", self.wrap("estimators", "train", estimators.train_model, kind_of))
        self._patch(estimators, "select_hyperparams",
                    self.wrap("estimators", "cv", estimators.select_hyperparams, kind_of))
        for fn_name, kind in _FIT_KIND.items():
            self._patch(estimators, fn_name, self.wrap("estimators", f"fit.{kind}", getattr(estimators, fn_name)))
        self._patch(estimators, "minimize", self._minimize(estimators.minimize))
        self._patch(estimators, "make_loss_functions", self._make_loss_functions(estimators.make_loss_functions))
        self._patch(runner, "read_csv", self.wrap("data", "read_csv", runner.read_csv))
        for owner in (runner, metrics, estimators):
            self._patch(owner, "split", self.wrap("data", "split", owner.split))
        self._patch(data.Dataset, "subset", self.wrap("data", "subset", data.Dataset.subset))
        self._patch(runner, "generate", self.wrap("synth", "generate", runner.generate))
        self._patch(runner, "bootstrap_evaluate", self.wrap("metrics", "bootstrap", runner.bootstrap_evaluate))
        for owner in (runner, metrics):
            self._patch(owner, "score_report", self.wrap("metrics", "score", owner.score_report))
        for owner in (estimators, metrics):
            self._patch(owner, "brier", self.wrap("metrics", "brier", owner.brier))
        self._patch(runner, "significance_matrix",
                    self.wrap("metrics", "significance", runner.significance_matrix))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, layer, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
            fh.write(json.dumps({"closures": self.closure, "minimize": self.minimize_calls}) + "\n")

    def metrics(self, rounds: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as (value, unit).  Totals are per round; a
        per-call figure of a call the workload never makes reads 0."""

        def med_s(name):
            d = self.durations.get(name)
            return median(d) / 1e9 if d else 0.0

        def total_ms(name):
            return sum(self.durations.get(name, ())) / 1e6 / rounds

        def calls(name):
            return len(self.durations.get(name, ())) / rounds

        out: dict[str, tuple[float, str]] = {}
        out["runner.self_s"] = (self.self_ns["runner"] / 1e9 / rounds, "s")
        for k in KINDS:
            out[f"estimators.train_s.{k}"] = (med_s(f"train.{k}"), "s")
        for k in KINDS:
            out[f"estimators.cv_s.{k}"] = (med_s(f"cv.{k}"), "s")
        train_ns = sum(sum(self.durations.get(f"train.{k}", ())) for k in KINDS)
        cv_ns = sum(sum(self.durations.get(f"cv.{k}", ())) for k in KINDS)
        out["estimators.cv_share"] = (cv_ns / train_ns if train_ns else 0.0, "1")
        for k in KINDS:
            out[f"estimators.fits.{k}"] = (calls(f"fit.{k}"), "count")
        out["estimators.self_s"] = (self.self_ns["estimators"] / 1e9 / rounds, "s")

        by_method = {m: [c for c in self.minimize_calls if c["method"] == m] for m in METHODS}
        for m in METHODS:
            out[f"optimize.calls.{m}"] = (len(by_method[m]) / rounds, "count")
        for m in METHODS:
            cs = by_method[m]
            out[f"optimize.iters.{m}"] = (sum(c["iterations"] for c in cs) / len(cs) if cs else 0.0, "count")
        for m in METHODS:
            cs = by_method[m]
            out[f"optimize.capped.{m}"] = (sum(c["capped"] for c in cs) / len(cs) if cs else 0.0, "1")
        for m in METHODS:
            cs = by_method[m]
            out[f"optimize.fit_ms.{m}"] = (sum(c["ns"] for c in cs) / len(cs) / 1e6 if cs else 0.0, "ms")
        lb = by_method["lbfgs"]
        lb_iters = sum(c["iterations"] for c in lb)
        out["optimize.evals_per_lbfgs_iter"] = (sum(c["evals"] for c in lb) / lb_iters if lb_iters else 0.0, "1")
        out["optimize.self_s"] = (self.self_ns["optimize"] / 1e9 / rounds, "s")

        g_calls, g_ns, g_rows = self.closure["grad"]
        v_calls, v_ns = self.closure["value"]
        out["objective.grad_calls"] = (g_calls / rounds, "count")
        out["objective.value_calls"] = (v_calls / rounds, "count")
        out["objective.grad_us"] = (g_ns / g_calls / 1e3 if g_calls else 0.0, "us")
        out["objective.value_us"] = (v_ns / v_calls / 1e3 if v_calls else 0.0, "us")
        out["objective.grad_rows_per_s"] = (g_rows / (g_ns / 1e9) if g_ns else 0.0, "1/s")

        out["data.read_csv_s"] = (med_s("read_csv"), "s")
        out["data.subset_calls"] = (calls("subset"), "count")
        out["data.subset_ms"] = (total_ms("subset"), "ms")
        out["data.split_ms"] = (total_ms("split"), "ms")
        out["synth.generate_ms"] = (total_ms("generate"), "ms")
        out["metrics.score_ms"] = (total_ms("score"), "ms")
        out["metrics.brier_calls"] = (calls("brier"), "count")
        out["metrics.significance_ms"] = (total_ms("significance"), "ms")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out
