"""Outside-in tracing: spans recorded around calls into each module.

``Tracer.install`` wraps the public functions of ``fuzzybvp``'s modules and
every binding of them that another module imported (``cli.solve`` is the
same object as ``solver.solve``, so both names are replaced). Spans are
recorded only between ``begin`` and ``end`` of a problem, so the benchmark's
own checking never shows up. ``ClosedForm.evaluate`` runs once per point on
some paths, so it gets counters instead of spans.

Each span is ``[name, parent, problem, start, end, ok]``, kept in memory and
written out by ``write``. ``restore`` puts every original back.
"""

from __future__ import annotations

import csv
import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

SPANNED = {
    "cli": ("run", "main", "parse_problem_file"),
    "solver": ("solve", "solve_uncoupled", "solve_coupled", "enumerate_cases", "transform_bvp"),
    "laplace": ("inverse_laplace",),
    "validate": (
        "check_level_set", "residual_ode", "boundary_residual", "monotone_by_slope",
        "oracle_gap", "with_oracle_gap", "fd_oracle", "fd_oracle_coupled",
    ),
}
# Unknowns of one oracle solve: n - 1 interior points, times 2 when coupled.
FD_INTERVALS_ARG = {"fd_oracle": (6, 1), "fd_oracle_coupled": (7, 2)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._problem: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, problem: int) -> None:
        self._problem = problem

    def end(self) -> None:
        self._problem = None

    def _span(self, name: str, fn, unknowns=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._problem is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, parent, tracer._problem, perf_counter(), 0.0, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
                span[5] = True
                return out
            finally:
                span[4] = perf_counter()
                tracer._stack.pop()
                if unknowns is not None:
                    tracer.counts[name + ".unknowns"] += unknowns(args, kwargs)

        return wrapper

    def _counted_evaluate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def evaluate(form, x):
            if tracer._problem is not None:
                tracer.counts["laplace.evaluate.calls"] += 1
                tracer.counts["laplace.evaluate.points"] += np.size(x)
            return fn(form, x)

        return evaluate

    def install(self, package) -> None:
        """Wrap every traced function under all of its module-level names."""
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]
        for mod_name, names in SPANNED.items():
            home = getattr(package, mod_name)
            for name in names:
                orig = getattr(home, name, None)
                if orig is None:  # renamed or removed: its metrics read 0
                    continue
                unknowns = None
                if name in FD_INTERVALS_ARG:
                    pos, per = FD_INTERVALS_ARG[name]
                    unknowns = lambda args, kwargs, pos=pos, per=per: per * (
                        (args[pos] if len(args) > pos else kwargs["n"]) - 1
                    )
                wrapped = self._span(f"{mod_name}.{name}", orig, unknowns)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        cls = package.laplace.ClosedForm
        self._patched.append((cls, "evaluate", cls.evaluate))
        cls.evaluate = self._counted_evaluate(cls.evaluate)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, ok calls, total seconds and self seconds.

        Self time is the duration minus the part of the interval covered by
        the span's direct children.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[1] >= 0:
                children[span[1]].append((span[3], span[4]))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ok": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, (name, _, _, start, end, ok) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            entry = out[name]
            entry["calls"] += 1
            entry["ok"] += ok
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "parent", "problem", "start_s", "end_s", "ok"])
            for sid, (name, parent, problem, start, end, ok) in enumerate(self.spans):
                writer.writerow([sid, name, parent, problem, f"{start:.9f}", f"{end:.9f}", int(ok)])
