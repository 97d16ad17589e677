"""Tracing of paulimix from outside its code: spans recorded by wrappers.

``Tracer.install()`` replaces every binding of a public paulimix function
(a name listed in its defining module's ``__all__``) in every paulimix module
that binds it, plus the ``value`` / ``value_and_derivative`` methods of the
three decoherence-function classes, with a wrapper that records a span.  A
``from .dynamics import mixture_eigenvalues`` copy in ``semigroupforge`` is a
separate binding and is wrapped too; all bindings of one function share one
span name, ``<defining module>.<function>``.  ``uninstall()`` restores the
originals.

Spans live in memory as ``(name id, start ns, end ns, parent index, amount,
nested)``; ``amount`` is a per-function work count (points evaluated, bytes
returned, ...) and ``nested`` marks a span opened inside another span of the
same name.  ``layer_metrics()`` turns them into the per-layer metrics.

Two leaf helpers are left unwrapped: ``reportio.fmt_float`` runs once per
number written and ``mubgen.is_prime`` once per channel built, so a span per
call would cost more than the work it times.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time

import numpy as np

MODULES = (
    "exprcalc",
    "mubgen",
    "channelcore",
    "dynamics",
    "matrixlab",
    "semigroupforge",
    "reportio",
    "cli",
)
UNWRAPPED = {"reportio.fmt_float", "mubgen.is_prime"}
EVAL_CLASSES = ("ExpRelax", "Expression", "SampledGrid")


def _eval_amount(args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs["t"]
    return int(np.size(t))


def _eigen_points(args, kwargs, result):
    return int(result.eigenvalues.size)


def _dim2(args, kwargs, result):
    return int(np.shape(args[0])[0]) ** 2


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


EVAL_SPANS = frozenset(
    f"channelcore.{c}.{m}" for c in EVAL_CLASSES for m in ("value", "value_and_derivative")
)
# Work counted per span: points evaluated, (d+1)*n eigenvalues, n^2 matrix
# entries, or bytes of text returned.
AMOUNTS = {
    "dynamics.mixture_eigenvalues": _eigen_points,
    "exprcalc.eval_dual": _eval_amount,
    "matrixlab.psd_check": _dim2,
    "reportio.trajectory_csv": _text_bytes,
    "reportio.to_json": _text_bytes,
    **dict.fromkeys(EVAL_SPANS, _eval_amount),
}


class Tracer:
    """In-memory span recorder for one traced run; install and uninstall may repeat."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self._restore: list = []

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        amount_of = AMOUNTS.get(name)
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = depth.get(nid, 0) > 0
            depth[nid] = depth.get(nid, 0) + 1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[nid] -= 1
                spans[idx] = (nid, start, end, parent, 0, nested)
            if amount_of is not None:
                spans[idx] = (nid, start, end, parent, amount_of(args, kwargs, result), nested)
            return result

        return traced

    def install(self, package: str = "paulimix") -> None:
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        pkg = importlib.import_module(package)
        wrappers = {}
        for mod in [pkg, *mods.values()]:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, type) or not callable(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith(package + "."):
                    continue
                short = home.rsplit(".", 1)[1]
                if short not in mods or attr != getattr(value, "__name__", None):
                    continue
                if attr not in getattr(mods[short], "__all__", ()):
                    continue
                name = f"{short}.{attr}"
                if name in UNWRAPPED:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(name, value)
                self._restore.append((mod, attr, value, True))
                setattr(mod, attr, wrappers[id(value)])
        channelcore = mods["channelcore"]
        for cls_name in EVAL_CLASSES:
            cls = getattr(channelcore, cls_name)
            for meth in ("value", "value_and_derivative"):
                own = meth in vars(cls)
                original = getattr(cls, meth)
                self._restore.append((cls, meth, vars(cls).get(meth), own))
                setattr(cls, meth, self.wrap(f"channelcore.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def finished(self) -> list:
        if any(s is None for s in self.spans):
            raise RuntimeError("trace has open spans")
        return self.spans

    def top_level_ns(self) -> int:
        return sum(s[2] - s[1] for s in self.finished() if s[3] < 0)

    def self_times_ns(self) -> list[int]:
        spans = self.finished()
        child = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - c for s, c in zip(spans, child)]

    def write(self, path: str) -> None:
        """Write every span as TSV: index, name, start_ns, end_ns, parent, amount."""
        spans = self.finished()
        base = spans[0][1] if spans else 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tamount\n")
            for i, (nid, start, end, parent, amount, _) in enumerate(spans):
                fh.write(
                    f"{i}\t{self.names[nid]}\t{start - base}\t{end - base}\t{parent}\t{amount}\n"
                )

    def layer_metrics(self) -> dict:
        """Per-layer counts and times (seconds) named as in BENCHMARK.json."""
        spans = self.finished()
        self_ns = self.self_times_ns()
        calls: dict[str, int] = {}
        total: dict[str, int] = {}
        own: dict[str, int] = {}
        amount: dict[str, int] = {}
        ev = {"pointwise_calls": 0, "vector_calls": 0, "points": 0, "ns": 0}
        for i, (nid, start, end, parent, amt, nested) in enumerate(spans):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0) + self_ns[i]
            amount[name] = amount.get(name, 0) + amt
            if not nested:
                total[name] = total.get(name, 0) + end - start
            if name in EVAL_SPANS and (parent < 0 or self.names[spans[parent][0]] not in EVAL_SPANS):
                ev["pointwise_calls" if amt == 1 else "vector_calls"] += 1
                ev["points"] += amt
                ev["ns"] += end - start

        def c(name):
            return calls.get(name, 0)

        def s(*names):
            return sum(total.get(n, 0) for n in names) / 1e9

        def self_s(*names):
            return sum(own.get(n, 0) for n in names) / 1e9

        scans = ("semigroupforge.theorem1_scan", "semigroupforge.theorem2_scan")
        return {
            "dynamics.analyze_mixture.calls": c("dynamics.analyze_mixture"),
            "dynamics.analyze_mixture.s": s("dynamics.analyze_mixture"),
            "dynamics.analyze_mixture.self_s": self_s("dynamics.analyze_mixture"),
            "dynamics.mixture_eigenvalues.calls": c("dynamics.mixture_eigenvalues"),
            "dynamics.mixture_eigenvalues.s": s("dynamics.mixture_eigenvalues"),
            "dynamics.eigen_points": amount.get("dynamics.mixture_eigenvalues", 0),
            "dynamics.rates_from_spectrum.s": s("dynamics.rates_from_spectrum"),
            "dynamics.detect_semigroup.s": s("dynamics.detect_semigroup"),
            "dynamics.refine_grid.calls": c("dynamics.refine_grid"),
            "dynamics.intermediate_map_check.calls": c("dynamics.intermediate_map_check"),
            "dynamics.intermediate_map_check.s": s("dynamics.intermediate_map_check"),
            "channelcore.eval.pointwise_calls": ev["pointwise_calls"],
            "channelcore.eval.vector_calls": ev["vector_calls"],
            "channelcore.eval.points": ev["points"],
            "channelcore.eval.s": ev["ns"] / 1e9,
            "channelcore.validate_mixture.calls": c("channelcore.validate_mixture"),
            "channelcore.validate_mixture.s": s("channelcore.validate_mixture"),
            "exprcalc.parse.calls": c("exprcalc.parse"),
            "exprcalc.parse.s": s("exprcalc.parse"),
            "exprcalc.eval_dual.calls": c("exprcalc.eval_dual"),
            "exprcalc.eval_dual.s": s("exprcalc.eval_dual"),
            "exprcalc.eval_dual.points": amount.get("exprcalc.eval_dual", 0),
            "matrixlab.choi.calls": c("matrixlab.choi"),
            "matrixlab.choi.s": s("matrixlab.choi"),
            "matrixlab.choi_from_eigenvalues.calls": c("matrixlab.choi_from_eigenvalues"),
            "matrixlab.choi_from_eigenvalues.s": s("matrixlab.choi_from_eigenvalues"),
            "matrixlab.psd_check.calls": c("matrixlab.psd_check"),
            "matrixlab.psd_check.s": s("matrixlab.psd_check"),
            "matrixlab.psd_check.dim2_sum": amount.get("matrixlab.psd_check", 0),
            "matrixlab.apply_channel.calls": c("matrixlab.apply_channel"),
            "mubgen.weyl_set.calls": c("mubgen.weyl_set"),
            "mubgen.weyl_set.s": s("mubgen.weyl_set"),
            "semigroupforge.theorem_scan.s": s(*scans),
            "semigroupforge.theorem_scan.self_s": self_s(*scans),
            "semigroupforge.random_decoherence_function.calls": c(
                "semigroupforge.random_decoherence_function"
            ),
            "semigroupforge.random_decoherence_function.s": s(
                "semigroupforge.random_decoherence_function"
            ),
            "semigroupforge.forecast_invertibility.calls": c(
                "semigroupforge.forecast_invertibility"
            ),
            "reportio.trajectory_csv.s": s("reportio.trajectory_csv"),
            "reportio.trajectory_csv.bytes": amount.get("reportio.trajectory_csv", 0),
            "reportio.to_json.s": s("reportio.to_json"),
            "reportio.to_json.bytes": amount.get("reportio.to_json", 0),
            "cli.main.calls": c("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
            "cli.parse_run_config.s": s("cli.parse_run_config"),
        }

    def self_time_table(self) -> list[tuple[str, float, int]]:
        """(span name, total self seconds, calls), largest self time first."""
        self_ns = self.self_times_ns()
        own: dict[str, list] = {}
        for i, s in enumerate(self.finished()):
            row = own.setdefault(self.names[s[0]], [0, 0])
            row[0] += self_ns[i]
            row[1] += 1
        return sorted(
            ((n, v[0] / 1e9, v[1]) for n, v in own.items()), key=lambda r: -r[1]
        )
