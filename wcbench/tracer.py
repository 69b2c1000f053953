"""Per-layer tracing of wcolab from outside the package.

`Tracer.install()` replaces every public function of every wcolab module, and
every public method of the classes those modules define, with a timing
wrapper.  A function is replaced at every wcolab namespace that binds it:
`scenarios`, `probes`, `spectra` and `cli` import by name, so patching only
the defining module would miss their calls.  The dense LAPACK entry points
the package reaches through `numpy.linalg` are wrapped as well.
`Tracer.uninstall()` puts every original back.

A span's self time is its duration minus the time its child spans cover.
Spans are aggregated per name as they close (calls, total seconds, self
seconds), so memory stays constant however many calls a run makes.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict

#: wcolab modules whose namespaces are patched.
LAYERS = ("mobius", "series", "space", "opmat", "probes", "spectra", "scenarios", "cli")

#: Root node types of the expression AST, for series.taylor.by_root.
EXPR_NODES = ("Poly", "Rational", "Power", "Exp", "Sum", "Product", "Scale", "PrecomposeMoebius")

#: numpy.linalg calls reported as dense LAPACK work.
LINALG = ("norm2", "eigvalsh", "eigvals")

PROBES_SELF = (
    "hyponormality_probe",
    "quasinormality_defect",
    "defect_report",
    "unitary_defect",
    "normality_defect",
    "selfadjoint_defect",
    "douglas_witness",
)
SPECTRA = ("eigen_residual", "truncation_eigenvalues", "spectral_radius_estimate")


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if hook is not None:
                hook(self, args, kwargs, result, dt - child)
            return result

        return wrapper

    def _patch(self, target, attr: str, value) -> None:
        self._patched.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        import importlib

        import numpy.linalg

        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"wcolab.{m}") for m in LAYERS]
        hooks = _hooks()
        wrappers = {}  # id(original function) -> wrapper, shared by every binding
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__.startswith("wcolab."):
                    name = f"{value.__module__[7:]}.{value.__name__}"
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(name, value, hooks.get(name))
                    self._patch(mod, attr, wrappers[id(value)])
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._patch_methods(mod.__name__[7:], value)
        self._patch(numpy.linalg, "norm", self._wrap_norm(numpy.linalg.norm))
        for name in ("eigvalsh", "eigvals"):
            fn = getattr(numpy.linalg, name)
            self._patch(numpy.linalg, name, self._wrap(f"linalg.{name}", fn, _max_n_hook(name)))

    def _patch_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def _wrap_norm(self, norm):
        """Only spectral norms of matrices count as LAPACK work (an SVD)."""
        traced = self._wrap("linalg.norm2", norm, _max_n_hook("norm2"))

        @functools.wraps(norm)
        def wrapper(x, ord=None, *args, **kwargs):
            if ord == 2 and getattr(x, "ndim", 0) == 2 and not args and not kwargs:
                return traced(x, ord)
            return norm(x, ord, *args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics taken from the spans, zero where a layer was unused."""
        sp, ct = self.spans, self.counts
        out: dict[str, float] = {}

        def span(name: str, *fields: str) -> None:
            rec = sp.get(name, (0, 0.0, 0.0))
            for f in fields:
                out[f"{name}.{f}"] = {"calls": rec[0], "s": rec[1], "self_s": rec[2]}[f]

        for layer in ("mobius", "space"):
            recs = [r for n, r in sp.items() if n.startswith(layer + ".")]
            out[f"{layer}.calls"] = sum(r[0] for r in recs)
            out[f"{layer}.self_s"] = sum(r[2] for r in recs)
        span("series.taylor", "calls", "self_s")
        out["series.taylor.coeffs"] = ct["series.taylor.coeffs"]
        for node in EXPR_NODES:
            out[f"series.taylor.by_root.{node}.self_s"] = ct[f"series.taylor.by_root.{node}.self_s"]
        span("series.tail_diagnostics", "calls", "self_s")
        span("series.eliminate_precompose", "self_s")
        kcp = "probes.kernel_condition_probe"
        span(kcp, "calls", "self_s")
        for f in ("points", "doublings", "slow_at_cap", "series_coeffs"):
            out[f"{kcp}.{f}"] = ct[f"{kcp}.{f}"]
        span("series.moebius_powers", "calls", "self_s")
        out["series.moebius_powers.coeffs"] = ct["series.moebius_powers.coeffs"]
        for blk in ("build_block", "wide_block"):
            span(f"opmat.{blk}", "calls", "self_s")
            out[f"opmat.{blk}.cells"] = ct[f"opmat.{blk}.cells"]
        span("opmat.word_block", "calls", "self_s")
        out["opmat.word_block.letters"] = ct["opmat.word_block.letters"]
        for name in LINALG:
            span(f"linalg.{name}", "calls", "s")
            out[f"linalg.{name}.max_n"] = ct[f"linalg.{name}.max_n"]
        span("opmat.gram_blocks", "calls", "self_s")
        for name in PROBES_SELF:
            span(f"probes.{name}", "self_s")
        for name in SPECTRA:
            span(f"spectra.{name}", "calls", "self_s")
        return out

    def total_s(self, name: str) -> float:
        rec = self.spans.get(name)
        return rec[1] if rec else 0.0


# -- counters taken at layer boundaries ----------------------------------------


def _hooks() -> dict:
    from wcolab import probes

    def taylor(tr, args, kwargs, result, self_s):
        expr = args[0] if args else kwargs["e"]
        tr.counts["series.taylor.coeffs"] += result.order + 1
        tr.counts[f"series.taylor.by_root.{type(expr).__name__}.self_s"] += self_s

    def moebius_powers(tr, args, kwargs, result, self_s):
        tr.counts["series.moebius_powers.coeffs"] += sum(len(s.coeffs) for s in result)

    def cells(name):
        def hook(tr, args, kwargs, result, self_s):
            tr.counts[f"opmat.{name}.cells"] += result.entries.size

        return hook

    def word_block(tr, args, kwargs, result, self_s):
        word = args[0] if args else kwargs["word"]
        tr.counts["opmat.word_block.letters"] += len(tuple(word))

    kcp_signature = inspect.signature(probes.kernel_condition_probe)

    def kernel_probe(tr, args, kwargs, result, self_s):
        bound = kcp_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        start = int(bound.arguments["order"])
        cap = probes.KERNEL_PROBE_MAX_ORDER
        key = "probes.kernel_condition_probe"
        for p in result:
            tr.counts[f"{key}.points"] += 1
            tr.counts[f"{key}.doublings"] += round(math.log2(p.order / start))
            tr.counts[f"{key}.slow_at_cap"] += bool(p.slow_decay and p.order >= cap)
            tr.counts[f"{key}.series_coeffs"] += p.order + 1

    return {
        "series.taylor": taylor,
        "series.moebius_powers": moebius_powers,
        "opmat.build_block": cells("build_block"),
        "opmat.wide_block": cells("wide_block"),
        "opmat.word_block": word_block,
        "probes.kernel_condition_probe": kernel_probe,
    }


def _max_n_hook(name: str):
    key = f"linalg.{name}.max_n"

    def hook(tr, args, kwargs, result, self_s):
        n = max(args[0].shape)
        if n > tr.counts[key]:
            tr.counts[key] = n

    return hook
