"""Per-layer spans recorded from outside the powspec package.

A Tracer rebinds powspec's public entry points to timing wrappers while it
is installed and restores the originals when it is removed.  verify_cli
and spectra bind their imports by name (``from .exact_linalg import
char_poly_exact``), so a function is rebound in every loaded powspec
module that holds it, not only in the module that defines it.
``kernels.det_bareiss`` is looked up at call time, so rebinding it in
``powspec.kernels`` is enough.  The wrappers return what the wrapped call
returns, so reports stay byte-identical under tracing.

Spans nest: each records its own duration and the time covered by its
direct child spans, so a span's self time is the difference.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

RUN_VERIFICATION = "verify_cli.run_verification"


def bareiss_mults(n: int) -> int:
    """Multiplications of fraction-free Bareiss on an n x n matrix that
    never exits early: 2 (n-1-c)^2 per elimination column c.  Computed
    from n, not counted inside the kernel, so it is an upper bound when
    a singular matrix ends the elimination early."""
    return (n - 1) * n * (2 * n - 1) // 3


def _max_bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


class Tracer:
    """Span totals for one traced phase; merge() folds in a child's totals."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.child_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # char_poly_exact seconds keyed by "<kind>.<construction>"
        self.charpoly_by_matrix: dict[str, float] = defaultdict(float)
        self.max_coeff_bits = 0
        self.bareiss_mults = 0
        self._stack: list[list[float]] = []
        # id(object) -> (object, label); the object is held so that its id
        # cannot be reused while the label is live.
        self._labels: dict[int, tuple[object, object]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        from powspec import exact_linalg, verify_cli

        functions = [
            ("exact_linalg", "char_poly_exact", self._after_charpoly),
            ("exact_linalg", "char_poly_leverrier", self._after_leverrier),
            ("exact_linalg", "matrix_of", self._after_matrix_of),
            ("kernels", "det_bareiss", self._after_det),
            ("powergraph", "build_power_graph", self._after_power_graph),
            ("powergraph", "build_model_graph", self._after_model_graph),
            ("powergraph", "verify_decomposition", None),
            ("powergraph", "graph_diff", None),
            ("powergraph", "model_adjacency_split", None),
            ("group_core", "validate_presentation", None),
            ("spectra", "symmetric_eigenvalues", None),
            ("spectra", "spectral_radius", None),
            ("verify_cli", "run_verification", self._after_run),
        ]
        modules = [
            m
            for name, m in sys.modules.items()
            if name.split(".")[0] == "powspec" and not name.rsplit(".", 1)[-1].startswith("_")
        ]
        for home, attr, after in functions:
            # A layer that a later refactor folds away is left untraced and
            # reads as zero, rather than breaking the benchmark.
            original = getattr(sys.modules.get(f"powspec.{home}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{home}.{attr}", original, after)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._rebind(module, attr, wrapper)
        # Methods are looked up on the class, so one rebinding covers every caller.
        self._rebind(
            exact_linalg.FactoredPolynomial,
            "expand",
            self._wrap("formulas.closed_form_expand", exact_linalg.FactoredPolynomial.expand, None),
        )
        self._rebind(
            verify_cli.VerificationReport,
            "to_json",
            self._wrap("verify_cli.to_json", verify_cli.VerificationReport.to_json, None),
        )
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._labels.clear()

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by direct child spans
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.seconds[span] += dt
                self.child_seconds[span] += frame[0]
                self.calls[span] += 1
                if self._stack:
                    self._stack[-1][0] += dt
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        return wrapper

    # -- per-function bookkeeping -----------------------------------------

    def _label(self, obj, label) -> None:
        self._labels[id(obj)] = (obj, label)

    def _label_of(self, obj):
        entry = self._labels.get(id(obj))
        return entry[1] if entry is not None and entry[0] is obj else None

    def _after_run(self, args, kwargs, report, dt) -> None:
        # Labels hold their graphs and matrices; free them with the run.
        self._labels.clear()

    def _after_model_graph(self, args, kwargs, graph, dt) -> None:
        self._label(graph, "model")

    def _after_power_graph(self, args, kwargs, graph, dt) -> None:
        from powspec.group_core import SemidihedralType

        spec = args[0] if args else kwargs["spec"]
        self._label(graph, "true" if isinstance(spec, SemidihedralType) else "cyclic")

    def _after_matrix_of(self, args, kwargs, matrix, dt) -> None:
        graph = args[0] if args else kwargs["graph"]
        kind = args[1] if len(args) > 1 else kwargs["kind"]
        construction = self._label_of(graph)
        if construction is not None:
            self._label(matrix, f"{kind}.{construction}")

    def _after_charpoly(self, args, kwargs, poly, dt) -> None:
        matrix = args[0] if args else kwargs["m"]
        label = self._label_of(matrix)
        if label is not None:
            self.charpoly_by_matrix[label] += dt
        self.max_coeff_bits = max(self.max_coeff_bits, _max_bits(poly.coeffs))

    def _after_leverrier(self, args, kwargs, poly, dt) -> None:
        self.max_coeff_bits = max(self.max_coeff_bits, _max_bits(poly.coeffs))

    def _after_det(self, args, kwargs, det, dt) -> None:
        rows = args[0] if args else kwargs["rows"]
        self.bareiss_mults += bareiss_mults(len(rows))
        self.max_coeff_bits = max(self.max_coeff_bits, _max_bits((det,)))

    # -- totals across processes -------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "child_seconds": dict(self.child_seconds),
            "calls": dict(self.calls),
            "charpoly_by_matrix": dict(self.charpoly_by_matrix),
            "max_coeff_bits": self.max_coeff_bits,
            "bareiss_mults": self.bareiss_mults,
        }

    def merge(self, data: dict) -> None:
        for field in ("seconds", "child_seconds", "calls", "charpoly_by_matrix"):
            mine = getattr(self, field)
            for key, value in data[field].items():
                mine[key] += value
        self.max_coeff_bits = max(self.max_coeff_bits, data["max_coeff_bits"])
        self.bareiss_mults += data["bareiss_mults"]
