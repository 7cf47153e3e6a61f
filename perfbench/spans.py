"""Span recorder for the traced pass, kept outside the exactgeom package.

Run as a script, it times one CLI invocation in process::

    python3 perfbench/spans.py SPANS_OUT.json verify-pencil24 --seed 1 --quiet

It wraps the public functions listed in ``LAYER_FUNCTIONS`` (in every
exactgeom module namespace that imported them, around the cached object for
``functools`` caches), calls ``exactgeom.cli.main(argv)`` and writes the
spans and counters as JSON when main returns.  Per-element arithmetic such
as ``FieldElement.__mul__`` is deliberately left unwrapped.

The functions at the bottom turn a span list into per-name calls, total
time and self time; they are imported by ``run.py`` and the tests.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute) pairs wrapped as spans named "<module>.<attribute>".
LAYER_FUNCTIONS = (
    ("cli", "check_intersection"),
    ("cli", "check_lines"),
    ("cli", "check_transversality"),
    ("cli", "check_pencil24"),
    ("cli", "check_quartic_fuzz"),
    ("pencil24", "random_pencil"),
    ("pencil24", "random_curve"),
    ("pencil24", "raw_resultant"),
    ("pencil24", "validate_member"),
    ("transversality", "resultant_R"),
    ("transversality", "smoothness_certificate"),
    ("lines", "enumerate_closure"),
    ("symprod", "product_and_eval"),
    ("quartic", "closure_square_witness"),
    ("quartic", "fuzz_square_criterion"),
    ("quartic", "disc_delta"),
    ("binform", "sylvester_resultant"),
    ("binform", "det_polynomial_matrix"),
    ("binform", "det_constant"),
    ("univar", "gcd"),
    ("univar", "ff_factor_squarefree"),
    ("zpoly", "zp_squarefree_part"),
    ("zpoly", "zp_factor_squarefree"),
)

# Spans whose durations should add up to the CLI's work.
CHECK_PREFIX = "cli.check_"


class SpanRecorder:
    """Spans as [name, start, end, parent index] lists, kept in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def wrap(self, func, name: str):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(index)

        return traced


def _exactgeom_modules() -> list:
    return [mod for key, mod in sorted(sys.modules.items()) if key.startswith("exactgeom")]


def install(recorder: SpanRecorder) -> None:
    """Patch the layer functions, the two class methods and the counters."""
    import exactgeom.cli as cli
    from exactgeom import domains, multipoly

    modules = _exactgeom_modules()
    replaced = {}
    for module_name, attr in LAYER_FUNCTIONS:
        original = getattr(sys.modules[f"exactgeom.{module_name}"], attr)
        traced = recorder.wrap(original, f"{module_name}.{attr}")
        replaced[original] = traced
        for module in modules:
            for key, value in vars(module).items():
                if value is original:
                    setattr(module, key, traced)
    # the subcommand table holds the check functions captured at import time
    for command, runners in cli.CHECK_RUNNERS.items():
        cli.CHECK_RUNNERS[command] = tuple(replaced.get(r, r) for r in runners)

    substitute = multipoly.MultiPoly.substitute
    multipoly.MultiPoly.substitute = recorder.wrap(substitute, "multipoly.substitute")

    sqrt = domains.FiniteField.sqrt

    def traced_sqrt(field, a):
        name = "domains.sqrt_ext" if isinstance(field, domains.ExtensionField) else "domains.sqrt_prime"
        index = recorder.open(name)
        try:
            return sqrt(field, a)
        finally:
            recorder.close(index)

    domains.FiniteField.sqrt = traced_sqrt

    init = domains.ExtensionField.__init__

    def counted_init(field, *args, **kwargs):
        init(field, *args, **kwargs)
        degree, level = 1, field
        while isinstance(level, domains.ExtensionField):
            degree *= level.degree
            level = level.base
        counters = recorder.counters
        counters["domains.extensions_built"] = counters.get("domains.extensions_built", 0) + 1
        counters["domains.max_ext_degree"] = max(counters.get("domains.max_ext_degree", 0), degree)

    domains.ExtensionField.__init__ = counted_init


def traced_main(argv: list[str], out_path: str) -> int:
    """Run the CLI in process with spans on; write them to ``out_path``."""
    import exactgeom.cli

    import_end = time.monotonic()
    recorder = SpanRecorder()
    install(recorder)
    code = exactgeom.cli.main(argv)
    main_end = time.monotonic()
    names = sorted({span[0] for span in recorder.spans})
    index = {name: i for i, name in enumerate(names)}
    document = {
        "exit_code": code,
        "import_end": import_end,
        "main_end": main_end,
        "counters": recorder.counters,
        "names": names,
        "spans": [[index[s[0]], s[1], s[2], s[3]] for s in recorder.spans],
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return code


def load_spans(document: dict) -> list[list]:
    names = document["names"]
    return [[names[s[0]], s[1], s[2], s[3]] for s in document["spans"]]


# --- aggregation ------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s and self_s.

    ``total_s`` counts only spans with no ancestor of the same name, so a
    recursive function is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        if name not in ancestor_names(spans, i):
            entry["total_s"] += end - start
    return out


def ancestor_names(spans: list[list], index: int) -> set[str]:
    names = set()
    parent = spans[index][3]
    while parent >= 0:
        names.add(spans[parent][0])
        parent = spans[parent][3]
    return names


def self_time_under(spans: list[list], name: str, ancestor: str) -> float:
    """Self time of the spans called ``name`` that run inside an ``ancestor`` span."""
    selfs = self_times(spans)
    return sum(
        selfs[i]
        for i, span in enumerate(spans)
        if span[0] == name and ancestor in ancestor_names(spans, i)
    )


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[2:], sys.argv[1]))
