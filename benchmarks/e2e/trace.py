"""Outside-in tracing: timing wrappers around the product's public callables.

The product has no tracing of its own yet (ROADMAP item 2), so the traced
run installs wrappers *from here*, around the calls into each layer, looked
up by dotted name.  A name that no longer exists is reported in
``Tracer.missing`` and its metrics read ``None`` — a refactor of the product
must never crash the benchmark that judges it.

A span is ``(name, start, end, parent, op_id, count)``; spans of one root
call share ``op_id``.  A span's self time is its duration minus its direct
children's, so the self times of one op sum to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from statistics import median


def _rows(args):
    """Work counter: length of the first positional argument after ``self``."""
    return len(args[1]) if len(args) > 1 else 0


#: ``(module, class or None, attribute, span name, work counter or None)``.
#: Span names are ``<layer module>.<call>``; roots are the four entry points.
TARGETS = (
    ("repro.core.pipeline", "LoCEC", "fit", "root.fit", None),
    ("repro.core.pipeline", "LoCEC", "predict_edge_proba", "root.classify", None),
    ("repro.core.pipeline", "LoCEC", "apply_updates", "root.update", None),
    ("repro.serve", "ServingSession", "predict_proba", "root.query", None),
    # ``divide`` and ``labeled_communities`` as bound in the pipeline module.
    ("repro.core.pipeline", None, "divide", "core.division.divide", None),
    ("repro.core.pipeline", None, "labeled_communities", "core.labels.labeled_communities", None),
    ("repro.core.aggregation", "FeatureMatrixBuilder", "statistic_vectors",
     "core.aggregation.rows", _rows),
    ("repro.core.aggregation", "FeatureMatrixBuilder", "matrices_as_tensor",
     "core.aggregation.rows", _rows),
    ("repro.core.aggregation", "FeatureMatrixBuilder", "feature_matrices",
     "core.aggregation.rows", _rows),
    ("repro.core.aggregation", "FeatureMatrixBuilder", "patch_kernel",
     "core.aggregation.patch_kernel", None),
    ("repro.ml.gbdt", "GradientBoostedClassifier", "fit", "ml.gbdt.fit", _rows),
    ("repro.ml.gbdt", "GradientBoostedClassifier", "predict_proba", "ml.gbdt.predict", None),
    ("repro.ml.gbdt", "GradientBoostedClassifier", "leaf_values", "ml.gbdt.predict", None),
    ("repro.ml.nn.network", "NeuralNetworkClassifier", "fit", "ml.nn.fit", None),
    ("repro.ml.nn.network", "NeuralNetworkClassifier", "predict_proba", "ml.nn.predict", None),
    ("repro.core.community_classifier", "GBDTCommunityClassifier", "fit",
     "core.community_classifier.fit", None),
    ("repro.core.community_classifier", "GBDTCommunityClassifier", "result_vectors",
     "core.community_classifier.result_vectors", None),
    ("repro.core.community_classifier", "CNNCommunityClassifier", "fit",
     "core.community_classifier.fit", None),
    ("repro.core.community_classifier", "CNNCommunityClassifier", "result_vectors",
     "core.community_classifier.result_vectors", None),
    ("repro.core.combination", "EdgeLabeler", "fit", "core.combination.labeler_fit", None),
    ("repro.core.combination", "EdgeLabeler", "predict_proba",
     "core.combination.predict_proba", None),
    ("repro.core.combination", "EdgeFeatureBuilder", "edge_features",
     "core.combination.edge_features", None),
    ("repro.ml.logistic", "LogisticRegression", "fit", "ml.logistic.fit", None),
    ("repro.runtime.executor", "ShardedDivisionExecutor", "__init__",
     "runtime.executor.lifecycle", None),
    ("repro.runtime.executor", "ShardedDivisionExecutor", "close",
     "runtime.executor.lifecycle", None),
    ("repro.runtime.executor", "ShardedDivisionExecutor", "run", "runtime.executor.run", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int
    count: int | None
    tag: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``install`` / ``uninstall`` patch the product."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        """Dotted names of wrap targets that no longer exist."""
        self.installed: set[str] = set()
        self.tag: str | None = None
        """Set by the harness before a root call (``"warm"`` / ``"refit"``)."""
        self._stack: list[int] = []
        self._ops = 0
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, class_name, attribute, span_name, counter in self.targets:
            dotted = ".".join(part for part in (module_name, class_name, attribute) if part)
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.append(dotted)
                continue
            # ``vars`` keeps an inherited method distinguishable on uninstall.
            self._patched.append((owner, attribute, vars(owner).get(attribute)))
            setattr(owner, attribute, self._wrap(original, span_name, counter))
            self.installed.add(span_name)

    def uninstall(self) -> None:
        for owner, attribute, own in reversed(self._patched):
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
        self._patched.clear()

    def missing_names(self) -> set[str]:
        """Span names none of whose callables could be wrapped."""
        return {target[3] for target in self.targets} - self.installed

    def _wrap(self, original, span_name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                self._ops += 1
            index = len(spans)
            span = Span(
                span_name, 0.0, 0.0, parent, self._ops,
                counter(args) if counter is not None else None,
                self.tag if parent is None else None,
            )
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(vars(span)) + "\n")


# ------------------------------------------------------------------ analysis
def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    own = [span.seconds for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.seconds
    return own


class OpTable:
    """Spans grouped by root op, for per-op medians."""

    def __init__(self, tracer: Tracer) -> None:
        self.spans = tracer.spans
        self.self_seconds = self_times(self.spans)
        self.absent = tracer.missing_names()
        self.ops: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            self.ops.setdefault(span.op_id, []).append(index)

    def roots(self, name: str, tag: str | None = None) -> list[int]:
        return [
            members[0]
            for members in self.ops.values()
            if self.spans[members[0]].name == name
            and (tag is None or self.spans[members[0]].tag == tag)
        ]

    def per_op(self, root: str, names, field: str = "seconds", tag: str | None = None):
        """Median over ``root`` ops of the summed ``field`` of their ``names`` spans.

        ``field`` is ``"seconds"``, ``"self"`` or ``"count"``.  ``None`` when
        none of the names was installed or no such root op ran.
        """
        wanted = {names} if isinstance(names, str) else set(names)
        if wanted <= self.absent or root in self.absent:
            return None
        totals = []
        for root_index in self.roots(root, tag):
            total = 0.0
            for index in self.ops[self.spans[root_index].op_id]:
                span = self.spans[index]
                if span.name not in wanted:
                    continue
                if field == "seconds":
                    total += span.seconds
                elif field == "self":
                    total += self.self_seconds[index]
                else:
                    total += span.count or 0
            totals.append(total)
        return median(totals) if totals else None

    def root_median(self, root: str, field: str = "seconds", tag: str | None = None):
        if root in self.absent:
            return None
        indices = self.roots(root, tag)
        if not indices:
            return None
        if field == "self":
            return median(self.self_seconds[index] for index in indices)
        return median(self.spans[index].seconds for index in indices)
