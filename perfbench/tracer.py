"""Outside-in per-layer attribution: monkeypatch spans around public entry points.

:class:`Tracer` wraps the public entry points of each ``repro``
subpackage with timing spans while it is installed, and puts every
original back on :meth:`Tracer.uninstall`.  Nothing under ``src/repro``
is edited or knows it is being traced.

Spans nest along the call stack.  A span's *self time* is its duration
minus the durations of its child spans, so the self times of one
process sum to the time covered by its outermost spans; whatever the
run spends outside every span is runner, executor and supervisor glue
(``core.runner.self_s``).  Three rules keep the attribution faithful:

* **Leaf layers are opaque.**  Inside a model fit or predict, an
  encoder call, a detector, a repair, a t-test or a save, every other
  wrapper passes straight through, so nested work is charged to the
  outermost call the caller asked for: a random forest's or AdaBoost's
  trees and XGBoost's gradient trees are ``ml.fit.random_forest`` /
  ``ml.fit.adaboost`` / ``ml.fit.xgboost`` time, never
  ``ml.fit.decision_tree`` fits, and a classifier a detector trains
  internally is detection time.
* **Same-kind nesting is one span.**  ``predict`` calling
  ``predict_proba``, ``RandomSearch.fit`` calling ``cross_val_score`` or
  ``fit_detect`` calling ``fit`` count one call, not two.
* **Tuning is a container.**  ``ml.tune`` spans (``cross_val_score``,
  ``RandomSearch.fit``, ``score_fold_candidates``) hold the fold fits and
  predicts as children, so ``ml.tune.self_s`` is the search's own glue.
  A fold workspace's ``predict_val(model)`` is one fit of that model on
  the fold; building or preparing a workspace is charged, uncounted, to
  the same model.

Legacy :class:`~repro.cleaning.base.CleaningMethod` subclasses that do
not go through Detector x Repair (composites, the KNN imputer) get a
container span too: its self time is charged to
``cleaning.detect_fit`` (``fit``) or ``cleaning.repair``
(``transform``), and it counts as a call only when no Detector or Repair
span ran inside it.

Worker processes inherit the installed wrappers through ``fork``.  The
first span a process records after a fork resets its totals and
registers a ``multiprocessing`` finalizer that writes them to
``<dump_dir>/<pid>.json`` when the worker exits, so a pooled run's layer
time is the busy time summed over workers (see :func:`read_worker_totals`).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, NamedTuple

#: marker attribute set on every wrapper (for the removal check)
MARK = "__perfbench_span__"

#: metric families reported as ``<family>.self_s`` / ``<family>.calls``;
#: the model list is fixed here, not read from the registry, because
#: ``BENCHMARK.json`` names one metric per model
MODEL_NAMES = (
    "logistic_regression",
    "knn",
    "decision_tree",
    "random_forest",
    "adaboost",
    "naive_bayes",
    "xgboost",
)
FAMILIES = (
    "table.split",
    "table.encode",
    "cleaning.detect_fit",
    "cleaning.detect_apply",
    "cleaning.repair",
    *(f"ml.fit.{name}" for name in MODEL_NAMES),
    "ml.predict",
    "ml.tune",
    "stats",
    "core.persist",
    "core.queries",
)


class Span(NamedTuple):
    """How one wrapped entry point is traced."""

    #: spans of one kind never nest: an inner call of the same kind is
    #: part of the outer span
    kind: str
    #: ``(args, kwargs) -> family`` the span's self time is charged to
    family: Callable
    #: no span opens inside an opaque one
    opaque: bool = True
    #: whether a call counts in ``<family>.calls``
    counted: bool = True
    #: a legacy cleaning method: counted only if no cleaning span ran inside
    legacy: bool = False


def _fixed(family: str) -> Callable:
    return lambda args, kwargs: family


class _Frame:
    """One open span on a process's stack."""

    __slots__ = ("span", "family", "start", "child_s", "saw_cleaning")

    def __init__(self, span: Span, family: str) -> None:
        self.span = span
        self.family = family
        self.child_s = 0.0
        self.saw_cleaning = False
        self.start = time.perf_counter()


class Tracer:
    """Per-process span stack and per-family ``[self_s, calls]`` totals."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = Path(dump_dir)
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.totals: dict[str, list] = {}
        #: summed duration of outermost spans (equals the summed self times)
        self.outer_s = 0.0
        self._stack: list[_Frame] = []

    def _this_process(self) -> "Tracer":
        if os.getpid() != self.pid:
            # a forked worker: drop the parent's totals, report at exit
            self._reset()
            mp_util.Finalize(None, self.dump, exitpriority=10)
        return self

    def dump(self) -> None:
        """Write this process's totals to ``<dump_dir>/<pid>.json``."""
        path = self.dump_dir / f"{self.pid}.json"
        path.write_text(json.dumps(self.totals))

    # -- spans ---------------------------------------------------------------

    def call(self, span: Span, original, args, kwargs):
        stack = self._this_process()._stack
        if stack and (stack[-1].span.opaque or stack[-1].span.kind == span.kind):
            return original(*args, **kwargs)
        frame = _Frame(span, span.family(args, kwargs))
        stack.append(frame)
        try:
            return original(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - frame.start
            stack.pop()
            entry = self.totals.setdefault(frame.family, [0.0, 0])
            entry[0] += elapsed - frame.child_s
            if span.counted and not (span.legacy and frame.saw_cleaning):
                entry[1] += 1
            if stack:
                parent = stack[-1]
                parent.child_s += elapsed
                if frame.family.startswith("cleaning."):
                    parent.saw_cleaning = True
            else:
                self.outer_s += elapsed

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point in :func:`targets`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._reset()
        try:
            for owner, attr, span in targets():
                if isinstance(owner, type):
                    self._patch(owner, attr, owner.__dict__[attr], span)
                    continue
                original = getattr(owner, attr)
                for module in _repro_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, span)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch(self, owner, attr, original, span: Span) -> None:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(span, original, args, kwargs)

        setattr(wrapper, MARK, span.kind)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# what gets wrapped


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _subclasses(cls) -> list[type]:
    seen, order = set(), []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        order.append(current)
        pending.extend(current.__subclasses__())
    return order


def _own_methods(classes, names):
    """``(cls, name)`` for each concrete function a class defines itself."""
    for cls in classes:
        for name in names:
            value = cls.__dict__.get(name)
            if inspect.isfunction(value) and not getattr(value, "__isabstractmethod__", False):
                yield cls, name


@functools.lru_cache(maxsize=None)
def model_name(cls: type) -> str:
    """The registry name of a classifier class (or of its nearest base)."""
    from repro.ml.registry import make_model

    registry = {type(make_model(name, 0)): name for name in MODEL_NAMES}
    for base in cls.__mro__:
        if base in registry:
            return registry[base]
    return "other"


def _fit_of_self(args, kwargs):
    return f"ml.fit.{model_name(type(args[0]))}"


def _fit_of_model_arg(args, kwargs):
    model = args[1] if len(args) > 1 else kwargs["model"]
    return f"ml.fit.{model_name(type(model))}"


def _fit_of_prepared(args, kwargs):
    models = list(args[1] if len(args) > 1 else kwargs["models"])
    return f"ml.fit.{model_name(type(models[0]))}" if models else "ml.fit.other"


def _wrapped_bases():
    """The base classes whose subclass trees hold wrapped methods."""
    from repro.cleaning.base import CleaningMethod, Detector, Repair
    from repro.ml.base import Classifier
    from repro.ml.cv_kernel import FoldWorkspace
    from repro.ml.model_selection import RandomSearch
    from repro.table.encode import FeatureEncoder

    return CleaningMethod, Detector, Repair, Classifier, FoldWorkspace, RandomSearch, FeatureEncoder


def targets() -> list[tuple[object, str, Span]]:
    """``(owner, attribute, span)`` for every wrapped entry point.

    Functions (owner is their defining module) are patched wherever a
    ``repro`` module binds them; methods are patched on each class that
    defines them.
    """
    import repro.core.persistence as persistence
    import repro.core.queries as queries
    import repro.ml.cv_kernel as cv_kernel
    import repro.ml.model_selection as model_selection
    import repro.stats.flags as flags
    import repro.stats.ttest as ttest
    import repro.table.split as split
    from repro.cleaning.base import ComposedCleaning, IdentityCleaning

    cleaning, detector, repair, classifier, workspace, search, encoder = _wrapped_bases()

    def leaf(family):
        return Span(family, _fixed(family))

    out = [
        (split, "train_test_split", leaf("table.split")),
        (persistence, "save_study", leaf("core.persist")),
        (ttest, "paired_t_test", leaf("stats")),
        (flags, "flags_with_fdr", leaf("stats")),
    ]
    queries_span = Span("core.queries", _fixed("core.queries"), opaque=False)
    for name in ("q1", "q2", "q3", "q4_detection", "q4_repair", "q5", "all_queries"):
        out.append((queries, name, queries_span))
    tune = Span("ml.tune", _fixed("ml.tune"), opaque=False)
    out.append((model_selection, "cross_val_score", tune))
    out.append((cv_kernel, "score_fold_candidates", tune))
    out.append((search, "fit", tune))
    out += [(cls, name, leaf("table.encode")) for cls, name in _own_methods([encoder], ("fit", "transform"))]

    detectors = _subclasses(detector)
    out += [(cls, name, leaf("cleaning.detect_fit")) for cls, name in _own_methods(detectors, ("fit", "fit_detect"))]
    out += [(cls, name, leaf("cleaning.detect_apply")) for cls, name in _own_methods(detectors, ("detect",))]
    out += [(cls, name, leaf("cleaning.repair")) for cls, name in _own_methods(_subclasses(repair), ("fit", "apply"))]
    legacy = [cls for cls in _subclasses(cleaning) if not issubclass(cls, (ComposedCleaning, IdentityCleaning))]
    for name, family in (("fit", "cleaning.detect_fit"), ("transform", "cleaning.repair")):
        span = Span("cleaning.legacy", _fixed(family), opaque=False, legacy=True)
        out += [(cls, attr, span) for cls, attr in _own_methods(legacy, (name,))]

    classifiers = _subclasses(classifier)
    out += [(cls, name, Span("ml.fit", _fit_of_self)) for cls, name in _own_methods(classifiers, ("fit",))]
    out += [
        (cls, name, Span("ml.fit", _fit_of_self, counted=False))
        for cls, name in _own_methods(classifiers, ("make_fold_workspace",))
    ]
    out += [(cls, name, leaf("ml.predict")) for cls, name in _own_methods(classifiers, ("predict", "predict_proba"))]
    workspaces = _subclasses(workspace)
    out += [(cls, name, Span("ml.fit", _fit_of_model_arg)) for cls, name in _own_methods(workspaces, ("predict_val",))]
    out += [
        (cls, name, Span("ml.fit", _fit_of_prepared, counted=False))
        for cls, name in _own_methods(workspaces, ("prepare",))
    ]
    return out


def installed_wrappers() -> list[str]:
    """Every wrapper still reachable from a ``repro`` module or a wrapped class."""
    found = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if hasattr(value, MARK) and not isinstance(value, type):
                found.append(f"{module.__name__}.{name}")
    for base in _wrapped_bases():
        for cls in _subclasses(base):
            for attr, member in vars(cls).items():
                if hasattr(member, MARK):
                    found.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
    return sorted(set(found))


def read_worker_totals(dump_dir: Path) -> list[dict]:
    """The per-worker totals written by forked workers' finalizers."""
    return [
        json.loads(path.read_text())
        for path in sorted(Path(dump_dir).glob("*.json"))
    ]


def merge_totals(parts) -> dict[str, list]:
    merged: dict[str, list] = {}
    for totals in parts:
        for family, (self_s, calls) in totals.items():
            entry = merged.setdefault(family, [0.0, 0])
            entry[0] += self_s
            entry[1] += calls
    return merged
