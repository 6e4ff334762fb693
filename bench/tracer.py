"""Spans around calls into ginv's public functions, recorded from outside.

A span is opened around each call of a traced function and closed when it
returns. A stage's self time is its spans' duration minus the part covered
by spans of other stages opened inside them. A call of a stage made while
a span of the same stage is open (say ``haar_unitary`` inside
``LocalUnitarySampler.sample``) is folded into the open span, so it is
neither counted nor timed twice.

Wrappers replace the function in its defining module, in every ginv module
that bound it by name (``from .tensor import expectation_copies``) and in
module-level dicts that hold it (``ENTANGLEMENT_MEASURES``). ``uninstall``
puts the originals back.
"""

import functools
import os
import sys
import time


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _observable_bytes(result):
    items = result if isinstance(result, tuple) else (result,)
    return sum(x.matrix.nbytes for x in items if hasattr(x, "matrix"))


def _constraint_bytes(args, kwargs):
    """trials x (d^k)^4 x 16: the constraint blocks the stacked SVD folds."""
    from ginv import groups

    group, k = args[0], _arg(args, kwargs, 1, "k")
    if isinstance(group, groups.SymmetricSampler):
        count = max(1, group.n - 1)
    elif isinstance(group, groups.GroupSampler):
        count = _arg(args, kwargs, 2, "n_samples", 20)
    else:
        count = len(group)
    d = group.dim if isinstance(group, groups.GroupSampler) else len(group[0])
    return count * (d**k) ** 4 * 16


def targets():
    """(stage, owner, attribute, amounts) for every traced function.

    ``amounts(args, kwargs, result)`` returns extra per-call totals of the
    stage, such as computed bytes.
    """
    from ginv import analysis, cli, datasets, groups, models, observables, tensor, train

    out = []

    def add(stage, owner, names, amounts=None):
        out.extend((stage, owner, name, amounts) for name in names.split())

    add("groups.sample", groups, "haar_unitary haar_orthogonal")
    for cls in (groups.UnitarySampler, groups.OrthogonalSampler,
                groups.LocalUnitarySampler, groups.SymmetricSampler):
        add("groups.sample", cls, "sample")
    add("groups.commutant_analysis", groups, "commutant_analysis",
        lambda a, kw, r: {"constraint_bytes": _constraint_bytes(a, kw)})
    add("tensor.expectation_copies", tensor, "expectation_copies",
        lambda a, kw, r: {"obs_bytes": _arg(a, kw, 2, "obs").nbytes})
    add("tensor.partial_trace", tensor, "partial_trace")
    add("tensor.tensor_power", tensor, "tensor_power",
        lambda a, kw, r: {"bytes": r.nbytes})
    add("tensor.expm_hermitian", tensor, "expm_hermitian")
    add("tensor.is_unitary", tensor, "is_unitary")
    add("models.evaluate", models, "evaluate")
    add("models.conjugated_observable", models, "conjugated_observable")
    add("models.estimate_with_shots", models, "estimate_with_shots",
        lambda a, kw, r: {"shots": _arg(a, kw, 2, "shots")})
    add("observables.build", observables,
        "swap_operator swap_j bell_projector impurity_observable "
        "meyer_wallach_observable concentratable_observable ntangle_observable "
        "pauli_string hermitize entanglement_observable",
        lambda a, kw, r: {"bytes": _observable_bytes(r)})
    add("observables.oracle", observables,
        "impurity_oracle meyer_wallach_oracle concentratable_oracle ntangle_oracle")
    add("datasets.generate", datasets,
        "purity_dataset time_reversal_state_dataset time_reversal_dynamics_dataset "
        "entanglement_dataset graph_dataset",
        lambda a, kw, r: {"items": len(r)})
    add("datasets.graph_state", datasets, "graph_state")
    add("analysis.empirical_moments", analysis, "empirical_moments",
        lambda a, kw, r: {"samples": _arg(a, kw, 3, "samples")})
    add("analysis.classify", analysis, "classify",
        lambda a, kw, r: {"items": len(_arg(a, kw, 0, "dataset"))})
    add("analysis.concentration_experiment", analysis, "concentration_experiment")
    add("train.optimize", train, "optimize")
    add("cli.validate_config", cli, "validate_config")
    add("cli.write_result", cli, "write_result",
        lambda a, kw, r: {"bytes": os.path.getsize(_arg(a, kw, 1, "path"))})
    return out


class Stage:
    __slots__ = ("calls", "self_s", "amounts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.amounts = {}


class Tracer:
    """Per-stage call counts, self times and amounts for one process."""

    def __init__(self):
        self._open = []  # child-time accumulators of the open spans
        self._depth = {}
        self._patches = []
        self.reset()

    def reset(self):
        self.stages = {}
        self.top_s = 0.0  # time inside outermost spans
        self.loss_evals = 0
        self.dressings = 0
        self._dressed = set()
        self._dressed_models = []  # keeps ids in _dressed valid

    def _wrap(self, stage, fn, amounts):
        depth = self._depth
        depth.setdefault(stage, 0)
        opened = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth[stage]:
                return fn(*args, **kwargs)
            depth[stage] = 1
            opened.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = opened.pop()
                depth[stage] = 0
                st = self.stages.get(stage)
                if st is None:
                    st = self.stages[stage] = Stage()
                st.calls += 1
                st.self_s += elapsed - child
                if opened:
                    opened[-1] += elapsed
                else:
                    self.top_s += elapsed
            if amounts is not None:
                for key, value in amounts(args, kwargs, result).items():
                    st.amounts[key] = st.amounts.get(key, 0) + value
            if stage == "models.conjugated_observable":
                self._count_dressing(args, kwargs, result)
            return result

        traced.__wrapped_by_bench__ = True
        return traced

    def _count_dressing(self, args, kwargs, result):
        model = args[0]
        if result is model.observable:  # identity ansatz: nothing formed
            return
        self.dressings += 1
        import numpy as np

        theta = _arg(args, kwargs, 1, "theta")
        key = (id(model), None if theta is None else np.asarray(theta, float).tobytes())
        if key not in self._dressed:
            self._dressed.add(key)
            self._dressed_models.append(model)

    def _counter(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.loss_evals += 1
            return fn(*args, **kwargs)

        counted.__wrapped_by_bench__ = True
        return counted

    def install(self):
        """Wrap every target function wherever ginv holds a reference to it."""
        from ginv import train

        found = targets()
        wraps = [
            (getattr(owner, name), self._wrap(stage, getattr(owner, name), amounts))
            for stage, owner, name, amounts in found
        ]
        wraps.append((train.dataset_loss, self._counter(train.dataset_loss)))
        spaces = [
            m for name, m in sys.modules.items()
            if name == "ginv" or name.startswith("ginv.")
        ]
        spaces += list({owner for _, owner, _, _ in found if isinstance(owner, type)})
        for original, wrapped in wraps:
            self._rebind(original, wrapped, spaces)

    def _rebind(self, original, wrapped, spaces):
        for space in spaces:
            for key, value in list(vars(space).items()):
                if value is original:
                    setattr(space, key, wrapped)
                    self._patches.append((space, key, original, "attr"))
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapped
                            self._patches.append((value, k, original, "item"))

    def uninstall(self):
        for owner, key, original, kind in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._patches = []

    def snapshot(self):
        """Flat {metric: value} of the stages since the last reset."""
        out = {}
        for stage, st in self.stages.items():
            out[f"{stage}.calls"] = st.calls
            out[f"{stage}.s"] = st.self_s
            for key, value in st.amounts.items():
                out[f"{stage}.{key}"] = value
        out["models.dressings"] = self.dressings
        out["models.dressing_reuse"] = (
            len(self._dressed) / self.dressings if self.dressings else 0.0
        )
        out["train.loss_evals"] = self.loss_evals
        out["traced_s"] = self.top_s
        return out
