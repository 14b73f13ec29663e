"""Layer spans recorded from outside the program, for the traced run.

``Tracer.install`` wraps every public function of each layer module of
``markov_poisson`` at every place it is bound: the defining module, each
module that imported the name (``cli.canonical_solution``,
``split.stationary``, ...), the package namespace, and the few public
methods named in ``METHODS``. scipy's ``lu_factor`` and ``lu_solve`` count
as ``split`` functions. Per-cycle and per-step sampler code is left alone,
since a span per step would cost more than the step.

A span holds an id, the id of the span that caused it, its layer and
function, start and end times, the ToolkitError code it raised (if any)
and one observed quantity. Spans stay in memory until the run ends. A
layer's self time is its spans' durations minus the time their child
spans cover, so within one op the self times add up to the op's span.
``uninstall`` puts every original back; timed runs never see a wrapper.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

PACKAGE = "markov_poisson"
LAYERS = ("cli", "specfile", "chain", "certify", "split", "bounds", "potential", "mc", "gig1")

#: foreign functions that count as calls into a layer
FOREIGN = {"split": ("lu_factor", "lu_solve")}
#: public methods wrapped in place on their class
METHODS = {
    "certify": (("SmallSetCertificate", "verify"),),
    "bounds": (("BoundReport", "as_dict"),),
    "gig1": (("GIG1Model", "pv1"), ("GIG1Model", "drift_margin")),
}
#: functions that run once per simulated cycle
PER_CYCLE = {"mc": ("simulate_cycle", "cycle_stream")}


def _observe_len(args, kwargs, result):
    return len(result)


def _observe_blocks(args, kwargs, result):
    p = args[2] if len(args) > 2 else kwargs["p"]
    return (result.terms, result.terms * p)


def _observe_cycles(args, kwargs, result):
    return (len(result[1]), int(result[1].sum()))


#: (layer, function) -> what to keep from a call: the quantity a per-layer
#: count is made of
OBSERVE = {
    ("specfile", "dumps_canonical"): _observe_len,
    ("potential", "truncated_potential"): _observe_blocks,
    ("mc", "run_cycles"): _observe_cycles,
    ("gig1", "pv1"): _observe_len,
}

# span fields
ID, PARENT, LAYER, NAME, T0, T1, ERROR, ORIGIN, SEEN = range(9)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._last_error = None

    # ------------------------------------------------------------ patching

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVE.get((layer, name))
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            # a recursive call (dumps_canonical) is not a layer boundary
            if stack and stack[-1][1] is traced:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1][0] if stack else -1, layer, name, clock(), 0.0,
                    None, False, None]
            spans.append(span)
            stack.append((span[ID], traced))
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span[ERROR] = getattr(err, "code", type(err).__name__)
                span[ORIGIN] = err is not tracer._last_error
                tracer._last_error = err
                if name == "run_cycles" and hasattr(err, "steps"):
                    # MaxStepsExceeded carries the budget the failed cycle used up
                    span[SEEN] = (0, int(err.steps))
                raise
            finally:
                span[T1] = clock()
                stack.pop()
            if observe is not None:
                span[SEEN] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every public layer function wherever the package binds it."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not n.startswith("_") and n not in PER_CYCLE.get(layer, ())]
            for name in names + list(FOREIGN.get(layer, ())):
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._set(cls, meth, fn, self._wrap(layer, meth, fn))
        owners = list(modules.values()) + [importlib.import_module(PACKAGE)]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(owner, attr, obj, hit[1])

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list:
        """Self time of every span: its duration minus its children's."""
        own = [s[T1] - s[T0] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[T1] - s[T0]
        return own

    def roots(self) -> list:
        return [s for s in self.spans if s[PARENT] < 0]

    def root_of(self) -> list:
        """Index of the root span (the op) each span belongs to."""
        root = [0] * len(self.spans)
        for s in self.spans:  # parents always precede children
            root[s[ID]] = s[ID] if s[PARENT] < 0 else root[s[PARENT]]
        return root

    def dump(self, path, op_labels: dict):
        """Write the spans as JSON lines; ``op_labels`` maps root id to op."""
        root = self.root_of()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "op": op_labels.get(root[s[ID]]),
                    "layer": s[LAYER], "name": s[NAME], "start": s[T0], "end": s[T1],
                    "error": s[ERROR], "error_origin": s[ORIGIN], "observed": s[SEEN],
                }) + "\n")


def layer_metrics(tracer: Tracer, passes: int, op_speeds: list):
    """Per-layer metrics per pass from the spans of ``passes`` traced passes.

    ``op_speeds[k]`` multiplies the time of every span of the k-th op (the
    k-th root span). Returns {name: (value, unit)} and the count of errors
    by "layer:code", each error counted at the span where it was raised.
    """
    spans = tracer.spans
    root = tracer.root_of()
    factor = {r[ID]: f for r, f in zip(tracer.roots(), op_speeds)}
    own = [t * factor[root[i]] for i, t in enumerate(tracer.self_times())]
    incl = defaultdict(float)
    calls = defaultdict(int)
    seen = defaultdict(list)
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    layer_errors = defaultdict(int)
    errors_by_code = defaultdict(int)
    solve_factor = 0
    solve_roots = {s[ID] for s in spans if s[NAME] == "cmd_solve"}
    solve_roots = {root[i] for i in solve_roots}
    for s in spans:
        key = (s[LAYER], s[NAME])
        incl[key] += (s[T1] - s[T0]) * factor[root[s[ID]]]
        calls[key] += 1
        if s[SEEN] is not None:
            seen[key].append(s[SEEN])
        layer_self[s[LAYER]] += own[s[ID]]
        layer_calls[s[LAYER]] += 1
        if s[ERROR] is not None and s[ORIGIN]:
            layer_errors[s[LAYER]] += 1
            errors_by_code[f"{s[LAYER]}:{s[ERROR]}"] += 1
        if key == ("split", "lu_factor") and root[s[ID]] in solve_roots:
            solve_factor += 1

    def per_pass(x):
        return x / passes

    run_cycles_s = incl[("mc", "run_cycles")]
    cycles = sum(c for c, _ in seen[("mc", "run_cycles")])
    steps = sum(st for _, st in seen[("mc", "run_cycles")])
    tp_s = incl[("potential", "truncated_potential")]
    blocks = sum(b for b, _ in seen[("potential", "truncated_potential")])
    matvecs = sum(mv for _, mv in seen[("potential", "truncated_potential")])
    m = {
        "specfile.dump_s": (per_pass(incl[("specfile", "dumps_canonical")]), "s"),
        "specfile.report_bytes": (per_pass(sum(seen[("specfile", "dumps_canonical")])), "bytes"),
        "specfile.parse_s": (per_pass(incl[("specfile", "parse_chain_spec")]), "s"),
        "split.lu_factor_calls": (per_pass(calls[("split", "lu_factor")]), "count"),
        "split.lu_factor_s": (per_pass(incl[("split", "lu_factor")]), "s"),
        "split.lu_solve_calls": (per_pass(calls[("split", "lu_solve")]), "count"),
        # the wasted-work ratio: one factorization per solve op would do
        "split.lu_factor_per_solve": (
            solve_factor / len(solve_roots) if solve_roots else 0.0, "count"),
    }
    for fn in ("canonical_solution", "occupation_measure", "cycle_values", "marginal_curve"):
        m[f"split.{fn}_s"] = (per_pass(incl[("split", fn)]), "s")
    m.update({
        "chain.stationary_calls": (per_pass(calls[("chain", "stationary")]), "count"),
        "chain.kernel_powers_calls": (per_pass(calls[("chain", "kernel_powers")]), "count"),
        "chain.kernel_powers_s": (per_pass(incl[("chain", "kernel_powers")]), "s"),
        "chain.cyclic_decomposition_s": (per_pass(incl[("chain", "cyclic_decomposition")]), "s"),
        "chain.validate_s": (per_pass(incl[("chain", "validate_chain")]), "s"),
        "certify.verify_bundle_s": (per_pass(incl[("certify", "verify_bundle")]), "s"),
        "certify.minorize_s": (per_pass(incl[("certify", "minorize")]), "s"),
        "certify.verify_drift_calls": (per_pass(calls[("certify", "verify_drift")]), "count"),
        "certify.kernel_power_calls": (per_pass(calls[("chain", "kernel_power")]), "count"),
        "potential.truncated_potential_s": (per_pass(tp_s), "s"),
        "potential.blocks": (per_pass(blocks), "count"),
        "potential.matvecs_per_s": (matvecs / tp_s if tp_s else 0.0, "1/s"),
        "mc.run_cycles_s": (per_pass(run_cycles_s), "s"),
        "mc.cycles": (per_pass(cycles), "count"),
        "mc.steps": (per_pass(steps), "count"),
        "mc.steps_per_s": (steps / run_cycles_s if run_cycles_s else 0.0, "1/s"),
        "mc.max_steps_exceeded": (per_pass(errors_by_code.get("mc:max-steps-exceeded", 0)), "count"),
        "gig1.build_certificate_s": (per_pass(incl[("gig1", "build_certificate")]), "s"),
        "gig1.find_x0_s": (per_pass(incl[("gig1", "find_x0")]), "s"),
        "gig1.pv1_s": (per_pass(incl[("gig1", "pv1")]), "s"),
        "gig1.pv1_points": (per_pass(sum(seen[("gig1", "pv1")])), "count"),
        "gig1.mc_validate_s": (per_pass(incl[("gig1", "mc_validate")]), "s"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per_pass(layer_self[layer]), "s")
        m[f"{layer}.calls"] = (per_pass(layer_calls[layer]), "count")
        m[f"{layer}.errors"] = (per_pass(layer_errors[layer]), "count")
    return m, dict(errors_by_code)
