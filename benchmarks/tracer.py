"""Per-layer tracing of hatilt from outside the package.

``Tracer.install()`` replaces each function named in ``TARGETS`` by a timing
wrapper, in every ``hatilt.*`` module namespace that bound it (``verify``
imports ``iso_test``, ``hom_dim`` and others by name, so patching only the
defining module would miss those calls) and inside the module-level claim
table ``verify.CLAIMS``.  Methods are patched on their class.

Every wrapped call counts towards ``calls`` and ``self_s`` of its function,
where self time is the call's duration minus the time covered by wrapped
callees.  Each call also keeps one span ``(function, start, end, parent)`` in
memory, except for the leaves in ``AGGREGATED``, which run 10^5 to 10^6
times per workload and are only counted.  ``write_spans`` writes the spans
out at the end of a run.

The tracer lives in the child process of one traced run and is never
uninstalled: the process exits when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer module -> traced functions ("Class.method" for methods)
TARGETS = {
    "exactmat": [
        "ExactMatrix.rref",
        "ExactMatrix.solve",
        "ExactMatrix.matmul",
        "ExactMatrix.nullspace",
    ],
    "fdalg": [
        "presentation_data",
        "FDAlgebra.radical_powers",
        "gabriel_quiver",
        "iso_test",
        "endo_algebra",
        "replicate",
        "trivial_ext_r",
    ],
    "complexes": [
        "minimal_proj_resolution",
        "realize_complex",
        "proj_replace",
        "minimize_complex",
        "derived_nakayama",
        "hom_complex_dim",
        "complexes_isomorphic",
        "gldim",
        "domdim",
        "endo_algebra_of_complexes",
    ],
    "quiveralg": [
        "build_auslander_algebra",
        "module_M",
        "direct_sum",
        "kernel_of_morphism",
        "hom_space",
    ],
    "cluster": [
        "hom_dim",
        "rigidity_check",
        "generation_certificate",
        "nu_orbit_decomposition",
    ],
    "pathcomb": ["enumerate_all", "relation_R", "preceq"],
    "verify": [
        "claim_dyck_count",
        "claim_orbit_normal_form",
        "claim_interleaving_agreement",
        "claim_rigidity",
        "claim_generation",
        "claim_nu_orbit_blocks",
        "claim_serre_symmetry",
        "claim_fcy_combinatorial",
        "claim_hom_agreement",
        "claim_endo_replicate",
        "claim_b0_presentation",
        "claim_idempotent_corner",
        "claim_gldim_a",
        "claim_gldim_b",
        "claim_gldim_b0",
        "claim_higher_auslander",
        "claim_two_subhomogeneous",
        "claim_preprojective",
        "claim_fcy_a",
    ],
}

# hot leaves (10^5 to 10^6 calls per workload): counted and timed, no spans
AGGREGATED = {
    "exactmat.matmul",
    "cluster.hom_dim",
    "pathcomb.preceq",
    "pathcomb.relation_R",
}


def metric_name(module, target):
    """``exactmat.rref`` for ``ExactMatrix.rref`` in ``exactmat``."""
    return f"{module}.{target.rsplit('.', 1)[-1]}"


FUNCTIONS = [metric_name(m, t) for m, targets in TARGETS.items() for t in targets]


def _module_fingerprint(M):
    """Content of a module: fiber dimensions and arrow matrices."""
    return (
        tuple(sorted(M.dims.items())),
        tuple((aid, tuple(map(tuple, m.data))) for aid, m in sorted(M.maps.items())),
    )


class Tracer:
    def __init__(self):
        self.names = list(FUNCTIONS)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.spans = []  # (function index, start, end, parent span index or -1)
        self.missing = []
        self.rref_cells = 0
        # presentation_data arguments, by identity (kept alive so ids stay unique)
        self._presented = {}
        # (algebra identity, module content) of every resolution request
        self._resolved = set()
        self._resolution_repeats = 0
        self._keep = []
        # child-time accumulator per open wrapped call; [0] collects top level
        self._child = [0.0]
        # time spent in the ratio hooks, which belongs to no layer
        self._hook_s = [0.0]
        self._open_spans = [-1]

    # -- hooks that measure ratios at the layer boundary ----------------------

    def _hook_rref(self, args, kwargs):
        m = args[0]
        self.rref_cells += m.rows * m.cols

    def _hook_presentation(self, args, kwargs):
        fd = args[0] if args else kwargs["fd"]
        self._presented.setdefault(id(fd), fd)

    def _hook_resolution(self, args, kwargs):
        alg = args[0] if args else kwargs["alg"]
        M = args[1] if len(args) > 1 else kwargs["M"]
        key = (id(alg), _module_fingerprint(M))
        if key in self._resolved:
            self._resolution_repeats += 1
        else:
            self._resolved.add(key)
            self._keep.append(alg)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fid, fn, hook):
        calls, self_s, spans = self.calls, self.self_s, self.spans
        child, open_spans, hook_s = self._child, self._open_spans, self._hook_s
        keep_span = self.names[fid] not in AGGREGATED
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                h0 = clock()
                hook(args, kwargs)
                # keep the hook out of the caller's self time; covered_s and
                # hook_s take it out of the wrapped time as well
                took = clock() - h0
                child[-1] += took
                hook_s[0] += took
            calls[fid] += 1
            child.append(0.0)
            if keep_span:
                idx = len(spans)
                spans.append(None)
                open_spans.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                self_s[fid] += dur - child.pop()
                child[-1] += dur
                if keep_span:
                    open_spans.pop()
                    spans[idx] = (fid, start, end, open_spans[-1])

        return wrapper

    def install(self):
        hooks = {
            "exactmat.rref": self._hook_rref,
            "fdalg.presentation_data": self._hook_presentation,
            "complexes.minimal_proj_resolution": self._hook_resolution,
        }
        for module in TARGETS:
            importlib.import_module(f"hatilt.{module}")
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "hatilt" or name.startswith("hatilt."))
        ]
        swap = {}  # id(original function) -> wrapper
        fid = 0
        for module, targets in TARGETS.items():
            home = sys.modules[f"hatilt.{module}"]
            for target in targets:
                name = self.names[fid]
                owner, attr = home, target
                if "." in target:
                    cls_name, attr = target.split(".")
                    owner = getattr(home, cls_name, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(name)
                else:
                    wrapper = self._wrap(fid, fn, hooks.get(name))
                    swap[id(fn)] = wrapper
                    if owner is not home:
                        setattr(owner, attr, wrapper)
                fid += 1
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in swap:
                    setattr(mod, key, swap[id(value)])
                elif isinstance(value, list):
                    value[:] = [_swap_item(item, swap) for item in value]
        return self

    # -- results ---------------------------------------------------------------

    def covered_s(self):
        """Time spent inside top-level wrapped calls, less the hook time."""
        return self._child[0] - self._hook_s[0]

    def hook_s(self):
        """Time spent in the hooks that measure the ratios."""
        return self._hook_s[0]

    def per_layer(self):
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[k]
            out[f"{name}.self_s"] = self.self_s[k]
        for layer in TARGETS:
            out[f"{layer}.self_s"] = sum(
                s for name, s in zip(self.names, self.self_s) if name.startswith(layer + ".")
            )
        pres_calls = self.calls[self.names.index("fdalg.presentation_data")]
        res_calls = self.calls[self.names.index("complexes.minimal_proj_resolution")]
        out["exactmat.rref.cells"] = self.rref_cells
        out["fdalg.presentation_data.repeat_ratio"] = (
            pres_calls / len(self._presented) if self._presented else 0.0
        )
        out["complexes.minimal_proj_resolution.repeat_share"] = (
            self._resolution_repeats / res_calls if res_calls else 0.0
        )
        return out

    def write_spans(self, path, t0):
        """One JSON header line with the function names, then one line per span:
        ``[function index, start_s, end_s, parent span index]``, with times
        relative to ``t0``, the start of the timed section."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"functions": self.names, "aggregated": sorted(AGGREGATED)}))
            fh.write("\n")
            for fid, start, end, parent in self.spans:
                fh.write(f"[{fid},{start - t0:.9f},{end - t0:.9f},{parent}]\n")


def _swap_item(item, swap):
    if id(item) in swap:
        return swap[id(item)]
    if isinstance(item, tuple) and any(id(x) in swap for x in item):
        return tuple(swap.get(id(x), x) for x in item)
    return item


def layer_metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for name in FUNCTIONS:
        names.append((f"{name}.calls", "count"))
        names.append((f"{name}.self_s", "s"))
    names += [(f"{layer}.self_s", "s") for layer in TARGETS]
    names += [
        ("exactmat.rref.cells", "count"),
        ("fdalg.presentation_data.repeat_ratio", "ratio"),
        ("complexes.minimal_proj_resolution.repeat_share", "share"),
    ]
    return names
