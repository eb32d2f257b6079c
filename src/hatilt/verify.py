"""Named verification claims and the orchestration pipeline.

Each claim is a pure function of (d, n) and a budget configuration; it
returns a measured value and a pass verdict.  The pipeline runs claims in
declared order, times them, and assembles a deterministic report (apart
from the wall-clock ``ms`` fields).  Budget exhaustion marks a claim as
skipped rather than failed, and so do an isomorphism search that can
neither find nor rule out an isomorphism and a claim that degenerates on
the model.  Any other exception a claim raises marks it ``error`` with the
exception type and message as its reason, and the remaining claims still
run.
"""

from __future__ import annotations

import copy
import math
import time
from collections import Counter
from dataclasses import dataclass, fields

from .cluster import (
    ShiftedModule,
    _hom_rule,
    _labels,
    generation_certificate,
    nakayama,
    nu_orbit_decomposition,
    rigidity_check,
    serre_symmetry_check,
    tilting_summands,
)
from .complexes import (
    domdim,
    fcy_object_check,
    gldim,
    hom_complex_dims,
    projective_injective_vertices,
    shifted_module_complex,
    two_subhomogeneous_check,
    endo_algebra_of_complexes,
)
from .fdalg import (
    IsoInconclusive,
    corner_vanishes,
    idempotent_subalgebra,
    iso_test,
    presentation_data,
    replicate,
    trivial_ext_r,
)
from .pathcomb import (
    coords,
    dyck_rotations,
    enumerate_all,
    enumerate_dyck,
    heights_up_box,
    interleaving_up_box,
)
from .quiveralg import (
    BudgetError,
    build_auslander_algebra,
    module_M,
    vertex_of_entries,
)


class SkipClaim(Exception):
    """A claim that has nothing to check on this model; reported as skipped."""


@dataclass(frozen=True)
class VerifyConfig:
    max_resolution_length: int | None = None  # defaults to n d + 2 per model
    max_algebra_dim: int = 40_000
    iso_budget: int = 2_000_000

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None and field.name == "max_resolution_length":
                continue
            # bool is a subclass of int, but True is no budget
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"budget {field.name} must be an integer >= 1, got {value!r}")

    def resolution_length(self, d, n):
        if self.max_resolution_length is None:
            return n * d + 2
        return self.max_resolution_length

    def echo(self, d, n):
        return {
            "max_resolution_length": self.resolution_length(d, n),
            "max_algebra_dim": self.max_algebra_dim,
            "iso_budget": self.iso_budget,
        }


class ModelData:
    """Shared constructions for one coprime (d, n), built lazily.

    B0 = End_A(P), for P the sum of the projectives P_x of A at the Dyck
    vertices, is built as the Dyck corner e A e, e the sum of their
    idempotents, with vertex k at the k-th Dyck path.  By Yoneda, a map of
    right modules P_x = e_x A -> P_y = e_y A is left multiplication by the
    image of e_x, an element of e_y A e_x, and composing maps multiplies
    those elements.  So a basis element x -> y of the corner, which lies in
    e_y A e_x, is a map P_x -> P_y, the orientation in which
    ``endo_algebra_of_complexes`` puts a map X_j -> X_i in e_i End e_j.

    Everything but Lambda and Pi is built at most once per model, and so are
    the global dimensions of A, B0 and B and the presentation of B0, which
    ``b0_presentation`` asks ``presentation`` for.  The claims resolve over
    the algebras built here, not over presentations of them: B0 feeds
    ``gldim_B0``, and B feeds ``gldim_B``, ``two_subhomogeneous`` and, through
    ``gldim_lambda``, ``higher_auslander``, so B stays alive for the rest of
    the run.  Lambda and Pi are built afresh on each call: each has one
    consumer per run, and keeping them would only raise the peak memory.
    The isomorphism End(T) = B is searched once and feeds ``endo_replicate``
    and ``preprojective``.

    Every algebra built here counts against ``max_algebra_dim``, and so does
    every presentation: it rebuilds the dimension it presents or fails.  A
    build that raised is not repeated: later calls raise a copy of its
    exception.
    """

    def __init__(self, d, n, config: VerifyConfig):
        if math.gcd(n, d) != 1:
            raise ValueError(f"gcd(n, d) must be 1, got n={n}, d={d}")
        self.d = d
        self.n = n
        self.config = config
        self.max_len = config.resolution_length(d, n)
        self._built = {}

    def _memo(self, key, builder):
        if key not in self._built:
            try:
                self._built[key] = builder()
            except Exception as exc:
                # a copy, never raised, holds no traceback and so no frame
                # that holds the model
                self._built[key] = copy.copy(exc)
                raise
        value = self._built[key]
        if isinstance(value, Exception):
            raise copy.copy(value)
        return value

    def _bounded(self, name, alg):
        limit = self.config.max_algebra_dim
        if alg.dim > limit:
            raise BudgetError(f"{name} has dimension {alg.dim}, above max_algebra_dim {limit}")
        return alg

    def algebra(self):
        return self._memo(
            "algebra",
            lambda: build_auslander_algebra(
                self.n + 1, self.d, max_dim=self.config.max_algebra_dim
            ),
        )

    def dyck(self):
        return self._memo("dyck", lambda: enumerate_dyck(self.d, self.n))

    def dyck_vertices(self):
        alg = self.algebra()
        return self._memo(
            "dyck_vertices",
            lambda: [vertex_of_entries(alg, coords(p).entries) for p in self.dyck()],
        )

    def b0(self):
        b0 = self._memo(
            "b0", lambda: idempotent_subalgebra(self.algebra(), self.dyck_vertices())
        )
        return self._bounded("B0", b0)

    def b_replicated(self):
        return self._bounded("B", self._memo("b", lambda: replicate(self.b0(), self.n + self.d)))

    def lam(self):
        return self._bounded("Lambda", replicate(self.b0(), self.n + self.d + 1))

    def pi(self):
        return self._bounded("Pi", trivial_ext_r(self.b0(), self.n + self.d))

    def named(self, name):
        """The algebra that ``hatilt quiver --algebra name`` exports, for
        every name but A, which needs no coprime model."""
        # Pi and Tr are the two sides of the preprojective comparison: the
        # (nd+1)-preprojective algebra of B equals the (n+d)-fold trivial
        # extension of B0, so both export the same presentation
        builders = {"B0": self.b0, "B": self.b_replicated, "Lambda": self.lam, "Pi": self.pi}
        return builders["Pi" if name == "Tr" else name]()

    def presentation(self, name):
        return self._memo(("presentation", name), lambda: presentation_data(self.named(name)))

    def gldim(self, name):
        def build():
            alg = self.algebra() if name == "A" else self.named(name)
            return gldim(alg, max_len=self.max_len)

        return self._memo(("gldim", name), build)

    def gldim_lambda(self, lam):
        """gldim of ``lam``, this model's Lambda, from gldim B and the
        simples of Lambda's layer 0.

        Lambda = replicate(B0, n+d+1) has n+d+1 layers of k = #Dyck paths
        vertices, layer t on the vertices t k, ..., t k + k - 1, and its
        bond t lies in e_x Lambda e_y for x in layer t and y in layer t+1.
        So P_v = e_v Lambda of a vertex v in layer t >= 1 lives on layers t
        and t+1: the layers U >= 1 hold the support of their projectives,
        e_U Lambda (1 - e_U) = 0.  Then the ideal generated by 1 - e_U meets
        the corner e_U Lambda e_U in zero, every P_v with v in U is a
        projective over the quotient e_U Lambda e_U, and the minimal
        resolution of a simple S_v, v in U, is its resolution over that
        corner.  The corner is layers 1 to n+d with bonds 1 to n+d-1, B =
        replicate(B0, n+d) translated by k, so pd S_v = pd_B S_{v-k} and
        gldim Lambda = max(pd of the k layer-0 simples, gldim B).  Layer 0
        is resolved first, as ``gldim`` would: a resolution over the budget
        there names the same simple.
        """
        k = len(self.dyck())
        return max(gldim(lam, max_len=self.max_len, vertices=range(k)), self.gldim("B"))

    def tilting_complexes(self):
        def build():
            alg = self.algebra()
            out = []
            for u in tilting_summands(self.d, self.n):
                m = module_M(alg, coords(u.path))
                out.append(shifted_module_complex(alg, m, self.d * u.shift, max_len=self.max_len))
            return out

        return self._memo("tilting_complexes", build)

    def end_t(self):
        end_t = self._memo("end_t", lambda: endo_algebra_of_complexes(self.tilting_complexes()))
        return self._bounded("End(T)", end_t)

    def end_t_iso(self):
        """The isomorphism End(T) -> B, or None if there is none."""
        budget = self.config.iso_budget
        return self._memo(
            "end_t_iso", lambda: iso_test(self.end_t(), self.b_replicated(), budget=budget)
        )


# -- claims -------------------------------------------------------------------


def claim_dyck_count(model: ModelData):
    d, n = model.d, model.n
    count = len(model.dyck())
    expected = math.comb(d + n, d) // (d + n)
    return count == expected, {"count": count, "expected": expected}


def claim_orbit_normal_form(model: ModelData):
    d, n = model.d, model.n
    for p in enumerate_all(d, n):
        hits = len(dyck_rotations(p))
        if hits != 1:
            return False, {"path": p.steps, "dyck_rotations": hits}
    return True, {"paths": math.comb(d + n, d)}


def claim_interleaving_agreement(model: ModelData):
    d, n = model.d, model.n
    # relation R on column heights against preceq on coordinates, as the
    # up-sets of each path: bitmasks over the paths, listed from their boxes
    paths = enumerate_all(d, n)
    heights = [p.column_heights() for p in paths]
    entries = [coords(p).entries for p in paths]
    by_heights = {h: 1 << j for j, h in enumerate(heights)}
    by_entries = {x: 1 << j for j, x in enumerate(entries)}
    for r, (h, x) in enumerate(zip(heights, entries)):
        related = sum(by_heights[h2] for h2 in heights_up_box(h, n))
        above = sum(by_entries[y] for y in interleaving_up_box(x, n + d))
        diff = related ^ above
        if diff:
            # the pairs a row-major pass would have read up to this mismatch
            return False, {"pairs": r * len(paths) + (diff & -diff).bit_length()}
    return True, {"pairs": len(paths) ** 2}


def claim_rigidity(model: ModelData):
    report = rigidity_check(model.d, model.n)
    return report.passed, {"end_dim": report.end_dim, "violations": len(report.violations)}


def claim_generation(model: ModelData):
    try:
        cert = generation_certificate(model.d, model.n)
    except RuntimeError as exc:  # the certificate failed its validation
        return False, {"reason": str(exc)}
    resolved = sum(1 for e in cert.entries if e.status == "resolved")
    return True, {
        "entries": len(cert.entries),
        "resolved": resolved,
        "injective_labels": len(cert.injective_labels),
    }


def claim_nu_orbit_blocks(model: ModelData):
    d, n = model.d, model.n
    # slice i of the i-major summand list is the i-th twist of the base
    summands, k = tilting_summands(d, n), len(model.dyck())
    for i in range(1, n + d + 1):
        blocks = nu_orbit_decomposition(d, n, i)
        direct = Counter(summands[(i - 1) * k : i * k])
        if Counter(x for b in blocks.values() for x in b) != direct:
            return False, {"i": i}
    return True, {"slices": n + d}


def claim_serre_symmetry(model: ModelData):
    witness = serre_symmetry_check(model.d, model.n)
    if witness is None:
        return True, {"pairs": (len(model.dyck()) * (model.n + model.d)) ** 2}
    u, v = witness
    return False, {"pair": (u.path.steps, u.shift, v.path.steps, v.shift)}


def claim_fcy_combinatorial(model: ModelData):
    """(p, 0) twisted n+d+1 times is (p, n), for every p in L_{d+1,n}.

    The shift bump of ``nakayama`` depends only on the path, so along a walk
    u_0, u_1, ... the (n+d+1)-fold twist of (u_j's path, 0) is u_{j+n+d+1}
    less u_j's shift.  Each rotation orbit (short when gcd(d+1, n) > 1) is
    walked once, until u_{j+n+d+1} is read for every j before p recurs."""
    d, n = model.d, model.n
    size = n + d + 1
    paths = enumerate_all(d + 1, n)
    twisted = {}
    for p in paths:
        if p not in twisted:
            walk = [ShiftedModule(p, 0)]
            while len(walk) <= size or walk[len(walk) - size].path != p:
                walk.append(nakayama(walk[-1]))
            for u, v in zip(walk, walk[size:]):
                twisted[u.path] = ShiftedModule(v.path, v.shift - u.shift)
    for p in paths:  # in enumeration order, so a fail names the first path
        if twisted[p] != ShiftedModule(p, n):
            return False, {"path": p.steps}
    return True, {"objects": math.comb(d + n + 1, d + 1)}


def claim_hom_agreement(model: ModelData):
    d, n = model.d, model.n
    summands = tilting_summands(d, n)
    labels = [_labels(u) for u in summands]
    complexes = model.tilting_complexes()
    window = range(-2 * (d + 1), 2 * (d + 1) + 1)
    checked = 0
    for u, a, X in zip(summands, labels, complexes):
        for v, b, Y in zip(summands, labels, complexes):
            for k, dim in zip(window, hom_complex_dims(X, Y, window)):
                # Y[k] is v shifted by k // d units of [d] when d divides k
                comb = _hom_rule(a, (b[0] + k // d,) + b[1:]) if k % d == 0 else 0
                if dim != comb:
                    return False, {"pair": (u.path.steps, v.path.steps, k)}
                checked += 1
    return True, {"checked": checked}


def claim_endo_replicate(model: ModelData):
    B = model.end_t()
    return model.end_t_iso() is not None, {"dim": B.dim, "vertices": B.nidem}


def claim_b0_presentation(model: ModelData):
    b0 = model.b0()
    try:
        data = model.presentation("B0")
    except ValueError as exc:  # e.g. the rebuilt algebra has the wrong dimension
        return False, {"reason": str(exc)}
    value = {
        "vertices": len(data.quiver.vertices),
        "arrows": len(data.quiver.arrows),
        "relations": len(data.relations),
        "dimension": b0.dim,
    }
    if iso_test(data.algebra, b0, budget=model.config.iso_budget) is None:
        return False, {**value, "reason": "the presented algebra is not isomorphic to B0"}
    return True, value


def claim_idempotent_corner(model: ModelData):
    d, n = model.d, model.n
    s = -(-d // n)
    if d == s:
        raise SkipClaim(f"the smaller Auslander algebra degenerates: d = ceil(d/n) = {s}")
    aprime = build_auslander_algebra(n + 1, d - s, max_dim=model.config.max_algebra_dim)
    beta = [tuple(e - s for e in coords(p).entries[s:]) for p in model.dyck()]
    e_indices = [vertex_of_entries(aprime, b) for b in beta]
    corner_ok = corner_vanishes(aprime, e_indices)
    sub = idempotent_subalgebra(aprime, e_indices)
    iso = iso_test(sub, model.b0(), budget=model.config.iso_budget) is not None
    return corner_ok and iso, {"corner_vanishes": corner_ok, "iso": iso, "s": s}


def _gldim_claim(model: ModelData, name, expected):
    value = model.gldim(name)
    return value == expected, {"gldim": value, "expected": expected}


def claim_gldim_a(model: ModelData):
    return _gldim_claim(model, "A", model.d)


def claim_gldim_b(model: ModelData):
    return _gldim_claim(model, "B", model.n * model.d)


def claim_gldim_b0(model: ModelData):
    return _gldim_claim(model, "B0", model.d - -(-model.d // model.n))


def claim_higher_auslander(model: ModelData):
    d, n = model.d, model.n
    lam = model.lam()
    g = model.gldim_lambda(lam)
    dd = domdim(lam, max_len=model.max_len)
    ok = g <= n * d + 1 and (dd == math.inf or n * d + 1 <= dd)
    return ok, {"gldim": g, "domdim": "inf" if dd == math.inf else dd, "bound": n * d + 1}


def claim_two_subhomogeneous(model: ModelData):
    nd = model.n * model.d
    g = model.gldim("B")
    report = two_subhomogeneous_check(model.b_replicated(), nd, g, max_len=model.max_len)
    return report.passed, {"gldim": g, "gldim_equals_d": g == nd, "rigidity": report.rigidity_ok}


def claim_preprojective(model: ModelData):
    """dim Hom(P, nu P) = dim End(P), and Pi, the (n+d)-fold trivial extension
    of B0 = End(P), is self-injective with degree-zero part isomorphic to
    End(T).  B0 is built as the corner e A e, whose dimension is dim End(P)
    by Yoneda; B is built as Pi's degree-zero part, so the last is
    ``endo_replicate``'s certificate End(T) = B, read from ``end_t_iso``."""
    A, vertices = model.algebra(), model.dyck_vertices()
    b0, pi = model.b0(), model.pi()
    # Hom(P_p, I_i) is the fiber of I_i at p (Yoneda)
    hom = sum(I.dims[p] for I in map(A.injective, vertices) for p in vertices)
    # a basic algebra is self-injective iff every indecomposable injective
    # I_z is projective: such an I_z is a single P_w, so its top is one
    # vertex, and distinct socles give distinct w, so z -> w is the Nakayama
    # permutation.
    self_injective = projective_injective_vertices(pi).keys() == set(pi.vertex_ids())
    iso = model.end_t_iso() is not None
    return hom == b0.dim and self_injective and iso, {
        "hom_dim": hom,
        "end_p_dim": b0.dim,
        "self_injective": self_injective,
        "degree_zero_iso": iso,
    }


def claim_fcy_a(model: ModelData):
    d, n = model.d, model.n
    passed = fcy_object_check(model.algebra(), n * d, n + d + 1, max_len=model.max_len)
    return passed, {"shift": n * d, "power": n + d + 1}


CLAIMS = [
    ("dyck_count", claim_dyck_count),
    ("orbit_normal_form", claim_orbit_normal_form),
    ("interleaving_agreement", claim_interleaving_agreement),
    ("rigidity", claim_rigidity),
    ("generation", claim_generation),
    ("nu_orbit_blocks", claim_nu_orbit_blocks),
    ("serre_symmetry", claim_serre_symmetry),
    ("fcy_combinatorial", claim_fcy_combinatorial),
    ("hom_agreement", claim_hom_agreement),
    ("endo_replicate", claim_endo_replicate),
    ("b0_presentation", claim_b0_presentation),
    ("idempotent_corner", claim_idempotent_corner),
    ("gldim_A", claim_gldim_a),
    ("gldim_B", claim_gldim_b),
    ("gldim_B0", claim_gldim_b0),
    ("higher_auslander", claim_higher_auslander),
    ("two_subhomogeneous", claim_two_subhomogeneous),
    ("preprojective", claim_preprojective),
    ("fcy_A", claim_fcy_a),
]

CLAIM_NAMES = [name for name, _ in CLAIMS]

COMBINATORIAL_CLAIMS = [
    "dyck_count",
    "orbit_normal_form",
    "interleaving_agreement",
    "rigidity",
    "generation",
    "nu_orbit_blocks",
    "serre_symmetry",
    "fcy_combinatorial",
]


def run_claims(d, n, names, config: VerifyConfig | None = None):
    """Run the selected claims in declared order; returns (claims, any_failed,
    any_skipped).  A claim with status ``error`` counts as neither.  An
    unknown claim name raises ``ValueError`` before any claim runs."""
    unknown = [name for name in names if name not in CLAIM_NAMES]
    if unknown:
        raise ValueError(f"unknown claims: {', '.join(unknown)}")
    config = config or VerifyConfig()
    model = ModelData(d, n, config)
    results = []
    failed = skipped = False
    selected = set(names)
    for name, fn in CLAIMS:
        if name not in selected:
            continue
        start = time.monotonic()
        try:
            ok, value = fn(model)
            status = "pass" if ok else "fail"
        except (BudgetError, IsoInconclusive, SkipClaim) as exc:
            status = "skipped"
            value = {"reason": str(exc)}
        except Exception as exc:  # a defect, reported instead of a traceback
            status = "error"
            value = {"reason": f"{type(exc).__name__}: {exc}"}
        ms = int((time.monotonic() - start) * 1000)
        results.append({"name": name, "status": status, "value": value, "ms": ms})
        failed = failed or status == "fail"
        skipped = skipped or status == "skipped"
    return results, failed, skipped
