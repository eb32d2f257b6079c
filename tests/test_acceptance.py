"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every check is exact (no tolerances).  The extended (4,3) higher
Auslander instance runs by default as well since it completes in seconds.
"""

import math
import time

import pytest
from oracles import (
    _vector_to_chain_map,
    complexes_isomorphic,
    cone_of_chain_map,
    dyck_end_p,
    entry_for,
    minimize_complex,
    nakayama_pow,
    nu_orbit_complexes,
)

from hatilt.cluster import (
    ShiftedModule,
    generation_certificate,
    hom_dim,
    rigidity_check,
    tilting_summands,
)
from hatilt.complexes import (
    chain_maps_mod_homotopy,
    domdim,
    endo_algebra_of_complexes,
    fcy_object_check,
    gldim,
    hom_complex_dim,
    shifted_module_complex,
    stalk_complex,
    two_subhomogeneous_check,
)
from hatilt.fdalg import (
    corner_vanishes,
    idempotent_subalgebra,
    iso_test,
    presentation_data,
    replicate,
)
from hatilt.pathcomb import (
    anchor_data,
    coords,
    enumerate_all,
    enumerate_dyck,
    is_dyck,
    preceq,
    relation_R,
    rotate_pow,
)
from hatilt.quiveralg import (
    Arrow,
    BoundQuiverAlgebra,
    Quiver,
    Vertex,
    build_auslander_algebra,
    module_M,
    relation,
    vertex_of_entries,
)
from hatilt.verify import ModelData, VerifyConfig, claim_preprojective

MAIN_MODELS = [(3, 2), (2, 3), (3, 4), (4, 3), (5, 2)]


def report(number, name, started):
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({time.monotonic() - started:.1f}s)")


def coprime_grids(limit_sum=None, limit_binom=None):
    out = []
    for d in range(1, 13):
        for n in range(1, 13):
            if math.gcd(n, d) != 1:
                continue
            if limit_sum is not None and d + n > limit_sum:
                continue
            if limit_binom is not None and math.comb(d + n, d) > limit_binom:
                continue
            out.append((d, n))
    return out


@pytest.fixture(scope="module")
def model_3_2():
    d, n = 3, 2
    alg = build_auslander_algebra(n + 1, d)
    summands = tilting_summands(d, n)
    complexes = []
    for u in summands:
        m = module_M(alg, coords(u.path))
        complexes.append(shifted_module_complex(alg, m, d * u.shift))
    b0 = dyck_end_p(alg, d, n)
    return alg, summands, complexes, b0


@pytest.fixture(scope="module")
def ka4():
    q = Quiver(
        [Vertex(i, str(i + 1)) for i in range(4)],
        [Arrow(i, i, i + 1, f"a{i + 1}") for i in range(3)],
    )
    return BoundQuiverAlgebra.from_quiver_data(q, [])


def test_criterion_01_dyck_enumeration():
    started = time.monotonic()
    got = {coords(p).entries for p in enumerate_dyck(3, 4)}
    assert got == {(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)}
    for d, n in coprime_grids(limit_sum=12):
        assert len(enumerate_dyck(d, n)) * (d + n) == math.comb(d + n, d)
    report(1, "dyck enumeration and count formula", started)


def test_criterion_02_orbit_normal_form():
    started = time.monotonic()
    for d, n in coprime_grids(limit_sum=12):
        for p in enumerate_all(d, n):
            assert sum(is_dyck(rotate_pow(p, k)) for k in range(d + n)) == 1
    report(2, "one Dyck path per rotation orbit", started)


def test_criterion_03_relation_vs_interleaving():
    # grids with at most 500 paths; the unbounded-but-trivial d = 1 and
    # n = 1 families are truncated at side length 12
    started = time.monotonic()
    grids = [
        (d, n)
        for d in range(1, 13)
        for n in range(1, 13)
        if math.comb(d + n, d) <= 500
    ]
    for d, n in grids:
        paths = enumerate_all(d, n)
        cs = [coords(p) for p in paths]
        for p1, c1 in zip(paths, cs):
            for p2, c2 in zip(paths, cs):
                assert relation_R(p1, p2) == preceq(c1, c2)
    report(3, "geometric relation matches interleaving order", started)


def test_criterion_04_tilting_rigidity():
    started = time.monotonic()
    for d, n in MAIN_MODELS:
        result = rigidity_check(d, n)
        assert result.passed, (d, n, result.violations[:3])
    report(4, "combinatorial tilting rigidity on all five models", started)


def test_criterion_05_generation_certificate():
    started = time.monotonic()
    for d, n in MAIN_MODELS:
        cert = generation_certificate(d, n)  # validates keys and acyclicity
        covered = {e.path for e in cert.entries}
        for p in enumerate_all(d + 1, n):
            data = anchor_data(p)
            if data.h >= 1:
                assert p in covered
                entry = entry_for(cert, p)
                expected = "in-T" if data.mu == 0 else "resolved"
                assert entry.status == expected
        assert set(cert.injective_labels) <= covered
    report(5, "generation certificate completes and is acyclic", started)


def test_criterion_06_hom_cross_check(model_3_2):
    started = time.monotonic()
    d, n = 3, 2
    alg, summands, complexes, _ = model_3_2
    window = 2 * (d + 1)
    for u, X in zip(summands, complexes):
        for v, Y in zip(summands, complexes):
            for k in range(-window, window + 1):
                comb = (
                    hom_dim(u, ShiftedModule(v.path, v.shift + k // d))
                    if k % d == 0
                    else 0
                )
                assert hom_complex_dim(X, Y, k) == comb
    report(6, "complex-level Hom agrees with combinatorial rule", started)


def test_criterion_07_endomorphism_regression(model_3_2):
    started = time.monotonic()
    alg, summands, complexes, b0 = model_3_2
    B = endo_algebra_of_complexes(complexes)
    assert B.nidem == 10
    assert B.dim == 27
    assert iso_test(B, replicate(b0, 5)) is not None
    q10 = Quiver(
        [Vertex(i, str(i + 1)) for i in range(10)],
        [Arrow(i, i, i + 1, f"a{i + 1}") for i in range(9)],
    )
    ka10 = BoundQuiverAlgebra.from_quiver_data(
        q10, [relation((1, (i, i + 1, i + 2))) for i in range(7)]
    )
    assert iso_test(B, ka10) is not None
    report(7, "End(T) is the replicated algebra (10 vertices, dim 27)", started)


def test_criterion_08_b0_presentation_regression():
    started = time.monotonic()
    d, n = 3, 4
    alg = build_auslander_algebra(n + 1, d)
    b0 = dyck_end_p(alg, d, n)
    data = presentation_data(b0)
    assert len(data.quiver.vertices) == 5
    assert len(data.quiver.arrows) == 5
    assert b0.dim == 12
    # one zero relation and one two-term commuting relation
    q = Quiver(
        [Vertex(i, str(i + 1)) for i in range(5)],
        [
            Arrow(0, 0, 1, "alpha"),
            Arrow(1, 1, 2, "beta"),
            Arrow(2, 1, 3, "gamma"),
            Arrow(3, 2, 4, "delta"),
            Arrow(4, 3, 4, "mu"),
        ],
    )
    target = BoundQuiverAlgebra.from_quiver_data(
        q, [relation((1, (0, 2))), relation((1, (1, 3)), (-1, (2, 4)))]
    )
    assert iso_test(b0, target) is not None
    report(8, "base endomorphism algebra has the branching presentation", started)


def test_criterion_09_global_dimensions(model_3_2):
    started = time.monotonic()
    assert gldim(build_auslander_algebra(5, 3), max_len=6) == 3
    alg, _, _, b0_32 = model_3_2
    B = replicate(b0_32, 5)
    assert gldim(B, max_len=8) == 6
    expectations = {(3, 2): 1, (3, 4): 2, (4, 3): 2}
    for (d, n), expected in expectations.items():
        A = build_auslander_algebra(n + 1, d)
        b0 = dyck_end_p(A, d, n)
        assert gldim(b0, max_len=6) == expected
    report(9, "global dimensions of A, B and the base algebra", started)


def test_criterion_10_higher_auslander_bounds(model_3_2):
    started = time.monotonic()
    _, _, _, b0 = model_3_2
    lam = replicate(b0, 6)
    g, dd = gldim(lam, max_len=9), domdim(lam, max_len=9)
    assert g <= 7 <= dd
    report(10, "replicated higher Auslander bounds gldim <= 7 <= domdim", started)


def test_criterion_10_extended_4_3_instance():
    # the largest bundled instance: gldim = 13 = domdim; runs in seconds
    started = time.monotonic()
    d, n = 4, 3
    A = build_auslander_algebra(n + 1, d)
    lam = replicate(dyck_end_p(A, d, n), n + d + 1)
    g, dd = gldim(lam, max_len=15), domdim(lam, max_len=15)
    assert g == 13 and dd == 13
    report(10, "extended (4,3): gldim Lambda = 13 = domdim Lambda", started)


def test_criterion_11_two_subhomogeneity(model_3_2):
    started = time.monotonic()
    _, _, _, b0 = model_3_2
    B = replicate(b0, 5)
    assert two_subhomogeneous_check(B, 6, gldim(B, max_len=8), max_len=8).passed
    q = Quiver(
        [Vertex(i, str(i + 1)) for i in range(4)],
        [Arrow(i, i, i + 1, f"a{i + 1}") for i in range(3)],
    )
    ka4_rad2 = BoundQuiverAlgebra.from_quiver_data(
        q, [relation((1, (i, i + 1))) for i in range(2)]
    )
    assert two_subhomogeneous_check(ka4_rad2, 3, gldim(ka4_rad2)).passed
    report(11, "two-step homogeneity for B and the radical-square quotient", started)


def test_criterion_12_preprojective():
    started = time.monotonic()
    passed, value = claim_preprojective(ModelData(3, 2, VerifyConfig()))
    assert value["hom_dim"] == 3 and value["end_p_dim"] == 3
    assert value["self_injective"]
    assert value["degree_zero_iso"]
    assert passed
    report(12, "graded preprojective comparison at (3,2)", started)


def test_criterion_13_idempotent_subalgebra():
    started = time.monotonic()
    d, n, s = 3, 4, 1
    aprime = build_auslander_algebra(n + 1, d - s)
    indices = [
        vertex_of_entries(aprime, tuple(e - s for e in coords(p).entries[s:]))
        for p in enumerate_dyck(d, n)
    ]
    assert corner_vanishes(aprime, indices)
    corner = idempotent_subalgebra(aprime, indices)
    assert iso_test(corner, dyck_end_p(build_auslander_algebra(n + 1, d), d, n)) is not None
    report(13, "idempotent corner of the smaller Auslander algebra", started)


def test_criterion_14_fractional_calabi_yau():
    started = time.monotonic()
    d, n = 3, 2
    alg = build_auslander_algebra(n + 1, d)
    assert fcy_object_check(alg, n * d, n + d + 1, max_len=8)
    d, n = 3, 4
    for p in enumerate_all(d + 1, n):
        u = ShiftedModule(p, 0)
        assert nakayama_pow(u, n + d + 1) == ShiftedModule(p, n)
    report(14, "object-level fractional Calabi-Yau periods", started)


def test_criterion_15_linear_a4_end_to_end(ka4):
    started = time.monotonic()
    alg = ka4
    T = nu_orbit_complexes(alg, stalk_complex(alg, 0), 4)
    assert dict(T[1].terms) == {0: (3,)}
    assert dict(T[2].terms) == {-1: (2,), 0: (3,)}
    assert dict(T[3].terms) == {-2: (1,), -1: (2,)}
    for k in range(-4, 5):
        total = sum(hom_complex_dim(a, b, k) for a in T for b in T)
        assert total == (7 if k == 0 else 0)
    # T generates: every indecomposable projective is reached by triangles
    P = [stalk_complex(alg, v) for v in alg.vertex_ids()]
    assert complexes_isomorphic(P[0], T[0]) and complexes_isomorphic(P[3], T[1])

    def cone_of_single_map(X, Y, k):
        (f,), _, slots, _ = chain_maps_mod_homotopy(X, Y, k)
        f = _vector_to_chain_map(f, slots)
        return minimize_complex(cone_of_chain_map(alg, X, Y.shift(k), f))

    assert complexes_isomorphic(cone_of_single_map(T[1], T[2], 0).shift(-1), P[2])
    assert complexes_isomorphic(cone_of_single_map(P[2], T[3], -1).shift(-1), P[1])
    endo = endo_algebra_of_complexes(T)
    q = Quiver(
        [Vertex(i, str(i + 1)) for i in range(4)],
        [Arrow(i, i, i + 1, f"a{i + 1}") for i in range(3)],
    )
    ka4_rad2 = BoundQuiverAlgebra.from_quiver_data(
        q, [relation((1, (i, i + 1))) for i in range(2)]
    )
    assert iso_test(endo, ka4_rad2) is not None
    report(15, "linear A4 example end to end", started)
