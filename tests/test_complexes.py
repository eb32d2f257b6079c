import hashlib
import math
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    act_by_elements,
    check_associative,
    complexes_isomorphic,
    derived_nakayama_inverse,
    direct_sum,
    direct_sum_complexes,
    domdim_by_coresolution,
    dual_module,
    dyck_end_p,
    ext_dim,
    hom_complex_dim_per_shift,
    hom_space,
    label_signature,
    minimize_complex,
    nakayama_pow,
    nu_orbit_complexes,
    opposite,
    path_from_entries,
    projective,
    projective_injective_vertices_by_tops,
    radical_fibers,
    realize_complex_by_entries,
    realize_projectives,
    replace_all_vertices,
    run_claims_group_by_group,
    self_injective_by_tops,
)

from hatilt.cluster import (
    ShiftedModule,
    generation_certificate,
    hom_dim,
    projective_summands,
    tilting_summands,
)
from hatilt.complexes import (
    ModuleComplex,
    _nu_power_terms,
    _replace,
    chain_maps_mod_homotopy,
    derived_nakayama,
    domdim,
    endo_algebra_of_complexes,
    fcy_object_check,
    gldim,
    hom_complex_dim,
    hom_complex_dims,
    minimal_proj_resolution,
    projective_injective_vertices,
    proj_replace,
    realize_complex,
    shifted_module_complex,
    stalk_complex,
    two_subhomogeneous_check,
    ProjComplex,
)
from hatilt.exactmat import ExactMatrix
from hatilt.fdalg import presentation_data, replicate
from hatilt.pathcomb import (
    OrderedSeq,
    coords,
    enumerate_dyck,
    enumerate_os,
    preceq,
    strip_sequence,
)
from hatilt.quiveralg import (
    Arrow,
    BoundQuiverAlgebra,
    BudgetError,
    InjectiveSum,
    Quiver,
    QuiverRep,
    Vertex,
    build_auslander_algebra,
    module_M,
    relation,
    vertex_of_entries,
)
from hatilt.verify import (
    ModelData,
    VerifyConfig,
    claim_hom_agreement,
    claim_preprojective,
)


def linear_bqa(k, rad_power=None):
    q = Quiver(
        [Vertex(i, str(i + 1)) for i in range(k)],
        [Arrow(i, i, i + 1, f"a{i + 1}") for i in range(k - 1)],
    )
    rels = []
    if rad_power is not None:
        rels = [
            relation((1, tuple(range(s, s + rad_power))))
            for s in range(k - rad_power)
        ]
    return BoundQuiverAlgebra.from_quiver_data(q, rels)


def tilting_complexes(d, n):
    alg = build_auslander_algebra(n + 1, d)
    out = []
    for u in tilting_summands(d, n):
        m = module_M(alg, coords(u.path))
        out.append(shifted_module_complex(alg, m, d * u.shift))
    return alg, out


def resolution_test_modules(kind):
    """(algebra, module) pairs over A at (d, n) = (3, 4) for one family."""
    alg = build_auslander_algebra(5, 3)
    if kind == "simple":
        return [(alg, alg.simple(v)) for v in alg.vertex_ids()]
    if kind == "injective":
        return [(alg, alg.injective(v)) for v in alg.vertex_ids()]
    if kind == "interval":
        return [(alg, module_M(alg, x)) for x in enumerate_os(5, 4)]
    op = opposite(alg)
    return [(op, dual_module(projective(alg, z))) for z in alg.vertex_ids()]


def rank_at(C, m, y):
    """Rank at y of the differential of C out of degree m; a missing map is zero."""
    f = C.maps.get(m, {}).get(y)
    return f.rank() if f is not None else 0


def assert_resolution_exact(alg, M):
    """Realise the minimal resolution of M and check exactness at every vertex,
    using only the entry-wise realisation and the action of A on M.  The
    augmentation lists, per degree-zero summand, the image of its generator
    in M."""
    R = minimal_proj_resolution(alg, M)
    aug = _replace(ModuleComplex(alg, {0: M}, {}), 64, "M")[2].get(0, [])
    C = realize_projectives(R)
    for y in alg.vertex_ids():
        cols = [
            M.basis_action(bid).apply(gen)
            for v, gen in zip(R.terms.get(0, ()), aug)
            for bid in alg.blocks.get((y, v), [])
        ]
        eps = ExactMatrix(M.dims[y], len(cols), [list(r) for r in zip(*cols)] if cols else None)
        assert eps.rank() == M.dims[y]
        if (d := C.maps.get(-1, {}).get(y)) is not None:
            assert eps.matmul(d).is_zero()
        for m in R.degrees():
            out_rank = eps.rank() if m == 0 else rank_at(C, m, y)
            in_rank = rank_at(C, m - 1, y)
            assert out_rank + in_rank == C.terms[m].dims[y]


def cohomology_dims(C):
    """{(degree, vertex): dim H^m(C)_y} over the nonzero cohomology of C."""
    out = {}
    for m in C.degrees():
        for y in C.algebra.vertex_ids():
            dim = C.terms[m].dims[y]
            dim -= rank_at(C, m, y) + rank_at(C, m - 1, y)
            if dim:
                out[(m, y)] = dim
    return out


class TestResolutions:
    @pytest.mark.parametrize("kind", ["simple", "injective", "interval", "dual_projective"])
    def test_resolutions_are_exact(self, kind):
        for alg, M in resolution_test_modules(kind):
            assert_resolution_exact(alg, M)

    def test_projective_has_length_zero(self):
        alg = build_auslander_algebra(4, 2)
        for v in alg.vertex_ids():
            cplx = minimal_proj_resolution(alg, projective(alg, v))
            assert list(cplx.terms) == [0]

    def test_simple_at_sink_and_source_of_kA3(self):
        alg = linear_bqa(3)
        # right modules: the simple projective sits at the quiver source
        assert len(minimal_proj_resolution(alg, alg.simple(0)).terms) - 1 == 0
        assert len(minimal_proj_resolution(alg, alg.simple(2)).terms) - 1 == 1

    def test_strip_window_is_projective_resolution(self):
        # window starting at 1: the other strip terms resolve the last one
        d, n = 3, 4
        alg = build_auslander_algebra(n + 1, d)
        window = (1, 2, 4, 6, 8)
        terms = strip_sequence(window, d, n)
        target = module_M(alg, coords(terms[-1]))
        cplx = minimal_proj_resolution(alg, target)
        assert len(cplx.terms) - 1 == d
        for j, term_path in enumerate(terms[:-1]):
            # strip term j sits in homological degree -(d - j); with first
            # entry 1 it is the projective at the decremented tail
            entries = coords(term_path).entries
            assert entries[0] == 1
            z = vertex_of_entries(alg, tuple(e - 1 for e in entries[1:]))
            assert Counter(cplx.terms[-(d - j)]) == Counter([z])

    def test_module_over_another_algebra_raises(self):
        A, A3 = build_auslander_algebra(4, 2), build_auslander_algebra(3, 2)
        for v in A3.vertex_ids():
            with pytest.raises(ValueError, match="different algebra"):
                minimal_proj_resolution(A, A3.simple(v))

    def test_differentials_are_radical(self):
        alg = build_auslander_algebra(4, 2)
        for v in alg.vertex_ids():
            cplx = minimal_proj_resolution(alg, alg.simple(v))
            assert cplx.is_minimal()


class TestReplaceSupport:
    """The engine visits only the vertices where the cone lives; the sweep
    over every vertex that it replaced must give the same terms, diffs and
    psi, summand order and element entries included."""

    @staticmethod
    def assert_same(C):
        assert _replace(C, 64, "C") == replace_all_vertices(C, 64, "C")

    def test_interval_modules_at_3_4(self):
        modules = resolution_test_modules("interval")
        assert len(modules) == 70
        for alg, M in modules:
            self.assert_same(ModuleComplex(alg, {0: M}, {}))

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("name", ["B0", "B", "Lambda"])
    def test_simples_and_injectives_of_presented_algebras(self, d, n, name):
        alg = model_presentation(d, n, name)
        for v in alg.vertex_ids():
            for M in (alg.simple(v), alg.injective(v)):
                self.assert_same(ModuleComplex(alg, {0: M}, {}))

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (4, 3)])
    @pytest.mark.parametrize("name", ["B", "Lambda"])
    def test_twisted_simples_and_injectives_of_presented_algebras(
        self, d, n, name, monkeypatch
    ):
        # the kernels of these resolutions are all forced; their twists live
        # in several degrees, so some kernels are eliminated, and at (4,3)
        # some with fibers Z^{m+1}_y above dimension 1 (the boundaries D^m
        # keep every such fiber at dimension 1 at (3,2) and (2,3))
        import hatilt.complexes

        alg = model_presentation(d, n, name)
        resolutions = [
            minimal_proj_resolution(alg, M)
            for v in alg.vertex_ids()
            for M in (alg.simple(v), alg.injective(v))
        ]
        eliminated = []
        from_columns = hatilt.complexes._from_columns

        def recorded(rows, cols):
            eliminated.append(rows)
            return from_columns(rows, cols)

        monkeypatch.setattr(hatilt.complexes, "_from_columns", recorded)
        for R in resolutions:
            self.assert_same(realize_complex(R))
        assert max(eliminated) == (2 if (d, n) == (4, 3) else 1)

    @pytest.mark.parametrize("d, n", [(3, 2), (4, 3)])
    def test_twisted_tilting_summands(self, d, n):
        for X in tilting_complexes(d, n)[1]:
            self.assert_same(realize_complex(X))

    def test_work_on_interval_modules_at_3_4(self, monkeypatch):
        # fewer eliminations than the all-vertex sweep, which makes 1380
        # nullspace and 1895 rref calls here: every per-vertex kernel of these
        # resolutions is forced (no free columns, or a square cover onto
        # Z^{m+1} where C^m is zero), so the engine calls nullspace nowhere,
        # and its 515 rref calls are _top's.  It also makes fewer products:
        # the sweep makes 1274 elem_mul calls, most of them for fibers that
        # are zero.  The engine multiplies in block coordinates straight from
        # the structure constants; its 70 elem_mul calls are the d^2 = 0
        # checks of the resolutions.  Of the matrices it builds, only the 70
        # identities of degree-zero actions go through the checking
        # constructor; the rest are rows it built itself (1625 adopted, 4385
        # before the forced kernels).
        modules = resolution_test_modules("interval")
        calls = Counter()

        def count(cls, name):
            method = getattr(cls, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        count(ExactMatrix, "nullspace")
        count(ExactMatrix, "rref")
        count(BoundQuiverAlgebra, "elem_mul")
        count(ExactMatrix, "__init__")
        count(ExactMatrix, "_adopt")
        for alg, M in modules:
            minimal_proj_resolution(alg, M)
        counted = ("nullspace", "rref", "elem_mul", "__init__", "_adopt")
        assert {name: calls[name] for name in counted} == {
            "nullspace": 0,
            "rref": 515,
            "elem_mul": 70,
            "__init__": 70,
            "_adopt": 1625,
        }


class TestMinimalAsBuilt:
    """``_replace`` covers Z^m only modulo the boundaries D^m of C, so the
    complex it builds is minimal; the sweep that covered all of Z^m must
    minimise, by the elimination of the ``minimize_complex`` oracle, to the
    same terms.  Resolutions and replacements leave the engine through one
    exit that checks each complex once and rejects a non-radical entry."""

    @staticmethod
    def plant_contractible_block(monkeypatch, alg, v=0):
        """Make ``_replace`` return P_v -> P_v by the idempotent, a
        contractible two-term complex, whatever it is asked to replace."""
        import hatilt.complexes

        unit = alg.basis_elem(alg.idempotent_of[v])
        planted = {-1: (v,), 0: (v,)}, {-1: [[unit]]}, {-1: [[]], 0: [[]]}
        monkeypatch.setattr(hatilt.complexes, "_replace", lambda C, max_len, label: planted)

    def test_a_resolution_with_an_idempotent_entry_is_rejected(self, monkeypatch):
        alg = linear_bqa(3)
        self.plant_contractible_block(monkeypatch, alg)
        with pytest.raises(AssertionError, match="non-radical"):
            minimal_proj_resolution(alg, alg.simple(0))

    def test_a_replacement_with_an_idempotent_entry_is_rejected(self, monkeypatch):
        # a non-minimal complex is an error, not stripped: the chain-map
        # check, which this planted complex does not meet, is stubbed
        import hatilt.complexes

        alg = linear_bqa(3)
        C = realize_complex(stalk_complex(alg, 0))
        self.plant_contractible_block(monkeypatch, alg)
        monkeypatch.setattr(hatilt.complexes, "_assert_qis_chain_map", lambda Q, C, psi: None)
        with pytest.raises(AssertionError, match="non-radical"):
            proj_replace(C)

    def test_one_twist_checks_its_complex_once(self, monkeypatch):
        # blocks and d^2 = 0 of nu(X) are checked at the exit, and nothing
        # builds a checked copy of it afterwards
        alg = build_auslander_algebra(4, 2)
        check, checked = ProjComplex._check, []

        def counted(self):
            checked.append(self)
            return check(self)

        monkeypatch.setattr(ProjComplex, "_check", counted)
        twisted = derived_nakayama(stalk_complex(alg, 4))
        assert checked == [twisted] and twisted.terms == {-2: (0,), -1: (3,), 0: (6,)}

    @pytest.mark.parametrize(
        "d, n, built, kept", [(3, 2, 86, 32), (2, 3, 106, 42), (4, 3, 443, 145)]
    )
    def test_every_complex_the_claims_twist(self, d, n, built, kept, monkeypatch):
        import hatilt.complexes

        replace = hatilt.complexes.proj_replace
        twisted = []

        def recorded(C, max_len=64):
            twisted.append(C)
            return replace(C, max_len)

        monkeypatch.setattr(hatilt.complexes, "proj_replace", recorded)
        claims, _, _ = run_claims_group_by_group(d, n)
        assert all(c["status"] == "pass" for c in claims)
        sizes = Counter()
        for C in twisted:
            terms, diffs, _ = _replace(C, 64, "C")
            Q = ProjComplex(C.algebra, terms, diffs)
            assert Q.is_minimal()
            old_terms, old_diffs, _ = replace_all_vertices(C, 64, "C", quotient=False)
            old = ProjComplex(C.algebra, old_terms, old_diffs)
            assert minimize_complex(old).terms == Q.terms
            sizes["built"] += sum(map(len, old.terms.values()))
            sizes["kept"] += sum(map(len, Q.terms.values()))
        # the summands the old sweep built and minimisation stripped
        assert sizes == {"built": built, "kept": kept}


class TestWitnessCheck:
    """``proj_replace`` checks that the witness psi: Q -> C it is handed is
    a chain map, d_C psi = psi d_Q on each summand's generator.  Here nu of
    the resolution P_0 -> P_1 of a simple replaces to a two-term complex
    whose witness has one nonzero entry in each degree.  Changing the lower
    one breaks the d_C side, changing the upper one the d_Q side."""

    @pytest.mark.parametrize("degree", [-1, 0])
    def test_a_changed_witness_entry_is_rejected(self, degree, monkeypatch):
        import hatilt.complexes

        alg = build_auslander_algebra(4, 2)
        X = minimal_proj_resolution(alg, alg.simple(1))
        C = realize_complex(X)
        replace = hatilt.complexes._replace
        _, _, psi = replace(C, 64, "C")
        changed = [(m, s, i) for m, gens in psi.items() for s, g in enumerate(gens)
                   for i, c in enumerate(g) if c]
        assert sorted(m for m, _, _ in changed) == [-1, 0]
        ((m, s, i),) = [e for e in changed if e[0] == degree]

        def tampered(C, max_len, label):
            terms, diffs, psi = replace(C, max_len, label)
            psi[m][s][i] += 1
            return terms, diffs, psi

        monkeypatch.setattr(hatilt.complexes, "_replace", tampered)
        with pytest.raises(AssertionError, match="not a chain map"):
            proj_replace(C)
        with pytest.raises(AssertionError, match="not a chain map"):
            derived_nakayama(X)


def realized(C):
    """Every fiber dimension and every per-vertex matrix of a module
    complex, each entry with its type."""

    def typed(M):
        return M.rows, M.cols, [[(type(x), x) for x in row] for row in M.data]

    terms = {m: (T.dims, {a: typed(M) for a, M in T.maps.items()}) for m, T in C.terms.items()}
    maps = {m: {y: typed(M) for y, M in phi.items()} for m, phi in C.maps.items()}
    return terms, maps


class TestResolutionMemo:
    """shifted_module_complex memoises resolutions per algebra; cold, warm and
    fresh-algebra answers must agree, entries included."""

    SHIFTS = range(-2, 3)

    @staticmethod
    def content(X):
        return X.terms, X.diffs

    @pytest.mark.parametrize("d, n", [(3, 4), (4, 3)])
    def test_cold_warm_and_fresh_algebra_agree(self, d, n):
        labels = list(enumerate_os(n + 1, d + 1))
        # one algebra per shift, so that every label's first call there is cold
        algs = {s: build_auslander_algebra(n + 1, d) for s in self.SHIFTS}
        cold = {
            (x, s): self.content(shifted_module_complex(alg, module_M(alg, x), s))
            for s, alg in algs.items()
            for x in labels
        }
        for alg in algs.values():
            for x in labels:
                for s in self.SHIFTS:
                    X = shifted_module_complex(alg, module_M(alg, x), s)
                    assert self.content(X) == cold[x, s]
        fresh = build_auslander_algebra(n + 1, d)
        for x in labels:
            R = minimal_proj_resolution(fresh, module_M(fresh, x))
            for s in self.SHIFTS:
                assert self.content(R.shift(s)) == cold[x, s]

    def test_module_over_another_algebra_raises(self):
        # A's simple at 3 and A3's have equal nonzero fibers and no arrow
        # maps, but A3's has A3's resolution and is refused over A
        A, A3 = build_auslander_algebra(4, 2), build_auslander_algebra(3, 2)
        assert shifted_module_complex(A, A.simple(3)).terms == {0: (3,), -1: (2,)}
        with pytest.raises(ValueError, match="different algebra"):
            shifted_module_complex(A, A3.simple(3))
        assert shifted_module_complex(A3, A3.simple(3)).terms == {0: (3,), -1: (1,), -2: (0,)}

    @pytest.mark.parametrize("shift", [0, 1])
    def test_a_returned_complex_is_its_own(self, shift):
        alg = build_auslander_algebra(5, 3)
        x = OrderedSeq(5, 4, (2, 3, 5, 7))
        expected = self.content(minimal_proj_resolution(alg, module_M(alg, x)).shift(shift))
        # the cold result, then a warm one, each mutated before the next call
        for _ in range(3):
            X = shifted_module_complex(alg, module_M(alg, x), shift)
            assert self.content(X) == expected and X.diffs
            for rows in X.diffs.values():
                for row in rows:
                    for elem in row:
                        for bid in elem:
                            elem[bid] = 5
                    row.append({})
            X.diffs.clear()

    def test_a_hit_builds_each_entry_once(self):
        # each entry of a result is a fresh dict, shared neither with the
        # memo nor with an earlier result, and equal to the stored one
        # negated for an odd shift
        alg = build_auslander_algebra(5, 3)
        M = module_M(alg, OrderedSeq(5, 4, (2, 3, 5, 7)))
        results = [(s, shifted_module_complex(alg, M, s)) for s in (1, 0, 1, 2, -1)]
        ((_, diffs),) = alg._resolution_memo.values()
        stored = [e for rows in diffs.values() for row in rows for e in row]
        seen = {id(e) for e in stored}
        for shift, X in results:
            sign = -1 if shift % 2 else 1
            entries = [e for rows in X.diffs.values() for row in rows for e in row]
            assert len(entries) == len(stored) > 0
            assert all(type(e) is dict for e in entries)
            assert not seen & {id(e) for e in entries}
            seen |= {id(e) for e in entries}
            assert entries == [{b: sign * c for b, c in e.items()} for e in stored]

    def test_a_hit_reads_no_module_and_builds_one_complex(self, monkeypatch):
        alg = build_auslander_algebra(5, 3)
        x = OrderedSeq(5, 4, (2, 3, 5, 7))
        expected = self.content(shifted_module_complex(alg, module_M(alg, x), 1))
        M = module_M(alg, x)
        # the shared tables stay; only this module loses its names for them
        del M.dims, M.maps
        built, init = [], ProjComplex.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProjComplex, "__init__", counted)
        assert self.content(shifted_module_complex(alg, M, 1)) == expected
        assert len(built) == 1

    def test_the_memo_holds_one_entry_per_label_and_budget(self):
        # a repeated stream of queries at (3, 4)
        alg = build_auslander_algebra(5, 3)
        labels = list(enumerate_os(5, 4))
        stream = [(x, s, L) for L in (64, 32) for x in labels for s in self.SHIFTS]
        for x, s, L in stream * 2:
            shifted_module_complex(alg, module_M(alg, x), s, max_len=L)
        assert len(alg._resolution_memo) == 2 * len(labels)
        assert alg._resolution_memo.keys() == {(("M", x.entries), L) for x, _, L in stream}

    def test_uncached_modules_are_resolved_and_not_stored(self):
        alg, fresh = build_auslander_algebra(5, 3), build_auslander_algebra(5, 3)
        x = OrderedSeq(5, 4, (2, 3, 5, 7))
        M, M0 = module_M(alg, x), module_M(fresh, x)
        pairs = [
            (alg.simple(v), fresh.simple(v)) for v in (0, 7, len(alg.vertex_ids()) - 1)
        ] + [
            # the semisimple module on the interval's support
            (QuiverRep(alg, M.dims, {}, check=False), QuiverRep(fresh, M0.dims, {}, check=False)),
            (direct_sum([M, alg.simple(7)]), direct_sum([M0, fresh.simple(7)])),
        ]
        for N, N0 in pairs:
            for s in (0, 1):
                expected = self.content(minimal_proj_resolution(fresh, N0).shift(s))
                for _ in range(2):
                    assert self.content(shifted_module_complex(alg, N, s)) == expected
        assert alg._resolution_memo == {}

    @staticmethod
    def typed(X):
        """terms and diffs with the type of every entry value, which == on
        int and Fraction does not compare"""
        return X.terms, {
            m: [[[(b, type(c), c) for b, c in e.items()] for e in row] for row in rows]
            for m, rows in X.diffs.items()
        }

    @staticmethod
    def shift_by_scaling(X, k):
        """X[k] with every entry scaled by (-1)^k through elem_scale."""
        sign = -1 if k % 2 else 1
        return ProjComplex(
            X.algebra,
            {m - k: v for m, v in X.terms.items()},
            {
                m - k: [[X.algebra.elem_scale(sign, e) for e in row] for row in rows]
                for m, rows in X.diffs.items()
            },
            check=False,
        )

    @pytest.mark.parametrize("d, n", [(3, 4), (4, 3)])
    def test_shift_oracle(self, d, n):
        alg = build_auslander_algebra(n + 1, d)
        shifts = range(-3, 4)
        for x in enumerate_os(n + 1, d + 1):
            R = minimal_proj_resolution(alg, module_M(alg, x))
            shifted_module_complex(alg, module_M(alg, x))
            for s in shifts:
                expected = self.typed(R.shift(s))
                assert expected == self.typed(self.shift_by_scaling(R, s))
                assert self.typed(shifted_module_complex(alg, module_M(alg, x), s)) == expected
                for t in shifts:
                    assert self.typed(R.shift(s).shift(t)) == self.typed(R.shift(s + t))

    def test_modules_with_equal_fibers_and_other_maps_are_told_apart(self):
        # the interval module and the semisimple module on its support have
        # the same fibers; only the interval module has a cache key
        alg = build_auslander_algebra(5, 3)
        M = module_M(alg, OrderedSeq(5, 4, (2, 3, 5, 7)))
        S = QuiverRep(alg, M.dims, {}, check=False)
        expected = [self.content(minimal_proj_resolution(alg, N)) for N in (M, S)]
        assert expected[0] != expected[1]
        for _ in range(2):
            assert [self.content(shifted_module_complex(alg, N)) for N in (M, S)] == expected

    def test_a_shorter_budget_after_a_success_still_raises(self):
        alg = build_auslander_algebra(5, 3)
        M = module_M(alg, OrderedSeq(5, 4, (2, 3, 5, 7)))
        length = len(shifted_module_complex(alg, M).terms) - 1
        assert length >= 1
        for _ in range(2):
            with pytest.raises(BudgetError):
                shifted_module_complex(alg, M, max_len=length - 1)
        X = shifted_module_complex(alg, M, max_len=length)
        assert len(X.terms) == length + 1


class TestRealizeOnSupport:
    """``realize_complex`` builds a differential only where both fibers are
    nonzero, from nonzero entries and nonempty blocks; the entry-wise builder
    it replaced must give the same terms and per-vertex maps."""

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (4, 3)])
    def test_every_complex_the_claims_twist(self, d, n, monkeypatch):
        import hatilt.complexes

        realize = hatilt.complexes.realize_complex
        seen, differing = [], []

        def checked(X):
            out = realize(X)
            seen.append(X.terms)
            if realized(out) != realized(realize_complex_by_entries(X)):
                differing.append(X.terms)
            return out

        monkeypatch.setattr(hatilt.complexes, "realize_complex", checked)
        claims, _, _ = run_claims_group_by_group(d, n)
        assert all(c["status"] == "pass" for c in claims)
        assert differing == []
        assert seen

    def test_a_stalk_realises_as_its_injective(self):
        alg = build_auslander_algebra(4, 2)
        for v in alg.vertex_ids():
            term = realize_complex(stalk_complex(alg, v)).terms[0]
            assert type(term) is InjectiveSum and term.vertices == (v,)
            assert term.dims == alg.injective(v).dims


class TestSparseTables:
    """A module stores arrow maps only between two nonzero fibers, and a
    module complex a differential matrix exactly at the vertices where both
    fibers are nonzero.  Checked on every module a claim run makes (each is
    built by ``QuiverRep.__init__``, shares a cached table through
    ``QuiverRep._adopt`` or is an ``InjectiveSum``, whose arrow maps are
    built here), on every injective of A and B and on every complex it
    realises."""

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (4, 3)])
    def test_every_table_a_claim_run_builds(self, d, n, monkeypatch):
        import hatilt.complexes

        init, adopt, init_sum = QuiverRep.__init__, QuiverRep._adopt, InjectiveSum.__init__
        realize = hatilt.complexes.realize_complex
        seen, bad = Counter(), []

        def check_module(M):
            seen["module"] += 1
            arrows = M.algebra.quiver.arrow_by_id
            extra = [
                aid for aid in M.maps if not (M.dims[arrows[aid].src] and M.dims[arrows[aid].tgt])
            ]
            if extra:
                bad.append(("module", extra))

        def built(self, *args, **kwargs):
            init(self, *args, **kwargs)
            check_module(self)

        def adopted(*args):
            M = adopt(*args)
            check_module(M)
            return M

        def summed(self, *args):
            init_sum(self, *args)
            seen["injective sum"] += 1
            check_module(self)

        def realized(X):
            C = realize(X)
            seen["complex"] += 1
            for m, phi in C.maps.items():
                src, tgt = C.terms[m].dims, C.terms[m + 1].dims
                if phi.keys() != {y for y, k in src.items() if k and tgt[y]}:
                    bad.append(("complex", m, sorted(phi)))
            return C

        monkeypatch.setattr(QuiverRep, "__init__", built)
        monkeypatch.setattr(QuiverRep, "_adopt", staticmethod(adopted))
        monkeypatch.setattr(InjectiveSum, "__init__", summed)
        monkeypatch.setattr(hatilt.complexes, "realize_complex", realized)
        claims, _, _ = run_claims_group_by_group(d, n)
        assert all(c["status"] == "pass" for c in claims)
        # projective_injective_vertices reads socles and builds no injective,
        # so the arrow maps of every injective of A and B are built here too
        model = ModelData(d, n, VerifyConfig())
        for alg in (model.algebra(), model.b_replicated()):
            for v in alg.vertex_ids():
                alg.injective(v)
        assert bad == []
        assert seen["module"] > 100 and seen["injective sum"] > 0 and seen["complex"] > 0

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (4, 3)])
    def test_no_algebra_a_claim_run_builds_stores_an_empty_table(self, d, n, monkeypatch):
        # mult holds only nonzero products
        built = []
        init = BoundQuiverAlgebra.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(BoundQuiverAlgebra, "__init__", recording)
        claims, _, _ = run_claims_group_by_group(d, n)
        assert all(c["status"] == "pass" for c in claims)
        assert len(built) >= 8
        for alg in built:
            assert all(table and all(table.values()) for table in alg.mult.values())

    def test_check_refuses_a_missing_map_a_wrong_shape_and_a_nonzero_square(self):
        alg = linear_bqa(3)
        S = alg.simple(0)
        one = ExactMatrix(1, 1, [[1]])
        ModuleComplex(alg, {0: S, 1: S}, {0: {0: one}}).check()
        with pytest.raises(ValueError, match=r"map missing at vertices \[0\] in degree 0"):
            ModuleComplex(alg, {0: S, 1: S}, {0: {}}).check()
        with pytest.raises(ValueError, match="shape mismatch at 0"):
            ModuleComplex(alg, {0: S, 1: S}, {0: {0: ExactMatrix(1, 2)}}).check()
        with pytest.raises(ValueError, match="does not square to zero"):
            ModuleComplex(alg, {0: S, 1: S, 2: S}, {0: {0: one}, 1: {0: one}}).check()
        # a stored zero map squares to zero
        ModuleComplex(alg, {0: S, 1: S, 2: S}, {0: {0: one}, 1: {0: ExactMatrix(1, 1)}}).check()


class TestBlockKernel:
    """``_act`` multiplies in block coordinates straight from the structure
    constants; the element route it replaced must give the same coordinates,
    each of the same type, on every input the resolutions reach."""

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (4, 3)])
    @pytest.mark.parametrize("name", ["B0", "B", "Lambda"])
    def test_act_matches_the_element_route(self, d, n, name, monkeypatch):
        import hatilt.complexes

        alg = model_presentation(d, n, name)
        act = hatilt.complexes._act
        inputs = set()

        def checked(alg, vec, x, bid, y, labels):
            out = act(alg, vec, x, bid, y, labels)
            expected = act_by_elements(alg, vec, x, bid, y, labels)
            assert [(type(c), c) for c in out] == [(type(c), c) for c in expected]
            inputs.add((bid, tuple(labels)))
            return out

        monkeypatch.setattr(hatilt.complexes, "_act", checked)
        for v in alg.vertex_ids():
            for M in (alg.simple(v), alg.injective(v)):
                minimal_proj_resolution(alg, M)
        # every arrow acts on some degree's cone
        assert {alg.arrow_elem[a.id] for a in alg.quiver.arrows} <= {bid for bid, _ in inputs}


class TestExt:
    def test_ext_zero_is_hom(self):
        alg = build_auslander_algebra(3, 2)
        labels = enumerate_os(3, 3)
        for x in labels[:4]:
            for y in labels[:4]:
                M, N = module_M(alg, x), module_M(alg, y)
                assert ext_dim(alg, M, N, 0) == hom_space(M, N)[0]

    def test_ext_d_rule(self):
        alg = build_auslander_algebra(3, 2)
        src = module_M(alg, OrderedSeq(3, 3, (2, 3, 5)))
        tgt = module_M(alg, OrderedSeq(3, 3, (1, 2, 4)))
        assert ext_dim(alg, src, tgt, 2) == 1

    def test_ext_matches_combinatorial_rule_exhaustively(self):
        from hatilt.cluster import tau_d

        d, n = 3, 2
        alg = build_auslander_algebra(n + 1, d)
        labels = enumerate_os(n + 1, d + 1)
        mods = {x: module_M(alg, x) for x in labels}
        for x in labels:
            t = tau_d(x)
            for y in labels:
                for i in range(1, d + 1):
                    expected = 1 if (i == d and t is not None and preceq(y, t)) else 0
                    assert ext_dim(alg, mods[x], mods[y], i) == expected


    @pytest.mark.parametrize("algebra", ["A_3_2", "kA3"])
    def test_ext_into_stalks_and_their_twists(self, algebra):
        # Ext^i(M, P_w) = Hom(R_M, P_w[i]) and, by Serre duality,
        # Ext^i(M, I_w) = dim Hom(P_w, R_M[-i]): the two routes
        # two_subhomogeneous_check takes
        alg = build_auslander_algebra(3, 3) if algebra == "A_3_2" else linear_bqa(3)
        g = gldim(alg)
        modules = [alg.simple(v) for v in alg.vertex_ids()]
        modules += [alg.injective(v) for v in alg.vertex_ids()]
        nonzero = {"proj": 0, "inj": 0}
        for M in modules:
            R = minimal_proj_resolution(alg, M)
            for w in alg.vertex_ids():
                S = stalk_complex(alg, w)
                for i in range(g + 1):
                    into_proj = ext_dim(alg, M, projective(alg, w), i)
                    into_inj = ext_dim(alg, M, alg.injective(w), i)
                    assert hom_complex_dim(R, S, i) == into_proj
                    assert hom_complex_dim(S, R, -i) == into_inj
                    nonzero["proj"] += i > 0 and into_proj > 0
                    nonzero["inj"] += into_inj > 0
        assert nonzero["proj"] and nonzero["inj"]


class TestHomComplex:
    def test_stalk_end_dim(self):
        alg = build_auslander_algebra(3, 2)
        for v in alg.vertex_ids():
            X = stalk_complex(alg, v)
            assert hom_complex_dim(X, X, 0) == 1
            assert hom_complex_dim(X, X, 1) == 0

    def test_stalks_reproduce_ext(self):
        alg = build_auslander_algebra(3, 2)
        x = OrderedSeq(3, 3, (2, 3, 5))
        y = OrderedSeq(3, 3, (1, 2, 4))
        M, N = module_M(alg, x), module_M(alg, y)
        XM = shifted_module_complex(alg, M, 0)
        XN = shifted_module_complex(alg, N, 0)
        for i in range(0, 4):
            assert hom_complex_dim(XM, XN, i) == ext_dim(alg, M, N, i)

    def test_linear_A4_example_rigidity(self):
        alg = linear_bqa(4)
        T = nu_orbit_complexes(alg, stalk_complex(alg, 0), 4)
        for k in range(-4, 5):
            total = sum(hom_complex_dim(a, b, k) for a in T for b in T)
            if k == 0:
                assert total == 7
            else:
                assert total == 0

    def test_minimization_preserves_hom_dims(self):
        alg = linear_bqa(4)
        X = nu_orbit_complexes(alg, stalk_complex(alg, 0), 3)[2]
        # build a padded, non-minimal version: X + cone(id P_2)
        pad = ProjComplex(
            alg,
            {0: (1,), 1: (1,)},
            {0: [[alg.basis_elem(alg.idempotent_of[1])]]},
            check=True,
        )
        padded = direct_sum_complexes([X, pad])
        assert not padded.is_minimal()
        reduced = minimize_complex(padded)
        assert label_signature(reduced) == label_signature(X)
        for k in range(-3, 4):
            assert hom_complex_dim(padded, X, k) == hom_complex_dim(X, X, k)
            assert hom_complex_dim(reduced, X, k) == hom_complex_dim(X, X, k)

    def test_pairs_over_two_algebras_raise(self):
        X = stalk_complex(build_auslander_algebra(3, 2), 0)
        Y = stalk_complex(linear_bqa(3), 0)
        with pytest.raises(ValueError, match="different algebras"):
            hom_complex_dims(X, Y, [0])
        with pytest.raises(ValueError, match="different algebras"):
            chain_maps_mod_homotopy(X, Y)

    def test_minimization_idempotent(self):
        alg = linear_bqa(4)
        X = nu_orbit_complexes(alg, stalk_complex(alg, 0), 3)[2]
        assert label_signature(minimize_complex(X)) == label_signature(X)


def padded_window(X, Y, pad=2):
    """The shifts k where Hom^k(X, Y) can be nonzero, ``pad`` more each side."""
    if X.is_zero() or Y.is_zero():
        return range(-pad, pad + 1)
    lo, hi = min(Y.terms) - max(X.terms), max(Y.terms) - min(X.terms)
    return range(lo - pad, hi + pad + 1)


def injective_resolutions_and_stalks(alg):
    """The inputs of two_subhomogeneous_check: a resolution of each injective
    non-projective, and the stalk of each vertex."""
    proj_inj = projective_injective_vertices(alg)
    resolutions = [
        minimal_proj_resolution(alg, alg.injective(z), label=f"I{z}")
        for z in alg.vertex_ids()
        if z not in proj_inj
    ]
    return resolutions, [stalk_complex(alg, w) for w in alg.vertex_ids()]


class TestHomWindows:
    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3)])
    def test_every_tilting_pair_matches_the_per_shift_oracle(self, d, n):
        _, complexes = tilting_complexes(d, n)
        nonzero = 0
        for X in complexes:
            for Y in complexes:
                ks = padded_window(X, Y)
                expected = [hom_complex_dim_per_shift(X, Y, k) for k in ks]
                assert hom_complex_dims(X, Y, ks) == expected
                nonzero += sum(map(bool, expected))
                # the order of the shifts and repeats do not matter
                shuffled = list(ks)[::-2] + list(ks)[::2] + [ks[0]]
                assert hom_complex_dims(X, Y, shuffled) == [
                    expected[k - ks[0]] for k in shuffled
                ]
        assert nonzero

    @pytest.mark.parametrize("algebra", ["kA4_rad2", "kA5_rad3", "B_3_2"])
    def test_injective_resolutions_against_stalks(self, algebra):
        if algebra == "B_3_2":
            alg = ModelData(3, 2, VerifyConfig()).presentation("B").algebra
        else:
            alg = linear_bqa(4, 2) if algebra == "kA4_rad2" else linear_bqa(5, 3)
        resolutions, stalks = injective_resolutions_and_stalks(alg)
        assert resolutions
        for R in resolutions:
            for S in stalks:
                for X, Y in ((R, S), (S, R)):
                    ks = padded_window(X, Y)
                    assert hom_complex_dims(X, Y, ks) == [
                        hom_complex_dim_per_shift(X, Y, k) for k in ks
                    ]

    def test_zero_complex_has_zero_hom(self):
        alg = linear_bqa(3)
        zero, P = ProjComplex(alg, {}, {}), stalk_complex(alg, 1)
        assert hom_complex_dims(zero, P, range(-2, 3)) == [0] * 5
        assert hom_complex_dims(P, zero, [0]) == [0]
        assert hom_complex_dims(P, P, []) == []

    def test_hom_agreement_builds_delta_only_between_nonzero_homs(self, monkeypatch):
        # at (4, 3) 96.8% of the 25,725 queries have Hom^k = 0; one query per
        # shift built 77,175 slot lists and 51,450 delta matrices, and one
        # slot list per shift in the degree span 5069; counting Hom^j first
        # builds only the slot lists of the 393 delta matrices
        import hatilt.complexes

        model = ModelData(4, 3, VerifyConfig())
        complexes = model.tilting_complexes()
        blocks = model.algebra().blocks
        # no summand of X maps to one of Y, so Hom^j(X, Y) = 0 for every j
        unrelated = {
            (id(X), id(Y))
            for X in complexes
            for Y in complexes
            if not any(
                (u, v) in blocks
                for us in X.terms.values()
                for u in us
                for vs in Y.terms.values()
                for v in vs
            )
        }
        assert len(unrelated) == 782
        real_slots, real_delta = hatilt.complexes._hom_slots, hatilt.complexes._delta_matrix
        slot_calls, delta_calls = Counter(), Counter()

        def counting_slots(X, Y, j):
            slot_calls[id(X), id(Y), j] += 1
            return real_slots(X, Y, j)

        def counting_delta(X, Y, j, source, target):
            assert source[1] and target[1], "delta built from or into a zero Hom"
            delta_calls[id(X), id(Y), j] += 1
            return real_delta(X, Y, j, source, target)

        monkeypatch.setattr(hatilt.complexes, "_hom_slots", counting_slots)
        monkeypatch.setattr(hatilt.complexes, "_delta_matrix", counting_delta)
        ok, value = claim_hom_agreement(model)
        assert ok and value == {"checked": 25725}
        # each pair is asked once, so no slot list or rank is built twice
        assert set(slot_calls.values()) == {1} and set(delta_calls.values()) == {1}
        assert (sum(slot_calls.values()), sum(delta_calls.values())) == (709, 393)
        assert not unrelated & {(x, y) for x, y, _ in slot_calls}

    def test_an_empty_hom_builds_no_delta(self, monkeypatch):
        # of the 1225 ordered tilting pairs at (4,3), 966 have Hom^0 = 0, so
        # no cycle and no boundary row; no slot list or delta is built for
        # them, though for some of them Hom^-1 or Hom^1 is not zero, and
        # End(T) does not ask about them
        import hatilt.complexes
        from hatilt.complexes import _hom_slots

        complexes = ModelData(4, 3, VerifyConfig()).tilting_complexes()
        empty = [
            (X, Y) for X in complexes for Y in complexes if not _hom_slots(X, Y, 0)[1]
        ]
        assert (len(complexes) ** 2, len(empty)) == (1225, 966)
        assert any(_hom_slots(X, Y, j)[1] for X, Y in empty for j in (-1, 1))
        real_slots, real_delta = hatilt.complexes._hom_slots, hatilt.complexes._delta_matrix
        calls = Counter()

        def forbidden(*args):
            raise AssertionError("slot list or delta built for an empty Hom^k")

        def counting(name, real):
            def count(*args):
                calls[name] += 1
                return real(*args)

            return count

        monkeypatch.setattr(hatilt.complexes, "_hom_slots", forbidden)
        monkeypatch.setattr(hatilt.complexes, "_delta_matrix", forbidden)
        for X, Y in empty:
            assert chain_maps_mod_homotopy(X, Y, 0) == ([], [], [], 0)
        monkeypatch.setattr(hatilt.complexes, "_hom_slots", counting("slots", real_slots))
        monkeypatch.setattr(hatilt.complexes, "_delta_matrix", counting("delta", real_delta))
        endo_algebra_of_complexes(complexes)
        # Hom^0 for each pair with Hom^0 != 0, and Hom^-1, Hom^1, delta^-1
        # and delta^0 only where their Hom is not zero as well: of the 259
        # pairs, 49 have Hom^-1 != 0 and 97 have Hom^1 != 0.  Asking every
        # pair built 1743 slot lists, and building all three for each of the
        # 259 built 777 and 518 delta.
        nonzero = [(X, Y) for X in complexes for Y in complexes if _hom_slots(X, Y, 0)[1]]
        below, above = (
            sum(1 for X, Y in nonzero if _hom_slots(X, Y, j)[1]) for j in (-1, 1)
        )
        assert (len(nonzero), below, above) == (1225 - 966, 49, 97)
        assert calls == {"slots": len(nonzero) + below + above, "delta": below + above}
        assert calls == {"slots": 405, "delta": 146}


@cache
def model_algebra(d, n):
    return build_auslander_algebra(n + 1, d)


@st.composite
def equal_shift_pairs(draw):
    """Two interval modules of a small coprime model, both at one shift."""
    d, n = draw(st.sampled_from([(3, 2), (2, 3)]))
    labels = st.lists(
        st.integers(1, d + 1 + n), min_size=d + 1, max_size=d + 1, unique=True
    ).map(sorted)
    return d, n, draw(labels), draw(labels), draw(st.integers(-1, 1))


@st.composite
def shifted_pairs(draw):
    """Two interval modules of a small coprime model at shifts s, t in -1..1."""
    return draw(equal_shift_pairs()) + (draw(st.integers(-1, 1)),)


class TestHomProperty:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(equal_shift_pairs())
    def test_combinatorial_hom_is_hom_of_complexes(self, case):
        d, n, x, y, s = case
        alg = model_algebra(d, n)
        p, q = (path_from_entries(d + 1, n, e) for e in (x, y))
        X, Y = (
            shifted_module_complex(alg, module_M(alg, coords(path)), d * s) for path in (p, q)
        )
        assert hom_dim(ShiftedModule(p, s), ShiftedModule(q, s)) == hom_complex_dim(X, Y, 0)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(shifted_pairs())
    def test_combinatorial_hom_is_hom_of_complexes_across_shifts(self, case):
        d, n, x, y, s, t = case
        alg = model_algebra(d, n)
        p, q = (path_from_entries(d + 1, n, e) for e in (x, y))
        X = shifted_module_complex(alg, module_M(alg, coords(p)), d * s)
        Y = shifted_module_complex(alg, module_M(alg, coords(q)), d * t)
        assert hom_dim(ShiftedModule(p, s), ShiftedModule(q, t)) == hom_complex_dim(X, Y, 0)


class TestDerivedNakayama:
    def test_projective_goes_to_injective_stalk(self):
        d, n = 3, 2
        alg = build_auslander_algebra(n + 1, d)
        for p in enumerate_dyck(d, n):
            v = vertex_of_entries(alg, coords(p).entries)
            X = stalk_complex(alg, v)
            nX = derived_nakayama(X)
            I = alg.injective(v)
            R = shifted_module_complex(alg, I, 0)
            assert complexes_isomorphic(nX, R)

    def test_inverse_round_trip(self):
        alg = build_auslander_algebra(3, 2)
        for v in list(alg.vertex_ids())[:4]:
            X = stalk_complex(alg, v)
            Y = derived_nakayama(X)
            assert complexes_isomorphic(derived_nakayama_inverse(Y), X)
            Z = derived_nakayama_inverse(X)
            assert complexes_isomorphic(derived_nakayama(Z), X)

    def test_serre_duality_dimensions(self):
        alg = build_auslander_algebra(3, 2)
        objs = [stalk_complex(alg, v) for v in list(alg.vertex_ids())[:4]]
        objs.append(derived_nakayama(objs[0]))
        for X in objs:
            for Y in objs:
                nX = derived_nakayama(X)
                assert hom_complex_dim(X, Y, 0) == hom_complex_dim(Y, nX, 0)

    def test_twist_preserves_hom_dims(self):
        alg = build_auslander_algebra(3, 2)
        X = stalk_complex(alg, 0)
        Y = stalk_complex(alg, 3)
        nX, nY = derived_nakayama(X), derived_nakayama(Y)
        for k in range(-2, 3):
            assert hom_complex_dim(X, Y, k) == hom_complex_dim(nX, nY, k)

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3)])
    def test_proj_replace_preserves_cohomology(self, d, n):
        alg, summands = tilting_complexes(d, n)
        for X in summands + [direct_sum_complexes(summands)]:
            C = realize_complex(X)
            Q = proj_replace(C)
            assert Q.is_minimal()
            assert cohomology_dims(realize_projectives(Q)) == cohomology_dims(C)


class TestBudgets:
    def test_max_len_table(self):
        """Per vertex of A at (3, 2), the least max_len at which each call
        succeeds; every smaller budget raises BudgetError."""
        alg = build_auslander_algebra(3, 3)
        calls = {
            "nu": lambda v, k: derived_nakayama(stalk_complex(alg, v), k),
            "nu_inverse": lambda v, k: derived_nakayama_inverse(stalk_complex(alg, v), k),
            "resolution": lambda v, k: minimal_proj_resolution(alg, alg.simple(v), k),
        }
        least = {
            "nu": [0, 0, 0, 0, 0, 0, 3, 3, 3, 3],
            "nu_inverse": [3, 3, 0, 3, 0, 0, 3, 0, 0, 0],
            "resolution": [0, 1, 1, 2, 2, 2, 3, 3, 3, 3],
        }
        for name, call in calls.items():
            for v in alg.vertex_ids():
                for k in range(4):
                    if k < least[name][v]:
                        with pytest.raises(BudgetError):
                            call(v, k)
                    else:
                        call(v, k)


class TestGlobalDimensions:
    def test_gldim_auslander(self):
        assert gldim(build_auslander_algebra(4, 2)) == 2
        assert gldim(build_auslander_algebra(3, 3)) == 3

    def test_gldim_hereditary(self):
        assert gldim(linear_bqa(4)) == 1

    def test_domdim_selfinjective_is_infinite(self):
        from hatilt.fdalg import trivial_ext_r

        pi = trivial_ext_r(linear_bqa(2), 3)
        assert domdim(pi) == math.inf

    def test_gldim_domdim_replicated(self):
        d, n = 3, 2
        alg = build_auslander_algebra(n + 1, d)
        lam = replicate(dyck_end_p(alg, d, n), n + d + 1)
        g = gldim(lam, max_len=10)
        dd = domdim(lam, max_len=10)
        assert g <= n * d + 1 <= dd


def engine_outcome(alg, nd, max_len):
    """What the claims read off the engine over ``alg``: gldim, domdim, the
    projective-injective vertices and the two-step report, with BudgetError
    standing for a resolution that does not end (gldim of the self-injective
    Pi)."""

    def attempt(compute):
        try:
            return compute()
        except BudgetError:
            return "BudgetError"

    g = attempt(lambda: gldim(alg, max_len=max_len))
    return (
        g,
        attempt(lambda: domdim(alg, max_len=max_len)),
        projective_injective_vertices(alg),
        two_subhomogeneous_check(alg, nd, g, max_len=max_len) if type(g) is int else None,
    )


class TestEngineAgreement:
    """The claims resolve over B0, B, Lambda and Pi as built, from structure
    constants; over their presentations the engine must read the same."""

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (4, 3)])
    @pytest.mark.parametrize("name", ["B0", "B", "Lambda", "Pi"])
    def test_built_and_presented_agree(self, d, n, name):
        model = ModelData(d, n, VerifyConfig())
        built = model.named(name)
        presented = presentation_data(built).algebra
        assert built.relations is None and presented.relations is not None
        outcomes = [engine_outcome(alg, n * d, model.max_len) for alg in (built, presented)]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] or name == "B0"


def domdim_test_algebras():
    """A builder for every kA_k/rad^r with 2 <= r <= k <= 7, the
    Auslander algebras of (n, d) for 2 <= n <= 5 and 1 <= d <= 3, and the
    presented B0, B, Lambda and Pi at four models: 49 algebras."""
    out = [
        pytest.param(lambda k=k, r=r: linear_bqa(k, r), id=f"kA{k}_rad{r}")
        for k in range(2, 8)
        for r in range(2, k + 1)
    ]
    out += [
        pytest.param(lambda n=n, d=d: build_auslander_algebra(n, d), id=f"A_n{n}_d{d}")
        for n in range(2, 6)
        for d in range(1, 4)
    ]
    out += [
        pytest.param(
            lambda d=d, n=n, name=name: model_presentation(d, n, name), id=f"{name}_{d}_{n}"
        )
        for d, n in [(3, 2), (2, 3), (5, 2), (3, 4)]
        for name in ("B0", "B", "Lambda", "Pi")
    ]
    return out


def model_presentation(d, n, name):
    return ModelData(d, n, VerifyConfig()).presentation(name).algebra


class TestDominantDimension:
    @pytest.mark.parametrize("build", domdim_test_algebras())
    def test_matches_the_coresolution_oracle(self, build):
        # domdim reads the resolutions of the injectives over the algebra;
        # the oracle coresolves the algebra through the opposite algebra
        alg = build()
        assert domdim(alg) == domdim_by_coresolution(alg)

    def test_resolves_only_the_injectives_that_are_not_projective(self, monkeypatch):
        # at (4,3) 35 of Lambda's 40 injectives are projective, and each
        # resolves to the stalk at a top; domdim resolves the other 5
        import hatilt.complexes

        lam = ModelData(4, 3, VerifyConfig()).lam()
        proj_inj = projective_injective_vertices(lam)
        resolved = []
        real = hatilt.complexes.minimal_proj_resolution

        def counting(alg, M, *args, **kwargs):
            resolved.append(M.vertices)
            return real(alg, M, *args, **kwargs)

        monkeypatch.setattr(hatilt.complexes, "minimal_proj_resolution", counting)
        assert domdim(lam) == 13
        assert (lam.nidem, len(proj_inj)) == (40, 35)
        assert resolved == [(z,) for z in lam.vertex_ids() if z not in proj_inj]

    def test_projective_injective_vertices_map_to_tops(self):
        # right modules over kA3/rad2 (arrows 1 -> 2 -> 3, vertex ids from
        # 0): I_1 = P_2 and I_2 = P_3 are two-dimensional, I_3 = S_3 is not
        # projective, and the values are the tops, not the socles
        alg = linear_bqa(3, 2)
        assert projective_injective_vertices(alg) == {0: 1, 1: 2}

    @pytest.mark.parametrize(
        "d, n",
        [(3, 2), (2, 3), (5, 2), (2, 5), (4, 3), (3, 4), (7, 2), (2, 7), (5, 3), (3, 5), (7, 3),
         (5, 4)],
    )
    def test_projective_injective_vertices_match_the_tops_oracle(self, d, n, monkeypatch):
        # every rung of the ladder up to (5, 4); the oracle builds each
        # injective and reads its top off the radical fibers
        model = ModelData(d, n, VerifyConfig())
        algebras = [model.algebra()] + [model.named(name) for name in ("B0", "B", "Lambda", "Pi")]
        expected = [projective_injective_vertices_by_tops(alg) for alg in algebras]

        def forbidden(*args):
            raise AssertionError("an injective was built")

        monkeypatch.setattr(InjectiveSum, "__init__", forbidden)
        assert [projective_injective_vertices(alg) for alg in algebras] == expected
        # Pi is self-injective, and Lambda has projective-injectives
        assert expected[4].keys() == set(algebras[4].vertex_ids()) and expected[3]

    @pytest.mark.parametrize(
        "arrows, relations, expected",
        [
            # the Kronecker algebra 0 => 1: A e_0 has a two-dimensional socle
            # at 1, and at 0 the two arrows give a rank-one matrix
            ([(0, 1), (0, 1)], [], {}),
            # 0 => 1 -> 2 with c a = c b: the socle of A e_0 is spanned by
            # c a at 2 and a - b at 1, the kernel of a rank-one matrix on the
            # two-dimensional block (0, 1)
            ([(0, 1), (0, 1), (1, 2)], [[(1, (0, 2)), (-1, (1, 2))]], {}),
            # the dual numbers k[x]/(x^2) are self-injective: the socle x of
            # the two-dimensional block (0, 0) is the kernel of x acting
            ([(0, 0)], [[(1, (0, 0))]], {0: 0}),
            # a loop through the Kronecker pair, killed by every arrow:
            # I_1 = P_0, of dimension 3
            (
                [(0, 1), (0, 1), (1, 0)],
                [[(1, (0, 2))], [(1, (1, 2))], [(1, (2, 0))], [(1, (2, 1))]],
                {1: 0},
            ),
        ],
        ids=["kronecker", "kronecker_then_arrow", "dual_numbers", "kronecker_loop"],
    )
    def test_projective_injective_vertices_over_a_two_dimensional_block(
        self, arrows, relations, expected
    ):
        vertices = sorted({v for arrow in arrows for v in arrow})
        q = Quiver(
            [Vertex(v, str(v)) for v in vertices],
            [Arrow(i, s, t, f"a{i}") for i, (s, t) in enumerate(arrows)],
        )
        alg = BoundQuiverAlgebra.from_quiver_data(q, [relation(*r) for r in relations])
        assert any(len(ids) == 2 for ids in alg.blocks.values())
        assert projective_injective_vertices(alg) == expected
        assert projective_injective_vertices_by_tops(alg) == expected

    def test_projective_injective_vertices_build_no_projective(self):
        # dim P_w is read off the blocks, as the library builds no projective
        # module; the modules agree with it
        B = ModelData(4, 3, VerifyConfig()).b_replicated()
        found = projective_injective_vertices(B)
        expected = {}
        for v in B.vertex_ids():
            I = B.injective(v)
            rad = radical_fibers(I)
            top = [(w, k) for w in B.vertex_ids() for k in range(I.dims[w] - len(rad[w]))]
            if len(top) == 1 and projective(B, top[0][0]).total_dim == I.total_dim:
                expected[v] = top[0][0]
        assert found == expected and found


class TestTwoSubhomogeneous:
    def test_kA4_mod_rad_square(self):
        alg = linear_bqa(4, rad_power=2)
        g = gldim(alg)
        assert g == 3
        assert two_subhomogeneous_check(alg, 3, g).passed

    def test_hereditary_kA2(self):
        # d = 1 has an empty rigidity window; kA_2 satisfies the twisted
        # injective condition as well (mod kA_2 = add(A + DA))
        alg = linear_bqa(2)
        report = two_subhomogeneous_check(alg, 1, gldim(alg))
        assert report.passed
        assert report.rigidity_ok

    @pytest.mark.parametrize("k, rad_power, d", [(3, None, 2), (4, 2, 3), (4, 2, 4), (5, 3, 3)])
    def test_rigidity_window_matches_ext_oracle(self, k, rad_power, d):
        alg = linear_bqa(k, rad_power)
        targets = [projective(alg, w) for w in alg.vertex_ids()]
        targets += [alg.injective(w) for w in alg.vertex_ids()]
        proj_inj = projective_injective_vertices(alg)
        expected = all(
            ext_dim(alg, alg.injective(z), N, i) == 0
            for z in alg.vertex_ids()
            if z not in proj_inj
            for N in targets
            for i in range(1, d)
        )
        assert two_subhomogeneous_check(alg, d, gldim(alg)).rigidity_ok == expected

    def test_hereditary_kA3_fails_honestly(self):
        # kA_3 is not two-step homogeneous: the twist of the simple
        # injective is the middle simple, which is not projective
        alg = linear_bqa(3)
        g = gldim(alg)
        assert g == 1  # the global dimension does not fail it
        report = two_subhomogeneous_check(alg, 1, g)
        assert report.rigidity_ok  # the d = 1 window is empty
        assert not report.passed

    def test_B_for_3_2(self):
        d, n = 3, 2
        alg = build_auslander_algebra(n + 1, d)
        B = replicate(dyck_end_p(alg, d, n), n + d)
        g = gldim(B, max_len=10)
        assert g == 6
        assert two_subhomogeneous_check(B, n * d, g, max_len=10).passed

    def test_rejects_gldim_overflow(self):
        # gldim above d fails the check; it does not raise
        B = ModelData(3, 2, VerifyConfig()).b_replicated()
        for alg, d_check, g in [(linear_bqa(3), 0, 1), (B, 2, 6)]:
            assert gldim(alg, max_len=10) == g
            assert not two_subhomogeneous_check(alg, d_check, g, max_len=10).passed
        # kA_4 / rad^2 passes with d = 3 = gldim, so only the global
        # dimension can fail it here
        alg = linear_bqa(4, rad_power=2)
        assert not two_subhomogeneous_check(alg, 3, 4).passed


class TestFCY:
    def test_semisimple_identity(self):
        q = Quiver([Vertex(0, "1"), Vertex(1, "2")], [])
        alg = BoundQuiverAlgebra.from_quiver_data(q, [])
        assert fcy_object_check(alg, 0, 1)

    def test_kA2_is_one_third_cy(self):
        # nu^3 = [1] on kA_2
        assert fcy_object_check(linear_bqa(2), 1, 3)
        assert not fcy_object_check(linear_bqa(2), 1, 2)

    @pytest.mark.parametrize(
        "algebra, shift, power, expected",
        [
            ("A_3_2", 6, 6, True),
            ("kA2", 1, 3, True),
            ("kA2", 1, 2, False),
            ("kA2", 0, 1, False),
            ("kA3", 1, 2, False),
            # self-injective with Nakayama permutation (0 1): nu P_z is P_w
            # in degree zero, but w != z
            ("cyclic2", 0, 1, False),
            ("cyclic2", 0, 2, True),
        ],
    )
    def test_stalk_terms_decide_isomorphism(self, algebra, shift, power, expected):
        # nu^power(P_z) ~ P_z[shift] for every z exactly when the search for
        # an invertible chain map finds one for every z
        if algebra == "cyclic2":
            q = Quiver(
                [Vertex(0, "1"), Vertex(1, "2")], [Arrow(0, 0, 1, "a"), Arrow(1, 1, 0, "b")]
            )
            alg = BoundQuiverAlgebra.from_quiver_data(
                q, [relation((1, (0, 1))), relation((1, (1, 0)))]
            )
        elif algebra == "A_3_2":
            alg = build_auslander_algebra(3, 3)
        else:
            alg = linear_bqa(int(algebra[-1]))
        verdicts = []
        for z in alg.vertex_ids():
            X = stalk_complex(alg, z)
            Y = X
            for _ in range(power):
                Y = derived_nakayama(Y)
            verdicts.append(complexes_isomorphic(Y, X.shift(shift)))
        assert all(verdicts) == expected
        assert fcy_object_check(alg, shift, power) == expected

    @pytest.mark.parametrize("algebra", ["A_3_2", "A_2_3", "cyclic2"])
    def test_walk_matches_iterated_orbit(self, algebra):
        # the terms the return-map walk reads for nu^i(P_z) are those of
        # nu applied i times, for every z and every i up to n + d + 1 = 6;
        # on cyclic2 every orbit returns to the other vertex after one step
        power = 6
        alg = {
            "A_3_2": lambda: build_auslander_algebra(3, 3),
            "A_2_3": lambda: build_auslander_algebra(4, 2),
            "cyclic2": lambda: cyclic_rad_square_zero(2),
        }[algebra]()
        orbits = {
            z: nu_orbit_complexes(alg, stalk_complex(alg, z), power + 1)
            for z in alg.vertex_ids()
        }
        for i in range(power + 1):
            walked = _nu_power_terms(alg, i)
            for z in alg.vertex_ids():
                assert walked[z] == orbits[z][i].terms

    def test_walk_applies_nakayama_once_per_return_step(self, monkeypatch):
        import hatilt.complexes

        # at (4,3) 20 vertices return to a stalk after one step, 10 after
        # two, 4 after three and 1 after four: 20 + 20 + 12 + 4 calls, not
        # 35 * 8 = 280 as iterating nu on every stalk would make
        calls = []

        def counting(X, max_len=64):
            calls.append(X)
            return derived_nakayama(X, max_len)

        monkeypatch.setattr(hatilt.complexes, "derived_nakayama", counting)
        assert fcy_object_check(build_auslander_algebra(4, 4), 12, 8)
        assert len(calls) == 56

    def test_power_zero_is_the_identity(self):
        alg = build_auslander_algebra(3, 3)
        assert fcy_object_check(alg, 0, 0)
        assert not any(fcy_object_check(alg, s, 0) for s in (-1, 1, 6))

    def test_B0_for_3_2(self):
        assert fcy_object_check(linear_bqa(2), 2, 6)

    def test_commuting_square_tensor_algebra(self):
        # the tensor square of kA_2: gldim 2 and objectwise nu^3 = [2],
        # exercising the machinery away from the linear-type family
        q = Quiver(
            [Vertex(i, str(i)) for i in range(4)],
            [
                Arrow(0, 0, 1, "a"),
                Arrow(1, 0, 2, "b"),
                Arrow(2, 1, 3, "c"),
                Arrow(3, 2, 3, "d"),
            ],
        )
        alg = BoundQuiverAlgebra.from_quiver_data(
            q, [relation((1, (0, 2)), (-1, (1, 3)))]
        )
        assert gldim(alg) == 2
        assert fcy_object_check(alg, 2, 3)

    def test_B_for_3_2_at_complex_level(self):
        # the tilting endomorphism algebra satisfies nu^6 = [6] objectwise
        d, n = 3, 2
        alg = build_auslander_algebra(n + 1, d)
        B = replicate(dyck_end_p(alg, d, n), n + d)
        assert fcy_object_check(B, n * d, n + d + 1, max_len=8)


class TestTiltingFromOrbit:
    def test_a_equals_one(self):
        alg = linear_bqa(4)
        X = stalk_complex(alg, 0)
        T = direct_sum_complexes(nu_orbit_complexes(alg, X, 1))
        assert label_signature(T) == label_signature(X)

    def test_linear_A4_summands(self):
        alg = linear_bqa(4)
        orbit = nu_orbit_complexes(alg, stalk_complex(alg, 0), 4)
        assert dict(orbit[0].terms) == {0: (0,)}
        assert dict(orbit[1].terms) == {0: (3,)}
        assert dict(orbit[2].terms) == {-1: (2,), 0: (3,)}
        assert dict(orbit[3].terms) == {-2: (1,), -1: (2,)}
        total = direct_sum_complexes(orbit)
        assert sum(len(v) for v in total.terms.values()) == 6

    def test_agrees_with_cluster_model(self):
        d, n = 3, 2
        alg = build_auslander_algebra(n + 1, d)
        base = projective_summands(d, n)
        for u in base:
            expected = nakayama_pow(u, 2)
            m = module_M(alg, coords(u.path))
            X = shifted_module_complex(alg, m, 0)
            twisted = derived_nakayama(derived_nakayama(X))
            m2 = module_M(alg, coords(expected.path))
            Y = shifted_module_complex(alg, m2, d * expected.shift)
            assert complexes_isomorphic(twisted, Y)


class TestGenerationStrips:
    """Each resolved certificate entry comes with an exact strip of modules."""

    @pytest.mark.parametrize("d,n", [(3, 2), (2, 3), (4, 3), (3, 4), (5, 2)])
    def test_resolved_strips_are_exact(self, d, n):
        alg = build_auslander_algebra(n + 1, d)
        resolved = [
            e for e in generation_certificate(d, n).entries if e.status == "resolved"
        ]
        assert resolved
        for entry in resolved:
            mods = [module_M(alg, coords(p)) for p in strip_sequence(entry.window, d, n)]
            assert len(mods) == d + 2
            maps = []
            for M, N in zip(mods, mods[1:]):
                dim, basis = hom_space(M, N)
                assert dim == 1
                maps.append(basis[0])
            for f, g in zip(maps, maps[1:]):
                assert all(g[v].matmul(f[v]).is_zero() for v in alg.vertex_ids())
            ranks = [sum(m.rank() for m in f.values()) for f in maps]
            assert ranks[0] == mods[0].total_dim  # injective
            assert ranks[-1] == mods[-1].total_dim  # surjective
            for j in range(1, d + 1):
                # dim ker of the outgoing map = rank of the incoming map
                assert mods[j].total_dim - ranks[j] == ranks[j - 1]


def cyclic_rad_square_zero(k):
    """The cyclic quiver on k vertices with every length-two path zero."""
    q = Quiver(
        [Vertex(i, str(i)) for i in range(k)],
        [Arrow(i, i, (i + 1) % k, f"a{i}") for i in range(k)],
    )
    return BoundQuiverAlgebra.from_quiver_data(
        q, [relation((1, (i, (i + 1) % k))) for i in range(k)]
    )


class TestPreprojective:
    def test_3_2_report(self):
        ok, value = claim_preprojective(ModelData(3, 2, VerifyConfig()))
        assert ok
        assert value == {
            "hom_dim": 3,
            "end_p_dim": 3,
            "self_injective": True,
            "degree_zero_iso": True,
        }

    @pytest.mark.parametrize(
        "algebra, expected",
        [
            ("Pi_3_2", True),
            ("Pi_2_3", True),
            ("Pi_4_3", True),
            ("cyclic_rad2", True),
            ("A_3_2", False),
            ("B_3_2", False),
            ("kA3", False),
        ],
    )
    def test_self_injective_matches_tops_and_permutation(self, algebra, expected):
        # claim_preprojective reads self-injectivity as "every vertex is
        # projective-injective"; the oracle checks tops and the permutation
        if algebra.startswith("Pi_") or algebra == "B_3_2":
            name, d, n = algebra.split("_")
            alg = ModelData(int(d), int(n), VerifyConfig()).presentation(name).algebra
        elif algebra == "A_3_2":
            alg = build_auslander_algebra(3, 3)
        else:
            alg = cyclic_rad_square_zero(3) if algebra == "cyclic_rad2" else linear_bqa(3)
        self_injective = projective_injective_vertices(alg).keys() == set(alg.vertex_ids())
        assert self_injective == self_injective_by_tops(alg) == expected

    def test_hom_into_injective_is_its_fiber(self):
        # Yoneda: Hom(P_p, I_i) is the fiber of I_i at p
        alg = build_auslander_algebra(3, 3)
        for p in alg.vertex_ids():
            for i in alg.vertex_ids():
                expected = hom_space(projective(alg, p), alg.injective(i))[0]
                assert alg.injective(i).dims[p] == expected

    def test_degree_one_support_pattern(self):
        # nonzero Hom(P, nu^{i(n+d)+k-j} P) in positive degrees forces
        # i = 1, k = 1, j = n+d
        d, n = 3, 2
        base = projective_summands(d, n)
        hits = set()
        for i in (1, 2):
            for j in range(1, n + d + 1):
                for k in range(1, n + d + 1):
                    power = i * (n + d) + k - j
                    total = sum(
                        hom_dim(u, nakayama_pow(v, power)) for u in base for v in base
                    )
                    if total:
                        hits.add((i, k, j))
        assert hits == {(1, 1, n + d)}


class TestEndoOfComplexes:
    def test_end_of_single_stalk(self):
        alg = build_auslander_algebra(3, 2)
        fd = endo_algebra_of_complexes([stalk_complex(alg, 0)])
        assert fd.dim == 1

    def test_end_T_dimension_3_2(self):
        alg, T = tilting_complexes(3, 2)
        fd = endo_algebra_of_complexes(T)
        assert fd.dim == 27
        assert fd.nidem == 10

    def test_higher_auslander_algebra_both_routes(self):
        # End of the first n+d+1 twists of the base projective equals the
        # (n+d+1)-replicated algebra
        d, n = 3, 2
        alg = build_auslander_algebra(n + 1, d)
        objs = [
            nakayama_pow(u, i)
            for i in range(1, n + d + 2)
            for u in projective_summands(d, n)
        ]
        cplx = []
        for u in objs:
            m = module_M(alg, coords(u.path))
            cplx.append(shifted_module_complex(alg, m, d * u.shift))
        lam_end = endo_algebra_of_complexes(cplx)
        assert lam_end.dim == 33
        from hatilt.fdalg import iso_test

        assert iso_test(lam_end, replicate(dyck_end_p(alg, d, n), n + d + 1)) is not None

    def test_dual_pattern_of_DB(self):
        # Hom(DB, B[i]) is nonzero only in degrees 0 and nd
        d, n = 3, 2
        alg = build_auslander_algebra(n + 1, d)
        B = replicate(dyck_end_p(alg, d, n), n + d)
        proj_stalks = [stalk_complex(B, v) for v in B.vertex_ids()]
        inj_complexes = [
            shifted_module_complex(B, B.injective(v), 0, max_len=10)
            for v in B.vertex_ids()
        ]
        support = set()
        for i in range(0, n * d + 2):
            total = sum(
                hom_complex_dim(I, Pst, i) for I in inj_complexes for Pst in proj_stalks
            )
            if total:
                support.add(i)
        assert support == {0, n * d}

    def test_end_T_associativity_exhaustive(self):
        alg, T = tilting_complexes(3, 2)
        fd = endo_algebra_of_complexes(T)
        check_associative(fd)


def end_digest(alg):
    """SHA-256 of an End algebra's tables: the ends of each basis element,
    the products in insertion order with their scalar types, and the
    idempotents."""
    h = hashlib.sha256()
    for b in alg.basis:
        h.update(repr((b.id, b.src, b.tgt)).encode())
    for key, table in alg.mult.items():
        h.update(repr((key, [(k, type(c).__name__, c) for k, c in table.items()])).encode())
    h.update(repr(list(alg.idempotent_of.items())).encode())
    return h.hexdigest()


class TestEndDigest:
    """End(T) pinned bit for bit: its basis order, every structure constant
    in the order ``mult`` is filled, and the identities."""

    @pytest.mark.parametrize("d, n, digest", [
        (3, 2, "f975b193bc61491c2d332a9c45c646dcd4e55e82f659c52e794b163159817668"),
        (2, 3, "f975b193bc61491c2d332a9c45c646dcd4e55e82f659c52e794b163159817668"),
        (4, 3, "0dac7d8a54124c46f655fcd45b634b8772851b11a45049cdfd3fcb883a13239a"),
        (3, 4, "0dac7d8a54124c46f655fcd45b634b8772851b11a45049cdfd3fcb883a13239a"),
    ])
    def test_end_t_of_the_model(self, d, n, digest):
        assert end_digest(ModelData(d, n, VerifyConfig()).end_t()) == digest

    def test_end_of_the_linear_a4_orbit(self):
        # the tilting list of acceptance criterion 15
        alg = linear_bqa(4)
        T = nu_orbit_complexes(alg, stalk_complex(alg, 0), 4)
        digest = "61aff15214777dc9cf09a3e99f0162f1c599f8a52019f060537dd1ffe3b50cea"
        assert end_digest(endo_algebra_of_complexes(T)) == digest


class TestTranslateConsistency:
    def test_shifted_hom_invariance(self):
        alg = build_auslander_algebra(3, 2)
        X = stalk_complex(alg, 0)
        Y = derived_nakayama(X)
        for j in (-2, 1, 3):
            for k in range(-2, 3):
                assert hom_complex_dim(X, Y, k) == hom_complex_dim(
                    X.shift(j), Y.shift(j + k), 0
                )

    def test_twisted_shift_is_module_translate(self):
        # nu(M_x)[-d] is the interval module at the decremented label for
        # every non-projective x; exactly the combinatorial translate rule
        from hatilt.cluster import tau_d

        d, n = 3, 2
        alg = build_auslander_algebra(n + 1, d)
        for x in enumerate_os(n + 1, d + 1):
            t = tau_d(x)
            if t is None:
                continue
            X = shifted_module_complex(alg, module_M(alg, x), 0)
            twisted = derived_nakayama(X, max_len=8).shift(-d)
            expected = shifted_module_complex(alg, module_M(alg, t), 0)
            assert complexes_isomorphic(twisted, expected), x


class TestWideRoundTrips:
    def test_twist_round_trip_on_direct_sum(self):
        d, n = 3, 2
        alg = build_auslander_algebra(n + 1, d)
        parts = []
        for u in tilting_summands(d, n)[:6]:
            m = module_M(alg, coords(u.path))
            parts.append(shifted_module_complex(alg, m, d * u.shift))
        big = direct_sum_complexes(parts)
        assert complexes_isomorphic(
            derived_nakayama_inverse(derived_nakayama(big)), big
        )
        assert complexes_isomorphic(
            derived_nakayama(derived_nakayama_inverse(big)), big
        )

    def test_auslander_bound_for_A_itself(self):
        # the algebra is itself a higher Auslander algebra, so its global
        # dimension is bounded by its dominant dimension
        alg = build_auslander_algebra(3, 3)
        assert gldim(alg) == 3
        assert domdim(alg) >= 3
