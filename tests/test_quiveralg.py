import hashlib
import itertools
import re
from fractions import Fraction

import pytest
from oracles import (
    arrow_map,
    direct_sum,
    dual_module,
    hom_space,
    injective_sum_action_by_elements,
    mult_matrix_by_elements,
    opposite,
    path_action_by_identity,
    projective,
    projective_entry_maps,
    radical_fibers,
)

from hatilt.exactmat import ExactMatrix
from hatilt.pathcomb import OrderedSeq, enumerate_os, preceq
from hatilt.quiveralg import (
    Arrow,
    BoundQuiverAlgebra,
    InjectiveSum,
    Quiver,
    QuiverRep,
    Vertex,
    build_auslander_algebra,
    module_M,
    relation,
    vertex_of_entries,
)
from hatilt.verify import ModelData, VerifyConfig


def linear_quiver(k):
    vertices = [Vertex(i, str(i + 1)) for i in range(k)]
    arrows = [Arrow(i, i, i + 1, f"a{i + 1}") for i in range(k - 1)]
    return Quiver(vertices, arrows)


def build_linear(k, rad_power=None):
    q = linear_quiver(k)
    rels = []
    if rad_power is not None:
        for start in range(0, k - rad_power):
            rels.append(relation((1, tuple(range(start, start + rad_power)))))
    return BoundQuiverAlgebra.from_quiver_data(q, rels)


class TestLinearAlgebras:
    def test_path_algebra_dimension(self):
        alg = build_linear(4)
        assert alg.dim == 10  # paths i -> j for i <= j

    def test_rad_square_zero(self):
        alg = build_linear(4, rad_power=2)
        assert alg.dim == 7  # 4 vertices + 3 arrows
        assert alg.nilpotency == 2

    def test_rad_cube(self):
        alg = build_linear(10, rad_power=3)
        assert alg.dim == 27  # 10 + 9 + 8

    def test_multiplication_associative(self):
        alg = build_linear(4, rad_power=3)
        for b1, b2, b3 in itertools.product(alg.basis, repeat=3):
            x = alg.elem_mul(
                alg.basis_elem(b1.id), alg.elem_mul(alg.basis_elem(b2.id), alg.basis_elem(b3.id))
            )
            y = alg.elem_mul(
                alg.elem_mul(alg.basis_elem(b1.id), alg.basis_elem(b2.id)), alg.basis_elem(b3.id)
            )
            assert x == y

    def test_idempotents_sum_to_identity(self):
        alg = build_linear(3)
        idem = {}
        for v, bid in alg.idempotent_of.items():
            idem = alg.elem_add(idem, alg.basis_elem(bid))
        for b in alg.basis:
            assert alg.elem_mul(idem, alg.basis_elem(b.id)) == alg.basis_elem(b.id)
            assert alg.elem_mul(alg.basis_elem(b.id), idem) == alg.basis_elem(b.id)


class TestCommutingSquare:
    def build(self):
        # 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 with the square commuting
        vertices = [Vertex(i, str(i)) for i in range(4)]
        arrows = [
            Arrow(0, 0, 1, "a"),
            Arrow(1, 0, 2, "b"),
            Arrow(2, 1, 3, "c"),
            Arrow(3, 2, 3, "d"),
        ]
        return BoundQuiverAlgebra.from_quiver_data(
            Quiver(vertices, arrows), [relation((1, (0, 2)), (-1, (1, 3)))]
        )

    def test_dimension(self):
        # 4 idempotents + 4 arrows + 1 diagonal class
        assert self.build().dim == 9

    def test_square_collapses(self):
        alg = self.build()
        ac = alg.elem_mul(alg.basis_elem(alg.arrow_elem[2]), alg.basis_elem(alg.arrow_elem[0]))
        bd = alg.elem_mul(alg.basis_elem(alg.arrow_elem[3]), alg.basis_elem(alg.arrow_elem[1]))
        assert ac == bd
        assert ac != {}

    def test_auslander_square_keeps_the_larger_path(self):
        # rref pivots on the lexicographically smaller candidate path
        alg = build_auslander_algebra(3, 2)
        assert relation((1, (1, 4)), (-1, (2, 3))) in alg.relations
        paths = {b.path for b in alg.basis}
        assert (2, 3) in paths and (1, 4) not in paths


class TestAuslanderAlgebra:
    def test_vertex_counts(self):
        assert len(build_auslander_algebra(5, 3).quiver.vertices) == 35
        assert len(build_auslander_algebra(4, 2).quiver.vertices) == 10

    def test_d1_is_linear_path_algebra(self):
        alg = build_auslander_algebra(4, 1)
        assert len(alg.quiver.vertices) == 4
        assert len(alg.quiver.arrows) == 3
        assert not alg.relations
        assert alg.dim == 10

    def test_hom_dimension_rule(self):
        # dim e_y A e_x = 1 exactly when x interleaves below y
        for n, d in [(3, 2), (4, 2), (3, 3), (5, 3)]:
            alg = build_auslander_algebra(n, d)
            seqs = enumerate_os(n, d)
            for x in seqs:
                for y in seqs:
                    vx = vertex_of_entries(alg, x.entries)
                    vy = vertex_of_entries(alg, y.entries)
                    expected = 1 if preceq(x, y) else 0
                    assert len(alg.blocks.get((vx, vy), [])) == expected

    def test_associativity_sampled_exhaustively_small(self):
        alg = build_auslander_algebra(3, 2)
        elems = [alg.basis_elem(b.id) for b in alg.basis]
        for x, y, z in itertools.product(elems, repeat=3):
            assert alg.elem_mul(x, alg.elem_mul(y, z)) == alg.elem_mul(alg.elem_mul(x, y), z)


class TestBudgets:
    def test_algebra_dimension_budget(self):
        from hatilt.quiveralg import BudgetError

        with pytest.raises(BudgetError):
            build_auslander_algebra(5, 3, max_dim=10)

    def test_non_nilpotent_detected(self):
        from hatilt.quiveralg import BudgetError

        q = Quiver([Vertex(0, "1")], [Arrow(0, 0, 0, "loop")])
        with pytest.raises(BudgetError):
            BoundQuiverAlgebra.from_quiver_data(q, [])


def algebra_digest(alg):
    """SHA-256 of what ``from_quiver_data`` returns: each basis element, the
    products in insertion order with their scalar types, the idempotents and
    the nilpotency."""
    h = hashlib.sha256()
    for b in alg.basis:
        h.update(repr((b.id, b.src, b.tgt, b.degree, b.path)).encode())
    for key, table in alg.mult.items():
        h.update(repr((key, [(k, type(c).__name__, c) for k, c in table.items()])).encode())
    h.update(repr(list(alg.idempotent_of.items())).encode())
    h.update(repr(alg.nilpotency).encode())
    return h.hexdigest()


class TestFromQuiverDataDigest:
    """The output of ``from_quiver_data``, pinned bit for bit: the basis
    order, the kept paths and every structure constant."""

    @pytest.mark.parametrize("n, d, digest", [
        (3, 2, "883318f0af97a68f766f185239829757d0dd5b3b211e32788be2d5fb1952705b"),
        (4, 3, "38624cc71e3653125618b89b52162492ec7ed894e98e49a4d26250cd866e31a1"),
        (5, 3, "ad0ca42e567a765516f58f6dd0533d61b8faf519f29648a05b634e3196e6b492"),
        (4, 4, "b363ff8c97cf829bd11600beceee2be30d8af6e4c63c7f92889cc6222335f69c"),
    ])
    def test_auslander_algebra(self, n, d, digest):
        assert algebra_digest(build_auslander_algebra(n, d)) == digest

    def test_parallel_arrows_with_a_fraction(self):
        # a, b: 0 -> 1 and c: 1 -> 2 with 2 (a, c) = 3 (b, c); the smaller
        # path (a, c) is eliminated, so c after a is 3/2 (b, c)
        q = Quiver([Vertex(i, str(i)) for i in range(3)],
                   [Arrow(0, 0, 1, "a"), Arrow(1, 0, 1, "b"), Arrow(2, 1, 2, "c")])
        alg = BoundQuiverAlgebra.from_quiver_data(q, [relation((2, (0, 2)), (-3, (1, 2)))])
        assert alg.mult[(5, 1)] == {3: Fraction(3, 2)}
        digest = "b63dba502b8a3004fde1569c6add53379cc3dbf3b720136d6ec42b0076882ebc"
        assert algebra_digest(alg) == digest


class TestOpposite:
    def test_involution(self):
        alg = build_auslander_algebra(3, 2)
        op = opposite(alg)
        assert op.dim == alg.dim
        assert opposite(op) is alg

    def test_blocks_swap(self):
        alg = build_auslander_algebra(3, 2)
        op = opposite(alg)
        for (s, t), ids in alg.blocks.items():
            assert op.blocks[(t, s)] == ids

    def test_mult_transposes(self):
        alg = build_linear(4, rad_power=3)
        op = opposite(alg)
        for (i, j), out in alg.mult.items():
            assert op.mult[(j, i)] == out

    def test_dual_module_checks_relations_over_opposite(self):
        alg = build_auslander_algebra(3, 2)
        op = opposite(alg)
        # reversing every path swaps each relation's ends
        assert [(s, t) for _, s, t in op.relation_ends] == [
            (t, s) for _, s, t in alg.relation_ends
        ]
        for r, s, t in op.relation_ends:
            assert r.validate(op.quiver)[:2] == (s, t)
        dual = dual_module(module_M(alg, OrderedSeq(3, 3, (1, 3, 5))))
        assert dual.algebra is op
        # break the one commuting square with two nonzero end fibers
        r, s, t = next(
            (r, s, t) for r, s, t in op.relation_ends
            if len(r.terms) == 2 and dual.dims[s] and dual.dims[t]
        )
        maps = dict(dual.maps)
        maps[r.terms[0][1][0]] = maps[r.terms[0][1][0]].scale(2)
        with pytest.raises(ValueError, match=re.escape(str(r))):
            QuiverRep(op, dual.dims, maps)


def _rep_along(alg, path, scaled=None):
    """One-dimensional fibers at the vertices of ``path`` (one or more
    paths), 1 on their arrows and 2 on the arrow ``scaled``."""
    dims, maps = {}, {}
    for aid in path:
        a = alg.quiver.arrow_by_id[aid]
        dims[a.src] = dims[a.tgt] = 1
        maps[aid] = ExactMatrix(1, 1, [[Fraction(2 if aid == scaled else 1)]])
    return dims, maps


class TestModuleM:
    def test_broken_commuting_square_raises(self):
        alg = build_auslander_algebra(3, 2)
        r = next(r for r in alg.relations if len(r.terms) == 2)
        (_, via_i), (_, via_j) = r.terms
        dims, maps = _rep_along(alg, via_i + via_j, scaled=via_j[0])
        with pytest.raises(ValueError, match=re.escape(str(r))):
            QuiverRep(alg, dims, maps)
        # the same square with 1 on both reroutes is a module
        QuiverRep(alg, *_rep_along(alg, via_i + via_j))

    def test_broken_zero_relation_raises(self):
        alg = build_auslander_algebra(3, 2)
        r = next(r for r in alg.relations if len(r.terms) == 1)
        ((_, path),) = r.terms
        dims, maps = _rep_along(alg, path)
        with pytest.raises(ValueError, match=re.escape(str(r))):
            QuiverRep(alg, dims, maps)

    def test_relations_checked_only_between_nonzero_fibers(self, monkeypatch):
        # model (3, 4): A^3_5 with 50 relations, labels in os_5^4
        alg = build_auslander_algebra(5, 3)
        ends = [(r, *r.validate(alg.quiver)[:2]) for r in alg.relations]
        calls = []
        action = QuiverRep.path_action

        def counted(self, path):
            calls.append(path)
            return action(self, path)

        monkeypatch.setattr(QuiverRep, "path_action", counted)
        expected = every = 0
        for x in enumerate_os(5, 4):
            dims = module_M(alg, x).dims
            expected += sum(len(r.terms) for r, s, t in ends if dims[s] and dims[t])
            every += sum(len(r.terms) for r in alg.relations)
        assert 0 < expected < every
        assert len(calls) == expected

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (3, 4)])
    def test_support_is_the_preceq_band(self, d, n):
        # every label of model (d, n), against the support written with preceq
        alg = build_auslander_algebra(n + 1, d)
        for x in enumerate_os(n + 1, d + 1):
            lo = OrderedSeq(n + 1, d, x.entries[:d])
            hi = OrderedSeq(n + 1, d, tuple(e - 1 for e in x.entries[1:]))
            expected = {}
            for v, entries in alg.vertex_data.items():
                z = OrderedSeq(n + 1, d, entries)
                expected[v] = 1 if preceq(lo, z) and preceq(z, hi) else 0
            assert module_M(alg, x).dims == expected

    def test_degenerate_interval_is_simple_projective(self):
        alg = build_auslander_algebra(4, 2)
        m = module_M(alg, OrderedSeq(4, 3, (1, 2, 3)))
        assert m.total_dim == 1
        assert m.dims[vertex_of_entries(alg, (1, 2))] == 1

    def test_support_of_worked_module(self):
        alg = build_auslander_algebra(5, 3)
        m = module_M(alg, OrderedSeq(5, 4, (1, 2, 4, 7)))
        support = {alg.vertex_data[v] for v in alg.vertex_ids() if m.dims[v] == 1}
        assert support == {
            (1, 2, 4), (1, 2, 5), (1, 2, 6),
            (1, 3, 4), (1, 3, 5), (1, 3, 6),
        }

    def test_projective_iff_first_entry_one(self):
        alg = build_auslander_algebra(3, 2)
        for x in enumerate_os(3, 3):
            m = module_M(alg, x)
            if x.entries[0] == 1:
                # matches e_z A for z = (x_2 - 1, ..., x_{d+1} - 1)
                z = vertex_of_entries(alg, tuple(e - 1 for e in x.entries[1:]))
                p = projective(alg, z)
                assert m.dims == p.dims
                dim, basis = hom_space(m, p)
                assert any(
                    all(mat.rank() == m.dims[v] for v, mat in phi.items())
                    for phi in basis
                )

    def test_socle_and_top(self):
        # top M(x) is the simple at (x_2-1, ..., x_{d+1}-1): the radical
        # misses exactly that fiber
        alg = build_auslander_algebra(4, 2)
        x = OrderedSeq(4, 3, (2, 3, 5))
        m = module_M(alg, x)
        rad = radical_fibers(m)
        top_vertices = {v for v in alg.vertex_ids() if m.dims[v] > len(rad[v])}
        assert top_vertices == {vertex_of_entries(alg, (2, 4))}
        # socle: fibers killed by every incoming arrow action
        socle_vertices = set()
        for v in alg.vertex_ids():
            if m.dims[v] == 0:
                continue
            killed = all(
                arrow_map(m, a).is_zero() for a in alg.quiver.arrows if a.tgt == v
            )
            if killed:
                socle_vertices.add(v)
        assert socle_vertices == {vertex_of_entries(alg, (2, 3))}

    @pytest.mark.parametrize("d, n", [(3, 4), (4, 3)])
    def test_relations_checked_once_per_label(self, d, n, monkeypatch):
        # the module cache: later calls for a label share the first call's
        # tables without the check, and the first call of every label checks
        alg = build_auslander_algebra(n + 1, d)
        labels = list(enumerate_os(n + 1, d + 1))
        calls = []
        check = QuiverRep.check_relations

        def counted(self):
            calls.append(self)
            return check(self)

        monkeypatch.setattr(QuiverRep, "check_relations", counted)
        cold = [module_M(alg, x) for x in labels]
        assert len(calls) == len(labels)
        for _ in range(2):
            warm = [module_M(alg, x) for x in labels]
            assert all(w is not c for w, c in zip(warm, cold))
            assert all(w.dims is c.dims and w.maps is c.maps for w, c in zip(warm, cold))
        assert len(calls) == len(labels)

    def test_cache_key_names_cached_tables_only(self):
        alg = build_auslander_algebra(5, 3)
        x, y = OrderedSeq(5, 4, (2, 3, 5, 7)), OrderedSeq(5, 4, (1, 2, 4, 6))
        M, N = module_M(alg, x), module_M(alg, y)
        assert (M.cache_key, N.cache_key) == (("M", x.entries), ("M", y.entries))
        assert module_M(alg, x).cache_key == ("M", x.entries)
        for v in (0, 7):
            assert alg.injective(v).cache_key == ("I", v)
            assert alg.simple(v).cache_key is None
        assert QuiverRep(alg, M.dims, M.maps).cache_key is None
        assert QuiverRep(alg, M.dims, {}, check=False).cache_key is None
        assert direct_sum([M]).cache_key == ("M", x.entries)
        assert direct_sum([M, N]).cache_key is None
        assert direct_sum([M, M]).cache_key is None
        assert direct_sum([alg.injective(0), alg.simple(3)]).cache_key is None

    def test_label_checks_survive_warm_memo(self):
        alg = build_auslander_algebra(5, 3)
        for x in enumerate_os(5, 4):
            module_M(alg, x)
        with pytest.raises(ValueError, match="label must lie in os_5"):
            module_M(alg, OrderedSeq(5, 3, (1, 2, 4)))
        with pytest.raises(ValueError, match="label must lie in os_5"):
            module_M(alg, OrderedSeq(4, 4, (1, 2, 4, 7)))
        del alg.os_params
        with pytest.raises(ValueError, match="build_auslander_algebra"):
            module_M(alg, OrderedSeq(5, 4, (1, 2, 4, 7)))


class TestHomSpace:
    def test_identity_counts(self):
        alg = build_auslander_algebra(3, 2)
        m = module_M(alg, OrderedSeq(3, 3, (1, 2, 4)))
        dim, basis = hom_space(m, m)
        assert dim == 1

    def test_hom_interval_rule(self):
        alg = build_auslander_algebra(3, 2)
        x = OrderedSeq(3, 3, (1, 2, 4))
        y = OrderedSeq(3, 3, (1, 3, 5))
        assert preceq(x, y)
        assert hom_space(module_M(alg, x), module_M(alg, y))[0] == 1

    def test_hom_matches_interleaving_exhaustively(self):
        alg = build_auslander_algebra(3, 3)
        labels = enumerate_os(3, 4)
        mods = {x: module_M(alg, x) for x in labels}
        for x in labels:
            for y in labels:
                expected = 1 if preceq(x, y) else 0
                assert hom_space(mods[x], mods[y])[0] == expected

    def test_composition_rule(self):
        alg = build_auslander_algebra(3, 2)
        a = OrderedSeq(3, 3, (1, 2, 4))
        b = OrderedSeq(3, 3, (1, 3, 5))
        c = OrderedSeq(3, 3, (2, 3, 5))
        f = hom_space(module_M(alg, a), module_M(alg, b))[1][0]
        g = hom_space(module_M(alg, b), module_M(alg, c))[1][0]
        # g after f, per vertex
        nonzero = any(not g[v].matmul(f[v]).is_zero() for v in alg.vertex_ids())
        assert nonzero == preceq(a, c)


class TestProjectivesInjectives:
    def test_projective_dims(self):
        alg = build_auslander_algebra(3, 2)
        for v in alg.vertex_ids():
            p = projective(alg, v)
            for u in alg.vertex_ids():
                assert p.dims[u] == len(alg.blocks.get((u, v), []))

    def test_injective_socle_duality(self):
        alg = build_auslander_algebra(3, 2)
        op = opposite(alg)
        for v in alg.vertex_ids():
            inj = alg.injective(v)
            dual = dual_module(projective(op, v))
            assert inj.dims == dual.dims
            assert inj.maps == dual.maps

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3)])
    def test_arrow_maps_match_the_element_route_on_every_arrow(self, d, n):
        # only the arrows between two nonzero fibers are stored; every arrow,
        # the rest read as zero, must carry the map the element route gives
        B = ModelData(d, n, VerifyConfig()).presentation("B").algebra
        for alg in (build_auslander_algebra(n + 1, d), B):
            for v in alg.vertex_ids():
                P, I = projective(alg, v), alg.injective(v)
                for a in alg.quiver.arrows:
                    arrow = alg.basis_elem(alg.arrow_elem[a.id])
                    expected = mult_matrix_by_elements(alg, (a.tgt, v), (a.src, v), right=arrow)
                    assert arrow_map(P, a) == expected
                    expected = mult_matrix_by_elements(alg, (v, a.src), (v, a.tgt), left=arrow)
                    assert arrow_map(I, a) == expected.transpose()

    def test_injective_is_valid_module(self):
        alg = build_auslander_algebra(4, 2)
        for v in alg.vertex_ids():
            QuiverRep(alg, alg.injective(v).dims, alg.injective(v).maps, check=True)

    def test_proj_map_element_round_trip(self):
        alg = build_auslander_algebra(3, 2)
        u = vertex_of_entries(alg, (1, 2))
        v = vertex_of_entries(alg, (1, 3))
        for bid in alg.blocks.get((u, v), []):
            elem = alg.basis_elem(bid)
            phi = projective_entry_maps(alg, elem, u, v)
            # the map is determined by the image of the degree-zero generator
            gen = alg.blocks[(u, u)].index(alg.idempotent_of[u])
            col = [phi[u].data[i][gen] for i in range(phi[u].rows)]
            assert alg.elem_from_block_coords(col, u, v) == elem


class TestInjectiveSum:
    @staticmethod
    def sums_with_a_repeat(alg):
        """The sum of the two largest injectives, the larger one twice, and
        three copies of a middle one."""
        vs = alg.vertex_ids()
        v, w = sorted(vs, key=lambda u: -alg.injective(u).total_dim)[:2]
        return (v, w, v), (vs[len(vs) // 2],) * 3

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (4, 3)])
    def test_action_is_the_block_diagonal_element_route(self, d, n):
        model = ModelData(d, n, VerifyConfig())
        for alg in [model.algebra()] + [model.named(x) for x in ("B0", "B", "Lambda", "Pi")]:
            cartan = alg.cartan()
            radical_acts = False
            for vertices in self.sums_with_a_repeat(alg):
                I = InjectiveSum(alg, vertices)
                assert I.dims == {y: sum(cartan[y][v] for v in vertices) for y in alg.vertex_ids()}
                for b in alg.basis:
                    action = I.basis_action(b.id)
                    assert typed(action) == typed(injective_sum_action_by_elements(alg, vertices, b.id))
                    radical_acts |= b.src != b.tgt and not action.is_zero()
                assert I.maps == direct_sum([InjectiveSum(alg, (v,)) for v in vertices]).maps
            assert radical_acts

    def test_on_a_path_basis_every_element_acts_by_its_path(self):
        for alg in (build_linear(4), build_linear(4, rad_power=2), build_auslander_algebra(4, 2)):
            vs = alg.vertex_ids()
            for vertices in [(v,) for v in vs] + [(vs[0], vs[-1], vs[0])]:
                I = InjectiveSum(alg, vertices)
                for b in alg.basis:
                    expected = I.path_action(b.path) if b.degree else ExactMatrix.identity(I.dims[b.src])
                    assert typed(I.basis_action(b.id)) == typed(expected)

    def test_relations_hold_on_every_injective_sum_over_A(self):
        for n, d in ((3, 2), (4, 2), (3, 3)):
            alg = build_auslander_algebra(n, d)
            vs = alg.vertex_ids()
            for vertices in [(v,) for v in vs] + [vs, vs[::2] * 2]:
                InjectiveSum(alg, vertices).check_relations()

    def test_unknown_vertices_are_refused(self):
        alg = build_auslander_algebra(3, 2)
        for v in (10**6, -5, "0"):
            with pytest.raises(ValueError, match=f"no vertex with id {v!r}"):
                alg.injective(v)
            with pytest.raises(ValueError, match=f"no vertex with id {v!r}"):
                InjectiveSum(alg, (0, v, 1))

    def test_an_injective_is_fresh_keyed_and_caches_nothing(self):
        alg = build_auslander_algebra(4, 2)
        for v in alg.vertex_ids():
            I = alg.injective(v)
            assert type(I) is InjectiveSum and I.vertices == (v,)
            assert I.cache_key == ("I", v) and InjectiveSum(alg, (v,)).cache_key is None
            assert I is not alg.injective(v) and I.maps is not alg.injective(v).maps
        assert alg._modules == {}


class TestKernelAndSums:
    def test_direct_sum_dims(self):
        alg = build_linear(3)
        total = direct_sum([projective(alg, 0), projective(alg, 2)])
        assert total.total_dim == projective(alg, 0).total_dim + projective(alg, 2).total_dim

    def test_two_summands_stack_blockwise(self):
        alg = build_auslander_algebra(3, 2)
        P, Q = projective(alg, 0), alg.injective(2)
        total = direct_sum([P, Q])
        assert total.dims == {v: P.dims[v] + Q.dims[v] for v in alg.vertex_ids()}
        for a in alg.quiver.arrows:
            p, q = P.path_action((a.id,)), Q.path_action((a.id,))
            rows = [row + [0] * q.cols for row in p.data] + [[0] * p.cols + row for row in q.data]
            stacked = ExactMatrix(p.rows + q.rows, p.cols + q.cols, rows)
            assert typed(total.path_action((a.id,))) == typed(stacked)

    def test_one_summand_is_itself(self):
        alg = build_linear(3)
        P = projective(alg, 0)
        assert direct_sum([P]) is P


def typed(m: ExactMatrix):
    """The shape and entries of m, each entry with its type: an int and an
    equal Fraction differ here."""
    return m.rows, m.cols, [[(type(x), x) for x in row] for row in m.data]


def modules_at(d, n):
    """Interval modules over A, and the projectives and injectives of A and of
    the presented B0, B and Lambda, at the model (d, n)."""
    alg = build_auslander_algebra(n + 1, d)
    out = [module_M(alg, x) for x in enumerate_os(n + 1, d + 1)]
    model = ModelData(d, n, VerifyConfig())
    for a in [alg] + [model.presentation(name).algebra for name in ("B0", "B", "Lambda")]:
        for v in a.vertex_ids():
            out += [projective(a, v), a.injective(v)]
    return out


class TestModuleInput:
    @pytest.mark.parametrize("dim", [1.7, -1, Fraction(1, 2), "1"])
    def test_impossible_fiber_dimensions_are_refused(self, dim):
        alg = build_linear(3)
        with pytest.raises(ValueError, match="fiber dimension at vertex 0"):
            QuiverRep(alg, {0: dim, 1: 0, 2: 0}, {})

    def test_supplied_maps_keep_their_shape_check(self):
        alg = build_linear(2)
        with pytest.raises(ValueError, match="map for arrow 0 has wrong shape"):
            QuiverRep(alg, {0: 1, 1: 1}, {0: ExactMatrix(1, 2)})

    def test_unknown_arrow_ids_are_refused(self):
        alg = build_linear(3)
        for aid in (10**6, -1, "0"):
            with pytest.raises(ValueError, match=f"no arrow with id {aid!r}"):
                QuiverRep(alg, {0: 1}, {aid: ExactMatrix(5, 5)})

    def test_unknown_vertex_ids_are_refused(self):
        alg = build_auslander_algebra(3, 2)
        for v in (10**6, -5, "0"):
            with pytest.raises(ValueError, match=f"no vertex with id {v!r}"):
                QuiverRep(alg, {0: 1, v: 2}, {})

    def test_a_checked_module_needs_relations_to_check(self):
        B = ModelData(3, 2, VerifyConfig()).b_replicated()
        assert B.relations is None
        with pytest.raises(ValueError, match="carries no relations"):
            QuiverRep(B, {0: 1}, {})
        assert QuiverRep(B, {0: 1}, {}, check=False).total_dim == 1
        # a path algebra has relations, none of them
        alg = build_linear(3)
        assert alg.relations == []
        assert QuiverRep(alg, {0: 1}, {}).total_dim == 1

    def test_only_maps_between_nonzero_fibers_are_stored(self):
        alg = build_linear(3)
        # arrow 0 runs 0 -> 1, arrow 1 runs 1 -> 2
        assert alg.simple(0).maps == {}
        assert projective(alg, 2).maps.keys() == {0, 1}
        assert projective(alg, 1).maps.keys() == {0}
        # an entry-less map into a zero fiber passes its shape check and is
        # not stored; one of the wrong shape is refused
        rep = QuiverRep(alg, {0: 1}, {0: ExactMatrix(1, 0), 1: ExactMatrix(0, 0)})
        assert rep.maps == {}
        with pytest.raises(ValueError, match="map for arrow 1 has wrong shape"):
            QuiverRep(alg, {0: 1}, {1: ExactMatrix(1, 0)})
        # a given map between nonzero fibers is stored as given, a missing
        # one is zero, and its action is a fresh zero matrix on every call
        given = ExactMatrix(1, 1, [[2]])
        assert QuiverRep(alg, {0: 1, 1: 1}, {0: given}).maps == {0: given}
        rep = QuiverRep(alg, {0: 1, 1: 1}, {})
        assert rep.maps == {}
        ms = [rep.path_action((0,)) for _ in range(2)]
        assert ms[0] == ms[1] == ExactMatrix(1, 1) and ms[0] is not ms[1]


class TestActionKernels:
    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (4, 3)])
    def test_path_action_matches_the_identity_chain(self, d, n):
        checked = 0
        for M in modules_at(d, n):
            for b in M.algebra.basis:
                if b.degree:
                    new = M.path_action(b.path)
                    assert typed(new) == typed(path_action_by_identity(M, b.path))
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (4, 3)])
    def test_injective_action_matches_the_element_route(self, d, n):
        model = ModelData(d, n, VerifyConfig())
        for name in ("B0", "B", "Lambda"):
            alg = model.presentation(name).algebra
            for y in alg.vertex_ids():
                I = InjectiveSum(alg, (y,))
                for b in alg.basis:
                    # the transpose of b . (e_y A e_src)
                    src, tgt = (y, b.src), (y, b.tgt)
                    left = mult_matrix_by_elements(alg, src, tgt, left=alg.basis_elem(b.id))
                    assert typed(I.basis_action(b.id)) == typed(left.transpose())

    def test_basis_action_without_a_path_basis_matches_the_element_route(self):
        # B is built from structure constants: its basis elements act on an
        # injective through mult
        B = ModelData(3, 2, VerifyConfig()).b_replicated()
        checked = 0
        for v in B.vertex_ids():
            I = B.injective(v)
            for b in B.basis:
                left = mult_matrix_by_elements(B, (v, b.src), (v, b.tgt), left=B.basis_elem(b.id))
                assert typed(I.basis_action(b.id)) == typed(left.transpose())
                checked += 1
        assert checked == B.dim * B.nidem

    def test_without_a_path_basis_only_idempotents_act_on_a_plain_module(self):
        B = ModelData(3, 2, VerifyConfig()).b_replicated()
        for v in B.vertex_ids():
            P = projective(B, v)
            for b in B.basis:
                if b.id == B.idempotent_of[b.src]:
                    assert P.basis_action(b.id) == ExactMatrix.identity(P.dims[b.src])
                    continue
                with pytest.raises(ValueError, match=f"basis element {b.id} has no path"):
                    P.basis_action(b.id)
                with pytest.raises(ValueError, match=f"basis element {b.id} has no path"):
                    P.element_action(B.basis_elem(b.id), b.src, b.tgt)

    def test_results_are_fresh(self):
        alg = build_auslander_algebra(3, 2)
        M = module_M(alg, OrderedSeq(3, 3, (1, 3, 5)))
        before = {aid: m.copy() for aid, m in M.maps.items()}
        one = next(a.id for a in alg.quiver.arrows if M.dims[a.src] and M.dims[a.tgt])
        deg0 = alg.idempotent_of[alg.quiver.arrow_by_id[one].src]
        for m in (M.path_action((one,)), M.basis_action(alg.arrow_elem[one]), M.basis_action(deg0)):
            m.data[0][0] = 7
        assert M.maps == before
        m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        for out in (m.copy(), m.transpose()):
            out.data[0][0] = 9
            out.data[1] = [0] * out.cols
        assert m.data == [[1, 2, 3], [4, 5, 6]]
