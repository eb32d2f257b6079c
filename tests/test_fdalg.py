import gc
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    check_associative,
    dyck_end_p,
    endo_algebra_of_modules,
    gabriel_quiver_dense,
    projective,
)

from hatilt.fdalg import (
    _arrow_count_matrix,
    _candidates,
    _vertex_profile,
    gabriel_quiver,
    idempotent_subalgebra,
    iso_test,
    presentation_data,
    replicate,
    trivial_ext_r,
)
from hatilt.pathcomb import OrderedSeq, coords, enumerate_dyck
from hatilt.quiveralg import (
    Arrow,
    BasisElement,
    BoundQuiverAlgebra,
    BudgetError,
    Quiver,
    Vertex,
    build_auslander_algebra,
    module_M,
    relation,
    vertex_of_entries,
)
from hatilt.verify import ModelData, VerifyConfig


def linear_algebra_fd(k, rad_power=None):
    q = Quiver(
        [Vertex(i, str(i + 1)) for i in range(k)],
        [Arrow(i, i, i + 1, f"a{i + 1}") for i in range(k - 1)],
    )
    rels = []
    if rad_power is not None:
        for start in range(0, k - rad_power):
            rels.append(relation((1, tuple(range(start, start + rad_power)))))
    return BoundQuiverAlgebra.from_quiver_data(q, rels)


def branching_b0():
    """The five-vertex algebra with relations (one zero, one commuting)."""
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
    rels = [relation((1, (0, 2))), relation((1, (1, 3)), (-1, (2, 4)))]
    return BoundQuiverAlgebra.from_quiver_data(q, rels)


class TestFDBasics:
    def test_from_bqa_preserves_dim(self):
        fd = linear_algebra_fd(4)
        assert fd.dim == 10
        assert fd.nidem == 4
        check_associative(fd)

    def test_cartan(self):
        fd = linear_algebra_fd(3)
        assert fd.cartan() == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]

    def test_unit(self):
        fd = linear_algebra_fd(3)
        one = {bid: Fraction(1) for bid in fd.idempotent_of.values()}
        for bid in range(fd.dim):
            assert fd.elem_mul(one, fd.basis_elem(bid)) == fd.basis_elem(bid)
            assert fd.elem_mul(fd.basis_elem(bid), one) == fd.basis_elem(bid)

    def test_gabriel_quiver_of_a_truncated_path_algebra(self):
        fd = linear_algebra_fd(4, rad_power=3)
        quiver, _ = gabriel_quiver(fd)
        assert len(quiver.arrows) == 3
        assert presentation_data(fd).algebra.dim == fd.dim


class TestGabrielQuiver:
    def test_rejects_a_radical_that_is_not_nilpotent(self):
        # the matrix units of M_2(Q): e12 e21 = e11 is a nonzero idempotent
        units = [(0, 0), (0, 1), (1, 0), (1, 1)]
        mult = {}
        for a, (i, j) in enumerate(units):
            for b, (k, m) in enumerate(units):
                if j == k:
                    mult[(a, b)] = {units.index((i, m)): Fraction(1)}
        # e_ij lies in e_i A e_j
        basis = [BasisElement(a, j, i) for a, (i, j) in enumerate(units)]
        fd = BoundQuiverAlgebra(basis, mult, {0: 0, 1: 3})
        check_associative(fd)
        with pytest.raises(ValueError, match="radical not nilpotent"):
            gabriel_quiver(fd)

    @pytest.mark.parametrize("d, n", [(2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3)])
    def test_matches_the_dense_quiver(self, d, n):
        model = ModelData(d, n, VerifyConfig())
        algebras = {
            "A": model.algebra(),
            "B0": model.b0(),
            "B": model.b_replicated(),
            "Lambda": model.lam(),
            "Pi": model.pi(),
            "End(T)": model.end_t(),
        }
        for name, fd in algebras.items():
            quiver, elems = gabriel_quiver(fd)
            arrows = [(a.id, a.src, a.tgt, a.label) for a in quiver.arrows]
            assert (arrows, elems) == gabriel_quiver_dense(fd), name


class TestEndoAlgebra:
    def test_single_brick(self):
        alg = build_auslander_algebra(3, 2)
        m = module_M(alg, OrderedSeq(3, 3, (1, 2, 4)))
        fd = endo_algebra_of_modules([m])
        assert fd.dim == 1
        assert fd.nidem == 1

    def test_projectives_of_auslander_algebra(self):
        alg = build_auslander_algebra(3, 1)  # kA_3
        fd = endo_algebra_of_modules([projective(alg, v) for v in alg.vertex_ids()])
        # End(A) = A^op: same dimension as the path algebra
        assert fd.dim == 10 - 4  # paths of kA_3: 3 + 2 + 1 = 6
        check_associative(fd)

    def test_full_module_collection_gives_next_auslander_algebra(self):
        # End of all interval modules over the linear algebra IS the next
        # higher Auslander algebra; its dimension counts interleaving pairs
        from hatilt.pathcomb import enumerate_os, preceq
        from hatilt.quiveralg import module_M

        alg = build_auslander_algebra(3, 1)  # kA_3
        labels = enumerate_os(3, 2)
        fd = endo_algebra_of_modules([module_M(alg, x) for x in labels])
        oracle = sum(1 for x in labels for y in labels if preceq(x, y))
        assert fd.dim == oracle
        next_level = build_auslander_algebra(3, 2)
        assert fd.dim == next_level.dim
        assert iso_test(fd, next_level) is not None

    def test_dyck_projectives_3_4(self):
        alg = build_auslander_algebra(5, 3)
        summands = [
            projective(alg, vertex_of_entries(alg, coords(p).entries))
            for p in enumerate_dyck(3, 4)
        ]
        fd = endo_algebra_of_modules(summands)
        assert fd.nidem == 5
        assert fd.dim == 12
        check_associative(fd)

    def test_infinite_projective_dimension_exhausts_the_budget(self):
        # Pi is self-injective, so its non-projective simples never stop
        # resolving
        pi = ModelData(3, 2, VerifyConfig()).pi()
        with pytest.raises(BudgetError):
            endo_algebra_of_modules([pi.simple(pi.vertex_ids()[0])])


class TestPresentation:
    def test_linear_rad_cube(self):
        fd = linear_algebra_fd(10, rad_power=3)
        data = presentation_data(fd)
        assert len(data.quiver.vertices) == 10
        assert len(data.quiver.arrows) == 9
        assert all(len(r.terms) == 1 and len(r.terms[0][1]) == 3 for r in data.relations)
        assert len(data.relations) == 7
        assert data.algebra.dim == 27

    def test_semisimple_product(self):
        fd = BoundQuiverAlgebra(
            [BasisElement(i, i, i) for i in range(3)],
            {(i, i): {i: Fraction(1)} for i in range(3)},
            {i: i for i in range(3)},
        )
        data = presentation_data(fd)
        assert not data.quiver.arrows
        assert not data.relations

    def test_round_trip_identity(self):
        bqa = branching_b0()
        rebuilt = presentation_data(bqa).algebra
        assert rebuilt.dim == bqa.dim
        assert iso_test(rebuilt, bqa) is not None

    @pytest.mark.parametrize("name", ["B", "Pi"])
    def test_each_path_is_walked_once(self, monkeypatch, name):
        # degree one reads the arrows, the one pass over all of them; every
        # longer path is a path of the previous degree times one arrow, one
        # product each, and the previous ideal is extended through
        # arrows_out and arrows_into alone
        import hatilt.fdalg as fdalg

        fd = ModelData(4, 3, VerifyConfig()).named(name)
        gabriel, rebuild = fdalg.gabriel_quiver, BoundQuiverAlgebra.from_quiver_data
        elem_mul = BoundQuiverAlgebra.elem_mul
        walking = [False]  # between the Gabriel quiver and the rebuild
        passes, products = [0], [0]

        class CountingArrows(list):
            def __iter__(self):
                passes[0] += walking[0]
                return super().__iter__()

        def counting_quiver(alg):
            quiver, arrow_elems = gabriel(alg)
            quiver.arrows = CountingArrows(quiver.arrows)
            walking[0] = True
            return quiver, arrow_elems

        def rebuilding(*args, **kwargs):
            walking[0] = False
            return rebuild(*args, **kwargs)

        def counting_mul(self, a, b):
            products[0] += walking[0] and self is fd
            return elem_mul(self, a, b)

        monkeypatch.setattr(fdalg, "gabriel_quiver", counting_quiver)
        monkeypatch.setattr(BoundQuiverAlgebra, "from_quiver_data", staticmethod(rebuilding))
        monkeypatch.setattr(BoundQuiverAlgebra, "elem_mul", counting_mul)
        pres = presentation_data(fd)
        # the composable paths of length >= 2 whose proper prefixes are all
        # nonzero, their values multiplied out of the structure constants
        quiver, arrow_elems = gabriel(fd)

        def times(x, y):
            out = [0] * fd.dim
            for i, ci in x.items():
                for j, cj in y.items():
                    for k, ck in fd.mult.get((i, j), {}).items():
                        out[k] += ci * cj * ck
            return {k: c for k, c in enumerate(out) if c}

        paths, composable = 0, 0
        live = [(a.tgt, arrow_elems[a.id]) for a in quiver.arrows]
        ending = {v.id: len(quiver.arrows_into[v.id]) for v in quiver.vertices}
        while live:
            paths += sum(len(quiver.arrows_out[t]) for t, _ in live)
            live = [(a.tgt, value) for t, x in live for a in quiver.arrows_out[t]
                    if (value := times(arrow_elems[a.id], x))]
        # every composable path up to the Loewy length walks more: some are zero
        loewy = max(b.degree for b in pres.algebra.basis) + 1
        for _ in range(2, loewy + 1):
            ending = {v: sum(ending[a.src] for a in quiver.arrows_into[v]) for v in ending}
            composable += sum(ending.values())
        assert loewy >= 3
        assert passes == [1]
        assert products == [paths] and paths < composable


class TestReplicate:
    def test_r1_is_identity(self):
        fd = linear_algebra_fd(2)
        rep = replicate(fd, 1)
        assert rep.dim == fd.dim
        assert rep.cartan() == fd.cartan()

    def test_dimension_formula(self):
        fd = linear_algebra_fd(2)  # kA_2, dim 3
        for r in (2, 3, 5, 7):
            assert replicate(fd, r).dim == r * 3 + (r - 1) * 3

    def test_cartan_block_structure(self):
        fd = linear_algebra_fd(2)
        rep = replicate(fd, 3)
        cartan = rep.cartan()
        base = fd.cartan()
        k = fd.nidem
        for t in range(3):
            for i in range(k):
                for j in range(k):
                    assert cartan[t * k + i][t * k + j] == base[i][j]
                    if t + 1 < 3:
                        # the bond block is the transposed Cartan matrix
                        assert cartan[t * k + i][(t + 1) * k + j] == base[j][i]

    def test_replicate_kA2_five_is_A10_mod_rad_cubed(self):
        fd = linear_algebra_fd(2)
        rep = replicate(fd, 5)
        assert rep.dim == 27
        target = linear_algebra_fd(10, rad_power=3)
        assert iso_test(rep, target) is not None

    def test_associativity(self):
        fd = linear_algebra_fd(2)
        check_associative(replicate(fd, 4))

    def test_replicated_dimension_3_4(self):
        # (2r - 1) copies of the 12-dimensional base algebra
        alg = build_auslander_algebra(5, 3)
        assert replicate(dyck_end_p(alg, 3, 4), 7).dim == 156


class TestTrivialExtension:
    def test_r1_doubles_dimension(self):
        fd = linear_algebra_fd(3)
        t = trivial_ext_r(fd, 1)
        assert t.dim == 2 * fd.dim
        check_associative(t)

    def test_degree_one_part_squares_to_zero(self):
        # the corner bond, of degree one, is the last fd.dim basis ids
        fd = linear_algebra_fd(2)
        for r in (1, 2, 4):
            t = trivial_ext_r(fd, r)
            deg1 = range((2 * r - 1) * fd.dim, t.dim)
            assert len(deg1) == fd.dim
            for a in deg1:
                for b in deg1:
                    assert t.mult.get((a, b)) is None

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_replicate_is_trivial_ext_r_without_its_corner_bond(self, r):
        for fd in (linear_algebra_fd(2), linear_algebra_fd(3)):
            t, rep = trivial_ext_r(fd, r), replicate(fd, r)
            keep = (2 * r - 1) * fd.dim
            assert rep.dim == keep and rep.idempotent_of == t.idempotent_of
            assert [(b.src, b.tgt) for b in rep.basis] == [(b.src, b.tgt) for b in t.basis[:keep]]
            restricted = {pair: table for pair, table in t.mult.items() if max(pair) < keep}
            # no product of two kept ids reaches the corner bond
            assert all(max(table) < keep for table in restricted.values())
            assert rep.mult == restricted

    def test_dimension(self):
        fd = linear_algebra_fd(2)
        for r in (1, 2, 5):
            assert trivial_ext_r(fd, r).dim == 2 * r * fd.dim


class TestIdempotentSurgery:
    def test_full_corner_is_identity(self):
        fd = linear_algebra_fd(3)
        sub = idempotent_subalgebra(fd, range(3))
        assert sub.dim == fd.dim
        assert sub.cartan() == fd.cartan()

    def test_corner_of_linear(self):
        fd = linear_algebra_fd(4)
        sub = idempotent_subalgebra(fd, [0, 3])
        # e A e keeps both idempotents and the long path
        assert sub.dim == 3
        assert sub.cartan() == [[1, 0], [1, 1]]

    def test_corner_keeps_the_given_vertex_order(self):
        fd = linear_algebra_fd(4)
        sub = idempotent_subalgebra(fd, [3, 0])
        # vertex k of the corner is the k-th given vertex, so the long path
        # 0 -> 3 of fd runs 1 -> 0 and lies in e_0 (e A e) e_1
        assert sub.cartan() == [[1, 1], [0, 1]]

    def test_repeated_vertex_raises(self):
        with pytest.raises(ValueError, match="repeated idempotent index"):
            idempotent_subalgebra(linear_algebra_fd(3), [0, 2, 0])


@cache
def relabelling_algebras():
    """B0, B and End(T) at (3, 2) and (2, 3)."""
    out = []
    for d, n in [(3, 2), (2, 3)]:
        model = ModelData(d, n, VerifyConfig())
        out += [model.b0(), model.b_replicated(), model.end_t()]
    return tuple(out)


def relabel(fd, perm):
    """The same algebra with vertex i renamed perm[i]."""
    basis = [BasisElement(b.id, perm[b.src], perm[b.tgt]) for b in fd.basis]
    idempotent_of = {perm[v]: bid for v, bid in fd.idempotent_of.items()}
    return BoundQuiverAlgebra(basis, fd.mult, dict(sorted(idempotent_of.items())))


@st.composite
def relabelled_pairs(draw):
    fd = draw(st.sampled_from(relabelling_algebras()))
    return fd, relabel(fd, draw(st.permutations(range(fd.nidem))))


def linear_a6_with_zero_pairs(starts):
    """kA_6 with the length-two paths starting at ``starts`` set to zero."""
    q = Quiver(
        [Vertex(i, str(i + 1)) for i in range(6)],
        [Arrow(i, i, i + 1, f"a{i + 1}") for i in range(5)],
    )
    return BoundQuiverAlgebra.from_quiver_data(
        q, [relation((1, (s, s + 1))) for s in starts]
    )


def square(rels):
    """The square 0 -> 1 -> 3, 0 -> 2 -> 3 with arrows a, b, c, d."""
    q = Quiver(
        [Vertex(i, str(i)) for i in range(4)],
        [
            Arrow(0, 0, 1, "a"),
            Arrow(1, 0, 2, "b"),
            Arrow(2, 1, 3, "c"),
            Arrow(3, 2, 3, "d"),
        ],
    )
    return BoundQuiverAlgebra.from_quiver_data(q, rels)


def profiles(fd):
    """The vertex profiles ``iso_test`` reads off Cartan data and arrows."""
    arrows = _arrow_count_matrix(fd.quiver, fd.nidem)
    return [_vertex_profile(fd.cartan(), arrows, v) for v in range(fd.nidem)]


class TestIsoTest:
    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (4, 3)])
    def test_candidates_are_the_pairwise_profile_matches(self, d, n):
        model = ModelData(d, n, VerifyConfig())
        semisimple = BoundQuiverAlgebra.from_quiver_data(
            Quiver([Vertex(i, str(i)) for i in range(40)], []), []
        )
        for fd in [*(model.named(name) for name in ("B0", "B", "Lambda", "Pi")), semisimple]:
            p1 = profiles(fd)
            # reversing the vertices moves every candidate list
            p2 = profiles(relabel(fd, list(range(fd.nidem))[::-1]))
            expected = {v: [w for w in range(fd.nidem) if p2[w] == p1[v]] for v in range(fd.nidem)}
            assert _candidates(p1, p2) == expected

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # a semisimple algebra: the search places every vertex before it
        # finds a bijection, 300 deep, with 100 frames to spare above here
        k = 300
        fd = BoundQuiverAlgebra.from_quiver_data(
            Quiver([Vertex(i, str(i)) for i in range(k)], []), []
        )
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            result = iso_test(fd, fd)
        finally:
            sys.setrecursionlimit(limit)
        assert result is not None
        assert result.vertex_map == {v: v for v in range(k)}

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(relabelled_pairs())
    def test_finds_relabelled_copies_both_ways(self, pair):
        fd, shuffled = pair
        assert iso_test(fd, shuffled) is not None
        assert iso_test(shuffled, fd) is not None

    @pytest.mark.parametrize(
        "a1, a2, dim",
        [
            # mirror images: the profiles agree, but no vertex bijection
            # keeps the arrows and the Cartan entries
            (
                linear_a6_with_zero_pairs([0, 1, 3]),
                linear_a6_with_zero_pairs([0, 2, 3]),
                12,
            ),
            # the same quiver and Cartan matrix: only evaluating the
            # relations tells the commuting square from a c = 0
            (
                square([relation((1, (0, 2)), (-1, (1, 3)))]),
                square([relation((1, (0, 2)))]),
                9,
            ),
        ],
        ids=["kA6_zero_pairs", "square"],
    )
    def test_equal_profiles_are_not_enough(self, a1, a2, dim):
        assert a1.dim == a2.dim == dim
        assert iso_test(a1, a2) is None
        assert iso_test(a2, a1) is None

    def test_profile_mismatch_is_certified_with_parallel_arrows(self):
        # 0 => 1 -> 2 against 0 -> 1 => 2: the search cannot mix parallel
        # arrows, but different vertex profiles already rule out a bijection
        def path_algebra(arrows):
            q = Quiver(
                [Vertex(i, str(i)) for i in range(3)],
                [Arrow(k, s, t, f"a{k}") for k, (s, t) in enumerate(arrows)],
            )
            return BoundQuiverAlgebra.from_quiver_data(q, [])

        a1 = path_algebra([(0, 1), (0, 1), (1, 2)])
        a2 = path_algebra([(0, 1), (1, 2), (1, 2)])
        assert a1.dim == a2.dim == 8
        assert iso_test(a1, a2) is None

    def test_leaves_no_cyclic_garbage(self):
        # a recursive search closure would be a reference cycle of the
        # function and its cells, freed only by a full collection
        B = ModelData(3, 2, VerifyConfig()).b_replicated()
        assert iso_test(B, B) is not None
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert iso_test(B, B) is not None
            gc.collect()
            kinds = {type(o).__name__ for o in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not kinds & {"function", "cell"}

    def test_presents_only_the_first_algebra(self, monkeypatch):
        import hatilt.fdalg

        presented = []

        def counting(fd, *args, **kwargs):
            presented.append(fd)
            return presentation_data(fd, *args, **kwargs)

        monkeypatch.setattr(hatilt.fdalg, "presentation_data", counting)
        first, second = branching_b0(), branching_b0()
        assert iso_test(first, second) is not None
        assert len(presented) == 1

    def test_self_iso(self):
        bqa = branching_b0()
        result = iso_test(bqa, bqa)
        assert result is not None
        assert result.vertex_map == {i: i for i in range(5)}

    def test_detects_relabelled_copy(self):
        q = Quiver(
            [Vertex(i, str(i)) for i in range(3)],
            [Arrow(0, 0, 1, "a"), Arrow(1, 1, 2, "b")],
        )
        a1 = BoundQuiverAlgebra.from_quiver_data(q, [relation((1, (0, 1)))])
        q2 = Quiver(
            [Vertex(i, str(i)) for i in range(3)],
            [Arrow(0, 2, 0, "a"), Arrow(1, 0, 1, "b")],
        )
        a2 = BoundQuiverAlgebra.from_quiver_data(q2, [relation((1, (0, 1)))])
        result = iso_test(a1, a2)
        assert result is not None
        assert result.vertex_map == {0: 2, 1: 0, 2: 1}

    def test_distinguishes_commuting_square_from_zero_square(self):
        commuting = square([relation((1, (0, 2)), (-1, (1, 3)))])
        both_zero = square([relation((1, (0, 2))), relation((1, (1, 3)))])
        assert commuting.dim != both_zero.dim or iso_test(commuting, both_zero) is None

    def test_scalar_twisted_relation(self):
        # delta beta - mu gamma versus delta beta - 2 mu gamma: isomorphic
        # via rescaling one arrow
        def algebra(coeff):
            q = Quiver(
                [Vertex(i, str(i)) for i in range(4)],
                [
                    Arrow(0, 0, 1, "b"),
                    Arrow(1, 0, 2, "g"),
                    Arrow(2, 1, 3, "d"),
                    Arrow(3, 2, 3, "m"),
                ],
            )
            return BoundQuiverAlgebra.from_quiver_data(
                q, [relation((1, (0, 2)), (coeff, (1, 3)))]
            )

        a1 = algebra(Fraction(-1))
        a2 = algebra(Fraction(-2))
        result = iso_test(a1, a2)
        assert result is not None

    def test_nonisomorphic_different_dimension(self):
        a1 = linear_algebra_fd(4, rad_power=2)
        a2 = linear_algebra_fd(4, rad_power=3)
        assert iso_test(a1, a2) is None

    def test_nonisomorphic_same_dimension_and_cartan_multiset(self):
        # kill one length-two path of kA_4 at two different spots: equal
        # dimensions and equal Cartan row multisets, but not isomorphic
        def one_relation(start):
            q = Quiver(
                [Vertex(i, str(i + 1)) for i in range(4)],
                [Arrow(i, i, i + 1, f"a{i + 1}") for i in range(3)],
            )
            return BoundQuiverAlgebra.from_quiver_data(
                q, [relation((1, (start, start + 1)))]
            )

        a1, a2 = one_relation(0), one_relation(1)
        assert a1.dim == a2.dim == 8
        assert iso_test(a1, a2) is None

    def test_parallel_arrows_raise_inconclusive(self):
        from hatilt.fdalg import IsoInconclusive

        def double_arrow(rels):
            q = Quiver(
                [Vertex(0, "1"), Vertex(1, "2"), Vertex(2, "3")],
                [Arrow(0, 0, 1, "a"), Arrow(1, 0, 1, "b"), Arrow(2, 1, 2, "c")],
            )
            return BoundQuiverAlgebra.from_quiver_data(q, rels)

        # isomorphic via mixing a and b, which per-arrow scalars cannot see
        a1 = double_arrow([relation((1, (0, 2)))])
        a2 = double_arrow([relation((1, (0, 2)), (-1, (1, 2)))])
        assert a1.dim == a2.dim
        try:
            result = iso_test(a1, a2)
        except IsoInconclusive:
            result = "inconclusive"
        assert result == "inconclusive" or result is not None

    def test_contradiction_after_a_pin_is_undecided(self):
        # relations (a,b) - 2(c,d) and (a,c) - 8(b,d) in a target where every
        # product of two arrows is the same basis vector 0: the solve pins
        # b = c = d = 1, gets a = 2 and then ac/bd = 2, not 8, although
        # (a, b, c, d) = (4, 1, 2, 1) solves both relations
        from types import SimpleNamespace

        from hatilt.fdalg import _solve_scalars, _Undecided

        target = BoundQuiverAlgebra(
            [], {(i, j): {0: Fraction(1)} for i in range(1, 5) for j in range(1, 5)}, {}
        )
        relations = [relation((1, (0, 1)), (-2, (2, 3))), relation((1, (0, 2)), (-8, (1, 3)))]
        source = SimpleNamespace(
            quiver=SimpleNamespace(arrows=[SimpleNamespace(id=k) for k in range(4)]),
            relations=relations,
        )
        scalars = (4, 1, 2, 1)
        for rel in relations:
            assert sum(c * scalars[p[0]] * scalars[p[1]] for c, p in rel.terms) == 0
        arrow_elems = [{k + 1: Fraction(1)} for k in range(4)]
        with pytest.raises(_Undecided):
            _solve_scalars(target, source, arrow_elems, {k: k for k in range(4)})

    def test_a_pinned_scalar_divides_exactly_under_a_negative_exponent(self):
        # relations (a,b) - 3(c,d) and (e,c) - 1/7 (a,d) in a target where every
        # product of two arrows is basis vector 0: the solve pins b = c = d = 1,
        # gets a = 3, then e = (1/7) / a^-1, which must stay a Fraction
        from types import SimpleNamespace

        from hatilt.fdalg import _solve_scalars

        target = BoundQuiverAlgebra([], {(i, j): {0: 1} for i in range(1, 6) for j in range(1, 6)}, {})
        source = SimpleNamespace(
            quiver=SimpleNamespace(arrows=[SimpleNamespace(id=k) for k in range(5)]),
            relations=[
                relation((1, (0, 1)), (-3, (2, 3))),
                relation((1, (4, 2)), (Fraction(-1, 7), (0, 3))),
            ],
        )
        arrow_elems = [{k + 1: 1} for k in range(5)]
        scalars = _solve_scalars(target, source, arrow_elems, {k: k for k in range(5)})
        assert scalars == {0: 3, 1: 1, 2: 1, 3: 1, 4: Fraction(3, 7)}
        assert not any(isinstance(v, float) for v in scalars.values())

    @pytest.mark.parametrize("undecided", ["first_call", "every_call"])
    def test_undecided_arrow_maps_keep_the_search_going(self, monkeypatch, undecided):
        # the commuting square has two vertex bijections onto itself: an
        # undecided first one leaves the second to find the isomorphism, and
        # an exhausted search with an undecided map is inconclusive, not None
        import hatilt.fdalg
        from hatilt.fdalg import IsoInconclusive, _Undecided

        real = hatilt.fdalg._solve_scalars
        calls = []

        def solve(*args):
            calls.append(args)
            if undecided == "every_call" or len(calls) == 1:
                raise _Undecided
            return real(*args)

        monkeypatch.setattr(hatilt.fdalg, "_solve_scalars", solve)
        commuting = square([relation((1, (0, 2)), (-1, (1, 3)))])
        if undecided == "first_call":
            result = iso_test(commuting, commuting)
            assert result is not None and len(calls) == 2
        else:
            with pytest.raises(IsoInconclusive):
                iso_test(commuting, square([relation((1, (0, 2)))]))

    def test_b0_regression_3_4(self):
        fd = dyck_end_p(build_auslander_algebra(5, 3), 3, 4)
        data = presentation_data(fd)
        assert len(data.quiver.vertices) == 5
        assert len(data.quiver.arrows) == 5
        assert fd.dim == 12
        target = branching_b0()
        result = iso_test(fd, target)
        assert result is not None
