import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    COPRIME_UP_TO_8,
    append_horizontal,
    compose_nonzero,
    entry_for,
    is_injective_at_zero,
    is_projective_at_zero,
    nakayama_pow,
    path_from_entries,
    plant_shift_blind_rule,
    rigidity_check_by_hom_dim,
    serre_symmetry_by_hom_dim,
)

import hatilt.cluster
from hatilt.cluster import (
    ShiftedModule,
    generation_certificate,
    hom_dim,
    nakayama,
    nu_orbit_decomposition,
    projective_summands,
    rigidity_check,
    serre_symmetry_check,
    tau_d,
    tilting_summands,
)
from hatilt.pathcomb import (
    GridPoint,
    LatticePath,
    rotate_pow,
    OrderedSeq,
    coords,
    enumerate_all,
    enumerate_dyck,
    prepend_horizontal,
)


def obj(d, n, entries, shift=0):
    return ShiftedModule(path_from_entries(d + 1, n, entries), shift)


class TestTau:
    def test_decrement(self):
        x = OrderedSeq(3, 3, (2, 3, 5))
        assert tau_d(x).entries == (1, 2, 4)

    def test_projective_label_excluded(self):
        assert tau_d(OrderedSeq(3, 3, (1, 2, 4))) is None

    def test_iteration_count(self):
        x = OrderedSeq(4, 3, (4, 5, 6))
        steps = 0
        while x is not None:
            x = tau_d(x)
            steps += 1
        assert steps == 4  # applicable exactly x_1 - 1 = 3 times, then None


class TestHomDim:
    def test_identity(self):
        u = obj(3, 4, (1, 2, 4, 6))
        assert hom_dim(u, u) == 1

    def test_equal_shift_interleaving(self):
        assert hom_dim(obj(3, 4, (1, 2, 4, 6)), obj(3, 4, (1, 3, 5, 7))) == 1
        assert hom_dim(obj(3, 4, (1, 3, 5, 7)), obj(3, 4, (1, 2, 4, 6))) == 0

    def test_shift_one_rule(self):
        for i in (-2, 0, 5):
            assert hom_dim(obj(3, 4, (2, 3, 5, 7), i), obj(3, 4, (1, 2, 4, 6), i + 1)) == 1

    def test_other_shifts_vanish(self):
        u = obj(3, 4, (1, 2, 4, 6))
        for k in (-3, -1, 2, 3):
            assert hom_dim(u, obj(3, 4, (1, 2, 4, 6), k)) == 0

    def test_mismatched_models_rejected(self):
        with pytest.raises(ValueError):
            hom_dim(obj(3, 4, (1, 2, 4, 6)), obj(2, 3, (1, 2, 4)))


def hom_dim_from_steps(src, dst):
    """The Hom rule read straight off the step words: the labels of the
    horizontal steps, the interleaving order x_1 <= y_1 < x_2 <= ... <= y_d,
    and for a shift difference of one the source labels decremented."""
    x = [k for k, s in enumerate(src.path.steps, 1) if s == "H"]
    y = [k for k, s in enumerate(dst.path.steps, 1) if s == "H"]
    delta = dst.shift - src.shift
    if delta == 1:
        if x[0] == 1:
            return 0  # a projective label has no decrement
        x, y = y, [e - 1 for e in x]
    elif delta != 0:
        return 0
    chain = [e for pair in zip(x, y) for e in pair]  # x_1, y_1, x_2, y_2, ...
    weak = all(chain[k] <= chain[k + 1] for k in range(0, len(chain) - 1, 2))
    strict = all(chain[k] < chain[k + 1] for k in range(1, len(chain) - 1, 2))
    return int(weak and strict)


HOM_MODELS = [
    (d, n) for d in range(1, 8) for n in range(1, 8) if d + n <= 8 and math.gcd(d, n) == 1
]


@st.composite
def object_pairs(draw):
    """Two shifted objects over one random small coprime model."""
    d, n = draw(st.sampled_from(HOM_MODELS))
    objects = []
    for _ in range(2):
        labels = draw(
            st.lists(st.integers(1, d + 1 + n), min_size=d + 1, max_size=d + 1, unique=True)
        )
        objects.append(obj(d, n, sorted(labels), draw(st.integers(-2, 2))))
    return tuple(objects)


class TestHomDimDifferential:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(object_pairs())
    @example((obj(3, 4, (1, 2, 4, 6)), obj(2, 3, (1, 2, 4))))  # different models
    @example((obj(1, 2, (2, 3)), obj(2, 1, (1, 2, 3), 1)))  # equal length, different models
    @example((obj(3, 4, (2, 3, 5, 7)), obj(3, 4, (1, 2, 4, 6), 1)))  # shift one, nonzero
    @example((obj(3, 4, (1, 2, 4, 6)), obj(3, 4, (1, 2, 4, 6), 1)))  # projective label
    def test_matches_the_rule_read_off_the_steps(self, pair):
        src, dst = pair
        p, q = src.path, dst.path
        if (p.d, p.n) != (q.d, q.n):
            with pytest.raises(ValueError) as info:
                hom_dim(src, dst)
            assert str(info.value) == (
                f"objects live over different models: {(p.d - 1, p.n)} vs {(q.d - 1, q.n)}"
            )
            return
        assert hom_dim(src, dst) == hom_dim_from_steps(src, dst)

    def test_coords_of_one_path_are_stable(self):
        path = path_from_entries(4, 4, (1, 2, 4, 6))
        first = coords(path)
        hom_dim(ShiftedModule(path, 0), obj(3, 4, (1, 3, 5, 7)))
        second = coords(LatticePath(path.d, path.n, path.steps))
        assert first == second
        assert first.entries == second.entries == (1, 2, 4, 6)


class TestHomRuleCost:
    def test_rigidity_builds_each_summand_coordinate_once(self):
        # a count, not a timing: rebuilding coordinates per Hom query would
        # make tens of thousands of misses here
        coords.cache_clear()
        rigidity_check(4, 3)
        distinct = {u.path for u in tilting_summands(4, 3)}
        assert coords.cache_info().misses <= len(distinct)

    def test_rigidity_builds_no_object_per_query(self, monkeypatch):
        # the Hom rule runs on label triples: every ShiftedModule the check
        # builds is one the summand list builds
        def constructions(fn, *args):
            count = 0
            init = ShiftedModule.__init__

            def counting(self, *fields):
                nonlocal count
                count += 1
                init(self, *fields)

            with monkeypatch.context() as m:
                m.setattr(ShiftedModule, "__init__", counting)
                fn(*args)
            return count

        assert constructions(rigidity_check, 4, 3) == constructions(tilting_summands, 4, 3)


class TestHomRuleDifferential:
    # the box checks against the same checks asked one hom_dim query at a time
    @pytest.mark.parametrize("d, n", COPRIME_UP_TO_8)
    def test_rigidity_and_serre_match_the_hom_dim_checks(self, d, n):
        assert rigidity_check(d, n) == rigidity_check_by_hom_dim(d, n)
        assert serre_symmetry_check(d, n) == serre_symmetry_by_hom_dim(d, n) is None

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3)])
    def test_match_under_a_shift_blind_rule(self, monkeypatch, d, n):
        # a rule that zeroes both shifts breaks rigidity and the symmetry
        plant_shift_blind_rule(monkeypatch)
        report = rigidity_check(d, n)
        assert report.violations
        assert report == rigidity_check_by_hom_dim(d, n)
        witness = serre_symmetry_check(d, n)
        assert witness is not None
        assert witness == serre_symmetry_by_hom_dim(d, n)

    def test_match_under_a_rule_that_sees_every_morphism(self, monkeypatch):
        # Hom = 1 everywhere gives the pairs whose shifts differ by 2 or -1
        # a violation in both degrees, listed in the order the oracle asks;
        # end_dim differs, since the supports read only the two shifts where
        # the rule can place a morphism
        def everything(a, by_entries, top):
            mask = sum(by_entries.values())
            return mask, mask

        monkeypatch.setattr(hatilt.cluster, "_hom_rule", lambda a, b: 1)
        monkeypatch.setattr(hatilt.cluster, "_hom_support", everything)
        report = rigidity_check(2, 3)
        assert len(report.violations) > len({(u, v) for u, v, _ in report.violations})
        assert report.violations == rigidity_check_by_hom_dim(2, 3).violations


class TestCompose:
    def test_identity_leg(self):
        u = obj(2, 4, (1, 2, 5))
        v = obj(2, 4, (1, 4, 6))
        assert compose_nonzero(u, u, v)
        assert compose_nonzero(u, v, v)

    def test_figure_triple_composes_to_zero(self):
        a = obj(2, 4, (1, 2, 5))
        b = obj(2, 4, (1, 4, 6))
        c = obj(2, 4, (3, 5, 7))
        assert not compose_nonzero(a, b, c)

    def test_interval_chain_matches_outer_interleaving(self):
        from hatilt.pathcomb import preceq

        a = obj(3, 4, (1, 2, 3, 4))
        b = obj(3, 4, (1, 2, 3, 5))
        c = obj(3, 4, (1, 2, 4, 6))
        assert hom_dim(a, b) == 1 and hom_dim(b, c) == 1
        # composite is nonzero exactly when the outer pair interleaves; here
        # it does not (the chain needs 4 < 4), so the composite vanishes
        assert not preceq(coords(a.path), coords(c.path))
        assert not compose_nonzero(a, b, c)

    def test_mixed_shifts_rejected(self):
        u = obj(3, 4, (2, 3, 5, 7), 0)
        v = obj(3, 4, (1, 2, 4, 6), 1)
        with pytest.raises(ValueError):
            compose_nonzero(u, u, v)


class TestNakayama:
    def test_projective_to_injective(self):
        for p in enumerate_dyck(3, 4):
            u = ShiftedModule(prepend_horizontal(p), 0)
            assert nakayama(u) == ShiftedModule(append_horizontal(p), 0)

    def test_vertical_first_step_bumps_shift(self):
        u = obj(3, 4, (2, 3, 5, 7))
        assert nakayama(u) == obj(3, 4, (1, 2, 4, 6), 1)

    def test_period(self):
        for d, n in [(3, 4), (2, 3), (3, 2)]:
            for p in enumerate_all(d + 1, n):
                u = ShiftedModule(p, 0)
                assert nakayama_pow(u, n + d + 1) == ShiftedModule(p, n)


class TestTiltingSummands:
    def test_sizes_3_4(self):
        assert len(projective_summands(3, 4)) == 5
        assert len(tilting_summands(3, 4)) == 35

    def test_sizes_2_3(self):
        assert len(projective_summands(2, 3)) == 2
        assert len(tilting_summands(2, 3)) == 10

    def test_first_twist_is_injectives_at_zero(self):
        base = projective_summands(3, 4)
        twisted = [nakayama(u) for u in base]
        assert all(is_injective_at_zero(u) for u in twisted)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            tilting_summands(2, 4)

    @pytest.mark.parametrize("d, n", COPRIME_UP_TO_8)
    def test_matches_restarting_each_power(self, d, n):
        base = projective_summands(d, n)
        restarted = [nakayama_pow(u, i) for i in range(1, n + d + 1) for u in base]
        assert tilting_summands(d, n) == restarted


class TestOrbitDecomposition:
    def test_slice_one_block(self):
        blocks = nu_orbit_decomposition(3, 4, 1)
        assert set(blocks) == {GridPoint(1, 0)}
        expected = {ShiftedModule(append_horizontal(p), 0) for p in enumerate_dyck(3, 4)}
        assert set(blocks[GridPoint(1, 0)]) == expected

    def test_summand_count_preserved(self):
        for i in range(1, 8):
            blocks = nu_orbit_decomposition(3, 4, i)
            assert sum(len(v) for v in blocks.values()) == 5

    def test_matches_direct_iteration(self):
        for d, n in [(3, 4), (2, 3), (3, 2)]:
            base = projective_summands(d, n)
            for i in range(1, n + d + 1):
                direct = Counter(nakayama_pow(u, i) for u in base)
                blocks = nu_orbit_decomposition(d, n, i)
                assert Counter(x for b in blocks.values() for x in b) == direct

    def test_index_range(self):
        with pytest.raises(ValueError):
            nu_orbit_decomposition(3, 4, 0)
        with pytest.raises(ValueError):
            nu_orbit_decomposition(3, 4, 8)


class TestRigidity:
    def test_3_2(self):
        report = rigidity_check(3, 2)
        assert report.passed
        assert report.end_dim == 27

    def test_3_4(self):
        report = rigidity_check(3, 4)
        assert report.passed
        assert report.end_dim == 156

    def test_more_models(self):
        for d, n in [(2, 3), (4, 3), (5, 2)]:
            assert rigidity_check(d, n).passed

    def test_end_dim_nonzero(self):
        assert rigidity_check(2, 3).end_dim > 0

    def test_block_dimension_formula(self):
        # End(T) has 2(n+d) - 1 diagonal-band blocks, each of dim End(P)
        for d, n in [(3, 2), (2, 3), (3, 4)]:
            base = projective_summands(d, n)
            end_p = sum(hom_dim(u, v) for u in base for v in base)
            assert rigidity_check(d, n).end_dim == (2 * (n + d) - 1) * end_p


class TestSerreSymmetry:
    def test_hom_matches_dual_hom_of_twist(self):
        for d, n in [(3, 2), (2, 3)]:
            summands = tilting_summands(d, n)
            for u in summands:
                for v in summands:
                    assert hom_dim(u, v) == hom_dim(v, nakayama(u))

    def test_twist_preserves_hom(self):
        for d, n in [(3, 2), (2, 3)]:
            summands = tilting_summands(d, n)
            for u in summands:
                for v in summands:
                    assert hom_dim(u, v) == hom_dim(nakayama(u), nakayama(v))


class TestGenerationCertificate:
    def test_3_4_covers_positive_height(self):
        cert = generation_certificate(3, 4)
        from hatilt.pathcomb import anchor_data

        expected = {p for p in enumerate_all(4, 4) if anchor_data(p).h >= 1}
        assert {e.path for e in cert.entries} == expected

    def test_appended_dyck_entries_are_base_cases(self):
        cert = generation_certificate(3, 4)
        for p in enumerate_dyck(3, 4):
            entry = entry_for(cert, append_horizontal(p))
            assert entry.status == "in-T"
            assert entry.h == 4 and entry.mu == 0

    def test_injective_labels_tracked(self):
        cert = generation_certificate(3, 4)
        assert len(cert.injective_labels) == 35  # paths of L_{4,4} ending in H
        covered = {e.path for e in cert.entries}
        assert set(cert.injective_labels) <= covered

    def test_width_one_model(self):
        # d = 1 still has paths with h >= 1 and mu > 0 (e.g. VHVVHV in the
        # widened 2x4 grid has anchor (0,1) and mu = 4), so the certificate
        # carries resolved entries there too; statuses must match the scan
        from hatilt.pathcomb import anchor_data

        cert = generation_certificate(1, 4)
        for e in cert.entries:
            data = anchor_data(e.path)
            assert e.status == ("in-T" if data.mu == 0 else "resolved")
        assert any(e.status == "resolved" for e in cert.entries)

    def test_resolved_entries_have_decreasing_keys(self):
        for d, n in [(3, 4), (4, 3), (3, 2), (2, 5)]:
            cert = generation_certificate(d, n)
            key = {e.path: (-e.h, e.mu) for e in cert.entries}
            for e in cert.entries:
                if e.status == "resolved":
                    assert e.window is not None and e.position is not None
                    assert len(e.dependencies) == d + 1
                    for dep in e.dependencies:
                        assert key[dep] < key[e.path]

    def test_builds_no_path_or_sequence_beyond_the_path_table(self, monkeypatch):
        # strip terms are read from the path table of L_{d+1,n}, built once
        # here; entries are ordered by enumeration rank and windows are made
        # from step labels, so no OrderedSeq is built either
        import hatilt.pathcomb

        d, n = 4, 3
        hatilt.pathcomb._all_paths.cache_clear()
        hatilt.pathcomb.coords.cache_clear()
        built = Counter()
        for cls in (LatticePath, OrderedSeq):

            def counting_init(self, *fields, init=cls.__init__, name=cls.__name__):
                built[name] += 1
                init(self, *fields)

            monkeypatch.setattr(cls, "__init__", counting_init)
        cert = generation_certificate(d, n)
        assert sum(e.status == "resolved" for e in cert.entries) > 0
        assert built == {"LatticePath": math.comb(d + n + 1, d + 1)}

    def test_projectivity_transport(self):
        for u in projective_summands(3, 4):
            assert is_projective_at_zero(u)
            twisted = nakayama(u)
            assert is_injective_at_zero(twisted)
            assert coords(twisted.path).entries[-1] == 8


class TestRotatedRegionObstruction:
    def test_no_relation_into_higher_twists(self):
        # prepended Dyck paths never sit below the i-th rotation of another
        # prepended Dyck path for 2 <= i <= n+d: the geometric reason the
        # tilting object is rigid
        from hatilt.pathcomb import relation_R

        for d, n in [(3, 2), (2, 3), (3, 4)]:
            widened = [prepend_horizontal(p) for p in enumerate_dyck(d, n)]
            for a in widened:
                for b in widened:
                    for i in range(2, n + d + 1):
                        assert not relation_R(a, rotate_pow(b, i))
