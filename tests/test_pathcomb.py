import itertools
import math
from fractions import Fraction

import pytest
from oracles import (
    anchor_data_by_fractions,
    append_horizontal,
    below,
    delta_prime_set,
    delta_set_by_fractions,
    dyck_orbit_representative,
    path_from_entries,
    region_contains,
    region_paths_by_fractions,
    resolving_sequence_eager,
    s_region,
    skew_cells,
)

import hatilt.pathcomb
from hatilt.pathcomb import (
    GridPoint,
    LatticePath,
    OrderedSeq,
    anchor_data,
    base_path,
    coords,
    delta_pair,
    delta_set,
    dyck_rotations,
    enumerate_all,
    enumerate_dyck,
    enumerate_os,
    from_coords,
    heights_related,
    heights_up_box,
    interleaves,
    interleaving_down_box,
    interleaving_up_box,
    is_dyck,
    preceq,
    prepend_horizontal,
    region_paths,
    relation_R,
    resolving_sequence,
    rotate,
    rotate_pow,
    strip_sequence,
)


def seq(n, d, *entries):
    return OrderedSeq(n, d, tuple(entries))


def small_grids(bound):
    """All (d, n) with d, n >= 1 and C(d+n, d) <= bound."""
    out = []
    for d in range(1, 13):
        for n in range(1, 45):
            if math.comb(d + n, d) <= bound:
                out.append((d, n))
    return out


def coprime_grids(bound):
    return [(d, n) for d, n in small_grids(bound) if math.gcd(n, d) == 1]


class TestOrderedSeq:
    def test_enumerate_singletons(self):
        assert enumerate_os(2, 1) == [seq(2, 1, 1), seq(2, 1, 2)]

    def test_enumerate_count_5_3(self):
        assert len(enumerate_os(5, 3)) == 35

    def test_enumerate_pairs_3_2(self):
        got = [s.entries for s in enumerate_os(3, 2)]
        assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_enumerate_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            enumerate_os(0, 2)
        with pytest.raises(ValueError):
            enumerate_os(3, 0)

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            seq(3, 2, 2, 2)
        with pytest.raises(ValueError):
            seq(3, 2, 0, 1)
        with pytest.raises(ValueError):
            seq(3, 2, 3, 5)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ((0, 2, 3), "entries (0, 2, 3) out of range [1, 6]"),
            ((2, 0, 3), "entries (2, 0, 3) out of range [1, 6]"),
            ((1, 2, 7), "entries (1, 2, 7) out of range [1, 6]"),
            ((1, 3, 3), "entries not strictly increasing: (1, 3, 3)"),
            ((3, 2, 4), "entries not strictly increasing: (3, 2, 4)"),
        ],
        ids=["zero_first", "zero_inside", "too_big", "repeat", "descent"],
    )
    def test_violation_messages_name_the_violation(self, entries, message):
        # an entry below 1 is out of range, not out of order
        with pytest.raises(ValueError) as info:
            OrderedSeq(4, 3, entries)
        assert str(info.value) == message


class TestPreceq:
    def test_reflexive(self):
        for x in enumerate_os(4, 3):
            assert preceq(x, x)

    def test_non_transitive_triple(self):
        a = seq(5, 3, 1, 2, 5)
        b = seq(5, 3, 1, 4, 6)
        c = seq(5, 3, 3, 5, 7)
        assert preceq(a, b)
        assert preceq(b, c)
        assert not preceq(a, c)

    def test_chain_example(self):
        assert preceq(seq(3, 3, 1, 2, 4), seq(3, 3, 1, 3, 5))

    def test_mismatched_parameters(self):
        with pytest.raises(ValueError):
            preceq(seq(3, 2, 1, 2), seq(4, 2, 1, 2))


class TestCoords:
    def test_read_off_h_positions(self):
        p = LatticePath(3, 4, "HVVHVHV")
        assert coords(p).entries == (1, 4, 6)

    def test_widened_example(self):
        p = LatticePath(4, 4, "HHVHVHVV")
        assert coords(p).entries == (1, 2, 4, 6)

    def test_round_trip_small_grids(self):
        for d, n in small_grids(1000):
            for p in enumerate_all(d, n):
                assert from_coords(coords(p)) == p
            for x in enumerate_os(n + 1, d):
                assert coords(from_coords(x)) == x


def naive_relation_R(p1, p2):
    """Cell-level oracle: below-ness plus explicit 2x1-rectangle scan."""
    if not below(p1, p2):
        return False
    cells = skew_cells(p1, p2)
    return not any((i + 1, j) in cells for i, j in cells)


class TestRelationR:
    def test_reflexive(self):
        for p in enumerate_all(3, 4):
            assert relation_R(p, p)

    def test_non_transitive_triple(self):
        a = path_from_entries(3, 4, (1, 2, 5))
        b = path_from_entries(3, 4, (1, 4, 6))
        c = path_from_entries(3, 4, (3, 5, 7))
        assert relation_R(a, b)
        assert relation_R(b, c)
        assert not relation_R(a, c)

    def test_matches_naive_oracle_and_preceq(self):
        for d, n in small_grids(70):
            paths = enumerate_all(d, n)
            for p1 in paths:
                for p2 in paths:
                    expected = naive_relation_R(p1, p2)
                    assert relation_R(p1, p2) == expected
                    assert preceq(coords(p1), coords(p2)) == expected

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (4, 3)])
    def test_heights_related_on_every_pair(self, d, n):
        # relation_R delegates to heights_related; the cell-level oracle is
        # the independent side
        paths = enumerate_all(d, n)
        for p1 in paths:
            for p2 in paths:
                expected = naive_relation_R(p1, p2)
                assert heights_related(p1.column_heights(), p2.column_heights()) == expected
                assert relation_R(p1, p2) == expected

    def test_agreement_on_L34_all_pairs(self):
        paths = enumerate_all(3, 4)
        assert len(paths) == 35
        for p1 in paths:
            for p2 in paths:
                assert relation_R(p1, p2) == preceq(coords(p1), coords(p2))


class TestBoxes:
    # each box generator lists exactly the solutions of its predicate
    @pytest.mark.parametrize(
        "d, n", [(d, n) for d in range(1, 10) for n in range(1, 11 - d)]
    )
    def test_boxes_are_the_solution_sets(self, d, n):
        paths = enumerate_all(d, n)
        entries = [coords(p).entries for p in paths]  # lexicographic, as the boxes
        for x in entries:
            assert list(interleaving_up_box(x, n + d)) == [
                y for y in entries if interleaves(x, y)
            ]
            assert list(interleaving_down_box(x)) == [y for y in entries if interleaves(y, x)]
        heights = sorted(p.column_heights() for p in paths)
        for h in heights:
            assert list(heights_up_box(h, n)) == [g for g in heights if heights_related(h, g)]


class TestEnumerateAll:
    def test_returned_list_is_the_callers_own(self):
        # the grid is enumerated once and cached; a caller editing its list
        # must not edit the cache, and a later call hands out the same paths
        paths = enumerate_all(3, 2)
        expected = list(paths)
        paths.reverse()
        paths.append(paths[0])
        again = enumerate_all(3, 2)
        assert again == expected
        assert all(a is b for a, b in zip(again, expected))


class TestRotation:
    def test_rotation_moves_first_step_to_last(self):
        p = path_from_entries(3, 4, (1, 3, 5))
        assert rotate(p) == path_from_entries(3, 4, (2, 4, 7))

    def test_identity_power(self):
        p = path_from_entries(3, 4, (1, 3, 5))
        assert rotate_pow(p, 0) == p

    def test_full_cycle(self):
        p = path_from_entries(3, 4, (1, 3, 5))
        q = p
        for _ in range(7):
            q = rotate(q)
        assert q == p
        assert rotate_pow(p, 7) == p

    def test_rotate_pow_matches_iteration(self):
        p = path_from_entries(2, 3, (2, 4))
        q = p
        for k in range(1, 6):
            q = rotate(q)
            assert rotate_pow(p, k) == q
            assert rotate_pow(q, -k) == p

    def test_the_empty_path_is_its_own_rotation(self):
        # L_{0,0} holds one path, with no steps
        (p,) = enumerate_all(0, 0)
        assert p == LatticePath(0, 0, "")
        assert rotate(p) == p
        for k in (-3, -1, 0, 1, 2):
            assert rotate_pow(p, k) == p

    def test_free_action_on_coprime_grids(self):
        for d, n in coprime_grids(150):
            for p in enumerate_all(d, n):
                for k in range(1, d + n):
                    assert rotate_pow(p, k) != p


def naive_is_dyck(path):
    return all(Fraction(y) <= Fraction(path.n, path.d) * x for x, y in path.points())


class TestDyck:
    def test_dyck_3_4_matches_named_set(self):
        got = {coords(p).entries for p in enumerate_dyck(3, 4)}
        assert got == {(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)}

    def test_single_dyck_for_width_one(self):
        for n in range(1, 8):
            assert len(enumerate_dyck(1, n)) == 1

    def test_dyck_3_2_brute_force(self):
        paths = enumerate_all(3, 2)
        assert len(paths) == 10
        expected = {coords(p).entries for p in paths if naive_is_dyck(p)}
        assert expected == {(1, 2, 3), (1, 2, 4)}
        assert {coords(p).entries for p in enumerate_dyck(3, 2)} == expected

    def test_count_formula(self):
        for d, n in coprime_grids(1000):
            count = len(enumerate_dyck(d, n))
            assert count * (d + n) == math.comb(d + n, d)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            enumerate_dyck(2, 2)
        with pytest.raises(ValueError):
            enumerate_dyck(3, 6)

    def test_is_dyck_agrees_with_naive(self):
        for d, n in small_grids(260):
            for p in enumerate_all(d, n):
                assert is_dyck(p) == naive_is_dyck(p)


class TestOrbitRepresentative:
    def test_fixed_point_on_dyck(self):
        for p in enumerate_dyck(3, 4):
            assert dyck_orbit_representative(p) == (p, 0)

    def test_inverts_rotation_example(self):
        p = path_from_entries(3, 4, (2, 4, 7))
        assert dyck_orbit_representative(p) == (path_from_entries(3, 4, (1, 3, 5)), 1)

    def test_orbit_scan_L34(self):
        reps = {}
        for p in enumerate_all(3, 4):
            rep, k = dyck_orbit_representative(p)
            assert rotate_pow(rep, k) == p
            reps.setdefault(rep, set()).add(p)
        assert len(reps) == 5
        assert all(len(orbit) == 7 for orbit in reps.values())

    def test_each_orbit_has_one_dyck_path(self):
        for d, n in coprime_grids(1000):
            for p in enumerate_all(d, n):
                orbit = [rotate_pow(p, k) for k in range(d + n)]
                assert sum(is_dyck(q) for q in orbit) == 1


class TestDyckRotations:
    # the prefix-walk minimum against testing every rotation
    def test_matches_the_rotation_scan_on_every_grid(self):
        for d in range(13):
            for n in range(13 - d):  # coprime or not
                for p in enumerate_all(d, n):
                    expected = [k for k in range(d + n) if is_dyck(rotate_pow(p, k))]
                    assert dyck_rotations(p) == expected

    def test_counts_other_than_one_off_the_coprime_grids(self):
        # a path of period 3 in L_{2,4} reaches its minimum once per period
        assert dyck_rotations(LatticePath(2, 4, "HVVHVV")) == [0, 3]
        assert {len(dyck_rotations(p)) for p in enumerate_all(2, 4)} == {1, 2}


class TestWidening:
    def test_prepend_coords(self):
        p = path_from_entries(3, 4, (1, 3, 5))
        assert coords(prepend_horizontal(p)).entries == (1, 2, 4, 6)

    def test_append_coords(self):
        p = path_from_entries(3, 4, (1, 3, 5))
        assert coords(append_horizontal(p)).entries == (1, 3, 5, 8)

    def test_prepend_left_inverse(self):
        for p in enumerate_all(2, 3):
            widened = prepend_horizontal(p)
            assert LatticePath(p.d, p.n, widened.steps[1:]) == p


class TestAnchor:
    def test_prepended_dyck_paths(self):
        for p in enumerate_dyck(3, 4):
            data = anchor_data(prepend_horizontal(p))
            assert data.anchor == GridPoint(0, 0)
            assert data.h == 0
            assert data.mu == 0

    def test_appended_dyck_paths(self):
        for p in enumerate_dyck(3, 4):
            data = anchor_data(append_horizontal(p))
            assert data.anchor == GridPoint(3, 4)
            assert data.h == 4
            assert data.mu == 0

    def test_worked_example(self):
        p = path_from_entries(4, 4, (2, 4, 5, 7))
        data = anchor_data(p)
        assert data.anchor == GridPoint(0, 1)
        assert data.h == 1
        assert data.mu == 1

    def test_anchor_region_consistency(self):
        # mu = 0 exactly when the path sits in the region at its own anchor.
        for d, n in [(2, 3), (3, 2), (3, 4), (4, 3), (2, 5)]:
            for p in enumerate_all(d + 1, n):
                data = anchor_data(p)
                assert (data.mu == 0) == region_contains(data.anchor, p)

    def test_mu_positive_values_in_band(self):
        # every contributing overshoot w lies strictly inside (0, n/d), so
        # a single corner contributes strictly less than (n/d)^2
        for d, n in [(3, 4), (4, 3), (5, 2)]:
            corners_bound = Fraction(n, d) ** 2
            for p in enumerate_all(d + 1, n):
                data = anchor_data(p)
                assert data.mu >= 0
                if data.mu > 0:
                    n_corners = sum(
                        1
                        for k in range(1, d + n)
                        if p.steps[k - 1] == "V" and p.steps[k] == "H"
                    )
                    assert data.mu < n_corners * corners_bound


class TestRegions:
    def test_region_at_origin_is_prepended_dyck(self):
        got = set(region_paths(GridPoint(0, 0), 3, 4))
        expected = {prepend_horizontal(p) for p in enumerate_dyck(3, 4)}
        assert got == expected
        assert len(got) == 5

    def test_base_path_in_own_region(self):
        # regions are only ever taken at (0, 0) or at points weakly above
        # the slope line, where the lower ray clears the origin
        for x in range(0, 4):
            for y in range(0, 5):
                if (x, y) != (0, 0) and y * 3 < x * 4:
                    continue
                point = GridPoint(x, y)
                assert region_contains(point, base_path(point, 3, 4))

    def test_region_at_far_corner_is_appended_dyck(self):
        got = set(region_paths(GridPoint(3, 4), 3, 4))
        expected = {append_horizontal(p) for p in enumerate_dyck(3, 4)}
        assert got == expected

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            region_contains(GridPoint(5, 0), path_from_entries(4, 4, (1, 2, 3, 4)))
        for point in (GridPoint(4, 0), GridPoint(0, 5), GridPoint(-1, 0)):
            with pytest.raises(ValueError, match="outside the bent-curve range"):
                region_paths(point, 3, 4)


class TestDeltaSlices:
    def test_slice_one(self):
        for d, n in [(3, 4), (4, 3), (2, 3), (5, 2)]:
            assert delta_set(d, n, 1) == [GridPoint(1, 0)]
            assert delta_prime_set(d, n, 1) == [GridPoint(d, n)]

    def test_pairing_is_bijective_per_slice(self):
        for d, n in [(3, 4), (4, 3), (2, 5)]:
            for i in range(0, n + d + 1):
                primed = [delta_pair(D, d, n) for D in delta_set(d, n, i)]
                assert sorted(primed) == sorted(delta_prime_set(d, n, i))

    def test_s_regions_partition_origin_region(self):
        for d, n in [(3, 4), (2, 3), (4, 3)]:
            origin_region = set(region_paths(GridPoint(0, 0), d, n))
            for i in range(1, n + d + 1):
                seen = []
                for D in delta_set(d, n, i):
                    seen.extend(s_region(D, d, n))
                assert len(seen) == len(origin_region)
                assert set(seen) == origin_region

    def test_rotation_maps_s_region_onto_region(self):
        for d, n in [(3, 4), (2, 3), (4, 3)]:
            for i in range(1, n + d + 1):
                for D in delta_set(d, n, i):
                    image = {rotate_pow(p, i) for p in s_region(D, d, n)}
                    target = set(region_paths(delta_pair(D, d, n), d, n))
                    assert image == target

    def test_slice_one_matches_widening_maps(self):
        source = s_region(GridPoint(1, 0), 3, 4)
        assert {rotate_pow(p, 1) for p in source} == {
            append_horizontal(p) for p in enumerate_dyck(3, 4)
        }

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            delta_set(3, 4, 8)
        with pytest.raises(ValueError):
            delta_prime_set(3, 4, -1)


COPRIME_UP_TO_9 = [
    (d, n) for d in range(1, 9) for n in range(1, 10 - d) if math.gcd(d, n) == 1
]


class TestIntegerSlopes:
    # the integer-scaled slope tests against the Fraction versions they replace
    @pytest.mark.parametrize("d, n", COPRIME_UP_TO_9)
    def test_delta_sets_match(self, d, n):
        for i in range(n + d + 1):
            assert delta_set(d, n, i) == delta_set_by_fractions(d, n, i)

    @pytest.mark.parametrize("d, n", COPRIME_UP_TO_9)
    def test_anchor_data_matches(self, d, n):
        for p in enumerate_all(d + 1, n):
            assert anchor_data(p) == anchor_data_by_fractions(p)

    @pytest.mark.parametrize("d, n", COPRIME_UP_TO_9)
    def test_bent_curves_and_regions_match(self, d, n):
        # the height box against testing every path under the Fraction bent
        # curve; regions are taken at points of the d+1 columns, all checked
        # here, and the box is empty at (d, 0), where the top corner does
        # not fit
        for x in range(d + 1):
            for y in range(n + 1):
                point = GridPoint(x, y)
                assert region_paths(point, d, n) == region_paths_by_fractions(point, d, n)
        assert region_paths(GridPoint(d, 0), d, n) == []

    # the slope n/d has no meaning at d = 0, whose widened grid is L_{1,n}
    def test_region_paths_needs_a_positive_d(self):
        with pytest.raises(ValueError, match="d >= 1"):
            region_paths(GridPoint(0, 0), 0, 2)

    def test_region_contains_needs_a_positive_d(self):
        with pytest.raises(ValueError, match="d >= 1"):
            region_contains(GridPoint(0, 0), LatticePath(1, 2, "HVV"))

    def test_delta_set_needs_a_positive_d(self):
        with pytest.raises(ValueError, match="d >= 1"):
            delta_set(0, 2, 1)

    @staticmethod
    def fraction_calls(monkeypatch, work):
        count = 0
        real = hatilt.pathcomb.Fraction

        def counting(*args):
            nonlocal count
            count += 1
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(hatilt.pathcomb, "Fraction", counting)
            work()
        return count

    def test_regions_and_slices_build_no_fraction(self, monkeypatch):
        d, n = 4, 3

        def regions_of_every_slice():
            for i in range(1, n + d + 1):
                for D in delta_set(d, n, i):
                    region_paths(delta_pair(D, d, n), d, n)

        assert self.fraction_calls(monkeypatch, regions_of_every_slice) == 0

    def test_one_fraction_per_uncached_anchor(self, monkeypatch):
        paths = enumerate_all(5, 3)
        anchor_data.cache_clear()
        first = self.fraction_calls(monkeypatch, lambda: [anchor_data(p) for p in paths])
        again = self.fraction_calls(monkeypatch, lambda: [anchor_data(p) for p in paths])
        assert (first, again) == (len(paths), 0)


class TestStripSequence:
    def test_worked_window(self):
        terms = strip_sequence((1, 2, 4, 6, 8), 3, 4)
        got = [coords(t).entries for t in terms]
        assert got == [
            (1, 2, 4, 6),
            (1, 2, 4, 8),
            (1, 2, 6, 8),
            (1, 4, 6, 8),
            (2, 4, 6, 8),
        ]

    def test_window_starting_at_one_gives_projective_head(self):
        terms = strip_sequence((1, 3, 5, 6, 8), 3, 4)
        assert terms[0].steps[0] == "H"

    def test_all_terms_valid(self):
        terms = strip_sequence((2, 3, 5, 7, 8), 3, 4)
        for t in terms:
            assert t.d == 4 and t.n == 4

    def test_prefix_suffix_mixing(self):
        window = (1, 2, 4, 6, 8)
        d, n = 3, 4
        terms = strip_sequence(window, d, n)
        top, bottom = terms[0], terms[-1]
        for i in range(1, d + 1):
            middle = terms[d + 1 - i]  # omits window entry i + 1
            assert coords(middle).entries[:i] == coords(top).entries[:i]
            assert coords(middle).entries[i:] == coords(bottom).entries[i:]

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3), (4, 3), (3, 4), (5, 3)])
    def test_terms_are_the_enumerated_paths(self, d, n):
        # every window the strip accepts: each term is the path its labels
        # give when built through an ordered sequence, and is the very object
        # that enumerate_all hands out
        enumerated = {coords(p).entries: p for p in enumerate_all(d + 1, n)}
        windows = 0
        for window in itertools.combinations(range(1, n + d + 2), d + 2):
            for j, term in enumerate(strip_sequence(window, d, n)):
                labels = window[: d + 1 - j] + window[d + 2 - j :]  # omits entry d+2-j
                assert term == path_from_entries(d + 1, n, labels)
                assert term is enumerated[labels]
            windows += 1
        assert windows == math.comb(n + d + 1, d + 2)

    def test_bad_windows_rejected(self):
        with pytest.raises(ValueError):
            strip_sequence((1, 2, 3), 3, 4)
        with pytest.raises(ValueError):
            strip_sequence((1, 2, 2, 5, 6), 3, 4)
        with pytest.raises(ValueError):
            strip_sequence((1, 2, 4, 6, 9), 3, 4)


class TestResolvingSequence:
    def test_worked_example_postcondition(self):
        p = path_from_entries(4, 4, (2, 4, 5, 7))
        window, position = resolving_sequence(p)
        self.check_window(p, window, position)

    @staticmethod
    def check_window(p, window, position):
        d, n = p.d - 1, p.n
        data = anchor_data(p)
        terms = strip_sequence(window, d, n)
        recovered = [t for j, t in enumerate(terms) if d + 2 - j == position]
        assert recovered == [p]
        for j, t in enumerate(terms):
            if d + 2 - j == position:
                continue
            other = anchor_data(t)
            assert other.h > data.h or (other.h == data.h and other.mu < data.mu)

    def test_exhaustive_small_models(self):
        for d, n in [(2, 3), (3, 2), (3, 4), (4, 3), (2, 5), (5, 2), (1, 4)]:
            for p in enumerate_all(d + 1, n):
                data = anchor_data(p)
                if data.h < 1 or data.mu == 0:
                    continue
                window, position = resolving_sequence(p)
                self.check_window(p, window, position)

    def test_lazy_strip_terms_give_the_eager_windows(self):
        # terms are built only when read; the windows must not change
        checked = 0
        for d in range(1, 8):
            for n in range(1, 9 - d):
                if math.gcd(n, d) != 1:
                    continue
                for p in enumerate_all(d + 1, n):
                    data = anchor_data(p)
                    if data.h >= 1 and data.mu > 0:
                        assert resolving_sequence(p) == resolving_sequence_eager(p)
                        checked += 1
        assert checked == 185

    def test_precondition_errors(self):
        flat = prepend_horizontal(path_from_entries(3, 4, (1, 2, 3)))
        with pytest.raises(ValueError):
            resolving_sequence(flat)  # h = 0, mu = 0
        tilted = append_horizontal(path_from_entries(3, 4, (1, 2, 3)))
        with pytest.raises(ValueError):
            resolving_sequence(tilted)  # mu = 0

    def test_terminates_on_larger_coprime_models(self):
        for d in range(1, 13):
            for n in range(1, 45):
                if math.gcd(n, d) != 1 or math.comb(d + n + 1, d + 1) > 1000:
                    continue
                for p in enumerate_all(d + 1, n):
                    data = anchor_data(p)
                    if data.h >= 1 and data.mu > 0:
                        resolving_sequence(p)
