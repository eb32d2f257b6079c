"""Lattice-path combinatorics for the type-A higher Auslander model.

A monotone lattice path in the (d x n)-rectangle walks from (0, 0) to (d, n)
using unit steps H = (1, 0) and V = (0, 1).  Labelling the steps 1..d+n and
reading off the labels of the horizontal steps identifies L_{d,n} with the
set os_{n+1}^d of strictly increasing d-tuples in [1, n+d], and transports
the interleaving order

    x <= y  iff  x_1 <= y_1 < x_2 <= y_2 < ... < x_d <= y_d

to a geometric relation on paths (below-ness plus a no-wide-rectangle
condition on the skew shape between them).

On top of the bijection this module implements rotation orbits, rational
Dyck paths (one per orbit when gcd(n, d) = 1), the slope-line anchor of a
path in the widened (d+1 x n)-rectangle together with its height h and
overshoot weight mu, the regions cut out by the bent slope curves, width-one
strips (windows) and the search for resolving windows that strictly decrease
the (n - h, mu) key.

Every comparison with the slope-n/d line is made in integers scaled by the
positive n or d, which keeps every order: x - (d/n) y is held as n x - d y, and
y <= y0 + (n/d) r is tested as d y <= d y0 + n r.  So open bands such as
0 < x - (d/n) y < 1 are decided exactly; mu is the one Fraction, built once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=True)
class OrderedSeq:
    """A strictly increasing d-tuple in [1, n+d-1], the vertex alphabet."""

    n: int
    d: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"parameters must be positive, got n={self.n}, d={self.d}")
        if len(self.entries) != self.d:
            raise ValueError(f"expected {self.d} entries, got {len(self.entries)}")
        top = self.n + self.d - 1
        prev = 0
        for e in self.entries:
            if e <= prev:
                break
            prev = e
        else:  # increasing from above 0, so only the last entry can be too big
            if prev <= top:
                return
        if min(self.entries) < 1 or max(self.entries) > top:
            raise ValueError(f"entries {self.entries} out of range [1, {top}]")
        raise ValueError(f"entries not strictly increasing: {self.entries}")


@dataclass(frozen=True, order=True)
class LatticePath:
    """A monotone path in the (d x n)-rectangle as a word over {H, V}."""

    d: int
    n: int
    steps: str

    def __post_init__(self):
        if self.d < 0 or self.n < 0:
            raise ValueError("negative rectangle dimensions")
        if len(self.steps) != self.d + self.n:
            raise ValueError(f"expected {self.d + self.n} steps, got {len(self.steps)!r}")
        if self.steps.count("H") != self.d or self.steps.count("V") != self.n:
            raise ValueError(f"step word {self.steps!r} does not fit a {self.d}x{self.n} grid")

    def points(self) -> tuple[tuple[int, int], ...]:
        """All d+n+1 lattice points visited, in walk order."""
        return _points(self)

    def column_heights(self) -> tuple[int, ...]:
        """Height at which the path crosses column i -> i+1, for i = 0..d-1."""
        heights = []
        y = 0
        for s in self.steps:
            if s == "H":
                heights.append(y)
            else:
                y += 1
        return tuple(heights)


@functools.lru_cache(maxsize=65536)
def _points(path: LatticePath) -> tuple[tuple[int, int], ...]:
    pts = [(0, 0)]
    x = y = 0
    for s in path.steps:
        if s == "H":
            x += 1
        else:
            y += 1
        pts.append((x, y))
    return tuple(pts)


@dataclass(frozen=True, order=True)
class GridPoint:
    x: int
    y: int


@dataclass(frozen=True)
class AnchorData:
    """Anchor point of a path plus its height h and overshoot weight mu, and
    ``overshoot`` = d^2 mu, the integer that orders the mu of one grid."""

    anchor: GridPoint
    h: int
    mu: Fraction
    overshoot: int


def enumerate_os(n: int, d: int) -> list[OrderedSeq]:
    """All C(n+d-1, d) ordered sequences, in lexicographic order."""
    if n < 1 or d < 1:
        raise ValueError(f"parameters must be positive, got n={n}, d={d}")
    return [
        OrderedSeq(n, d, combo)
        for combo in itertools.combinations(range(1, n + d), d)
    ]


def preceq(x: OrderedSeq, y: OrderedSeq) -> bool:
    """Interleaving order: x_1 <= y_1 < x_2 <= y_2 < ... < x_d <= y_d."""
    if (x.n, x.d) != (y.n, y.d):
        raise ValueError(f"mismatched parameters: ({x.n},{x.d}) vs ({y.n},{y.d})")
    return interleaves(x.entries, y.entries)


def interleaves(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """The interleaving order on bare entry tuples of one length."""
    for i in range(len(x) - 1):
        if x[i] > y[i] or y[i] >= x[i + 1]:
            return False
    return x[-1] <= y[-1]


@functools.lru_cache(maxsize=65536)
def coords(path: LatticePath) -> OrderedSeq:
    """Labels (1-indexed step positions) of the horizontal steps."""
    entries = tuple(i + 1 for i, s in enumerate(path.steps) if s == "H")
    return OrderedSeq(path.n + 1, path.d, entries)


def from_coords(x: OrderedSeq) -> LatticePath:
    """Inverse of :func:`coords`; x lives in os_{n+1}^d, the path in L_{d,n}."""
    steps = ["V"] * (x.n + x.d - 1)
    for e in x.entries:
        steps[e - 1] = "H"
    return LatticePath(x.d, x.n - 1, "".join(steps))


def relation_R(p1: LatticePath, p2: LatticePath) -> bool:
    """p1 below p2 with no 2-wide, 1-tall rectangle in the skew shape.

    Equivalent to ``preceq(coords(p1), coords(p2))``; the equivalence is an
    exhaustively tested invariant, not assumed here.
    """
    if (p1.d, p1.n) != (p2.d, p2.n):
        raise ValueError("paths live in different grids")
    return heights_related(p1.column_heights(), p2.column_heights())


def heights_related(h1: tuple[int, ...], h2: tuple[int, ...]) -> bool:
    """Relation R on the column heights of two paths in one grid."""
    # cells (i, j) and (i+1, j) both in the skew shape iff h1[i+1] < h2[i],
    # using that column heights are nondecreasing along a monotone path
    for i in range(len(h1) - 1):
        if h1[i] > h2[i] or h1[i + 1] < h2[i]:
            return False
    return not h1 or h1[-1] <= h2[-1]


def interleaving_up_box(x: tuple[int, ...], top: int):
    """All strictly increasing y in [1, top] with ``interleaves(x, y)``.

    For such y, x_1 <= y_1 < x_2 <= y_2 < ... < x_d <= y_d says exactly
    y_i in [x_i, x_{i+1} - 1] for i < d and y_d in [x_d, top].  Conversely
    every tuple of this box is such a y: interval i ends below x_{i+1}, where
    interval i + 1 starts, so the entries strictly increase, and they lie in
    [x_1, top].  Yields in lexicographic order.
    """
    return itertools.product(*(range(a, b) for a, b in zip(x, x[1:] + (top + 1,))))


def interleaving_down_box(x: tuple[int, ...]):
    """All strictly increasing y of positive integers with ``interleaves(y, x)``.

    For such y, y_1 <= x_1 < y_2 <= x_2 < ... < y_d <= x_d says exactly
    y_1 in [1, x_1] and y_i in [x_{i-1} + 1, x_i] for i > 1.  Conversely
    every tuple of this box is such a y: interval i ends at x_i, below the
    start of interval i + 1, so the entries strictly increase, and they lie
    in [1, x_d].  Yields in lexicographic order.
    """
    return itertools.product(*(range(a + 1, b + 1) for a, b in zip((0,) + x[:-1], x)))


def heights_up_box(h: tuple[int, ...], n: int):
    """All column heights h2 of L_{d,n} with ``heights_related(h, h2)``.

    Column heights are the nondecreasing d-tuples in [0, n].  For such h2 the
    relation says exactly h2_i in [h_i, h_{i+1}] for i < d and h2_d in
    [h_d, n].  Conversely every tuple of this box is such an h2: consecutive
    intervals share their endpoint h_{i+1}, so the entries do not decrease,
    and they lie in [h_1, n].  Yields in lexicographic order.
    """
    return itertools.product(*(range(a, b + 1) for a, b in zip(h, h[1:] + (n,))))


def rotate(path: LatticePath) -> LatticePath:
    """Move the first step to the end."""
    return LatticePath(path.d, path.n, path.steps[1:] + path.steps[:1])


def rotate_pow(path: LatticePath, k: int) -> LatticePath:
    """k-fold rotation; negative k rotates backwards."""
    k %= max(path.d + path.n, 1)  # the empty path of L_{0,0} is its own rotation
    return LatticePath(path.d, path.n, path.steps[k:] + path.steps[:k])


def is_dyck(path: LatticePath) -> bool:
    """True iff the path stays weakly below the (0,0)-(d,n) diagonal."""
    return all(y * path.d <= x * path.n for x, y in path.points())


def dyck_rotations(path: LatticePath) -> list[int]:
    """The k in [0, d+n) with ``is_dyck(rotate_pow(path, k))``, increasing.

    Let P_0, ..., P_{d+n} be the points of the path and v_j = n x_j - d y_j,
    so a path is Dyck iff v >= 0 at each of its points.  Rotation k visits
    P_{k+j} - P_k for k + j <= d + n and then P_{d+n} - P_k + P_j; v is
    linear and v_{d+n} = n d - d n = 0, so its values there are v_{k+j} -
    v_k and v_j - v_k.  Together they run over every j in [0, d+n], so
    rotation k is Dyck iff v_k = min v.  As v_{d+n} = v_0, the minimum is
    already taken over the first d + n points, the ones walked here.
    """
    d, n = path.d, path.n
    values = []
    v = 0
    for s in path.steps:
        values.append(v)
        v += n if s == "H" else -d
    low = min(values, default=0)
    return [k for k, vk in enumerate(values) if vk == low]


def enumerate_all(d: int, n: int) -> list[LatticePath]:
    """All C(d+n, d) paths of L_{d,n}, sorted by coordinates, in a new list;
    the objects are those of the grid's one path table, as strip terms are."""
    if d < 0 or n < 0:
        raise ValueError("negative rectangle dimensions")
    return list(_all_paths(d, n).values())


@functools.lru_cache(maxsize=256)
def _all_paths(d: int, n: int) -> dict[tuple[int, ...], LatticePath]:
    """The paths of L_{d,n} keyed by coordinates, in combinations order."""
    paths = {}
    for combo in itertools.combinations(range(1, n + d + 1), d):
        positions = set(combo)
        steps = "".join("H" if i in positions else "V" for i in range(1, n + d + 1))
        paths[combo] = LatticePath(d, n, steps)
    return paths


def enumerate_dyck(d: int, n: int) -> list[LatticePath]:
    """All rational Dyck paths of L_{d,n}; requires gcd(n, d) = 1.

    There are C(d+n, d)/(d+n) of them, one per rotation orbit.
    """
    if d < 1 or n < 1:
        raise ValueError(f"parameters must be positive, got d={d}, n={n}")
    if math.gcd(n, d) != 1:
        raise ValueError(f"gcd(n, d) must be 1, got n={n}, d={d}")
    return [p for p in enumerate_all(d, n) if is_dyck(p)]


def prepend_horizontal(path: LatticePath) -> LatticePath:
    """Widen the grid by one column, entering it with a first H step."""
    return LatticePath(path.d + 1, path.n, "H" + path.steps)


@functools.lru_cache(maxsize=65536)
def anchor_data(path: LatticePath) -> AnchorData:
    """Anchor, height and overshoot weight of a path in L_{d+1,n}.

    The anchor is the path point whose slope-n/d line lies furthest left,
    i.e. minimises x - (d/n) y.  When the minimum is shared by (0, 0) and
    (d, n) the latter wins.  mu sums w_F^2 over the V-to-H corner points F
    strictly after the anchor whose line falls in the open unit band right
    of the anchor line; there w_F = (n/d) (1 - (x_int(F) - x_int(anchor))).
    """
    d = path.d - 1
    n = path.n
    if d < 1:
        raise ValueError("anchor data needs a path in a widened grid L_{d+1,n} with d >= 1")
    if math.gcd(n, d) != 1:
        raise ValueError(f"anchor data needs gcd(n, d) = 1, got n={n}, d={d}")

    pts = path.points()
    xints = [n * x - d * y for x, y in pts]  # n times each x-intercept
    best = min(xints)
    anchor_idx = xints.index(best)
    if best == 0 and (d, n) in pts:
        anchor_idx = pts.index((d, n))
    anchor = GridPoint(*pts[anchor_idx])

    # t = n (x_int(F) - x_int(anchor)): the band is 0 < t < n, w_F = (n - t) / d
    overshoot = 0
    for k in range(anchor_idx + 1, len(pts) - 1):
        if path.steps[k - 1] == "V" and path.steps[k] == "H":
            t = xints[k] - best
            if not 0 < t:
                raise AssertionError(f"anchor minimality violated at {pts[k]} on {path}")
            if t < n:
                overshoot += (n - t) ** 2
    return AnchorData(anchor, anchor.y, Fraction(overshoot, d * d), overshoot)


def _require_slope(d: int):
    if d < 1:
        raise ValueError(f"the slope-n/d curves need d >= 1, got d={d}")


def base_path(point: GridPoint, d: int, n: int) -> LatticePath:
    """The lowest path of the region at (x, y): H^x V^y H^{d+1-x} V^{n-y}."""
    _require_slope(d)
    x, y = point.x, point.y
    if not (0 <= x <= d and 0 <= y <= n):
        raise ValueError(f"point {point} outside the bent-curve range for d={d}, n={n}")
    return LatticePath(d + 1, n, "H" * x + "V" * y + "H" * (d + 1 - x) + "V" * (n - y))


def region_paths(point: GridPoint, d: int, n: int) -> list[LatticePath]:
    """All paths of L_{d+1,n} in the region at D, sorted by coordinates.

    The region at D = (x, y) holds the paths p that lie columnwise weakly
    above the base path at D and have every point weakly below the bent
    slope curve at D: the curve climbs with slope n/d into D, runs
    horizontally to (x+1, y), then climbs with slope n/d again, so a point
    (i, j) is below it iff d j <= d y + n run(i), with run(i) = i - x for
    i <= x and i - x - 1 otherwise.

    A path of L_{d+1,n} is its column heights h_0 <= ... <= h_d in [0, n];
    its points over column boundary i <= d climb from h_{i-1} (0 for i = 0)
    to h_i, and those over d + 1 from h_d to n.  The base path has heights
    0 before x and y from x on, so lying above it says exactly h_i >= 0
    for i < x and h_i >= y for i >= x.  The curve's bound depends only on the
    boundary i, so it holds at every point over i iff it holds at the
    highest one: d h_i <= d y + n run(i) for i <= d, and d n <= d y +
    n (d - x) at i = d + 1, since x <= d.  Conversely every nondecreasing
    tuple in these bounds and in [0, n] is such a path.  So the region is
    empty unless that top corner fits, and is otherwise the nondecreasing
    tuples of a box.  Horizontal step i (from 0) has label i + 1 + h_i, so
    each coordinate grows with its height, and heights in lexicographic
    order give coordinates in lexicographic order.
    """
    base_path(point, d, n)  # validates d and D
    x, dy = point.x, d * point.y
    if d * n > dy + n * (d - x):
        return []
    low = [0] * x + [point.y] * (d + 1 - x)
    high = [min(n, (dy + n * (i - x if i <= x else i - x - 1)) // d) for i in range(d + 1)]
    # the step words of h_0..h_i in lexicographic order, with h_i
    prefixes = [("", 0)]
    for i in range(d + 1):
        prefixes = [
            (steps + "V" * (h - floor) + "H", h)
            for steps, floor in prefixes
            for h in range(max(low[i], floor), high[i] + 1)
        ]
    return [LatticePath(d + 1, n, steps + "V" * (n - floor)) for steps, floor in prefixes]


def delta_set(d: int, n: int, i: int) -> list[GridPoint]:
    """Lattice points at taxicab distance i weakly below the bent curve at (0,0).

    The terminal corner (d+1, n) is excluded; (0, 0) itself is a member.
    """
    _require_slope(d)
    if not 0 <= i <= n + d:
        raise ValueError(f"index i={i} out of range [0, {n + d}]")
    points = []
    for x in range(0, d + 2):
        y = i - x
        if not 0 <= y <= n or (x, y) == (d + 1, n):
            continue
        if (x, y) == (0, 0) or (x >= 1 and d * y <= n * (x - 1)):
            points.append(GridPoint(x, y))
    return points


def delta_pair(point: GridPoint, d: int, n: int) -> GridPoint:
    """The slice-preserving partner D' = (d+1-x, n-y) of D."""
    return GridPoint(d + 1 - point.x, n - point.y)


def strip_sequence(window, d: int, n: int) -> list[LatticePath]:
    """The d+2 paths of a width-one strip, in exact-sequence order.

    ``window`` is a strictly increasing list of d+2 labels in [1, n+d+1].
    Entry j of the result omits the (d+2-j)-th window entry, so the list
    runs from the top path (first d+1 labels) down to the bottom path (last
    d+1 labels); the middle terms mix a prefix of the top path's horizontal
    steps with a suffix of the bottom path's.
    """
    window = tuple(window)
    if len(window) != d + 2:
        raise ValueError(f"window must have {d + 2} entries, got {len(window)}")
    if any(b <= a for a, b in zip(window, window[1:])):
        raise ValueError(f"window {window} not strictly increasing")
    if window[0] < 1 or window[-1] > n + d + 1:
        raise ValueError(f"window {window} out of range [1, {n + d + 1}]")
    return [_strip_term(window, j, d, n) for j in range(d + 2)]


def _strip_term(window: tuple, j: int, d: int, n: int) -> LatticePath:
    """Entry j of ``strip_sequence(window, d, n)``, for a window it accepts,
    looked up by its d+1 labels in the path table of L_{d+1,n}."""
    omit = d + 1 - j  # 0-based index of the omitted entry
    return _all_paths(d + 1, n)[window[:omit] + window[omit + 1 :]]


def resolving_sequence(path: LatticePath) -> tuple[tuple[int, ...], int]:
    """A window resolving ``path`` by strictly smaller (n - h, mu) keys.

    Requires h >= 1 and mu > 0.  Searches insertable labels v in increasing
    order; the window is coords(path) with v inserted, and every strip term
    other than ``path`` itself must have larger h, or equal h and smaller
    mu.  Returns (window, position) with the 1-based position of v.
    """
    d = path.d - 1
    n = path.n
    data = anchor_data(path)
    if data.h < 1 or data.overshoot == 0:
        raise ValueError(
            f"precondition violated: need h >= 1 and mu > 0, got h={data.h}, mu={data.mu}"
        )
    own = {i for i, s in enumerate(path.steps, 1) if s == "H"}  # coords, no OrderedSeq
    for v in range(1, n + d + 2):
        if v in own:
            continue
        window = tuple(sorted(own | {v}))
        position = window.index(v) + 1
        if _window_resolves(window, position, d, n, data):
            return window, position
    raise RuntimeError(f"no resolving insertion found for {path}")


def _window_resolves(window, position, d, n, data: AnchorData) -> bool:
    """Whether every strip term but the resolved path has a smaller key.

    ``window`` is the d+1 labels of a path with one more label inserted, so
    ``strip_sequence`` accepts it; each term is looked up in the path table
    only when it is read, and the first term that fails ends the test.
    """
    for j in range(d + 2):
        if d + 2 - j == position:
            continue  # the path being resolved
        term_data = anchor_data(_strip_term(window, j, d, n))
        if term_data.h > data.h:
            continue
        if term_data.h == data.h and term_data.overshoot < data.overshoot:
            continue
        return False
    return True
