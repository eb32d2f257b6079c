"""Combinatorial model of the shift-closed cluster subcategory.

Indecomposables are shifted interval modules M_p[d i], encoded as a lattice
path p in the widened grid L_{d+1,n} together with an integer shift i
(counted in units of [d]).  Morphism spaces between two such objects are at
most one dimensional.  ``_hom_rule`` reads them off the label triples
(shift, coordinates, decremented coordinates or None) that ``_labels``
builds once per object:

* equal shifts: the interleaving order on coordinates,
* shift difference one: the target dominated by the decremented source,
* anything else: zero.

The checks over the whole summand list read the rule the other way round.
The solutions of x <= y are a box of coordinates, y_i in [x_i, x_{i+1} - 1]
and y_d up to the top label, and so are those of y <= x (the proofs are in
``pathcomb.interleaving_up_box`` and ``interleaving_down_box``).  So the
Hom support of each object is listed from two boxes and held as a bitmask of
summand positions (at (6, 5), about a dozen of the 462 summands) rather than
found by testing every pair.

The Serre twist acts by rotating the path, bumping the shift exactly when
the first step is vertical.  Iterating it on the prepended Dyck paths
produces the summand list of the candidate tilting object; this module
checks its rigidity, decomposes the twist orbits by regions, and certifies
thick-subcategory generation by a double induction on (n - h, mu).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .pathcomb import (
    GridPoint,
    LatticePath,
    OrderedSeq,
    anchor_data,
    coords,
    delta_pair,
    delta_set,
    enumerate_all,
    enumerate_dyck,
    interleaves,
    interleaving_down_box,
    interleaving_up_box,
    prepend_horizontal,
    region_paths,
    resolving_sequence,
    rotate,
    strip_sequence,
)


@dataclass(frozen=True, order=True)
class ShiftedModule:
    """An interval module M_path placed in homological degree d * shift."""

    path: LatticePath
    shift: int


@functools.lru_cache(maxsize=65536)
def tau_d(x: OrderedSeq):
    """Componentwise decrement; None on projective labels (x_1 = 1)."""
    if x.entries[0] == 1:
        return None
    return OrderedSeq(x.n, x.d, tuple(e - 1 for e in x.entries))


def hom_dim(src: ShiftedModule, dst: ShiftedModule) -> int:
    """Dimension (0 or 1) of the morphism space in the derived category."""
    p, q = src.path, dst.path
    if (p.d, p.n) != (q.d, q.n):
        raise ValueError(
            f"objects live over different models: {(p.d - 1, p.n)} vs {(q.d - 1, q.n)}"
        )
    return _hom_rule(_labels(src), _labels(dst))


def _labels(u: ShiftedModule):
    x = coords(u.path)
    t = tau_d(x)
    return (u.shift, x.entries, None if t is None else t.entries)


def _hom_rule(a, b) -> int:
    """The three-case rule of the module docstring on label triples."""
    delta = b[0] - a[0]
    if delta == 0:
        return 1 if interleaves(a[1], b[1]) else 0
    if delta == 1:
        return 1 if a[2] is not None and interleaves(b[1], a[2]) else 0
    return 0


def nakayama(u: ShiftedModule) -> ShiftedModule:
    """Serre twist: rotate the path, bump the shift on a vertical first step."""
    bump = 0 if u.path.steps[0] == "H" else 1
    return ShiftedModule(rotate(u.path), u.shift + bump)


def _require_coprime(d: int, n: int):
    if math.gcd(n, d) != 1:
        raise ValueError(f"gcd(n, d) must be 1, got n={n}, d={d}")


def projective_summands(d: int, n: int) -> list[ShiftedModule]:
    """The prepended Dyck paths at shift zero; summands of the base projective."""
    _require_coprime(d, n)
    return [ShiftedModule(prepend_horizontal(p), 0) for p in enumerate_dyck(d, n)]


def tilting_summands(d: int, n: int) -> list[ShiftedModule]:
    """All n+d twist iterates of the base projective summands, i-major:
    row i holds the i-th twist of each base summand, for i = 1..n+d.  Each
    row is the twist of the one before, so each orbit is walked once."""
    _require_coprime(d, n)
    row = projective_summands(d, n)
    summands = []
    for _ in range(n + d):
        row = [nakayama(u) for u in row]
        summands += row
    return summands


def nu_orbit_decomposition(d: int, n: int, i: int) -> dict[GridPoint, list[ShiftedModule]]:
    """Blockwise description of the i-th twist of the base projective.

    Block D in slice i of the lower fan contributes the region at its
    partner D' = (d+1-x, n-y), placed at shift y_D: the number of vertical
    steps consumed before the paths cross slice i.
    """
    _require_coprime(d, n)
    if not 1 <= i <= n + d:
        raise ValueError(f"index i={i} out of range [1, {n + d}]")
    blocks: dict[GridPoint, list[ShiftedModule]] = {}
    for D in delta_set(d, n, i):
        partner = delta_pair(D, d, n)
        blocks[D] = [ShiftedModule(p, D.y) for p in region_paths(partner, d, n)]
    return blocks


@dataclass(frozen=True)
class RigidityReport:
    d: int
    n: int
    passed: bool
    end_dim: int
    pairs_checked: int
    violations: tuple = ()


def _summand_index(d: int, n: int):
    """The summands of T, their labels, and bitmasks of summand positions by
    coordinates (any shift) and by shift."""
    summands = tilting_summands(d, n)
    labels = [_labels(u) for u in summands]
    by_entries: dict[tuple[int, ...], int] = {}
    by_shift: dict[int, int] = {}
    for j, (t, x, _) in enumerate(labels):
        by_entries[x] = by_entries.get(x, 0) | 1 << j
        by_shift[t] = by_shift.get(t, 0) | 1 << j
    return summands, labels, by_entries, by_shift


def _box_mask(by_entries, box) -> int:
    mask = 0
    for y in box:
        mask |= by_entries.get(y, 0)
    return mask


def _hom_support(a, by_entries, top: int) -> tuple[int, int]:
    """Positions j with Hom(u, v_j) nonzero, u labelled a and v_j moved to
    u's shift and to one shift above; coordinates run up to ``top``.

    The rule of the module docstring as boxes: the up-box of u's coordinates
    and the down-box of the decremented ones.  Other shifts give zero.
    """
    _, x, tx = a
    above = 0 if tx is None else _box_mask(by_entries, interleaving_down_box(tx))
    return _box_mask(by_entries, interleaving_up_box(x, top)), above


def _cohom_support(b, by_entries, top: int) -> tuple[int, int]:
    """Positions j with Hom(v_j, w) nonzero, w labelled b and v_j moved to
    w's shift and to one shift below.

    The down-box of w's coordinates z, and the up-box of z + 1, since
    z <= y - 1 iff z + 1 <= y in the interleaving order, and z + 1 <= y
    forces y_1 > 1, so y - 1 is a label.
    """
    z = b[1]
    below = _box_mask(by_entries, interleaving_up_box(tuple(e + 1 for e in z), top))
    return _box_mask(by_entries, interleaving_down_box(z)), below


def rigidity_check(d: int, n: int) -> RigidityReport:
    """Verify Hom(T, T[k]) = 0 for k != 0 over all ordered summand pairs.

    For a pair with shift difference s, the only degrees k where a morphism
    could live are k = -d s and k = d (1 - s), which put v at u's shift or
    one above; both are read off the Hom support of u.  The total
    dimension of End(T) comes back as a byproduct.  Violations come in the
    order of a row-major pass over the pairs, the k = -d s one of a pair
    first.
    """
    summands, labels, by_entries, by_shift = _summand_index(d, n)
    top = n + d + 1
    end_dim = 0
    violations = []
    for u, a in zip(summands, labels):
        level, above = _hom_support(a, by_entries, top)
        here, next_up = by_shift[a[0]], by_shift.get(a[0] + 1, 0)
        end_dim += (level & here).bit_count() + (above & next_up).bit_count()
        level &= ~here
        above &= ~next_up
        if not level | above:
            continue
        for j, v in enumerate(summands):
            s = v.shift - u.shift
            if level >> j & 1:
                violations.append((u, v, -d * s))
            if above >> j & 1:
                violations.append((u, v, d * (1 - s)))
    return RigidityReport(d, n, not violations, end_dim, len(summands) ** 2, tuple(violations))


def serre_symmetry_check(d: int, n: int):
    """First summand pair (u, v) with Hom(u, v) != Hom(v, nu u), or None.

    Pairs are taken in row-major order; None means the symmetry holds on
    every ordered pair.
    """
    summands, labels, by_entries, by_shift = _summand_index(d, n)
    top = n + d + 1
    for u, a in zip(summands, labels):
        level, above = _hom_support(a, by_entries, top)
        hom = level & by_shift[a[0]] | above & by_shift.get(a[0] + 1, 0)
        twisted = _labels(nakayama(u))
        level, below = _cohom_support(twisted, by_entries, top)
        cohom = level & by_shift.get(twisted[0], 0) | below & by_shift.get(twisted[0] - 1, 0)
        diff = hom ^ cohom
        if diff:
            return u, summands[(diff & -diff).bit_length() - 1]
    return None


@dataclass(frozen=True)
class CertificateEntry:
    path: LatticePath
    h: int
    mu: Fraction
    status: str  # "in-T" or "resolved"
    window: tuple[int, ...] | None = None
    position: int | None = None
    dependencies: tuple[LatticePath, ...] = ()


@dataclass(frozen=True)
class GenerationCertificate:
    d: int
    n: int
    entries: tuple[CertificateEntry, ...]
    injective_labels: tuple[LatticePath, ...]


def generation_certificate(d: int, n: int) -> GenerationCertificate:
    """Cover every path with h >= 1 by base cases or resolving windows.

    Entries are processed by h descending, then mu ascending, then
    coordinates, so dependency edges always point to earlier entries.  The
    certificate also records that every injective label (last step
    horizontal) has h >= 1, and is checked for acyclicity before returning.
    """
    _require_coprime(d, n)
    keyed = []
    for rank, p in enumerate(enumerate_all(d + 1, n)):  # rank orders coordinates
        data = anchor_data(p)
        if data.h >= 1:
            keyed.append((-data.h, data.mu, rank, p, data))

    entries = []
    for _, mu, _, p, data in sorted(keyed):
        if mu == 0:
            entries.append(CertificateEntry(p, data.h, mu, "in-T"))
            continue
        window, position = resolving_sequence(p)
        terms = strip_sequence(window, d, n)
        deps = tuple(t for j, t in enumerate(terms) if d + 2 - j != position)
        entries.append(CertificateEntry(p, data.h, mu, "resolved", window, position, deps))

    injective_labels = tuple(p for p in enumerate_all(d + 1, n) if p.steps[-1] == "H")
    cert = GenerationCertificate(d, n, tuple(entries), injective_labels)
    _validate_certificate(cert)
    return cert


def _validate_certificate(cert: GenerationCertificate):
    order = {e.path: i for i, e in enumerate(cert.entries)}
    key = {e.path: (-e.h, e.mu) for e in cert.entries}
    for e in cert.entries:
        for dep in e.dependencies:
            if dep not in order:
                raise RuntimeError(f"dependency {dep} of {e.path} not covered")
            if not key[dep] < key[e.path]:
                raise RuntimeError(f"dependency key does not decrease: {e.path} -> {dep}")
            if not order[dep] < order[e.path]:
                raise RuntimeError(f"dependency order violated: {e.path} -> {dep}")
    for p in cert.injective_labels:
        if p not in order:
            raise RuntimeError(f"injective label {p} has h = 0")
