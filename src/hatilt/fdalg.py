"""Algebra surgery, presentations and isomorphisms.

Every algebra here is a ``quiveralg.BoundQuiverAlgebra`` with vertices
0, ..., n-1, its complete set of orthogonal idempotents; every basis element
is sandwiched between a single pair of them, so Cartan data, rad^2 and
idempotent surgery (corner subalgebras, replicated and r-fold trivial
extension algebras) are all blockwise linear algebra.  The
results of surgery are built from structure constants alone; they carry no
relations, and their quiver is their Gabriel quiver, which
``quiveralg.gabriel_quiver`` computes on first use.

``presentation_data`` recovers a bound quiver presentation from structure
constants: the Gabriel quiver's arrows lift a basis of rad/rad^2, the
kernel of the induced path-algebra surjection is computed degree by
degree, and minimal generators are chosen greedily in lexicographic path
order.  The returned algebra is rebuilt from that presentation and must
reproduce the original dimension, failing loudly otherwise.  Both rad^2
and the presentation kernels are computed block by block: rad^2 in
e_i A e_j is spanned by the products of basis elements of e_i A e_l and
e_l A e_j, reduced in the coordinates of e_i A e_j alone, and paths from
j to i are evaluated in e_i A e_j only.

``iso_test`` certifies isomorphisms from the presentation of its first
argument alone; the second is read through its quiver.  Each vertex
gets a profile (diagonal Cartan entry, sorted Cartan and arrow-count rows
and columns) that every vertex bijection compatible with Cartan data and
arrow multiplicities keeps.  Profiles give each vertex its candidates, and
the search places the vertex with the fewest candidates first.  Each
bijection found has its arrows matched and per-arrow scalars solved so that
every relation of the first side evaluates to zero in the second.  Success
hands back an explicit generator map that is verified by evaluation;
None means every arrow map of the exhausted search was ruled out, and an
arrow map the scalar solve cannot decide makes the search inconclusive.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .exactmat import ExactMatrix, ONE, ZERO, exact_div, extend_basis, span_basis
from .quiveralg import (
    BasisElement,
    BoundQuiverAlgebra,
    BudgetError,
    Quiver,
    Relation,
    gabriel_quiver,
)


# -- presentation ------------------------------------------------------------


@dataclass
class PresentationData:
    quiver: Quiver
    relations: list[Relation]
    algebra: BoundQuiverAlgebra


DEFAULT_PRESENTATION_DEGREE = 64


def presentation_data(fd: BoundQuiverAlgebra) -> PresentationData:
    quiver, arrow_elems = gabriel_quiver(fd)
    relations: list[Relation] = []
    # ideal vectors per block at the previous degree, each a {path: coeff}
    ideal_prev: dict[tuple[int, int], list[dict]] = {}
    # the walked paths of the current degree, those whose proper prefixes are
    # all nonzero: (arrow ids, src, tgt, value)
    walked = [((a.id,), a.src, a.tgt, arrow_elems[a.id]) for a in quiver.arrows]
    m = 1
    while m < DEFAULT_PRESENTATION_DEGREE:
        m += 1
        # extend each nonzero path of the previous degree by one arrow at its
        # target; a zero path lies in the ideal, and so do its extensions
        walked = [
            (path + (a.id,), src, a.tgt, fd.elem_mul(arrow_elems[a.id], value))
            for path, src, tgt, value in walked
            if value
            for a in quiver.arrows_out[tgt]
        ]
        if not walked:
            break
        by_block: dict[tuple[int, int], list] = defaultdict(list)
        for path, src, tgt, value in walked:
            by_block[src, tgt].append((path, value))
        all_killed = True
        ideal_now: dict[tuple[int, int], list[dict]] = {}
        # grow the ideal: extend each previous ideal vector by one arrow on
        # either side, and file the product under the block it lands in
        extended: dict[tuple[int, int], list[dict]] = defaultdict(list)
        for (s, t), vectors in ideal_prev.items():
            for vec in vectors:
                for a in quiver.arrows_out[t]:
                    extended[s, a.tgt].append({p + (a.id,): c for p, c in vec.items()})
                for a in quiver.arrows_into[s]:
                    extended[a.src, t].append({(a.id,) + p: c for p, c in vec.items()})
        for blk, entries in sorted(by_block.items()):
            entries.sort(key=lambda entry: entry[0])
            paths = [path for path, _ in entries]
            grown = span_basis([[vec.get(p, ZERO) for p in paths] for vec in extended[blk]])

            # kernel of evaluation on degree-m paths
            # a path from src to tgt evaluates into e_tgt A e_src; the other
            # rows of the evaluation matrix are zero
            evals = [value for _, value in entries]
            block_ids = fd.blocks.get(blk, [])
            eval_matrix = ExactMatrix(
                len(block_ids), len(paths), [[e.get(bid, ZERO) for e in evals] for bid in block_ids]
            )
            kernel = eval_matrix.nullspace()
            if len(kernel) < len(paths):
                all_killed = False

            new = [kernel[k] for k in extend_basis(grown, kernel)]
            relations.extend(
                Relation(tuple((c, paths[k]) for k, c in enumerate(vec) if c != 0))
                for vec in new
            )
            ideal_now[blk] = [
                {paths[k]: c for k, c in enumerate(vec) if c != 0} for vec in grown + new
            ]
        ideal_prev = ideal_now
        if all_killed:
            break
    else:
        raise BudgetError("presentation did not stabilise within the degree budget")

    algebra = BoundQuiverAlgebra.from_quiver_data(quiver, relations)
    if algebra.dim != fd.dim:
        raise ValueError(
            f"presentation mismatch: rebuilt dimension {algebra.dim} != {fd.dim}; "
            "the algebra is not graded by path length in the chosen arrows"
        )
    return PresentationData(quiver, relations, algebra)


# -- replicated and trivial extension algebras ------------------------------


def trivial_ext_r(fd: BoundQuiverAlgebra, r: int) -> BoundQuiverAlgebra:
    """r x r matrix algebra with fd on the diagonal and its dual on the
    superdiagonal and in the corner; the corner block has degree one."""
    if r < 1:
        raise ValueError("need r >= 1")
    k, m = fd.nidem, fd.dim
    # layer t holds the basis ids from t m on, and bond t, the dual between
    # layers t and t+1 (mod r), those from (r + t) m on
    ends = [(t * k + b.src, t * k + b.tgt) for t in range(r) for b in fd.basis]
    # the dual of e_tgt A e_src sits in e_src (DA) e_tgt
    ends += [((t + 1) % r * k + b.tgt, t * k + b.src) for t in range(r) for b in fd.basis]

    mult: dict[tuple[int, int], dict[int, Fraction]] = {}
    for t in range(r):
        # layer t times layer t; for bond t, <x y, z> is the coefficient of
        # dual(x) in y . dual(z) and of dual(y) in dual(z) . x
        lbase, bbase, rbase = t * m, (r + t) * m, (t + 1) % r * m
        for (x, y), table in fd.mult.items():
            mult[(lbase + x, lbase + y)] = {lbase + c: v for c, v in table.items()}
            for z, coeff in table.items():
                mult.setdefault((lbase + y, bbase + z), {})[bbase + x] = coeff
                mult.setdefault((bbase + z, rbase + x), {})[bbase + y] = coeff

    idempotent_of = {t * k + v: t * m + fd.idempotent_of[v] for t in range(r) for v in range(k)}
    return _algebra(ends, mult, idempotent_of)


def _algebra(ends, mult, idempotent_of) -> BoundQuiverAlgebra:
    """The algebra whose basis element b lies in the block ``ends[b]``."""
    basis = [BasisElement(bid, src, tgt) for bid, (src, tgt) in enumerate(ends)]
    return BoundQuiverAlgebra(basis, mult, idempotent_of)


def replicate(fd: BoundQuiverAlgebra, r: int) -> BoundQuiverAlgebra:
    """Upper-bidiagonal replicated algebra: r diagonal copies, r-1 dual bonds,
    the degree-zero part of the r-fold trivial extension, all of it but the
    corner bond, its last ``fd.dim`` basis ids."""
    t = trivial_ext_r(fd, r)
    return _sub_on_basis(t, list(range((2 * r - 1) * fd.dim)), list(range(t.nidem)))


def _sub_on_basis(fd, keep, idem_order):
    """The subalgebra on the basis ids ``keep``, whose vertex k is the vertex
    ``idem_order[k]`` of fd."""
    remap = {bid: t for t, bid in enumerate(keep)}
    vertex = {old: new for new, old in enumerate(idem_order)}
    ends = [(vertex[fd.basis[bid].src], vertex[fd.basis[bid].tgt]) for bid in keep]
    mult = {}
    for (a, b), table in fd.mult.items():
        if a not in remap or b not in remap:
            continue
        if any(c not in remap for c in table):
            raise ValueError("basis subset not multiplicatively closed")
        mult[(remap[a], remap[b])] = {remap[c]: v for c, v in table.items()}
    idempotent_of = {new: remap[fd.idempotent_of[old]] for new, old in enumerate(idem_order)}
    return _algebra(ends, mult, idempotent_of)


def idempotent_subalgebra(fd: BoundQuiverAlgebra, idem_indices) -> BoundQuiverAlgebra:
    """Corner algebra e A e for e the sum of the chosen idempotents; its
    vertex k is the k-th chosen vertex of fd."""
    chosen = list(idem_indices)
    if not chosen:
        raise ValueError("empty idempotent set")
    inside = set(chosen)
    if len(inside) != len(chosen):
        raise ValueError("repeated idempotent index")
    keep = [b.id for b in fd.basis if b.src in inside and b.tgt in inside]
    return _sub_on_basis(fd, keep, chosen)


def corner_vanishes(fd: BoundQuiverAlgebra, idem_indices) -> bool:
    """True iff e A (1 - e) = 0 for e the sum of the chosen idempotents."""
    inside = set(idem_indices)
    return not any(tgt in inside and src not in inside for src, tgt in fd.blocks)


# -- isomorphism testing -----------------------------------------------------


@dataclass
class IsoResult:
    vertex_map: dict[int, int]
    arrow_map: dict[int, int]
    scalars: dict[int, Fraction]


class IsoInconclusive(RuntimeError):
    """The search could neither find nor rule out an isomorphism."""


class _Undecided(Exception):
    """The scalar solve can neither find nor rule out scalars for an arrow map."""


def iso_test(a1, a2, budget: int = 2_000_000):
    """Certified isomorphism search between two basic split algebras.

    Returns an ``IsoResult`` carrying a verified generator-level
    isomorphism, or None after exhausting all vertex bijections compatible
    with the Cartan data.  Raises ``IsoInconclusive`` instead when some arrow
    map stayed undecided, when parallel arrows occur, or when ``budget``
    placements did not suffice.

    Only the first algebra is presented.  Its relations generate the kernel
    of its path-algebra surjection (``presentation_data`` checks the rebuilt
    dimension), so a map sending each of its arrows to a nonzero multiple of
    a distinct arrow of the second algebra's quiver, under which every
    relation vanishes, is a surjective algebra map between algebras of equal
    dimension: an isomorphism.  The arrows of either quiver of an algebra,
    the Gabriel quiver or the one it was built from, lift a basis of rad/rad^2.
    """
    if a1.dim != a2.dim or a1.nidem != a2.nidem:
        return None
    p1 = presentation_data(a1)
    quiver2 = a2.quiver
    arrow_elems2 = {aid: a2.basis_elem(bid) for aid, bid in a2.arrow_elem.items()}
    n = a1.nidem
    c1, c2 = a1.cartan(), a2.cartan()
    arrows1 = _arrow_count_matrix(p1.quiver, n)
    arrows2 = _arrow_count_matrix(quiver2, n)

    profiles1 = [_vertex_profile(c1, arrows1, v) for v in range(n)]
    profiles2 = [_vertex_profile(c2, arrows2, w) for w in range(n)]
    if sorted(profiles1) != sorted(profiles2):
        return None
    candidates = _candidates(profiles1, profiles2)
    # fail first: the vertex with the fewest candidates is placed first
    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))

    steps = 0

    def fits(v, w, sigma):
        """One step of the budget: does v -> w agree with sigma?"""
        nonlocal steps
        steps += 1
        if steps > budget:
            raise IsoInconclusive("vertex bijection search budget exceeded")
        return all(
            c1[v][u] == c2[w][sigma[u]]
            and c1[u][v] == c2[sigma[u]][w]
            and arrows1[v][u] == arrows2[w][sigma[u]]
            and arrows1[u][v] == arrows2[sigma[u]][w]
            for u in sigma
        )

    def bijections():
        """Depth first over the positions of ``order``, without recursion:
        ``stack`` holds an iterator over the untried candidates of each
        position up to the deepest."""
        sigma, used, stack = {}, set(), []
        while True:
            if len(sigma) == len(order):
                yield dict(sigma)
            else:
                stack.append(iter(candidates[order[len(sigma)]]))
            # move the deepest position to its next fitting candidate, and
            # take back each position whose candidates ran out
            while stack:
                v = order[len(stack) - 1]
                if v in sigma:
                    used.discard(sigma.pop(v))
                w = next((w for w in stack[-1] if w not in used and fits(v, w, sigma)), None)
                if w is not None:
                    sigma[v] = w
                    used.add(w)
                    break
                stack.pop()
            if not stack:
                return

    undecided = False
    for sigma in bijections():
        for arrow_map in _arrow_maps(p1.quiver, quiver2, sigma):
            try:
                scalars = _solve_scalars(a2, p1, arrow_elems2, arrow_map)
            except _Undecided:
                undecided = True
                continue
            if scalars is not None:
                return IsoResult(sigma, arrow_map, scalars)
    if undecided:
        raise IsoInconclusive("the scalar solve left some arrow map undecided")
    if _has_parallel_arrows(p1.quiver) or _has_parallel_arrows(quiver2):
        # per-arrow scalars cannot mix parallel arrows, so an exhausted
        # search is not a certificate of non-isomorphism here
        raise IsoInconclusive("parallel arrows require base mixing beyond the search")
    return None


def _has_parallel_arrows(quiver) -> bool:
    seen = set()
    for a in quiver.arrows:
        key = (a.src, a.tgt)
        if key in seen:
            return True
        seen.add(key)
    return False


def _arrow_count_matrix(quiver, n):
    counts = [[0] * n for _ in range(n)]
    for a in quiver.arrows:
        counts[a.tgt][a.src] += 1
    return counts


def _vertex_profile(cartan, arrows, v):
    """What every vertex bijection preserving Cartan data and arrow counts
    keeps at v: its diagonal Cartan entry and its sorted rows and columns."""
    return (
        cartan[v][v],
        tuple(sorted(cartan[v])),
        tuple(sorted(row[v] for row in cartan)),
        tuple(sorted(arrows[v])),
        tuple(sorted(row[v] for row in arrows)),
    )


def _candidates(profiles1, profiles2) -> dict[int, list[int]]:
    """v -> the vertices w with ``profiles2[w] == profiles1[v]``, ascending;
    every profile of the first side occurs on the second."""
    buckets: dict[tuple, list[int]] = {}
    for w, profile in enumerate(profiles2):
        buckets.setdefault(profile, []).append(w)
    return {v: buckets[profile] for v, profile in enumerate(profiles1)}


def _arrow_maps(quiver1, quiver2, sigma):
    """Every bijection of arrows that follows the vertex bijection sigma."""
    by_block1: dict[tuple[int, int], list[int]] = {}
    for a in quiver1.arrows:
        by_block1.setdefault((a.src, a.tgt), []).append(a.id)
    by_block2: dict[tuple[int, int], list[int]] = {}
    for a in quiver2.arrows:
        by_block2.setdefault((a.src, a.tgt), []).append(a.id)

    block_choices = []
    for blk, ids1 in sorted(by_block1.items()):
        ids2 = by_block2.get((sigma[blk[0]], sigma[blk[1]]), [])
        if len(ids1) != len(ids2):
            return
        block_choices.append((ids1, ids2))

    for perm_combo in itertools.product(
        *[itertools.permutations(ids2) for _, ids2 in block_choices]
    ):
        arrow_map = {}
        for (ids1, _), perm in zip(block_choices, perm_combo):
            for a1_id, a2_id in zip(ids1, perm):
                arrow_map[a1_id] = a2_id
        yield arrow_map


def _solve_scalars(fd2, p1, arrow_elems2, arrow_map):
    """Nonzero arrow scalars under which every relation of ``p1`` vanishes
    along ``arrow_map``, or None if there are none.  Raises ``_Undecided``
    when a relation keeps three or more terms or a pin leads to a contradiction."""
    pinned = False

    def no_scalars():
        # forced scalars rule the map out; a scalar pinned to 1 may not
        if pinned:
            raise _Undecided

    def eval_mapped(path):
        elem = arrow_elems2[arrow_map[path[0]]]
        for aid in path[1:]:
            elem = fd2.elem_mul(arrow_elems2[arrow_map[aid]], elem)
        return elem

    constraints = []  # (exponent dict, required value)
    for rel in p1.relations:
        terms = [(c, path, eval_mapped(path)) for c, path in rel.terms]
        nonzero = [(c, path, v) for c, path, v in terms if v]
        if not nonzero:
            continue
        if len(nonzero) == 1:
            return None  # a single surviving monomial cannot vanish
        if len(nonzero) != 2:
            raise _Undecided
        (c1_, path1, v1), (c2_, path2, v2) = nonzero
        # need c1 m1 v1 + c2 m2 v2 = 0 with m monomials in arrow scalars
        ratio = _parallel_ratio(v1, v2)
        if ratio is None:
            return None
        # v1 = ratio * v2, so c1 m1 v1 + c2 m2 v2 = (c1 m1 ratio + c2 m2) v2
        # vanishes exactly when m1 / m2 = -c2 / (c1 ratio)
        exps: dict[int, int] = {}
        for aid in path1:
            exps[aid] = exps.get(aid, 0) + 1
        for aid in path2:
            exps[aid] = exps.get(aid, 0) - 1
        value = exact_div(-c2_, c1_ * ratio)
        constraints.append(({a: e for a, e in exps.items() if e}, value))

    scalars = {aid: None for aid in {a.id for a in p1.quiver.arrows}}
    pending = list(constraints)
    while pending:
        progress = False
        remaining = []
        for exps, value in pending:
            unknown = [a for a in exps if scalars[a] is None]
            acc = value
            for a, e in exps.items():
                if scalars[a] is not None:
                    # a Fraction base: an int to a negative power is a float
                    acc = exact_div(acc, Fraction(scalars[a]) ** e)
            if not unknown:
                if acc != 1:
                    return no_scalars()
                progress = True
                continue
            if len(unknown) == 1 and abs(exps[unknown[0]]) == 1:
                a = unknown[0]
                scalars[a] = acc if exps[a] == 1 else exact_div(1, acc)
                if scalars[a] == 0:
                    return no_scalars()
                progress = True
                continue
            remaining.append((exps, value))
        pending = remaining
        if pending and not progress:
            # gauge freedom: pin all but one unknown of the first stuck
            # constraint; the final evaluation check below stays authoritative
            exps, _ = pending[0]
            unknown = [a for a in exps if scalars[a] is None]
            for a in unknown[1:] if abs(exps[unknown[0]]) == 1 else unknown:
                scalars[a] = ONE
            pinned = True
    for a in scalars:
        if scalars[a] is None:
            scalars[a] = ONE

    # authoritative check: every relation evaluates to zero with the scalars
    for rel in p1.relations:
        total: dict = {}
        for c, path in rel.terms:
            m = ONE
            for aid in path:
                m *= scalars[aid]
            total = fd2.elem_add(total, fd2.elem_scale(c * m, eval_mapped(path)))
        if total:
            return no_scalars()
    return scalars


def _parallel_ratio(v1: dict, v2: dict):
    """rho with v1 = rho * v2, if the two sparse vectors are parallel."""
    if set(v1) != set(v2):
        return None
    rho = None
    for k in v1:
        r = exact_div(v1[k], v2[k])
        if rho is None:
            rho = r
        elif rho != r:
            return None
    return rho
