"""Finite-dimensional algebras by structure constants, and algebra surgery.

An ``FDAlgebra`` is a rational algebra with a distinguished complete set of
orthogonal idempotents; every basis element is sandwiched between a single
pair of them, so Cartan data, rad^2 and idempotent surgery (corner
subalgebras, degree-zero parts, replicated and r-fold trivial extension
algebras) are all blockwise linear algebra.

``endo_algebra`` builds End of a sum of modules of finite projective
dimension as End of their minimal projective resolutions modulo homotopy,
so modules and complexes share one endomorphism-algebra builder.

``presentation`` recovers a bound quiver presentation from structure
constants: arrows lift a basis of rad/rad^2, the kernel of the induced
path-algebra surjection is computed degree by degree, and minimal
generators are chosen greedily in lexicographic path order.  The returned
algebra is rebuilt from that presentation and must reproduce the original
dimension, failing loudly otherwise.  Both rad^2 and the presentation
kernels are computed block by block: rad^2 in block (i, j) is spanned by
the products of basis elements from (i, l) and (l, j), reduced in the
coordinates of block (i, j) alone, and paths from j to i are evaluated in
e_i A e_j only.

``iso_test`` certifies isomorphisms from the presentation of its first
argument alone; the second is read through its Gabriel quiver.  Each vertex
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
    Arrow,
    BoundQuiverAlgebra,
    BudgetError,
    ElementArithmetic,
    Quiver,
    QuiverRep,
    Relation,
    Vertex,
)


class FDAlgebra(ElementArithmetic):
    """Structure-constant algebra with block-homogeneous basis.

    ``blocks[b] = (i, j)`` means e_i * b * e_j = b for the distinguished
    idempotents; multiplication is ``mult[(a, b)]`` = sparse coefficients of
    "a after b".
    """

    def __init__(self, nidem, blocks, mult, idem_ids, grading=None):
        self.nidem = nidem
        self.blocks = list(blocks)
        self.mult = mult
        self.idem_ids = list(idem_ids)
        self.grading = list(grading) if grading is not None else None
        if len(self.idem_ids) != nidem:
            raise ValueError("need one distinguished idempotent per index")
        for i, bid in enumerate(self.idem_ids):
            if self.blocks[bid] != (i, i):
                raise ValueError("idempotent basis element in wrong block")
        self.block_basis: dict[tuple[int, int], list[int]] = {}
        for bid, blk in enumerate(self.blocks):
            self.block_basis.setdefault(blk, []).append(bid)

    @property
    def dim(self):
        return len(self.blocks)

    def cartan(self) -> list[list[int]]:
        return [
            [len(self.block_basis.get((i, j), [])) for j in range(self.nidem)]
            for i in range(self.nidem)
        ]

    def is_basic_split(self) -> bool:
        return all(
            len(self.block_basis.get((i, i), [])) == 1 for i in range(self.nidem)
        )


def fd_from_bqa(alg: BoundQuiverAlgebra) -> FDAlgebra:
    """Forget the path structure, keeping blocks and table."""
    vpos = {v.id: k for k, v in enumerate(alg.quiver.vertices)}
    blocks = [(vpos[b.tgt], vpos[b.src]) for b in alg.basis]
    idem_ids = [alg.idempotent_of[v.id] for v in alg.quiver.vertices]
    return FDAlgebra(
        len(alg.quiver.vertices),
        blocks,
        {k: dict(v) for k, v in alg.mult.items()},
        idem_ids,
    )


# -- endomorphism algebras --------------------------------------------------


def endo_algebra(reps: list[QuiverRep]) -> FDAlgebra:
    """End(M_1 + ... + M_k) with the identity maps as idempotents.

    Hom between modules of finite projective dimension is Hom between their
    minimal projective resolutions modulo homotopy, so this is the
    endomorphism algebra of those resolutions.  The modules must have finite
    projective dimension; resolving any other module raises ``BudgetError``.
    """
    from .complexes import endo_algebra_of_complexes, minimal_proj_resolution

    if not reps:
        raise ValueError("need at least one module")
    return endo_algebra_of_complexes([minimal_proj_resolution(M.algebra, M) for M in reps])


# -- Gabriel quiver and presentation ----------------------------------------


@dataclass
class PresentationData:
    quiver: Quiver
    relations: list[Relation]
    algebra: BoundQuiverAlgebra


def gabriel_quiver(fd: FDAlgebra) -> tuple[Quiver, list[dict]]:
    """Quiver on the idempotents with one arrow per rad/rad^2 basis element.

    Basic-split means every e_i A e_i is k e_i, so rad is the span of the
    off-diagonal blocks, and rad^2 in block (i, j) is spanned by the
    products b c of basis elements b in (i, l) and c in (l, j).

    rad is nilpotent iff no such product lands in a diagonal block with a
    nonzero value.  If b c = lambda e_i with lambda != 0, the powers
    lambda^k e_i of b c never vanish.  Otherwise rad rad lies in rad.  A
    product of nidem radical basis elements then runs along a chain of
    nidem + 1 block indices, one of which repeats; the factors between its
    two visits multiply into rad inside a diagonal block, which is zero.
    So rad^nidem = 0.
    """
    if not fd.is_basic_split():
        raise ValueError("not basic-split: some e_i A e_i has dimension > 1")
    products: dict[tuple[int, int], list[dict]] = defaultdict(list)
    for (b, c), table in fd.mult.items():
        (i, l), (m, j) = fd.blocks[b], fd.blocks[c]
        if i == l or m == j:
            continue  # an idempotent factor
        if i != j:
            products[i, j].append(table)
        elif any(table.values()):
            raise ValueError("radical not nilpotent")
    vertices = [Vertex(i, f"v{i}") for i in range(fd.nidem)]
    arrows = []
    arrow_elems = []
    for (i, j), ids in sorted(fd.block_basis.items()):
        if i == j:
            continue
        # in block coordinates the basis elements are the unit vectors
        base = [[t.get(bid, ZERO) for bid in ids] for t in products[i, j]]
        for k in extend_basis(base, ExactMatrix.identity(len(ids)).data):
            aid = len(arrows)
            # the element lives in e_i A e_j, so the arrow runs j -> i
            arrows.append(Arrow(aid, j, i, f"x{aid}"))
            arrow_elems.append(fd.basis_elem(ids[k]))
    return Quiver(vertices, arrows), arrow_elems


def _paths_of_length(quiver: Quiver, m: int):
    """All composable arrow-id tuples of length m, grouped by (src, tgt)."""
    by_block: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    frontier = [((a.id,), a.src, a.tgt) for a in quiver.arrows]
    for _ in range(m - 1):
        nxt = []
        for path, src, tgt in frontier:
            for a in quiver.arrows_out[tgt]:
                nxt.append((path + (a.id,), src, a.tgt))
        frontier = nxt
    for path, src, tgt in frontier:
        by_block.setdefault((src, tgt), []).append(path)
    for paths in by_block.values():
        paths.sort()
    return by_block


DEFAULT_PRESENTATION_DEGREE = 64


def presentation_data(fd: FDAlgebra) -> PresentationData:
    quiver, arrow_elems = gabriel_quiver(fd)

    def eval_path(path):
        elem = arrow_elems[path[0]]
        for aid in path[1:]:
            elem = fd.elem_mul(arrow_elems[aid], elem)
        return elem

    relations: list[Relation] = []
    # ideal vectors per block at the previous degree, each a {path: coeff}
    ideal_prev: dict[tuple[int, int], list[dict]] = {}
    m = 1
    while m < DEFAULT_PRESENTATION_DEGREE:
        m += 1
        by_block = _paths_of_length(quiver, m)
        if not by_block:
            break
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
        for blk, paths in sorted(by_block.items()):
            grown = span_basis([[vec.get(p, ZERO) for p in paths] for vec in extended[blk]])

            # kernel of evaluation on degree-m paths
            # a path from src to tgt evaluates into e_tgt A e_src; the other
            # rows of the evaluation matrix are zero
            evals = [eval_path(p) for p in paths]
            block_ids = fd.block_basis.get((blk[1], blk[0]), [])
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
            "the algebra does not admit a length grading for the chosen arrows"
        )
    return PresentationData(quiver, relations, algebra)


def presentation(fd: FDAlgebra) -> BoundQuiverAlgebra:
    return presentation_data(fd).algebra


# -- replicated and trivial extension algebras ------------------------------


def trivial_ext_r(fd: FDAlgebra, r: int) -> FDAlgebra:
    """r x r matrix algebra with fd on the diagonal and its dual on the
    superdiagonal and in the corner; the corner block has degree one."""
    if r < 1:
        raise ValueError("need r >= 1")
    k, m = fd.nidem, fd.dim
    # layer t holds the basis ids from t m on, and bond t, the dual between
    # layers t and t+1 (mod r), those from (r + t) m on
    blocks = [(t * k + i, t * k + j) for t in range(r) for i, j in fd.blocks]
    # the dual of e_p A e_q sits in e_q (DA) e_p
    blocks += [(t * k + q, (t + 1) % r * k + p) for t in range(r) for p, q in fd.blocks]
    grading = [0] * ((2 * r - 1) * m) + [1] * m

    mult: dict[tuple[int, int], dict[int, Fraction]] = {}

    def add_entry(a, b, out):
        if out:
            mult[(a, b)] = out

    # layer * layer
    for t in range(r):
        base = t * m
        for (a, b), table in fd.mult.items():
            add_entry(base + a, base + b, {base + c: v for c, v in table.items()})

    # layer t left-multiplies bond t; layer t+1 right-multiplies bond t
    for t in range(r):
        lbase, bbase, rbase = t * m, (r + t) * m, (t + 1) % r * m
        for a in range(fd.dim):
            (i, j) = fd.blocks[a]
            for bs in range(fd.dim):
                (p, q) = fd.blocks[bs]
                # a * dual(bs): nonzero needs j == q
                if j == q:
                    out = {}
                    for c in fd.block_basis.get((p, i), []):
                        coeff = fd.mult.get((c, a), {}).get(bs, ZERO)
                        if coeff != 0:
                            out[bbase + c] = coeff
                    add_entry(lbase + a, bbase + bs, out)
                # dual(bs) * a: nonzero needs p == i
                if p == i:
                    out = {}
                    for c in fd.block_basis.get((j, q), []):
                        coeff = fd.mult.get((a, c), {}).get(bs, ZERO)
                        if coeff != 0:
                            out[bbase + c] = coeff
                    add_entry(bbase + bs, rbase + a, out)

    idem_ids = [t * m + fd.idem_ids[i] for t in range(r) for i in range(k)]
    return FDAlgebra(r * k, blocks, mult, idem_ids, grading)


def replicate(fd: FDAlgebra, r: int) -> FDAlgebra:
    """Upper-bidiagonal replicated algebra: r diagonal copies, r-1 dual bonds,
    the degree-zero part of the r-fold trivial extension."""
    return degree_zero_part(trivial_ext_r(fd, r))


def degree_zero_part(fd: FDAlgebra) -> FDAlgebra:
    """Subalgebra on the degree-zero basis elements of a graded algebra."""
    if fd.grading is None:
        raise ValueError("algebra carries no grading")
    keep = [bid for bid in range(fd.dim) if fd.grading[bid] == 0]
    return _sub_on_basis(fd, keep, fd.nidem, list(range(fd.nidem)))


def _sub_on_basis(fd, keep, nidem, idem_order, idem_remap=None):
    remap = {bid: t for t, bid in enumerate(keep)}
    blocks = []
    for bid in keep:
        (i, j) = fd.blocks[bid]
        if idem_remap:
            i, j = idem_remap[i], idem_remap[j]
        blocks.append((i, j))
    mult = {}
    for (a, b), table in fd.mult.items():
        if not table or a not in remap or b not in remap:
            continue
        if any(c not in remap for c in table):
            raise ValueError("basis subset not multiplicatively closed")
        mult[(remap[a], remap[b])] = {remap[c]: v for c, v in table.items()}
    idem_ids = [remap[fd.idem_ids[i]] for i in idem_order]
    grading = [fd.grading[bid] for bid in keep] if fd.grading is not None else None
    return FDAlgebra(nidem, blocks, mult, idem_ids, grading)


def idempotent_subalgebra(fd: FDAlgebra, idem_indices) -> FDAlgebra:
    """Corner algebra e A e for e the sum of the chosen idempotents."""
    chosen = sorted(set(idem_indices))
    if not chosen:
        raise ValueError("empty idempotent set")
    inside = set(chosen)
    keep = [
        bid
        for bid in range(fd.dim)
        if fd.blocks[bid][0] in inside and fd.blocks[bid][1] in inside
    ]
    idem_remap = {old: new for new, old in enumerate(chosen)}
    return _sub_on_basis(fd, keep, len(chosen), chosen, idem_remap)


def corner_vanishes(fd: FDAlgebra, idem_indices) -> bool:
    """True iff e A (1 - e) = 0 for e the sum of the chosen idempotents."""
    inside = set(idem_indices)
    return not any(
        blk[0] in inside and blk[1] not in inside for blk in fd.block_basis
    )


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

    Accepts ``FDAlgebra`` or ``BoundQuiverAlgebra`` inputs.  Returns an
    ``IsoResult`` carrying a verified generator-level isomorphism, or None
    after exhausting all vertex bijections compatible with the Cartan data.
    Raises ``IsoInconclusive`` instead when some arrow map stayed undecided,
    when parallel arrows occur, or when ``budget`` placements did not suffice.

    Only the first algebra is presented.  Its relations generate the kernel
    of its path-algebra surjection (``presentation_data`` checks the rebuilt
    dimension), so a map sending each of its arrows to a nonzero multiple of
    a distinct Gabriel arrow of the second algebra, under which every
    relation vanishes, is a surjective algebra map between algebras of equal
    dimension: an isomorphism.
    """
    fd1 = fd_from_bqa(a1) if isinstance(a1, BoundQuiverAlgebra) else a1
    fd2 = fd_from_bqa(a2) if isinstance(a2, BoundQuiverAlgebra) else a2
    if fd1.dim != fd2.dim or fd1.nidem != fd2.nidem:
        return None
    p1 = presentation_data(fd1)
    quiver2, arrow_elems2 = gabriel_quiver(fd2)
    n = fd1.nidem
    c1, c2 = fd1.cartan(), fd2.cartan()
    arrows1 = _arrow_count_matrix(p1.quiver, n)
    arrows2 = _arrow_count_matrix(quiver2, n)

    profiles1 = [_vertex_profile(c1, arrows1, v) for v in range(n)]
    profiles2 = [_vertex_profile(c2, arrows2, w) for w in range(n)]
    if sorted(profiles1) != sorted(profiles2):
        return None
    candidates = {
        v: [w for w in range(n) if profiles2[w] == profiles1[v]] for v in range(n)
    }
    # fail first: the vertex with the fewest candidates is placed first
    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))

    steps = 0

    # the recursion goes through ``recurse``: a closure that named itself
    # would hold itself through its own cell, a cycle only a full gc frees
    def backtrack(pos, sigma, used, recurse):
        nonlocal steps
        if pos == len(order):
            yield dict(sigma)
            return
        v = order[pos]
        for w in candidates[v]:
            if w in used:
                continue
            steps += 1
            if steps > budget:
                raise IsoInconclusive("vertex bijection search budget exceeded")
            ok = all(
                c1[v][u] == c2[w][sigma[u]]
                and c1[u][v] == c2[sigma[u]][w]
                and arrows1[v][u] == arrows2[w][sigma[u]]
                and arrows1[u][v] == arrows2[sigma[u]][w]
                for u in sigma
            )
            if not ok:
                continue
            sigma[v] = w
            used.add(w)
            yield from recurse(pos + 1, sigma, used, recurse)
            del sigma[v]
            used.discard(w)

    undecided = False
    for sigma in backtrack(0, {}, set(), backtrack):
        for arrow_map in _arrow_maps(p1.quiver, quiver2, sigma):
            try:
                scalars = _solve_scalars(fd2, p1, arrow_elems2, arrow_map)
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
        sorted(cartan[v]),
        sorted(row[v] for row in cartan),
        sorted(arrows[v]),
        sorted(row[v] for row in arrows),
    )


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
