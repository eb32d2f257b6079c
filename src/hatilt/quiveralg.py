"""Finite-dimensional algebras over the rationals, and their representations.

One class holds every algebra by structure constants.  An algebra presented
by a quiver and an admissible ideal generated by homogeneous relations
(rational combinations of parallel equal-length paths) also keeps a path
basis, built degree by degree: the degree-m piece reachable from a source
vertex is spanned by arrows applied to the degree-(m-1) piece, modulo
relations applied at the top.  Pivoting during the reduction always
eliminates the lexicographically-smallest candidate path and keeps the
largest, so every basis element carries a deterministic representative
path and golden files stay stable.  Any other algebra is read through its
Gabriel quiver.

Modules are right modules, stored as one fiber per vertex with a matrix
for each arrow between two nonzero fibers, mapping the target fiber to the
source fiber (the right action); a missing arrow map is zero.  The interval
modules M(x) of the type-A model are produced here, each built once per
algebra and then shared read-only.  Sums of injectives store nothing: every
basis element acts on them through the structure constants.

Paths compose diagrammatically: ``path = (a1, a2, ...)`` traverses a1
first, and ``mul(p, q)`` is "p after q".
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactmat import ExactMatrix, ZERO, ONE, exact, extend_basis
from .pathcomb import OrderedSeq, enumerate_os, interleaves

DEFAULT_MAX_DIM = 40_000
DEFAULT_MAX_DEGREE = 64


@dataclass(frozen=True)
class Vertex:
    id: int
    label: str


@dataclass(frozen=True)
class Arrow:
    id: int
    src: int
    tgt: int
    label: str


class Quiver:
    def __init__(self, vertices: list[Vertex], arrows: list[Arrow]):
        self.vertices = list(vertices)
        self.arrows = list(arrows)
        ids = {v.id for v in self.vertices}
        if len(ids) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        for a in self.arrows:
            if a.src not in ids or a.tgt not in ids:
                raise ValueError(f"arrow {a} has an endpoint outside the vertex set")
        if len({a.id for a in self.arrows}) != len(self.arrows):
            raise ValueError("duplicate arrow ids")
        self.arrow_by_id = {a.id: a for a in self.arrows}
        self.arrows_into: dict[int, list[Arrow]] = {v.id: [] for v in self.vertices}
        self.arrows_out: dict[int, list[Arrow]] = {v.id: [] for v in self.vertices}
        for a in self.arrows:
            self.arrows_into[a.tgt].append(a)
            self.arrows_out[a.src].append(a)

    def path_endpoints(self, path: tuple[int, ...]) -> tuple[int, int]:
        if not path:
            raise ValueError("empty path has no endpoints")
        first = self.arrow_by_id[path[0]]
        src, cur = first.src, first.tgt
        for aid in path[1:]:
            a = self.arrow_by_id[aid]
            if a.src != cur:
                raise ValueError(f"path {path} is not composable")
            cur = a.tgt
        return src, cur


@dataclass(frozen=True)
class Relation:
    """Rational combination of parallel, equal-length paths (arrow-id tuples)."""

    terms: tuple[tuple[Fraction, tuple[int, ...]], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("empty relation")
        if all(c == 0 for c, _ in self.terms):
            raise ValueError("relation with all-zero coefficients")

    def validate(self, quiver: Quiver) -> tuple[int, int, int]:
        """Common (src, tgt, degree); raises if terms disagree."""
        sig = None
        for coeff, path in self.terms:
            src, tgt = quiver.path_endpoints(path)
            this = (src, tgt, len(path))
            if sig is None:
                sig = this
            elif sig != this:
                raise ValueError(f"relation terms not parallel/homogeneous: {self.terms}")
        if sig[2] < 2:
            raise ValueError("relations must have degree at least 2")
        return sig


def relation(*terms) -> Relation:
    return Relation(tuple((exact(c), tuple(p)) for c, p in terms))


@dataclass(frozen=True)
class BasisElement:
    """A basis element of e_tgt A e_src; a path basis also sets its path."""

    id: int
    src: int
    tgt: int
    degree: int | None = None
    path: tuple[int, ...] | None = None


class BoundQuiverAlgebra:
    """A finite-dimensional algebra by structure constants.

    Vertex v = 0, ..., n-1 stands for the idempotent ``idempotent_of[v]``.
    Basis element b lies in e_tgt A e_src for its ends ``basis[b].src/.tgt``,
    and ``blocks[(src, tgt)]`` lists the ids of each block.  An element is a
    dict basis id -> exact scalar (an int, or a Fraction when not integral).
    ``mult[(a, b)]`` holds the coefficients of "a after b", and ``mult`` holds
    only nonzero products: a pair that multiplies to zero has no entry.

    The path data is optional: ``from_quiver_data`` keeps the quiver, its
    relations and a path basis (``basis[b].path``, of length ``.degree``).
    Without it, ``relations`` is None, and ``quiver`` and ``arrow_elem`` are
    the Gabriel quiver, computed on first use.  Only the interval modules of
    ``module_M`` are cached on the algebra.
    """

    def __init__(self, basis, mult, idempotent_of, *, quiver=None, relations=None,
                 vertex_data=None):
        if list(idempotent_of) != list(range(len(idempotent_of))):
            raise ValueError("vertex ids must be 0, ..., n-1 in order")
        self.basis = basis
        self.mult: dict[tuple[int, int], dict[int, Fraction]] = mult
        self.idempotent_of = idempotent_of
        self.nidem = len(idempotent_of)
        self.relations = relations
        self.vertex_data = vertex_data or {}
        if quiver is not None:
            self.quiver = quiver
            self.arrow_elem = {b.path[0]: b.id for b in basis if b.degree == 1}
            # (relation, src, tgt), validated once per algebra for check_relations
            self.relation_ends = [(r, *r.validate(quiver)[:2]) for r in relations]
        self._vertex_ids = tuple(idempotent_of)
        self._idempotent_ids = frozenset(idempotent_of.values())
        self.blocks: dict[tuple[int, int], list[int]] = {}
        for b in self.basis:
            self.blocks.setdefault((b.src, b.tgt), []).append(b.id)
        self._block_index = {
            (src, tgt): {bid: k for k, bid in enumerate(ids)}
            for (src, tgt), ids in self.blocks.items()
        }
        # the nonempty blocks (y, v) into each vertex v and (v, y) out of
        # it, as (y, ids)
        self._blocks_into: dict[int, list[tuple[int, list[int]]]] = {}
        self._blocks_from: dict[int, list[tuple[int, list[int]]]] = {}
        for (src, tgt), ids in self.blocks.items():
            self._blocks_into.setdefault(tgt, []).append((src, ids))
            self._blocks_from.setdefault(src, []).append((tgt, ids))
        # module_M: ("M", label entries) -> (dims, maps) of the interval
        # modules built so far; holding no module, they make no reference
        # cycle through the algebra.  complexes.shifted_module_complex: (module
        # cache_key, max_len) -> (terms, diffs) of its resolution, plain data.
        self._modules: dict[tuple, tuple[dict, dict]] = {}
        self._resolution_memo: dict[tuple, tuple[dict, dict]] = {}

    def elem_mul(self, x: dict, y: dict) -> dict:
        out: dict[int, Fraction] = {}
        for i, ci in x.items():
            if ci == 0:
                continue
            for j, cj in y.items():
                if cj == 0:
                    continue
                table = self.mult.get((i, j))
                if not table:
                    continue
                c = ci * cj
                for k, ck in table.items():
                    out[k] = out.get(k, ZERO) + c * ck
        return {k: v for k, v in out.items() if v != 0}

    def elem_add(self, x: dict, y: dict) -> dict:
        out = dict(x)
        for k, v in y.items():
            out[k] = out.get(k, ZERO) + v
        return {k: v for k, v in out.items() if v != 0}

    def elem_scale(self, c, x: dict) -> dict:
        c = exact(c)
        if c == 0:
            return {}
        return {k: c * v for k, v in x.items()}

    def basis_elem(self, bid: int) -> dict:
        return {bid: ONE}

    @cached_property
    def _gabriel(self) -> tuple[Quiver, dict[int, int]]:
        """The Gabriel quiver and the basis id of each arrow's element."""
        quiver, elems = gabriel_quiver(self)
        return quiver, {a.id: next(iter(e)) for a, e in zip(quiver.arrows, elems)}

    @cached_property
    def quiver(self) -> Quiver:
        """The quiver the algebra was built from, else its Gabriel quiver."""
        return self._gabriel[0]

    @cached_property
    def arrow_elem(self) -> dict[int, int]:
        """Arrow id -> id of the basis element the arrow stands for."""
        return self._gabriel[1]

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_quiver_data(
        quiver: Quiver, relations, vertex_data=None, max_dim: int = DEFAULT_MAX_DIM
    ) -> "BoundQuiverAlgebra":
        """The path algebra of ``quiver`` modulo the ideal of ``relations``.

        Out of each source vertex, the paths of length m into a target t are
        the kept paths of length m - 1 followed by one arrow into t.  The
        relations ending at t, applied after every kept path of length m minus
        their degree, span the ideal among them; its reduced echelon form
        eliminates the lexicographically smallest paths, and the other paths
        are kept.  The kept paths form the basis, ordered by source, degree,
        target and then path.  ``mult`` holds only nonzero products.

        Raises ``BudgetError`` when the dimension exceeds ``max_dim`` or when
        some source still has kept paths of length ``DEFAULT_MAX_DEGREE``.
        """
        relations = list(relations)
        # relations grouped by target vertex, each group in the given order
        rels_by_tgt: dict[int, list[tuple[Relation, int, int]]] = {}
        for r in relations:
            rsrc, rtgt, rdeg = r.validate(quiver)
            rels_by_tgt.setdefault(rtgt, []).append((r, rsrc, rdeg))
        basis, acts, by_src = [], {}, {}
        offset = {}  # (source, degree, target) -> id of its first kept path
        for s in sorted(v.id for v in quiver.vertices):
            layers, acts[s] = _paths_from(quiver, rels_by_tgt, s)
            for m, layer in enumerate(layers):
                for t in sorted(layer):
                    first = offset[s, m, t] = len(basis)
                    basis += [BasisElement(first + k, s, t, m, p) for k, p in enumerate(layer[t])]
            if len(basis) > max_dim:
                raise BudgetError(f"algebra dimension exceeds budget {max_dim}")
            by_src[s] = basis[offset[s, 0, s]:]

        mult = {}
        for b2 in basis:  # right factor: s -> u
            if b2.degree == 0:  # a new source: the tables of the one before are done
                act = acts.pop(b2.src)
            start = {b2.id - offset[b2.src, b2.degree, b2.tgt]: ONE}
            for b1 in by_src[b2.tgt]:  # left factor: u -> t
                if vec := _apply(act, b2.degree, b1.path, start):
                    base = offset[b2.src, b2.degree + b1.degree, b1.tgt]
                    mult[(b1.id, b2.id)] = {base + i: c for i, c in vec.items()}
        idempotent_of = {b.src: b.id for b in basis if b.degree == 0}
        return BoundQuiverAlgebra(basis, mult, idempotent_of, quiver=quiver, relations=relations,
                                  vertex_data=vertex_data)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vertex_ids(self) -> tuple[int, ...]:
        return self._vertex_ids

    def elem_from_block_coords(self, coords, src: int, tgt: int) -> dict:
        ids = self.blocks.get((src, tgt), [])
        return {bid: exact(c) for bid, c in zip(ids, coords) if c != 0}

    def is_radical(self, elem: dict) -> bool:
        return not any(k in self._idempotent_ids for k, v in elem.items() if v != 0)

    def cartan(self) -> list[list[int]]:
        """``cartan()[i][j]`` is the dimension of e_i A e_j."""
        return [[len(self.blocks.get((j, i), [])) for j in self._vertex_ids] for i in self._vertex_ids]

    # -- distinguished modules ---------------------------------------------

    def injective(self, v: int) -> "InjectiveSum":
        """I_v = D(A e_v), acting through ``mult``; nothing is cached for it,
        and its ``cache_key`` is None."""
        return InjectiveSum(self, (v,))

    def simple(self, v: int) -> "QuiverRep":
        # every arrow map is zero, so none is stored
        return QuiverRep(self, {v: 1}, {}, check=False)


# -- Gabriel quiver ---------------------------------------------------------


def gabriel_quiver(fd: BoundQuiverAlgebra) -> tuple[Quiver, list[dict]]:
    """Quiver on the idempotents with one arrow per rad/rad^2 basis element.

    Basic-split means every e_i A e_i is k e_i, so rad is the span of the
    off-diagonal blocks, and rad^2 in e_i A e_j is spanned by the products
    b c of basis elements b of e_i A e_l and c of e_l A e_j.

    rad is nilpotent iff no such product lands in a diagonal block with a
    nonzero value.  If b c = lambda e_i with lambda != 0, the powers
    lambda^k e_i of b c never vanish.  Otherwise rad rad lies in rad.  A
    product of nidem radical basis elements then runs along a chain of
    nidem + 1 block indices, one of which repeats; the factors between its
    two visits multiply into rad inside a diagonal block, which is zero.
    So rad^nidem = 0.
    """
    vertices = fd.vertex_ids()
    if any(len(fd.blocks.get((i, i), [])) != 1 for i in vertices):
        raise ValueError("not basic-split: some e_i A e_i has dimension > 1")
    products: dict[tuple[int, int], list[dict]] = defaultdict(list)
    for (b, c), table in fd.mult.items():
        left, right = fd.basis[b], fd.basis[c]
        if left.src == left.tgt or right.src == right.tgt:
            continue  # an idempotent factor
        if right.src != left.tgt:
            products[right.src, left.tgt].append(table)
        else:
            raise ValueError("radical not nilpotent")
    arrows = []
    arrow_elems = []
    # blocks in the order of (tgt, src), which fixes the arrow ids
    for (j, i), ids in sorted(fd.blocks.items(), key=lambda item: item[0][::-1]):
        if i == j:
            continue
        # in block coordinates the basis elements are the unit vectors
        base = [[t.get(bid, ZERO) for bid in ids] for t in products[j, i]]
        for k in extend_basis(base, ExactMatrix.identity(len(ids)).data):
            aid = len(arrows)
            # the element lives in e_i A e_j, so the arrow runs j -> i
            arrows.append(Arrow(aid, j, i, f"x{aid}"))
            arrow_elems.append(fd.basis_elem(ids[k]))
    return Quiver([Vertex(i, f"v{i}") for i in vertices], arrows), arrow_elems


class BudgetError(RuntimeError):
    """A configured size or depth budget was exhausted."""


def _apply(act, m: int, path, vec: dict) -> dict:
    """``vec``, coordinates {index: scalar} on the kept paths of length m
    into the start of ``path``, followed by ``path``; ``act`` as
    ``_paths_from`` returns it."""
    for aid in path:
        m += 1
        out = {}
        for k, c in vec.items():
            for i, x in act[m, aid][k]:
                out[i] = out.get(i, ZERO) + c * x
        vec = {i: c for i, c in out.items() if c != 0}
    return vec


def _paths_from(quiver, rels_by_tgt, source):
    """The kept paths out of ``source`` and the arrows' action on them.

    ``layers[m][t]`` lists the kept paths of length m into t, in increasing
    order, and ``act[m, aid]`` gives, for the k-th kept path into the source
    of arrow ``aid``, the coordinates of that path followed by the arrow on
    ``layers[m][tgt]``, as (index, scalar) pairs.
    """
    layers = [{source: [()]}]
    act: dict[tuple[int, int], list[tuple]] = {}
    for m in range(1, DEFAULT_MAX_DEGREE + 1):
        cands: dict[int, list] = {}  # t -> [(path, arrow, k)], k indexing the path before it
        for u, paths in layers[-1].items():
            for a in quiver.arrows_out[u]:
                cands.setdefault(a.tgt, []).extend((p + (a.id,), a, k) for k, p in enumerate(paths))
        layer = {}
        for t, cs in cands.items():
            cs.sort()  # by path, as no two paths are equal
            column = {(a.id, k): j for j, (_, a, k) in enumerate(cs)}
            rows = []
            for r, rsrc, rdeg in rels_by_tgt.get(t, ()):
                if m < rdeg:
                    continue
                # the relation after each kept path of length m - rdeg into rsrc
                for w in range(len(layers[m - rdeg].get(rsrc, ()))):
                    row = [ZERO] * len(cs)
                    for coeff, path in r.terms:
                        for k, c in _apply(act, m - rdeg, path[:-1], {w: ONE}).items():
                            row[column[path[-1], k]] += coeff * c
                    if any(x != 0 for x in row):
                        rows.append(row)
            red, pivots = ExactMatrix.from_rows(rows).rref()
            pivot_row = dict(zip(pivots, red.data))
            # candidate -> its position among the kept ones
            position = {j: i for i, j in enumerate(j for j in range(len(cs)) if j not in pivot_row)}
            if position:
                layer[t] = [cs[j][0] for j in position]
            # the kept paths are increasing, so each arrow meets k = 0, 1, ...
            for j, (_, a, k) in enumerate(cs):
                row = pivot_row.get(j)
                act.setdefault((m, a.id), []).append(
                    ((position[j], ONE),) if row is None
                    else tuple((i, -row[kj]) for kj, i in position.items() if row[kj] != 0)
                )
        if not layer:
            return layers, act
        layers.append(layer)
    raise BudgetError(f"algebra not nilpotent within degree {DEFAULT_MAX_DEGREE}")


class QuiverRep:
    """Right module: fibers per vertex, right arrow action target -> source.

    ``maps`` holds arrow maps only between two nonzero fibers, and a missing
    one is zero.  A module from ``module_M`` shares the cached tables named by
    its ``cache_key``, ``("M", entries)``, and the resolution memo trusts them
    to be read-only; every other module's key is None."""

    def __init__(self, algebra: BoundQuiverAlgebra, dims: dict, maps: dict, check=True):
        self.algebra, self.cache_key = algebra, None
        if unknown := dims.keys() - algebra.idempotent_of.keys():
            raise ValueError(f"no vertex with id {next(iter(unknown))!r}")
        self.dims = dims = {v: dims.get(v, 0) for v in algebra.vertex_ids()}
        if not set(map(type, dims.values())) <= {int} or min(dims.values(), default=0) < 0:
            v, k = next((v, k) for v, k in dims.items() if type(k) is not int or k < 0)
            raise ValueError(f"fiber dimension at vertex {v} is not a natural number: {k!r}")
        arrow_by_id = algebra.quiver.arrow_by_id
        self.maps = {}
        for aid, m in maps.items():
            a = arrow_by_id.get(aid)
            if a is None:
                raise ValueError(f"no arrow with id {aid!r}")
            if (m.rows, m.cols) != (dims[a.src], dims[a.tgt]):
                raise ValueError(f"map for arrow {aid} has wrong shape")
            if m.rows and m.cols:
                self.maps[aid] = m
        if check:
            self.check_relations()

    @staticmethod
    def _adopt(algebra: BoundQuiverAlgebra, dims: dict, maps: dict, cache_key) -> "QuiverRep":
        """The module over ``algebra`` that shares ``dims`` and ``maps``, the
        fiber and arrow-map tables cached under ``cache_key``; neither copied
        nor checked."""
        rep = object.__new__(QuiverRep)
        rep.algebra, rep.dims, rep.maps, rep.cache_key = algebra, dims, maps, cache_key
        return rep

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def path_action(self, path: tuple[int, ...]) -> ExactMatrix:
        """Matrix of the right action of a path, target fiber to source fiber.

        Always a fresh matrix, zero at once when the path meets a missing map."""
        src, tgt = self.algebra.quiver.path_endpoints(path)
        mats = [self.maps.get(aid) for aid in path]
        if None in mats:
            return ExactMatrix(self.dims[src], self.dims[tgt])
        out = mats[-1].copy() if len(mats) == 1 else mats[-1]
        for m in reversed(mats[:-1]):
            out = m.matmul(out)
        return out

    def basis_action(self, bid: int) -> ExactMatrix:
        """Right action of the basis element ``bid`` of e_tgt A e_src, from the
        fiber at its tgt to the fiber at its src: the identity for an
        idempotent, else that of its path.  This is the one way an element
        acts on a module: an element acts as the sum of the actions of its
        basis elements, scaled by its coefficients.

        Over an algebra without a path basis only idempotents act here, and
        any other basis element raises ValueError.  The library acts there
        only on simples (``gldim``), between whose nonzero fibers only
        idempotents act, and on an ``InjectiveSum``, which reads every action
        off ``mult`` (``domdim``, ``two_subhomogeneous_check``,
        ``realize_complex``)."""
        alg = self.algebra
        b = alg.basis[bid]
        if bid == alg.idempotent_of[b.src]:
            return ExactMatrix.identity(self.dims[b.src])
        if b.path is None:
            raise ValueError(f"basis element {bid} has no path to act through")
        return self.path_action(b.path)

    def check_relations(self):
        if self.algebra.relations is None:
            raise ValueError("the algebra carries no relations to check the module against")
        for r, src, tgt in self.algebra.relation_ends:
            # a relation out of or into a zero fiber acts as an empty matrix,
            # so it vanishes and cannot fail
            if not (self.dims[src] and self.dims[tgt]):
                continue
            acc = ExactMatrix(self.dims[src], self.dims[tgt])
            for coeff, path in r.terms:
                acc = acc.add(self.path_action(path).scale(coeff))
            if not acc.is_zero():
                raise ValueError(f"relation {r} does not vanish on the representation")


class InjectiveSum(QuiverRep):
    """The sum of the injectives I_v = D(A e_v), v in ``vertices``, stacked in
    the given order at every vertex; a vertex may repeat.

    The fiber of I_v at y is the dual of e_y A e_v, the block (v, y).  A basis
    element b of e_tgt A e_src acts on I_v as the transpose of c -> b.c from
    the block (v, src) to the block (v, tgt) (Assem-Simson-Skowronski,
    Elements 1, III.2), read off ``mult``; on the sum it acts block by block.
    The arrow maps are the arrows' actions, built on first use.
    """

    def __init__(self, algebra: BoundQuiverAlgebra, vertices):
        if unknown := [v for v in vertices if v not in algebra.idempotent_of]:
            raise ValueError(f"no vertex with id {unknown[0]!r}")
        self.algebra, self.cache_key, self.vertices = algebra, None, tuple(vertices)
        self.dims = dict.fromkeys(algebra.vertex_ids(), 0)
        for v in self.vertices:
            for y, ids in algebra._blocks_from[v]:
                self.dims[y] += len(ids)

    @cached_property
    def maps(self) -> dict:
        alg = self.algebra
        return {
            a.id: self.basis_action(alg.arrow_elem[a.id])
            for a in alg.quiver.arrows
            if self.dims[a.src] and self.dims[a.tgt]
        }

    def basis_action(self, bid: int) -> ExactMatrix:
        alg = self.algebra
        b = alg.basis[bid]
        rows, cols = self.dims[b.src], self.dims[b.tgt]
        out = [[ZERO] * cols for _ in range(rows)]
        r0 = c0 = 0
        for v in self.vertices:
            ids, index = alg.blocks.get((v, b.src), ()), alg._block_index.get((v, b.tgt), {})
            for j, c in enumerate(ids):
                for k, ck in alg.mult.get((bid, c), {}).items():
                    out[r0 + j][c0 + index[k]] = ck
            r0 += len(ids)
            c0 += len(index)
        return ExactMatrix._adopt(rows, cols, out)


def build_auslander_algebra(
    n: int, d: int, max_dim: int = DEFAULT_MAX_DIM
) -> BoundQuiverAlgebra:
    """The bound quiver algebra on os_n^d with commuting square relations.

    Vertices are the ordered sequences, arrows increment one entry, and for
    each pair of increments the two reroutes agree when both exist and are
    zero when exactly one does.
    """
    if n < 2 or d < 1:
        raise ValueError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    seqs = [x.entries for x in enumerate_os(n, d)]
    index = {x: i for i, x in enumerate(seqs)}
    vertices = [Vertex(i, "".join(map(str, x)) if n + d - 1 <= 9 else str(x)) for i, x in enumerate(seqs)]

    def bump(x, i):
        y = list(x)
        y[i] += 1
        y = tuple(y)
        return y if y in index else None

    arrows = []
    arrow_id: dict[tuple[int, int], int] = {}
    for x in seqs:
        for i in range(d):
            y = bump(x, i)
            if y is not None:
                aid = len(arrows)
                arrows.append(Arrow(aid, index[x], index[y], f"a{i + 1}({vertices[index[x]].label})"))
                arrow_id[(index[x], i)] = aid

    quiver = Quiver(vertices, arrows)
    relations = []
    for x in seqs:
        for i in range(d):
            for j in range(i + 1, d):
                xi, xj = bump(x, i), bump(x, j)
                via_i = via_j = None  # the two reroutes to x + e_i + e_j
                if xi is not None and bump(xi, j) is not None:
                    via_i = (arrow_id[(index[x], i)], arrow_id[(index[xi], j)])
                if xj is not None and bump(xj, i) is not None:
                    via_j = (arrow_id[(index[x], j)], arrow_id[(index[xj], i)])
                if via_i and via_j:
                    relations.append(relation((1, via_i), (-1, via_j)))
                elif via_i:
                    relations.append(relation((1, via_i)))
                elif via_j:
                    relations.append(relation((1, via_j)))

    vertex_data = {i: x for i, x in enumerate(seqs)}
    alg = BoundQuiverAlgebra.from_quiver_data(
        quiver, relations, vertex_data=vertex_data, max_dim=max_dim
    )
    alg.os_params = (n, d)
    return alg


def vertex_of_entries(alg: BoundQuiverAlgebra, entries) -> int:
    entries = tuple(entries)
    for v, data in alg.vertex_data.items():
        if data == entries:
            return v
    raise KeyError(f"no vertex labelled {entries}")


def module_M(alg: BoundQuiverAlgebra, x: OrderedSeq) -> QuiverRep:
    """Interval module: one-dimensional on the coordinate band of x.

    x has d+1 entries for an algebra on os_n^d; the support consists of the
    vertices z with (x_1..x_d) interleaving below z and z interleaving below
    (x_2-1..x_{d+1}-1), with identity maps on all supported arrows.

    The label is checked on every call.  A label's module is built, and its
    relations checked, on its first call; it is cached in ``alg._modules``,
    and every call returns a new module sharing the cached read-only tables.
    """
    n, d = getattr(alg, "os_params", (None, None))
    if n is None:
        raise ValueError("module_M needs an algebra built by build_auslander_algebra")
    if (x.n, x.d) != (n, d + 1):
        raise ValueError(f"label must lie in os_{n}^{d + 1}, got os_{x.n}^{x.d}")

    key = ("M", x.entries)
    tables = alg._modules.get(key)
    if tables is None:
        lo = OrderedSeq(n, d, x.entries[:d]).entries
        hi = OrderedSeq(n, d, tuple(e - 1 for e in x.entries[1:])).entries
        dims = {
            v: 1 for v, z in alg.vertex_data.items() if interleaves(lo, z) and interleaves(z, hi)
        }
        maps = {
            a.id: ExactMatrix._adopt(1, 1, [[ONE]])
            for a in alg.quiver.arrows
            if a.src in dims and a.tgt in dims
        }
        M = QuiverRep(alg, dims, maps)
        tables = alg._modules[key] = M.dims, M.maps
    return QuiverRep._adopt(alg, *tables, key)

