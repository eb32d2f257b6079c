"""Bounded complexes of projectives and generic homological algebra on them.

Complexes are cochain complexes of indecomposable projectives: the
differential raises degree and squares to zero exactly.  Entries of
differentials are algebra elements (an entry from a summand at vertex u to
one at vertex v lies in e_v A e_u), so chain maps, homotopies and
Hom-space dimensions are all solved in the small algebra-block coordinates
rather than on realized fibers.

The derived Nakayama functor reads the same entries on injectives:
nu(P_v) = I_v, and e in e_v A e_u gives the map I_u -> I_v dual to right
multiplication by e.  ``realize_complex`` builds that complex of modules,
and the replacement engine trades it back for a quasi-isomorphic complex
of projectives, minimal as built.  A complex of modules keeps a
differential matrix exactly at the vertices where both its fibers are
nonzero, as a module keeps its arrow maps; every other one is zero.  The
same engine also computes minimal projective resolutions (the one-term
case): going down from the top degree, each term is the projective cover
of the cycles of the cone of the map built so far, modulo the boundaries
of the complex replaced, read off as a nullspace in block coordinates at
the vertices where the cone lives, since its cycles vanish elsewhere.
Where that nullspace is forced, the standard basis or zero, it is written
down without elimination.  Minimisation strips contractible two-term
blocks by Gaussian elimination with entries inverted through the radical
filtration.

On top of this live the routines that know nothing of a particular
model: global and dominant dimension, projective-injective vertices, the
two-step homogeneity criterion (Ext vanishing read off one resolution per
injective), object-level fractional Calabi-Yau checks and endomorphism
algebras of complexes modulo homotopy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactmat import ExactMatrix, ONE, ZERO, exact_div, extend_basis
from .quiveralg import (
    BasisElement,
    BoundQuiverAlgebra,
    BudgetError,
    InjectiveSum,
    QuiverRep,
)


# -- complexes ---------------------------------------------------------------


class ProjComplex:
    """Bounded complex of indecomposable projectives.

    ``terms[m]`` lists the vertex labels of the degree-m summands and
    ``diffs[m][t][s]`` is the algebra element (sparse dict) of the component
    from summand s of degree m to summand t of degree m+1.  The complex keeps
    the given rows of entries, uncopied.
    """

    def __init__(self, algebra, terms, diffs, check=True):
        self.algebra = algebra
        self.terms = {m: tuple(v) for m, v in terms.items() if v}
        self.diffs = {
            m: rows for m, rows in diffs.items() if m in self.terms and (m + 1) in self.terms
        }
        if check:
            self._check()

    def _check(self):
        alg = self.algebra
        for m, rows in self.diffs.items():
            src = self.terms[m]
            tgt = self.terms[m + 1]
            if len(rows) != len(tgt) or any(len(r) != len(src) for r in rows):
                raise ValueError(f"differential shape mismatch in degree {m}")
            for t, row in enumerate(rows):
                for s, elem in enumerate(row):
                    for bid in elem:
                        b = alg.basis[bid]
                        if (b.src, b.tgt) != (src[s], tgt[t]):
                            raise ValueError(
                                f"entry at degree {m} ({t},{s}) outside block"
                            )
        for m in self.diffs:
            if (m + 1) in self.diffs:
                prod = _entry_matmul(alg, self.diffs[m + 1], self.diffs[m])
                if any(e for row in prod for e in row):
                    raise ValueError(f"d*d != 0 between degrees {m} and {m + 2}")

    def degrees(self):
        return sorted(self.terms)

    def is_zero(self):
        return not self.terms

    def shift(self, k):
        """The complex X[k]: degree m holds what X held in degree m+k."""
        return _shifted(self.algebra, self.terms, self.diffs, k)

    def is_minimal(self):
        alg = self.algebra
        for rows in self.diffs.values():
            for row in rows:
                for elem in row:
                    if not alg.is_radical(elem):
                        return False
        return True


def _shifted(alg, terms, diffs, k):
    """X[k] of the complex X with ``terms`` and ``diffs``, in one pass: each
    entry is a fresh dict, negated for odd k; X shares only its term tuples."""
    entry = (lambda e: {b: -c for b, c in e.items()}) if k % 2 else dict
    diffs = {m - k: [[entry(e) for e in row] for row in rows] for m, rows in diffs.items()}
    return ProjComplex(alg, {m - k: v for m, v in terms.items()}, diffs, check=False)


def _entry_matmul(alg, rows_a, rows_b):
    """Multiply matrices of algebra elements: (a . b)[i][j] = sum a[i][k] b[k][j]."""
    out = []
    for row_a in rows_a:
        out_row = []
        for j in range(len(rows_b[0]) if rows_b else 0):
            acc: dict = {}
            for k, e_ak in enumerate(row_a):
                if not e_ak:
                    continue
                e_bkj = rows_b[k][j]
                if e_bkj:
                    acc = alg.elem_add(acc, alg.elem_mul(e_ak, e_bkj))
            out_row.append(acc)
        out.append(out_row)
    return out


def stalk_complex(alg, vertex):
    """The indecomposable projective at ``vertex``, in degree zero."""
    return ProjComplex(alg, {0: (vertex,)}, {}, check=False)


# -- chain maps up to homotopy ----------------------------------------------


def _hom_dims(X, Y):
    """{j: dim Hom^j(X, Y)} for the j where it is nonzero, the lengths
    ``_hom_slots`` gives, counted: by Yoneda, Hom(P_u, P_v) = e_v A e_u is
    the block (u, v).  Both complexes must lie over one algebra."""
    if X.algebra is not Y.algebra:
        raise ValueError("the two complexes lie over different algebras")
    get, dims = X.algebra.blocks.get, {}
    for m, us in X.terms.items():
        for m2, vs in Y.terms.items():
            size = 0
            for u in us:
                for v in vs:
                    if ids := get((u, v)):
                        size += len(ids)
            if size:
                dims[m2 - m] = dims.get(m2 - m, 0) + size
    return dims


def _hom_slots(X, Y, j):
    """Coordinates of Hom^j(X, Y): one block per summand pair (m, t, s)."""
    slots, offset = [], 0
    for m, us in sorted(X.terms.items()):
        for t, v in enumerate(Y.terms.get(m + j, ())):
            for s, u in enumerate(us):
                if ids := X.algebra.blocks.get((u, v)):
                    slots.append((m, t, s, ids, offset))
                    offset += len(ids)
    return slots, offset


def _delta_matrix(X, Y, j, source, target):
    """Matrix of f -> d_Y f - (-1)^j f d_X from Hom^j to Hom^{j+1}, whose
    ``_hom_slots`` are ``source`` and ``target``; products are read off
    ``mult``, and a nonzero one lies in a nonempty block of the target."""
    mult = X.algebra.mult
    slots_j, dim_j = source
    slots_j1, dim_j1 = target
    out_index = {}
    for m, t, s, ids, off in slots_j1:
        for k, bid in enumerate(ids):
            out_index[(m, t, s, bid)] = off + k
    rows = [[ZERO] * dim_j for _ in range(dim_j1)]
    sign = -1 if j % 2 else 1
    for m, t, s, ids, off in slots_j:
        # d_Y component: post-compose with dY^{m+j}; f d_X component:
        # pre-compose with dX^{m-1}
        dY, dX = Y.diffs.get(m + j), X.diffs.get(m - 1)
        for col, bid in enumerate(ids, off):
            for t2, row in enumerate(dY or ()):
                for b, c in row[t].items():
                    for bid2, c2 in mult.get((b, bid), {}).items():
                        rows[out_index[m, t2, s, bid2]][col] += c * c2
            for s2, e in enumerate(dX[s] if dX else ()):
                for b, c in e.items():
                    for bid2, c2 in mult.get((bid, b), {}).items():
                        rows[out_index[m - 1, t, s2, bid2]][col] -= sign * c * c2
    return ExactMatrix._adopt(dim_j1, dim_j, rows)


def hom_complex_dim(X, Y, k=0):
    """dim of chain maps X -> Y[k] modulo homotopy, by exact elimination."""
    return hom_complex_dims(X, Y, [k])[0]


def hom_complex_dims(X, Y, ks):
    """[dim Hom_K(X, Y[k]) for k in ks]; each Hom^j is counted, and each slot
    list and each rank of delta^j is built, at most once.

    The skips are exact.  H^k of the Hom complex is ker delta^k / im
    delta^{k-1}, of dimension dim Hom^k - rank delta^k - rank delta^{k-1},
    and ``_hom_dims`` counts every dim Hom^j without building a slot list.
    Where Hom^k = 0 the answer is 0 and no rank is asked.  A linear map out
    of or into a zero space has rank 0, so delta^j is built, and with it the
    slot lists of Hom^j and Hom^{j+1}, only when both counts are nonzero.  A
    pair with no nonzero Hom^k builds nothing.
    """
    dims, slots, ranks = _hom_dims(X, Y), {}, {}

    def hom(j):
        if j not in slots:
            slots[j] = _hom_slots(X, Y, j)
        return slots[j]

    def rank(j):
        if j not in ranks:
            built = j in dims and j + 1 in dims
            ranks[j] = built and _delta_matrix(X, Y, j, hom(j), hom(j + 1)).rank()
        return ranks[j]

    return [(dim := dims.get(k, 0)) and dim - rank(k) - rank(k - 1) for k in ks]


def chain_maps_mod_homotopy(X, Y, k=0):
    """Basis of Hom_{K}(X, Y[k]) as entry matrices, plus boundary vectors.

    The boundaries are the nonzero images of delta^{k-1}, the rows of its
    transpose.  Where Hom^k is zero, as ``_hom_dims`` counts it, there are
    neither cycles nor boundary rows, and no slot list or delta is built.
    Where Hom^{k+1} is zero every vector is a cycle, and the cycles are the
    standard basis, as the nullspace of delta^k would give them; where
    Hom^{k-1} is zero there is no boundary.  Neither builds that slot list
    or delta."""
    dims = _hom_dims(X, Y)
    if k not in dims:
        return [], [], [], [], 0
    slots, dim_k = here = _hom_slots(X, Y, k)
    if k + 1 in dims:
        cycles = _delta_matrix(X, Y, k, here, _hom_slots(X, Y, k + 1)).nullspace()
    else:
        cycles = [[ONE if c == r else ZERO for c in range(dim_k)] for r in range(dim_k)]
    boundaries = []
    if k - 1 in dims:
        delta = _delta_matrix(X, Y, k - 1, _hom_slots(X, Y, k - 1), here)
        boundaries = [row for row in delta.transpose().data if any(row)]
    # the cycles are independent, so with no boundary every one is chosen
    chosen = [cycles[c] for c in extend_basis(boundaries, cycles)] if boundaries else cycles
    reps = [_vector_to_chain_map(vec, slots) for vec in chosen]
    return reps, chosen, boundaries, slots, dim_k


def _vector_to_chain_map(vec, slots):
    comps = {}
    for m, t, s, ids, off in slots:
        elem = {bid: vec[off + idx] for idx, bid in enumerate(ids) if vec[off + idx] != 0}
        if elem:
            comps.setdefault(m, {})[(t, s)] = elem
    return comps


def _chain_map_to_vector(comps, slots, dim):
    vec = [ZERO] * dim
    for m, t, s, ids, off in slots:
        elem = comps.get(m, {}).get((t, s))
        if elem:
            for idx, bid in enumerate(ids):
                if bid in elem:
                    vec[off + idx] = elem[bid]
    return vec


def compose_chain_maps(X, Y, Z, f, g):
    """g after f for chain maps f: X -> Y, g: Y -> Z (degree zero)."""
    alg = X.algebra
    comps = {}
    for m in X.degrees():
        if m not in Y.terms or m not in Z.terms:
            continue
        fm = f.get(m, {})
        gm = g.get(m, {})
        for (t1, s), e1 in fm.items():
            for (t2, s2), e2 in gm.items():
                if s2 != t1:
                    continue
                prod = alg.elem_mul(e2, e1)
                if prod:
                    cur = comps.setdefault(m, {}).get((t2, s), {})
                    comps[m][(t2, s)] = alg.elem_add(cur, prod)
    return comps


def identity_chain_map(X):
    comps = {}
    for m, vs in X.terms.items():
        for s, u in enumerate(vs):
            comps.setdefault(m, {})[(s, s)] = X.algebra.basis_elem(
                X.algebra.idempotent_of[u]
            )
    return comps


# -- minimisation ------------------------------------------------------------


def _scalar_part(alg, elem, u):
    return elem.get(alg.idempotent_of[u], ZERO)


def _invert_local(alg, elem, u):
    """Inverse of an element of e_u A e_u with nonzero scalar part."""
    lam = _scalar_part(alg, elem, u)
    if lam == 0:
        raise ValueError("element not invertible")
    e = alg.basis_elem(alg.idempotent_of[u])
    r = alg.elem_sub(elem, alg.elem_scale(lam, e))  # radical part
    inv = alg.elem_scale(exact_div(1, lam), e)
    power = e
    for _ in range(alg.nilpotency):
        power = alg.elem_scale(exact_div(-1, lam), alg.elem_mul(r, power))
        if not power:
            break
        inv = alg.elem_add(inv, alg.elem_scale(exact_div(1, lam), power))
    return inv


def _find_pivot(alg, terms, diffs):
    """First entry between equal vertices with a nonzero scalar part."""
    for m in sorted(diffs):
        for t, row in enumerate(diffs[m]):
            for s, elem in enumerate(row):
                u = terms[m][s]
                if u == terms[m + 1][t] and _scalar_part(alg, elem, u) != 0:
                    return m, t, s
    return None


def minimize_complex(X):
    """Strip contractible two-term blocks of X until it is minimal.

    Each step removes a pivot a between two copies of P_u and replaces every
    other entry d of that differential by its Schur complement
    d - c a^{-1} b.
    """
    alg = X.algebra
    terms = {m: list(v) for m, v in X.terms.items()}
    diffs = {m: [[dict(e) for e in row] for row in rows] for m, rows in X.diffs.items()}
    while True:
        pivot = _find_pivot(alg, terms, diffs)
        if pivot is None:
            break
        m, t, s = pivot
        u = terms[m][s]
        rows = diffs[m]
        ainv = _invert_local(alg, rows[t][s], u)
        ainv_b = [alg.elem_mul(ainv, b) for b in rows[t]]
        diffs[m] = [
            [
                alg.elem_sub(e, alg.elem_mul(row[s], ainv_b[s2]))
                for s2, e in enumerate(row)
                if s2 != s
            ]
            for t2, row in enumerate(rows)
            if t2 != t
        ]
        # entries into degree m lose the s-row; entries out of m+1 lose t
        if (m - 1) in diffs:
            diffs[m - 1] = [row for r_idx, row in enumerate(diffs[m - 1]) if r_idx != s]
        if (m + 1) in diffs:
            diffs[m + 1] = [
                [e for c_idx, e in enumerate(row) if c_idx != t] for row in diffs[m + 1]
            ]
        terms[m].pop(s)
        terms[m + 1].pop(t)
        for key in (m - 1, m, m + 1):
            if key in diffs and (not terms.get(key) or not terms.get(key + 1)):
                diffs.pop(key)
        for key in (m, m + 1):
            if key in terms and not terms[key]:
                terms.pop(key)

    out = ProjComplex(alg, {m: tuple(v) for m, v in terms.items()}, diffs, check=True)
    if not out.is_minimal():
        raise AssertionError("minimisation left a non-radical entry")
    return out


# -- module complexes and projective replacement ----------------------------


@dataclass
class ModuleComplex:
    """Bounded cochain complex of quiver representations."""

    algebra: BoundQuiverAlgebra
    terms: dict  # degree -> QuiverRep
    # degree m -> {vertex: ExactMatrix} for term^m -> term^{m+1}, at the
    # vertices where both fibers are nonzero
    maps: dict

    def degrees(self):
        return sorted(self.terms)

    def check(self):
        for m, phi in self.maps.items():
            src, tgt = self.terms[m].dims, self.terms[m + 1].dims
            if missing := sorted({v for v, k in src.items() if k and tgt[v]} - phi.keys()):
                raise ValueError(f"module complex map missing at vertices {missing} in degree {m}")
            if any((f.rows, f.cols) != (tgt[v], src[v]) for v, f in phi.items()):
                raise ValueError(f"module complex map shape mismatch at {m}")
        for m, phi in self.maps.items():
            after = self.maps.get(m + 1, {})
            if any(v in after and not after[v].matmul(f).is_zero() for v, f in phi.items()):
                raise ValueError("module complex differential does not square to zero")


def realize_complex(X: ProjComplex) -> ModuleComplex:
    """The complex of modules nu(X): I_v for each summand P_v of X, and per
    vertex y the block matrix of each differential.

    An entry e in e_v A e_u, from a summand at u to one at v, acts at y as
    the map from the fiber D(e_u A e_y) of I_u to the fiber D(e_v A e_y) of
    I_v dual to right multiplication b -> b.e from e_v A e_y.  A
    differential is built only at the vertices where both its fibers are
    nonzero, and only from the nonzero entries and the basis elements of
    their nonempty blocks: every other product is zero.
    """
    alg = X.algebra
    mult, blocks, block_index = alg.mult, alg.blocks, alg._block_index
    terms = {m: InjectiveSum(alg, vs) for m, vs in X.terms.items()}
    maps = {}
    for m, rows in X.diffs.items():
        src_vs, tgt_vs = X.terms[m], X.terms[m + 1]
        src, tgt = terms[m].dims, terms[m + 1].dims
        maps[m] = phi = {}
        for y in alg.vertex_ids():
            if not (src[y] and tgt[y]):
                continue
            out = [[ZERO] * src[y] for _ in range(tgt[y])]
            r0 = 0
            for t, v in enumerate(tgt_vs):
                tgt_ids = blocks.get((v, y), ())
                c0 = 0
                for s, u in enumerate(src_vs):
                    if elem := rows[t][s]:
                        index = block_index.get((u, y), {})
                        for j, b in enumerate(tgt_ids):
                            for i, c in elem.items():
                                for k, ck in mult.get((b, i), {}).items():
                                    out[r0 + j][c0 + index[k]] += c * ck
                    c0 += len(blocks.get((u, y), ()))
                r0 += len(tgt_ids)
            phi[y] = ExactMatrix._adopt(tgt[y], src[y], out)
    mc = ModuleComplex(alg, terms, maps)
    mc.check()
    return mc


def _replace(C: ModuleComplex, max_len, label):
    """A minimal complex Q of projectives and a chain map psi: Q -> C with
    acyclic cone.

    Returns (terms, diffs, psi) with psi[m] listing, per degree-m summand,
    the image of its generator in C^m.  Works down from the top degree of C.
    In degree m the cone cycles

        Z^m = {(q, c) in Q^{m+1} + C^m : d_Q q = 0, psi q = d_C c}

    are, per vertex, the nullspace of [cover | -d_C], where cover is the map
    Q^{m+1} -> Z^{m+1} and (0, d_C c), which lies in Z^{m+1}, is written
    there too.  A vector of Z^{m+1} is its entries at the free columns of
    that nullspace.  The top generators of Z^m / D^m, for D^m the cycles
    (0, d_C c') with c' in C^{m-1}, span Q^m, and their two components are
    the columns of d_Q^m and of psi^m.  Below the lowest degree of C each Z^m
    is a syzygy; the loop stops when it vanishes and raises BudgetError if Q
    has a term more than max_len degrees below C.

    Q is minimal as built.  The generators lift a basis of the top
    Z^m / (rad Z^m + D^m) of Z^m / D^m, so Q^m -> Z^m / D^m is a projective
    cover.  A generator (q, c) of Q^m has d_Q q = 0 and psi q = d_C c, so
    cover(q) = (0, d_C c) lies in D^{m+1}: q is in the kernel of the
    projective cover Q^{m+1} -> Z^{m+1} / D^{m+1}, hence in rad Q^{m+1}, and
    every entry of d_Q is radical.  The cone stays acyclic: D^m is the image
    of C^{m-1} under the cone differential, so the cone's boundaries in
    degree m, cover(Q^m) + D^m, are all of Z^m.  For a one-term C every D^m
    is zero, and Q is the minimal resolution the plain cover gives.

    Only the support is visited; skipping the rest is exact.  Where C^m_y = 0
    and e_w A e_y = 0 for every summand P_w of Q^{m+1}, [cover | -d_C] has no
    columns, so Z^m_y = 0.  Radical rows come from the arrows between vertices
    where Z^m is nonzero, and _top's pivots depend only on their row space.
    Cover columns are built wherever Q^m is nonzero, of length zero where
    Z^m_y = 0: their number sizes Q^m in the next degree.  Each generator
    P_v reaches only the vertices y with e_v A e_y != 0, the fibers of
    P_v = e_v A: ``_blocks_into[v]`` lists the blocks (y, v), which are
    e_v A e_y.

    Two kernels are forced and need no elimination.  Where Z^{m+1}_y = 0,
    [cover | -d_C] has no rows, so every column is a cycle and the kernel is
    the standard basis, the basis nullspace returns.  Where C^m_y = 0 and
    the cover has as many columns as Z^{m+1}_y has dimensions, the kernel is
    0: then D^{m+1}_y = 0, and the top generators generate Z^{m+1} / D^{m+1}
    (Nakayama's lemma), so the cover Q^{m+1}_y -> Z^{m+1}_y is onto, and a
    square onto map is injective.
    """
    alg = C.algebra
    degs = [m for m in C.degrees() if C.terms[m].total_dim > 0]
    terms, diffs, psi = {}, {}, {}
    if not degs:
        return terms, diffs, psi
    low, m = degs[0], degs[-1]
    # labels: the summands of Q^{m+1}; free[y] and nq[y], where Z^{m+1}_y is
    # nonzero: its free columns and the length of its Q^{m+2} part;
    # cover[y], where Q^{m+1}_y is nonzero: the columns of Q^{m+1} -> Z^{m+1}
    labels, free, nq, cover = [], {}, {}, {}
    while m >= low or labels:
        Cm, dC = C.terms.get(m), C.maps.get(m)
        cdims = Cm.dims if Cm is not None else dict.fromkeys(alg.vertex_ids(), 0)
        acts = {}

        def image(k, bid, y):
            """Ambient coordinates at y of k . b, for k in Z^m at b.tgt, b = bid."""
            x = alg.basis[bid].tgt
            out = _act(alg, k, x, bid, y, labels)
            if not (cdims[x] and cdims[y]):
                return out + [ZERO] * cdims[y]
            if bid not in acts:
                acts[bid] = Cm.basis_action(bid)
            return out + acts[bid].apply(k[nq[x] :])

        kernel = {}
        for y in alg.vertex_ids():
            if y not in cover and not cdims[y]:
                continue
            f, qy = free.get(y, []), cover.get(y, [])
            if not f:  # every column is a cycle
                width = len(qy) + cdims[y]
                kernel[y] = [[ONE if i == j else ZERO for i in range(width)] for j in range(width)]
            elif cdims[y] or len(qy) != len(f):
                cols = qy + [
                    [-dC[y].data[i - nq[y]][j] if dC is not None and i >= nq[y] else ZERO for i in f]
                    for j in range(cdims[y])
                ]
                if ks := _from_columns(len(f), cols).nullspace():
                    kernel[y] = ks
            # else the cover is onto and square, so its kernel is 0
        nq = {y: len(cover.get(y, [])) for y in kernel}
        free = {y: [max(i for i, x in enumerate(k) if x) for k in ks] for y, ks in kernel.items()}
        rad = {y: [] for y in kernel}
        for t, ks in kernel.items():
            for a in alg.quiver.arrows_into[t]:
                if a.src in kernel:
                    for k in ks:
                        img = image(k, alg.arrow_elem[a.id], a.src)
                        if any(coords := [img[i] for i in free[a.src]]):
                            rad[a.src].append(coords)
        # D^m: the columns of d_C^{m-1}, as cycles (0, d_C c')
        for y, d in C.maps.get(m - 1, {}).items():
            if y in kernel:
                for j in range(d.cols):
                    coords = [d.data[i - nq[y]][j] if i >= nq[y] else ZERO for i in free[y]]
                    if any(coords):
                        rad[y].append(coords)
        top = _top(list(kernel), {y: len(ks) for y, ks in kernel.items()}, rad)
        if top and m < low - max_len:
            raise BudgetError(f"resolution of {label} exceeds max length {max_len}")
        gens = [(v, kernel[v][c]) for v, c in top]
        if gens:
            terms[m] = tuple(v for v, _ in top)
            psi[m] = [g[nq[v] :] for v, g in gens]
            if labels:
                split = [_split(alg, g, v, labels) for v, g in gens]
                diffs[m] = [[s[t] for s in split] for t in range(len(labels))]
        cover = {}
        for v, g in gens:
            for y, ids in alg._blocks_into[v]:
                cols = cover.setdefault(y, [])
                if y not in free:
                    cols.extend([] for _ in ids)
                    continue
                for bid in ids:
                    img = image(g, bid, y)
                    cols.append([img[i] for i in free[y]])
        labels = [v for v, _ in top]
        m -= 1
    return terms, diffs, psi


def minimal_proj_resolution(alg, M: QuiverRep, max_len=64, label="M") -> ProjComplex:
    """Minimal projective resolution R of M as a complex ending in degree zero.

    The projective dimension of M is ``len(R.terms) - 1``.  This is the
    replacement engine run on M alone in degree zero: every Z^m below is a
    syzygy, the kernel of a projective cover, so the result is minimal.
    ``M`` must be a module over ``alg``.
    """
    _check_module(alg, M)
    terms, diffs, _ = _replace(ModuleComplex(alg, {0: M}, {}), max_len, label)
    cplx = ProjComplex(alg, terms, diffs)
    if not cplx.is_minimal():
        raise AssertionError("resolution differential has a non-radical entry")
    return cplx


def _check_module(alg, M: QuiverRep):
    if M.algebra is not alg:
        raise ValueError("the module lies over a different algebra")


def _top(vertices, dims, rad):
    """(vertex, coordinate) of each top generator: per vertex, the coordinates
    off the rref pivots of the spanning rows ``rad[v]`` of the radical, equal
    length lists of exact scalars that rref reads but leaves."""
    out = []
    for v in vertices:
        rows = rad[v]
        pivots = set(ExactMatrix._adopt(len(rows), len(rows[0]), rows).rref()[1]) if rows else set()
        out.extend((v, c) for c in range(dims[v]) if c not in pivots)
    return out


def _from_columns(rows, cols):
    return ExactMatrix._adopt(rows, len(cols), [[col[i] for col in cols] for i in range(rows)])


def _split(alg, vec, y, labels):
    """A fiber vector at y of the sum of the P_w, w in labels, as elements."""
    out = []
    offset = 0
    for w in labels:
        size = len(alg.blocks.get((y, w), []))
        out.append(alg.elem_from_block_coords(vec[offset : offset + size], y, w))
        offset += size
    return out


def _act(alg, vec, x, bid, y, labels):
    """Fiber coordinates at y of vec . b for the basis element b = bid of
    e_x A e_y, vec a fiber at x of the P_w, w in labels.

    The block of P_w at x holds the basis elements x -> w, and each product
    with b lies in the block y -> w of P_w at y."""
    mult, blocks, block_index = alg.mult, alg.blocks, alg._block_index
    out = []
    offset = 0
    for w in labels:
        ids = blocks.get((x, w), ())
        index = block_index.get((y, w), {})
        coords = [ZERO] * len(index)
        for i, c in zip(ids, vec[offset : offset + len(ids)]):
            if c != 0:
                for k, ck in mult.get((i, bid), {}).items():
                    coords[index[k]] += c * ck
        offset += len(ids)
        out.extend(coords)
    return out


def proj_replace(C: ModuleComplex, max_len=64):
    """A minimal complex of projectives quasi-isomorphic to C.

    ``_replace`` builds it minimal, so ``max_len`` bounds the minimal
    complex: BudgetError if it has a term more than max_len degrees below
    C.  The chain-map check and ``minimize_complex``, which then strips
    nothing, stay as checks."""
    terms, diffs, psi = _replace(C, max_len, "complex")
    Q = ProjComplex(C.algebra, terms, diffs, check=True)
    _assert_qis_chain_map(Q, C, psi)
    return minimize_complex(Q)


def _assert_qis_chain_map(Q: ProjComplex, C: ModuleComplex, psi):
    for m in Q.degrees():
        dQ = Q.diffs.get(m)
        psi_m = psi.get(m, [])
        # d_C psi = psi d_Q degreewise
        for s, u in enumerate(Q.terms[m]):
            lhs = None
            if (phi := C.maps.get(m, {}).get(u)) is not None:
                lhs = phi.apply(psi_m[s])
            rhs = None
            if dQ is not None and (m + 1) in psi:
                acc = [ZERO] * (C.terms[m + 1].dims[u] if (m + 1) in C.terms else 0)
                for t, v in enumerate(Q.terms[m + 1]):
                    elem = dQ[t][s]
                    if elem and any(x != 0 for x in psi[m + 1][t]):
                        act = C.terms[m + 1].element_action(elem, u, v)
                        acc = [a + b for a, b in zip(acc, act.apply(psi[m + 1][t]))]
                rhs = acc
            lhs = lhs or []
            rhs = rhs or []
            width = max(len(lhs), len(rhs))
            lhs = lhs + [ZERO] * (width - len(lhs))
            rhs = rhs + [ZERO] * (width - len(rhs))
            if lhs != rhs:
                raise AssertionError("quasi-isomorphism witness is not a chain map")


# -- the derived Nakayama functor -------------------------------------------


def derived_nakayama(X: ProjComplex, max_len=64) -> ProjComplex:
    """nu(X): realise X on injectives, re-express it by projectives and
    minimise."""
    if X.is_zero():
        return X
    return proj_replace(realize_complex(X), max_len)


def shifted_module_complex(alg, module: QuiverRep, shift_by=0, max_len=64):
    """Minimal projective complex of a module placed in degree -shift_by.

    The unshifted resolution's terms and diffs are memoised per algebra in
    ``alg._resolution_memo``, keyed on the module's ``cache_key`` and
    ``max_len``.  A cache key fixes the module's read-only tables, so it fixes
    the resolution and the outcome of the first build's ``_check`` and
    ``is_minimal``; a hit reads nothing of the module.  A module whose key is
    None (``alg.simple``, one built by hand, a direct sum of several) is
    resolved on every call and not stored, nor is a resolution longer than
    ``max_len``, which raises BudgetError.  Every result is a fresh complex
    with its own entries; it shares only the immutable term tuples with the
    memo.  ``module`` must be a module over ``alg``.
    """
    _check_module(alg, module)
    if module.cache_key is None:
        return minimal_proj_resolution(alg, module, max_len).shift(shift_by)
    key = module.cache_key, max_len
    memo = alg._resolution_memo.get(key)
    if memo is None:
        R = minimal_proj_resolution(alg, module, max_len)
        memo = alg._resolution_memo[key] = R.terms, R.diffs
    return _shifted(alg, *memo, shift_by)


# -- homological dimensions ---------------------------------------------------


def gldim(alg, max_len=64, vertices=None) -> int:
    """Global dimension: the longest minimal resolution of a simple; with
    ``vertices``, the largest projective dimension of their simples."""
    best = 0
    for v in alg.vertex_ids() if vertices is None else vertices:
        R = minimal_proj_resolution(alg, alg.simple(v), max_len, label=f"S{v}")
        best = max(best, len(R.terms) - 1)
    return best


def projective_injective_vertices(alg) -> dict:
    """{v: w} for each vertex v whose injective I_v is projective, I_v = P_w,
    read off the socle of A e_v; no module is built.

    The top of I_v = D(A e_v) is D soc(A e_v).  The arrows generate the
    radical, so x in e_y A e_v, the block (v, y), lies in the left socle iff
    a x = 0 for every arrow a leaving y: one small matrix per block, read
    from ``mult``.  Then I_v = P_w iff that socle is one-dimensional and sits
    at w, and dim I_v = sum_y |(v, y)| equals dim P_w = sum_y |(y, w)|.
    If: the top of I_v is the simple S_w, so the projective cover P_w -> I_v
    is onto, and an onto map between spaces of equal dimension is an
    isomorphism.  Only if: I_v is the injective envelope of S_v, with simple
    socle, so it is indecomposable; an indecomposable projective is the P_w
    of its top S_w, and isomorphic modules have equal dimensions.
    """
    out = {}
    for v in alg.vertex_ids():
        socle = []
        for y, ids in alg._blocks_from[v]:
            rows = []
            for a in alg.quiver.arrows_out[y]:
                products = [alg.mult.get((alg.arrow_elem[a.id], x), {}) for x in ids]
                targets = alg.blocks.get((v, a.tgt), ())
                rows += [[p.get(k, ZERO) for p in products] for k in targets]
            rank = ExactMatrix._adopt(len(rows), len(ids), rows).rank() if rows else 0
            socle += [y] * (len(ids) - rank)
        dim = sum(len(ids) for _, ids in alg._blocks_from[v])
        if len(socle) == 1 and dim == sum(len(ids) for _, ids in alg._blocks_into[socle[0]]):
            out[v] = socle[0]
    return out


def domdim(alg, max_len=64):
    """Dominant dimension, read off the projective resolutions of the
    injectives.

    The dominant dimension of an algebra equals that of its opposite
    (B. J. Muller, "The classification of algebras by dominant dimension",
    Canad. J. Math. 20, 1968).  Dualising the minimal projective resolution
    of I_z gives the minimal injective coresolution of the opposite
    projective D(I_z), whose term D(P_w) is projective exactly when P_w is
    injective.  So the value is the least number, over z, of leading terms
    of the resolution of I_z whose vertices are all tops w of
    projective-injectives I_v = P_w; math.inf when every term is.  An I_z
    that is some P_w is skipped: its resolution is the stalk P_w, and w is
    one of those tops.
    """
    proj_inj = projective_injective_vertices(alg)
    tops = set(proj_inj.values())
    best = math.inf
    for z in alg.vertex_ids():
        if z in proj_inj:
            continue
        R = minimal_proj_resolution(alg, alg.injective(z), max_len, label=f"I{z}")
        for j in range(len(R.terms)):
            if not all(w in tops for w in R.terms.get(-j, ())):
                best = min(best, j)
                break
    return best


# -- verification reports -----------------------------------------------------


@dataclass
class TwoStepReport:
    passed: bool
    rigidity_ok: bool


def two_subhomogeneous_check(alg, d_check: int, global_dim: int, max_len=64) -> TwoStepReport:
    """Every twisted injective lands in add(A), plus the rigidity window.

    The global dimension ``global_dim`` of ``alg``, as ``gldim`` returns it,
    must be at most d_check.  For each indecomposable injective
    non-projective I, the shifted twist nu(I)[-d] must minimise to a stalk of
    projectives in degree zero, and Ext^i(I, P_w) must vanish for
    0 < i < d_check and every vertex w.  One resolution R of I feeds both
    checks: Ext^i(I, P_w) is Hom(R, P_w[i]).  Ext^i(I, I_w) needs no check,
    since it vanishes for i >= 1 because I_w is injective.
    """
    twists_ok = rigidity_ok = True
    proj_inj = projective_injective_vertices(alg)
    stalks = [stalk_complex(alg, w) for w in alg.vertex_ids()]
    for z in alg.vertex_ids():
        if z in proj_inj:
            continue
        R = minimal_proj_resolution(alg, alg.injective(z), max_len, label=f"I{z}")
        twisted = derived_nakayama(R, max_len).shift(-d_check)
        twists_ok = twists_ok and list(twisted.terms) == [0]
        for S in stalks:
            if any(hom_complex_dims(R, S, range(1, d_check))):
                rigidity_ok = False
    passed = global_dim <= d_check and twists_ok and rigidity_ok
    return TwoStepReport(passed, rigidity_ok)


def fcy_object_check(alg, shift: int, power: int, max_len=64) -> bool:
    """Object-level fractional Calabi-Yau test: nu^power(P_z) ~ P_z[shift] for all z.

    nu is an autoequivalence that commutes with [1], and a minimal complex
    whose one term is P_w in degree m is the stalk P_w[-m]; so once
    nu^k(P_z) is that stalk, nu^(k+j)(P_z) = nu^j(P_w)[-m].  The segment
    nu(P_w), nu^2(P_w), ... of each w is computed once, up to its first
    stalk and at most ``power`` steps, and every orbit follows these
    returns: the same complexes as direct iteration, up to shift, so the
    same verdict and BudgetError.  Minimal complexes, which proj_replace
    returns, are isomorphic exactly when their terms agree.
    """
    terms = _nu_power_terms(alg, power, max_len)
    return all(terms[z] == {-shift: (z,)} for z in alg.vertex_ids())


def _nu_power_terms(alg, power: int, max_len=64) -> dict:
    """The terms of nu^power(P_z) for every vertex z, by fcy_object_check's walk."""
    segments, returns = {}, {}
    for w in alg.vertex_ids():
        Y, segments[w] = stalk_complex(alg, w), []
        while len(segments[w]) < power and w not in returns:
            Y = derived_nakayama(Y, max_len)
            segments[w].append(Y.terms)
            if sum(map(len, Y.terms.values())) == 1:
                ((m, (v,)),) = Y.terms.items()
                returns[w] = (v, m, len(segments[w]))
    out = {}
    for z in alg.vertex_ids():
        w, offset, left = z, 0, power
        while w in returns and returns[w][2] <= left:
            w, m, steps = returns[w]
            offset, left = offset + m, left - steps
        terms = segments[w][left - 1] if left else {0: (w,)}
        out[z] = {m + offset: v for m, v in terms.items()}
    return out


def endo_algebra_of_complexes(complexes) -> BoundQuiverAlgebra:
    """End of a list of complexes, composed modulo homotopy.

    Only the diagonal and the pairs with Hom^0(X_j, X_i) != 0 are asked for
    chain maps: by Yoneda, those with a nonempty block (u, v) for summands
    P_u of X_j^m and P_v of X_i^m, read off the block table.  Products g f
    of basis maps f: X_j -> X_i and g: X_k -> X_j follow adjacency lists, in
    the order of i, then k, then j."""
    if not complexes:
        raise ValueError("need at least one complex")
    at = {}  # (m, v): the complexes with a summand P_v in degree m
    for i, X in enumerate(complexes):
        for m, vs in X.terms.items():
            for v in vs:
                at.setdefault((m, v), []).append(i)
    pairs = {(i, i) for i in range(len(complexes))}
    for (m, u), js in at.items():
        for v, _ in complexes[0].algebra._blocks_from[u]:
            pairs.update((i, j) for i in at.get((m, v), ()) for j in js)
    data = {}
    for i, j in sorted(pairs):
        Xi, Xj = complexes[i], complexes[j]
        reps, vectors, boundaries, slots, dim = chain_maps_mod_homotopy(Xj, Xi, 0)
        if i == j:
            # rebuild the basis so the identity comes first
            ident = identity_chain_map(Xi)
            vectors = [_chain_map_to_vector(ident, slots, dim)] + vectors
            reps = [ident] + reps
            picked = extend_basis(boundaries, vectors)
            reps, vectors = [reps[k] for k in picked], [vectors[k] for k in picked]
        data[(i, j)] = (reps, vectors, boundaries, slots, dim)

    basis = []
    index = {}
    idempotent_of = {}
    # maps_from[j]: the k, ascending, with a basis map X_k -> X_j
    maps_from = {}
    for (i, j), (reps, _, _, _, _) in sorted(data.items()):
        if reps:
            maps_from.setdefault(i, []).append(j)
        for k in range(len(reps)):
            index[(i, j, k)] = len(basis)
            # a map from X_j to X_i lies in e_i End e_j
            basis.append(BasisElement(len(basis), j, i))
        if i == j:
            idempotent_of[i] = index[(i, i, 0)]

    mult = {}
    for i in range(len(complexes)):
        # through[k]: the j, ascending, with basis maps X_k -> X_j -> X_i
        through = {}
        for j in maps_from.get(i, ()):
            for k in maps_from.get(j, ()):
                through.setdefault(k, []).append(j)
        for k in sorted(through):
            t_reps, t_vecs, t_bound, t_slots, t_dim = data.get((i, k), ([], [], [], [], 0))
            if not t_reps and not t_bound:
                continue
            solver = ExactMatrix.from_rows(t_vecs + t_bound).transpose()
            for j in through[k]:
                for a, f in enumerate(data[(i, j)][0]):
                    for b, g in enumerate(data[(j, k)][0]):
                        comp = compose_chain_maps(
                            complexes[k], complexes[j], complexes[i], g, f
                        )
                        sol = solver.solve(_chain_map_to_vector(comp, t_slots, t_dim))
                        if sol is None:
                            raise AssertionError("composite not a cycle")
                        entry = {
                            index[(i, k, t)]: c
                            for t, c in enumerate(sol[: len(t_reps)])
                            if c != 0
                        }
                        if entry:
                            mult[(index[(i, j, a)], index[(j, k, b)])] = entry
    return BoundQuiverAlgebra(basis, mult, idempotent_of)
