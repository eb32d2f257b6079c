"""Reference implementations that the tests compare the library against.

None of these is reached from a verification claim or a CLI command, so
they live here rather than in ``hatilt``: the inverse Serre twist (through
duality over the opposite algebra, an independent route to the one
``derived_nakayama`` takes), direct sums of modules, direct sums and cones
of complexes, the minimisation of a complex by Gaussian elimination, which
strips contractible two-term blocks with entries inverted through the
radical filtration (the replacement engine of ``hatilt.complexes`` builds
its complexes minimal and only checks that they are), a search
for an isomorphism between complexes, the Serre-twist orbit of a complex
and its label signature, the opposite algebra and the dual module over
it, the dominant dimension read off the injective coresolution of the
algebra through those duals (against which ``domdim`` is compared), Ext
dimensions from a minimal resolution through their own coboundary
matrices, which act by an element as the sum of its scaled basis actions,
the entry-dict form of a chain map, which the cone and isomorphism
oracles read off a slot vector, the intertwiner solver for Hom between
modules, self-injectivity read off the tops of the injectives and the
Nakayama permutation, the projective-injective vertices read off the same
tops, built from each injective's radical fibers (against which the socle
route of ``projective_injective_vertices`` is compared), an exhaustive
associativity check of structure constants, and the radical filtration
reduced on dense vectors of the full
algebra rather than block by block, with the Gabriel quiver read off its
rad^2 in those coordinates.  It also holds
the lattice-path definitions and lemmas of the paper that the
combinatorial tests check (columnwise below-ness, skew shapes, Dyck orbit
representatives, the
widening by a final horizontal step, the dual slices, the S-regions and
the membership of one path in a region, degree-zero composition, the
k-th Serre twist of an object for k >= 0 and the projective and injective
labels at shift zero), the anchor data,
bent-curve test, regions and slices computed with ``Fraction`` slopes,
against which the integer-scaled ``hatilt.pathcomb`` versions are
compared, the path with given labels built through its ordered sequence
(``path_from_entries``), against which the strip terms read from the path
table are compared, the lookup of a path's generation-certificate
entry, and the rigidity and Serre-symmetry checks asked one ``hom_dim``
query at a time, against which the box checks of ``hatilt.cluster`` are
compared, also under a planted Hom rule that forgets shifts, a run of
every claim as one ``run_claims`` call per claim group, which the tests
that count calls through a monkeypatch observe in one process, and the
interleaving-agreement claim as a test of every pair, against which the
box comparison of ``hatilt.verify`` is compared, the Hom dimension of
complexes asked one shift at a time, against which ``hom_complex_dims`` is
compared, and the projective-replacement engine that sweeps every vertex and every arrow
in each degree, against which the support-restricted
``hatilt.complexes._replace`` is compared.  Last come the element route of
the block-coordinate kernels: block coordinates of an element, the action of
a basis element on a fiber of a sum of projectives and the multiplication
matrices, each through algebra elements, and the action of a path as the
identity times each arrow matrix, against which ``_act``,
``InjectiveSum.basis_action`` and ``path_action`` are compared.  The
entry-wise builder of module complexes, one multiplication matrix per
entry and vertex assembled into blocks, is what the support-restricted
``realize_complex`` is compared against on injectives; on projectives it realises a complex of projectives
as modules, which the library never needs.  The resolving-window search
that builds every strip term before reading one is what the lazy
``resolving_sequence`` is compared against.  The projective modules e_v A
live here too: the library reads P_v as a vertex of a complex and never
builds it as a module.  End of a sum of modules, through their minimal
projective resolutions, and End(P) of the Dyck projectives, through their
stalk complexes, are built by ``endo_algebra_of_complexes``; the latter is
what the corner e A e that ``ModelData.b0`` builds is compared against.
"""

import math
from fractions import Fraction

import hatilt.cluster
from hatilt.cluster import (
    CertificateEntry,
    GenerationCertificate,
    RigidityReport,
    ShiftedModule,
    _box_mask,
    hom_dim,
    nakayama,
    tilting_summands,
)
from hatilt.complexes import (
    ModuleComplex,
    ProjComplex,
    _delta_matrix,
    _from_columns,
    _hom_slots,
    _split,
    _top,
    derived_nakayama,
    endo_algebra_of_complexes,
    minimal_proj_resolution,
    proj_replace,
    projective_injective_vertices,
    realize_complex,
    stalk_complex,
)
from hatilt.exactmat import ZERO, ExactMatrix, exact_div, extend_basis, span_basis
from hatilt.pathcomb import (
    AnchorData,
    GridPoint,
    LatticePath,
    OrderedSeq,
    anchor_data,
    base_path,
    coords,
    enumerate_all,
    enumerate_dyck,
    from_coords,
    heights_related,
    interleaves,
    interleaving_down_box,
    interleaving_up_box,
    is_dyck,
    preceq,
    region_paths,
    rotate_pow,
    strip_sequence,
)
from hatilt.quiveralg import (
    Arrow,
    BasisElement,
    BoundQuiverAlgebra,
    BudgetError,
    Quiver,
    QuiverRep,
    Relation,
    vertex_of_entries,
)
from hatilt.verify import CLAIM_NAMES, RESOLUTION_CLAIMS, run_claims


def projective(alg, v) -> QuiverRep:
    """The right module P_v = e_v A: its fiber at u is e_v A e_u, and an
    arrow acts by right multiplication."""
    dims = {u: len(alg.blocks.get((u, v), [])) for u in alg.vertex_ids()}
    maps = {
        a.id: mult_matrix_by_elements(
            alg, (a.tgt, v), (a.src, v), right=alg.basis_elem(alg.arrow_elem[a.id])
        )
        for a in alg.quiver.arrows
        if dims[a.src] and dims[a.tgt]
    }
    return QuiverRep(alg, dims, maps, check=False)


def endo_algebra_of_modules(reps: list[QuiverRep]) -> BoundQuiverAlgebra:
    """End(M_1 + ... + M_k) as End of the minimal projective resolutions
    modulo homotopy; a module of infinite projective dimension raises
    ``BudgetError``."""
    return endo_algebra_of_complexes([minimal_proj_resolution(M.algebra, M) for M in reps])


def dyck_end_p(alg, d, n) -> BoundQuiverAlgebra:
    """End(P) for P the sum of the projectives of ``alg`` at the Dyck paths
    of (d, n), in Dyck order, as End of their stalk complexes."""
    vertices = [vertex_of_entries(alg, coords(p).entries) for p in enumerate_dyck(d, n)]
    return endo_algebra_of_complexes([stalk_complex(alg, v) for v in vertices])


def reversed_quiver(quiver: Quiver) -> Quiver:
    return Quiver(
        quiver.vertices,
        [Arrow(a.id, a.tgt, a.src, a.label) for a in quiver.arrows],
    )


def opposite(alg: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """Same basis ids with reversed paths, swapped blocks, transposed table.

    The two algebras keep each other as ``_op``, so ``opposite`` is an
    involution up to identity."""
    if getattr(alg, "_op", None) is None:
        op_quiver = reversed_quiver(alg.quiver)
        op_relations = [
            Relation(tuple((c, tuple(reversed(p))) for c, p in r.terms))
            for r in alg.relations
        ]
        op_basis = [
            BasisElement(b.id, b.tgt, b.src, b.degree, tuple(reversed(b.path)))
            for b in alg.basis
        ]
        op_mult = {(j, i): dict(v) for (i, j), v in alg.mult.items()}
        op = BoundQuiverAlgebra(
            op_basis,
            op_mult,
            dict(alg.idempotent_of),
            quiver=op_quiver,
            relations=op_relations,
            vertex_data=alg.vertex_data,
        )
        op._op = alg
        alg._op = op
    return alg._op


def arrow_map(M: QuiverRep, a) -> ExactMatrix:
    """The matrix of arrow ``a`` on M, zero where M stores none."""
    m = M.maps.get(a.id)
    return m if m is not None else ExactMatrix(M.dims[a.src], M.dims[a.tgt])


def direct_sum(reps: list[QuiverRep]) -> QuiverRep:
    """Direct sum, the summands stacked in the given order at every vertex;
    one summand is returned itself, its tables shared and read-only."""
    if not reps:
        raise ValueError("empty direct sum")
    if len(reps) == 1:
        return reps[0]
    alg = reps[0].algebra
    dims = {v: sum(r.dims[v] for r in reps) for v in alg.vertex_ids()}
    maps = {}
    for a in alg.quiver.arrows:
        if not any(a.id in r.maps for r in reps):
            continue  # zero, so not stored
        m = maps[a.id] = ExactMatrix(dims[a.src], dims[a.tgt])
        ro = co = 0
        for r in reps:
            block = r.maps.get(a.id)
            if block is not None:
                for i in range(block.rows):
                    for j in range(block.cols):
                        m.data[ro + i][co + j] = block.data[i][j]
            ro += r.dims[a.src]
            co += r.dims[a.tgt]
    return QuiverRep(alg, dims, maps, check=False)


def dual_module(M: QuiverRep) -> QuiverRep:
    """The linear dual as a module over the opposite algebra."""
    op = opposite(M.algebra)
    dims = dict(M.dims)
    maps = {a.id: arrow_map(M, a).transpose() for a in M.algebra.quiver.arrows}
    return QuiverRep(op, dims, maps, check=True)


def domdim_by_coresolution(alg, max_len=64):
    """Dominant dimension via the dual resolution over the opposite algebra.

    Returns math.inf when every term of the minimal injective coresolution
    of the algebra is projective.
    """
    op = opposite(alg)
    proj_inj = projective_injective_vertices(alg)
    best = None
    for z in alg.vertex_ids():
        dual = dual_module(projective(alg, z))
        R = minimal_proj_resolution(op, dual, max_len, label=f"DP{z}")
        count = 0
        exhausted = True
        for j in range(len(R.terms)):
            labels = R.terms.get(-j, ())
            if all(w in proj_inj for w in labels):
                count += 1
            else:
                exhausted = False
                break
        value = math.inf if exhausted else count
        best = value if best is None else min(best, value)
    return best if best is not None else math.inf


def elem_sub(alg, x: dict, y: dict) -> dict:
    """x - y for elements of ``alg``."""
    return alg.elem_add(x, alg.elem_scale(-1, y))


def _scalar_part(alg, elem, u):
    return elem.get(alg.idempotent_of[u], ZERO)


def _invert_local(alg, elem, u):
    """Inverse of an element of e_u A e_u with nonzero scalar part."""
    lam = _scalar_part(alg, elem, u)
    if lam == 0:
        raise ValueError("element not invertible")
    e = alg.basis_elem(alg.idempotent_of[u])
    r = elem_sub(alg, elem, alg.elem_scale(lam, e))  # radical part
    inv = alg.elem_scale(exact_div(1, lam), e)
    power = e
    for _ in range(alg.dim):  # rad^dim = 0
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
                elem_sub(alg, e, alg.elem_mul(row[s], ainv_b[s2]))
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


def direct_sum_complexes(complexes):
    complexes = [c for c in complexes if not c.is_zero()]
    if not complexes:
        raise ValueError("empty direct sum of complexes")
    alg = complexes[0].algebra
    degrees = sorted({m for c in complexes for m in c.terms})
    terms = {}
    for m in degrees:
        terms[m] = tuple(v for c in complexes for v in c.terms.get(m, ()))
    diffs = {}
    for m in degrees:
        if (m + 1) not in terms:
            continue
        rows = []
        for c in complexes:
            nt = len(c.terms.get(m + 1, ()))
            ns_all = sum(len(cc.terms.get(m, ())) for cc in complexes)
            for t in range(nt):
                rows.append([{} for _ in range(ns_all)])
        if not rows:
            continue
        row_off = 0
        col_off = 0
        for c in complexes:
            nt = len(c.terms.get(m + 1, ()))
            ns = len(c.terms.get(m, ()))
            block = c.diffs.get(m)
            if block is not None:
                for t in range(nt):
                    for s in range(ns):
                        rows[row_off + t][col_off + s] = block[t][s]
            row_off += nt
            col_off += ns
        diffs[m] = rows
    return ProjComplex(alg, terms, diffs, check=False)


def derived_nakayama_inverse(X: ProjComplex, max_len=64) -> ProjComplex:
    """nu^{-1}(X): dualise, resolve over the opposite algebra, dualise back."""
    if X.is_zero():
        return X
    alg = X.algebra
    op = opposite(alg)
    C = realize_projectives(minimize_complex(X))
    # dual complex over the opposite algebra, with degrees negated
    terms = {-m: dual_module(C.terms[m]) for m in C.degrees()}
    maps = {}
    for m, phi in C.maps.items():
        maps[-m - 1] = {v: f.transpose() for v, f in phi.items()}
    Cd = ModuleComplex(op, terms, maps)
    Cd.check()
    Qop = proj_replace(Cd, max_len)
    # dualise back: P^op_w in degree j becomes I_w in degree -j, and the
    # inverse twist reads the same entries on P_w
    terms_back = {-m: tuple(v) for m, v in Qop.terms.items()}
    diffs_back = {}
    for m, rows in Qop.diffs.items():
        # the dual of d: Qop^m -> Qop^{m+1} runs from degree -m-1 to -m
        n_src, n_tgt = len(Qop.terms[m]), len(Qop.terms[m + 1])
        diffs_back[-m - 1] = [
            [rows[t][s] for t in range(n_tgt)] for s in range(n_src)
        ]
    return minimize_complex(ProjComplex(alg, terms_back, diffs_back, check=True))


def label_signature(X: ProjComplex):
    return {m: tuple(sorted(v)) for m, v in X.terms.items()}


def nu_orbit_complexes(alg, X: ProjComplex, a: int, max_len=64):
    """[X, nu X, ..., nu^{a-1} X], each minimised."""
    out = [minimize_complex(X)]
    for _ in range(a - 1):
        out.append(derived_nakayama(out[-1], max_len))
    return out


def radical_fibers(M: QuiverRep) -> dict[int, list[list]]:
    """Spanning vectors of (M rad)_v = sum of images of outgoing arrows."""
    rad = {v: [] for v in M.dims}
    arrow_by_id = M.algebra.quiver.arrow_by_id
    for aid, mat in M.maps.items():
        for j in range(mat.cols):
            col = [mat.data[i][j] for i in range(mat.rows)]
            if any(x != 0 for x in col):
                rad[arrow_by_id[aid].src].append(col)
    return {v: span_basis(vs) for v, vs in rad.items()}


def _is_projective_cover(alg, M: QuiverRep, top) -> bool:
    # the projective cover on ``top`` surjects; it is an isomorphism iff dims
    # agree; dim P_w sums the blocks into w, so no projective is built
    return sum(len(ids) for w, _ in top for _, ids in alg._blocks_into[w]) == M.total_dim


def projective_injective_vertices_by_tops(alg) -> dict:
    """{v: w} for each vertex v whose injective I_v is projective, I_v = P_w:
    an indecomposable projective is the cover of its top, the one vertex w.
    The injectives are built as modules and their tops read off the radical
    fibers."""
    out = {}
    for v in alg.vertex_ids():
        I = alg.injective(v)
        top = _top(alg.vertex_ids(), I.dims, radical_fibers(I))
        if _is_projective_cover(alg, I, top):
            out[v] = top[0][0]
    return out


def self_injective_by_tops(alg) -> bool:
    """Every injective I_z is the projective P_w at the one vertex w of its
    top, and z -> w is a permutation of the vertices."""
    perm = {}
    for z in alg.vertex_ids():
        I = alg.injective(z)
        top = _top(alg.vertex_ids(), I.dims, radical_fibers(I))
        if len(top) != 1 or not _is_projective_cover(alg, I, top):
            return False
        perm[z] = top[0][0]
    return sorted(perm.values()) == sorted(alg.vertex_ids())


def _vector_to_chain_map(vec, slots):
    comps = {}
    for m, t, s, ids, off in slots:
        elem = {bid: vec[off + idx] for idx, bid in enumerate(ids) if vec[off + idx] != 0}
        if elem:
            comps.setdefault(m, {})[(t, s)] = elem
    return comps


def complexes_isomorphic(X, Y, tries=60):
    """Isomorphism test for complexes: minimise, match labels, solve.

    A degreewise-invertible chain map is sought among rational combinations
    of a cycle basis; invertibility only depends on the scalar parts, which
    are checked per degree and vertex by exact determinants.
    """
    Xm = minimize_complex(X)
    Ym = minimize_complex(Y)
    if Xm.is_zero() and Ym.is_zero():
        return True
    if label_signature(Xm) != label_signature(Ym):
        return False
    slots, dim0 = _hom_slots(Xm, Ym, 0)
    delta0 = _delta_matrix(Xm, Ym, 0, (slots, dim0), _hom_slots(Xm, Ym, 1))
    cycles = delta0.nullspace() if dim0 else []
    if not cycles:
        return Xm.is_zero()

    def scalar_blocks(vec):
        comps = _vector_to_chain_map(vec, slots)
        blocks = []
        for m, vs in Xm.terms.items():
            by_vertex = {}
            for idx, u in enumerate(vs):
                by_vertex.setdefault(u, []).append(idx)
            for u, idxs in by_vertex.items():
                mat = ExactMatrix(len(idxs), len(idxs))
                for i, t in enumerate(idxs):
                    for j, s in enumerate(idxs):
                        elem = comps.get(m, {}).get((t, s), {})
                        mat.data[i][j] = _scalar_part(Xm.algebra, elem, u)
                blocks.append(mat)
        return blocks

    def invertible(vec):
        return all(b.rank() == b.rows for b in scalar_blocks(vec))

    for vec in cycles:
        if invertible(vec):
            return True
    seeds = [(i + 2) for i in range(tries)]
    for t in seeds:
        vec = [ZERO] * dim0
        w = 1
        for cyc in cycles:
            for i, x in enumerate(cyc):
                vec[i] += w * x
            w = (w * t) % 1000003
        if invertible(vec):
            return True
    return False


def element_action(M: QuiverRep, elem, src, tgt) -> ExactMatrix:
    """Right action on M of an element of e_tgt A e_src, from the fiber at
    tgt to the fiber at src: the sum of its scaled basis actions."""
    out = ExactMatrix(M.dims[src], M.dims[tgt])
    for bid, c in elem.items():
        out = out.add(M.basis_action(bid).scale(c))
    return out


def _ext_from_resolution(alg, R: ProjComplex, N: QuiverRep, i: int) -> int:
    def hom_dim_at(j):
        return sum(N.dims[u] for u in R.terms.get(-j, ()))

    def delta(j):
        """Hom(R^{-j}, N) -> Hom(R^{-j-1}, N), precomposition with d."""
        src_labels = R.terms.get(-j, ())
        tgt_labels = R.terms.get(-j - 1, ())
        rows_out = sum(N.dims[u] for u in tgt_labels)
        cols_in = sum(N.dims[u] for u in src_labels)
        m = ExactMatrix(rows_out, cols_in)
        d = R.diffs.get(-j - 1)
        if d is None:
            return m
        col_off = 0
        col_offsets = []
        for u in src_labels:
            col_offsets.append(col_off)
            col_off += N.dims[u]
        row_off = 0
        for s2, u2 in enumerate(tgt_labels):
            for t, u in enumerate(src_labels):
                elem = d[t][s2]
                if elem:
                    act = element_action(N, elem, u2, u)
                    for a in range(act.rows):
                        for b in range(act.cols):
                            m.data[row_off + a][col_offsets[t] + b] = act.data[a][b]
            row_off += N.dims[u2]
        return m

    dim_i = hom_dim_at(i)
    if dim_i == 0:
        return 0
    rank_out = delta(i).rank()
    rank_in = delta(i - 1).rank() if i >= 1 else 0
    return dim_i - rank_out - rank_in


def ext_dim(alg, M: QuiverRep, N: QuiverRep, i: int, max_len=64) -> int:
    """dim Ext^i(M, N) from a minimal resolution of M."""
    if i < 0:
        raise ValueError("negative Ext degree")
    R = minimal_proj_resolution(alg, M, max_len=max(max_len, i + 1))
    return _ext_from_resolution(alg, R, N, i)


def hom_space(M: QuiverRep, N: QuiverRep) -> tuple[int, list[dict[int, ExactMatrix]]]:
    """Dimension and basis of the intertwiner space Hom(M, N), exactly."""
    if M.algebra is not N.algebra:
        raise ValueError("modules over different algebras")
    alg = M.algebra
    offsets = {}
    total = 0
    for v in alg.vertex_ids():
        offsets[v] = total
        total += N.dims[v] * M.dims[v]
    rows = []
    for a in alg.quiver.arrows:
        u, w = a.src, a.tgt
        RM, RN = arrow_map(M, a), arrow_map(N, a)
        # phi_u RM - RN phi_w = 0, an (N_u x M_w)-matrix of equations
        for i in range(N.dims[u]):
            for j in range(M.dims[w]):
                row = [ZERO] * total
                for k in range(M.dims[u]):
                    if RM.data[k][j] != 0:
                        row[offsets[u] + i * M.dims[u] + k] += RM.data[k][j]
                for k in range(N.dims[w]):
                    if RN.data[i][k] != 0:
                        row[offsets[w] + k * M.dims[w] + j] -= RN.data[i][k]
                if any(x != 0 for x in row):
                    rows.append(row)
    if rows:
        kernel = ExactMatrix.from_rows(rows).nullspace()
    else:
        kernel = ExactMatrix.identity(total).data if total else []
    basis = []
    for vec in kernel:
        phi = {}
        for v in alg.vertex_ids():
            m = ExactMatrix(N.dims[v], M.dims[v])
            for i in range(N.dims[v]):
                for j in range(M.dims[v]):
                    m.data[i][j] = vec[offsets[v] + i * M.dims[v] + j]
            phi[v] = m
        basis.append(phi)
    return len(basis), basis


def check_associative(fd):
    """Exhaustive check over composable basis triples."""
    for (j, i), left_ids in fd.blocks.items():
        for (k, j2), mid_ids in fd.blocks.items():
            if j2 != j:
                continue
            for (l, k2), right_ids in fd.blocks.items():
                if k2 != k:
                    continue
                for a in left_ids:
                    for b in mid_ids:
                        for c in right_ids:
                            ab_c = fd.elem_mul(
                                fd.mult.get((a, b), {}), fd.basis_elem(c)
                            )
                            a_bc = fd.elem_mul(
                                fd.basis_elem(a), fd.mult.get((b, c), {})
                            )
                            if ab_c != a_bc:
                                raise AssertionError(
                                    f"associativity fails on ({a}, {b}, {c})"
                                )


def cone_of_chain_map(alg, X, Y, f):
    """cone(f: X -> Y): degree m holds X^{m+1} + Y^m."""
    terms = {}
    degrees = sorted(set([m - 1 for m in X.terms] + list(Y.terms)))
    for m in degrees:
        part = tuple(X.terms.get(m + 1, ())) + tuple(Y.terms.get(m, ()))
        if part:
            terms[m] = part
    diffs = {}
    for m in degrees:
        if (m + 1) not in terms:
            continue
        nx_s, ny_s = len(X.terms.get(m + 1, ())), len(Y.terms.get(m, ()))
        nx_t, ny_t = len(X.terms.get(m + 2, ())), len(Y.terms.get(m + 1, ()))
        rows = [[{} for _ in range(nx_s + ny_s)] for _ in range(nx_t + ny_t)]
        dX = X.diffs.get(m + 1)
        if dX is not None:
            for t in range(nx_t):
                for s in range(nx_s):
                    rows[t][s] = alg.elem_scale(-1, dX[t][s])
        fm = f.get(m + 1, {})
        for (t, s), elem in fm.items():
            rows[nx_t + t][s] = elem
        dY = Y.diffs.get(m)
        if dY is not None:
            for t in range(ny_t):
                for s in range(ny_s):
                    rows[nx_t + t][nx_s + s] = dY[t][s]
        diffs[m] = rows
    return ProjComplex(alg, terms, diffs, check=True)


def _dense(fd, elem):
    vec = [ZERO] * fd.dim
    for k, v in elem.items():
        vec[k] = v
    return vec


def radical_powers_dense(fd):
    """rad^1, rad^2, ..., []: every element of rad^k times every basis
    element other than the idempotents, reduced on dense vectors."""

    def reduce(elems):
        vectors = [_dense(fd, e) for e in elems if e]
        return [{k: v for k, v in enumerate(vec) if v != 0} for vec in span_basis(vectors)]

    rad = [bid for bid in range(fd.dim) if bid not in fd.idempotent_of.values()]
    powers = [reduce([fd.basis_elem(b) for b in rad])]
    while True:
        prev = powers[-1]
        nxt = reduce([fd.elem_mul(x, fd.basis_elem(b)) for x in prev for b in rad])
        powers.append(nxt)
        if not nxt:
            return powers
        if len(nxt) == len(prev):
            raise ValueError("radical not nilpotent")


def gabriel_quiver_dense(fd):
    """Arrows ``(id, src, tgt, label)`` and arrow elements of the Gabriel
    quiver: a greedy pass over the basis elements of the off-diagonal
    blocks, in (target, source) order, keeps each one outside the span of
    rad^2 and of those kept before it, all as dense vectors of the whole
    algebra."""
    blocks = sorted((tgt, src, ids) for (src, tgt), ids in fd.blocks.items())
    units = [(i, j, bid) for i, j, ids in blocks if i != j for bid in ids]
    rad2 = [_dense(fd, e) for e in radical_powers_dense(fd)[1]]
    kept = extend_basis(rad2, [_dense(fd, fd.basis_elem(bid)) for _, _, bid in units])
    arrows = [(aid, units[k][1], units[k][0], f"x{aid}") for aid, k in enumerate(kept)]
    return arrows, [fd.basis_elem(units[k][2]) for k in kept]


def path_from_entries(d: int, n: int, entries) -> LatticePath:
    """Path in L_{d,n} with horizontal steps at the given labels, built
    through its ordered sequence rather than read from the path table."""
    return from_coords(OrderedSeq(n + 1, d, tuple(entries)))


def below(p1: LatticePath, p2: LatticePath) -> bool:
    """True iff p1 lies weakly below p2 (columnwise)."""
    if (p1.d, p1.n) != (p2.d, p2.n):
        raise ValueError("paths live in different grids")
    return all(a <= b for a, b in zip(p1.column_heights(), p2.column_heights()))


def skew_cells(p1: LatticePath, p2: LatticePath) -> set[tuple[int, int]]:
    """Unit cells between p1 and p2 (p1 below p2), as bottom-left corners."""
    h1 = p1.column_heights()
    h2 = p2.column_heights()
    return {(i, j) for i in range(p1.d) for j in range(h1[i], h2[i])}


def append_horizontal(path: LatticePath) -> LatticePath:
    """Widen the grid by one column, leaving through a final H step."""
    return LatticePath(path.d + 1, path.n, path.steps + "H")


def dyck_orbit_representative(path: LatticePath) -> tuple[LatticePath, int]:
    """The unique Dyck path in the rotation orbit, and the k rotating it back.

    Returns (rep, k) with rotate_pow(rep, k) == path and 0 <= k < d+n.
    """
    if math.gcd(path.n, path.d) != 1:
        raise ValueError("orbit representatives need gcd(n, d) = 1")
    for k in range(path.d + path.n):
        candidate = rotate_pow(path, -k)
        if is_dyck(candidate):
            return candidate, k
    raise AssertionError(f"no Dyck path in the orbit of {path}")  # unreachable


def delta_prime_set(d: int, n: int, i: int) -> list[GridPoint]:
    """Lattice points weakly above the bent curve at (d, n), indexed dually.

    A point (x, y) belongs to slice i when (d+1-x) + (n-y) = i.  The origin
    is excluded; (d+1, n) is a member.
    """
    if not 0 <= i <= n + d:
        raise ValueError(f"index i={i} out of range [0, {n + d}]")
    points = []
    for x in range(0, d + 2):
        y = n - (i - (d + 1 - x))
        if not 0 <= y <= n or (x, y) == (0, 0):
            continue
        if (x, y) == (d + 1, n) or (x <= d and Fraction(y) >= Fraction(n, d) * x):
            points.append(GridPoint(x, y))
    return points


def slope_intercept(d: int, n: int, x: int, y: int) -> Fraction:
    """x-intercept of the slope-n/d line through (x, y), exactly."""
    return Fraction(x) - Fraction(d, n) * y


def anchor_data_by_fractions(path: LatticePath) -> AnchorData:
    """``hatilt.pathcomb.anchor_data`` with every slope quantity a ``Fraction``."""
    d = path.d - 1
    n = path.n
    if d < 1:
        raise ValueError("anchor data needs a path in a widened grid L_{d+1,n} with d >= 1")
    if math.gcd(n, d) != 1:
        raise ValueError(f"anchor data needs gcd(n, d) = 1, got n={n}, d={d}")

    pts = path.points()
    xints = [slope_intercept(d, n, x, y) for x, y in pts]
    best = min(xints)
    anchor_idx = xints.index(best)
    if best == 0 and (d, n) in pts:
        anchor_idx = pts.index((d, n))
    anchor = GridPoint(*pts[anchor_idx])

    mu = Fraction(0)
    for k in range(anchor_idx + 1, len(pts) - 1):
        if path.steps[k - 1] == "V" and path.steps[k] == "H":
            t = xints[k] - best
            if not 0 < t:
                raise AssertionError(f"anchor minimality violated at {pts[k]} on {path}")
            if t < 1:
                w = Fraction(n, d) * (1 - t)
                mu += w * w
    # equal to the integer overshoot only if d^2 mu is a whole number
    return AnchorData(anchor, anchor.y, mu, mu * d * d)


def lies_below_bent_curve_by_fractions(point: GridPoint, path: LatticePath) -> bool:
    """Whether every point of a path of L_{d+1,n} is weakly below the bent
    slope curve at D, with ``Fraction`` bounds: the curve climbs with slope
    n/d into D = (x, y), runs horizontally to (x+1, y), then climbs with
    slope n/d again."""
    d = path.d - 1
    n = path.n
    x0, y0 = point.x, point.y
    for px, py in path.points():
        if px <= x0:
            bound = Fraction(y0) + Fraction(n, d) * (px - x0)
        elif px >= x0 + 1:
            bound = Fraction(y0) + Fraction(n, d) * (px - x0 - 1)
        else:  # pragma: no cover - lattice x is never strictly inside (x0, x0+1)
            bound = Fraction(y0)
        if py > bound:
            return False
    return True


def region_contains(point: GridPoint, path: LatticePath) -> bool:
    """Membership of a path of L_{d+1,n} in the region at D = (x, y)."""
    d = path.d - 1  # base_path validates D
    return below(base_path(point, d, path.n), path) and lies_below_bent_curve_by_fractions(
        point, path
    )


def region_paths_by_fractions(point: GridPoint, d: int, n: int) -> list[LatticePath]:
    """``hatilt.pathcomb.region_paths``, testing each path against a fresh base
    path and the ``Fraction`` bent curve."""
    return [
        p
        for p in enumerate_all(d + 1, n)
        if below(base_path(point, d, n), p) and lies_below_bent_curve_by_fractions(point, p)
    ]


def delta_set_by_fractions(d: int, n: int, i: int) -> list[GridPoint]:
    """``hatilt.pathcomb.delta_set`` with a ``Fraction`` slope test."""
    if not 0 <= i <= n + d:
        raise ValueError(f"index i={i} out of range [0, {n + d}]")
    points = []
    for x in range(0, d + 2):
        y = i - x
        if not 0 <= y <= n or (x, y) == (d + 1, n):
            continue
        if (x, y) == (0, 0) or (x >= 1 and Fraction(y) <= Fraction(n, d) * (x - 1)):
            points.append(GridPoint(x, y))
    return points


def s_region(point: GridPoint, d: int, n: int) -> list[LatticePath]:
    """Paths of the region at (0, 0) passing through D, sorted by coordinates."""
    origin = GridPoint(0, 0)
    return [
        p
        for p in region_paths(origin, d, n)
        if (point.x, point.y) in p.points()
    ]


def compose_nonzero(u1: ShiftedModule, u2: ShiftedModule, u3: ShiftedModule) -> bool:
    """Whether the composite of the basis morphisms u1 -> u2 -> u3 is nonzero.

    Only the equal-shift case is combinatorial.  If either leg vanishes the
    composite is zero; ``hom_dim`` rejects objects over different models.
    """
    first, second = hom_dim(u1, u2), hom_dim(u2, u3)
    if not u1.shift == u2.shift == u3.shift:
        raise ValueError("compose_nonzero handles degree-0 morphisms only")
    if first == 0 or second == 0:
        return False
    return preceq(coords(u1.path), coords(u3.path))


def entry_for(cert: GenerationCertificate, path: LatticePath) -> CertificateEntry:
    """The entry of ``cert`` that covers ``path``; KeyError if none does."""
    for e in cert.entries:
        if e.path == path:
            return e
    raise KeyError(path)


def nakayama_pow(u: ShiftedModule, k: int) -> ShiftedModule:
    """The k-th Serre twist of u, k >= 0, one ``nakayama`` step at a time."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    for _ in range(k):
        u = nakayama(u)
    return u


def is_projective_at_zero(u: ShiftedModule) -> bool:
    return u.shift == 0 and u.path.steps[0] == "H"


def is_injective_at_zero(u: ShiftedModule) -> bool:
    return u.shift == 0 and u.path.steps[-1] == "H"


# the coprime models with d + n <= 8, which the differential tests sweep
COPRIME_UP_TO_8 = [
    (d, n) for d in range(1, 8) for n in range(1, 9 - d) if math.gcd(d, n) == 1
]


def rigidity_check_by_hom_dim(d: int, n: int) -> RigidityReport:
    """``hatilt.cluster.rigidity_check``, one ``hom_dim`` call per query."""
    summands = tilting_summands(d, n)
    end_dim = 0
    violations = []
    pairs = 0
    for u in summands:
        for v in summands:
            pairs += 1
            end_dim += hom_dim(u, v)
            # morphisms into v[k] need d * (shift difference) + k in {0, d},
            # so only these two k are in play; both are multiples of d
            s = v.shift - u.shift
            for k in (-d * s, d * (1 - s)):
                if k == 0:
                    continue
                if hom_dim(u, ShiftedModule(v.path, v.shift + k // d)):
                    violations.append((u, v, k))
    return RigidityReport(d, n, not violations, end_dim, pairs, tuple(violations))


def serre_symmetry_by_hom_dim(d: int, n: int):
    """``hatilt.cluster.serre_symmetry_check``, one ``hom_dim`` call per query."""
    summands = tilting_summands(d, n)
    for u in summands:
        twisted = nakayama(u)
        for v in summands:
            if hom_dim(u, v) != hom_dim(v, twisted):
                return u, v
    return None


def run_claims_group_by_group(d: int, n: int, config=None):
    """``run_claims`` over every claim as two calls, the claims outside
    ``RESOLUTION_CLAIMS`` and then those.  Each call selects one group, so
    neither forks: a monkeypatch in this process sees every call that one
    forked run makes in its two processes, each on its own model."""
    first, failed, skipped = run_claims(
        d, n, [name for name in CLAIM_NAMES if name not in RESOLUTION_CLAIMS], config
    )
    second, failed2, skipped2 = run_claims(d, n, RESOLUTION_CLAIMS, config)
    rank = {name: i for i, name in enumerate(CLAIM_NAMES)}
    claims = sorted(first + second, key=lambda c: rank[c["name"]])
    return claims, failed or failed2, skipped or skipped2


def plant_shift_blind_rule(monkeypatch):
    """Make the Hom rule forget shifts, in its pairwise form and in the box
    form the summand checks read: Hom(u, v) is 1 exactly when the
    coordinates of u and v interleave, whatever the shifts.  This gives
    Hom(u, u[d]) = 1 and breaks the twist symmetry."""
    real = hatilt.cluster._hom_rule
    monkeypatch.setattr(
        hatilt.cluster, "_hom_rule", lambda a, b: real((0,) + a[1:], (0,) + b[1:])
    )

    def hom_support(a, by_entries, top):
        up = _box_mask(by_entries, interleaving_up_box(a[1], top))
        return up, up

    def cohom_support(b, by_entries, top):
        down = _box_mask(by_entries, interleaving_down_box(b[1]))
        return down, down

    monkeypatch.setattr(hatilt.cluster, "_hom_support", hom_support)
    monkeypatch.setattr(hatilt.cluster, "_cohom_support", cohom_support)


def interleaving_agreement_by_pairs(d: int, n: int):
    """``hatilt.verify.claim_interleaving_agreement`` as a test of every pair."""
    # relation R on column heights against preceq on coordinates
    labels = [(p.column_heights(), coords(p).entries) for p in enumerate_all(d, n)]
    pairs = 0
    for h1, x1 in labels:
        for h2, x2 in labels:
            pairs += 1
            if heights_related(h1, h2) != interleaves(x1, x2):
                return False, {"pairs": pairs}
    return True, {"pairs": pairs}


def hom_complex_dim_per_shift(X, Y, k=0):
    """``hatilt.complexes.hom_complex_dim`` as one query per shift: three slot
    lists, two delta matrices and two ranks, whatever the degrees."""
    if X.is_zero() or Y.is_zero():
        return 0
    below, here, above = (_hom_slots(X, Y, j) for j in (k - 1, k, k + 1))
    delta_k = _delta_matrix(X, Y, k, here, above)
    delta_km1 = _delta_matrix(X, Y, k - 1, below, here)
    return here[1] - delta_k.rank() - delta_km1.rank()


def replace_all_vertices(C: ModuleComplex, max_len, label, quotient=True):
    """A complex Q of projectives and a chain map psi: Q -> C with acyclic cone.

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

    With ``quotient=False`` the generators span all of Z^m: Q is then
    quasi-isomorphic to C but in general not minimal, and
    ``minimize_complex`` strips it to the complex the quotient builds.
    """
    alg = C.algebra
    vertices = alg.vertex_ids()
    degs = [m for m in C.degrees() if C.terms[m].total_dim > 0]
    terms, diffs, psi = {}, {}, {}
    if not degs:
        return terms, diffs, psi
    low, m = degs[0], degs[-1]
    # labels: the summands of Q^{m+1}; free[y] and nq[y]: the free columns of
    # Z^{m+1} at y and the length of its Q^{m+2} part; cover[y]: the columns
    # of Q^{m+1} -> Z^{m+1} at y
    labels, free, nq = [], {y: [] for y in vertices}, {y: 0 for y in vertices}
    cover = {y: [] for y in vertices}
    while m >= low or labels:
        Cm, dC = C.terms.get(m), C.maps.get(m)
        acts = {}

        def image(g, bid, y):
            """Ambient coordinates at y of g . b for the basis element b = bid."""
            out = _act_on_elements(alg, g[0], alg.basis_elem(bid), y, labels)
            if Cm is not None:
                if bid not in acts:
                    acts[bid] = Cm.basis_action(bid)
                out += acts[bid].apply(g[1])
            return out

        kernel, elems, rad = {}, {}, {y: [] for y in vertices}
        for y in vertices:
            dims = Cm.dims[y] if Cm is not None else 0
            d = dC.get(y) if dC is not None else None  # a missing map is zero
            cols = cover[y] + [
                [-d.data[f - nq[y]][j] if d is not None and f >= nq[y] else ZERO for f in free[y]]
                for j in range(dims)
            ]
            kernel[y] = _from_columns(len(free[y]), cols).nullspace() if cols else []
            nq[y] = sum(len(alg.blocks.get((y, w), [])) for w in labels)
            elems[y] = [(_split(alg, k, y, labels), k[nq[y] :]) for k in kernel[y]]
        free = {y: [max(i for i, x in enumerate(k) if x) for k in kernel[y]] for y in vertices}
        for a in alg.quiver.arrows:
            for g in elems[a.tgt]:
                img = image(g, alg.arrow_elem[a.id], a.src)
                coords = [img[i] for i in free[a.src]]
                if any(x != 0 for x in coords):
                    rad[a.src].append(coords)
        for y, d in C.maps.get(m - 1, {}).items() if quotient else ():
            for j in range(d.cols):
                vec = [ZERO] * nq[y] + [row[j] for row in d.data]
                coords = [vec[i] for i in free[y]]
                if any(x != 0 for x in coords):
                    rad[y].append(coords)
        top = _top(vertices, {y: len(kernel[y]) for y in vertices}, rad)
        if top and m < low - max_len:
            raise BudgetError(f"resolution of {label} exceeds max length {max_len}")
        gens = [elems[v][c] for v, c in top]
        if gens:
            terms[m] = tuple(v for v, _ in top)
            psi[m] = [g[1] for g in gens]
            if labels:
                diffs[m] = [[g[0][t] for g in gens] for t in range(len(labels))]
        cover = {y: [] for y in vertices}
        for (v, _), g in zip(top, gens):
            for y in vertices:
                for bid in alg.blocks.get((y, v), []):
                    img = image(g, bid, y)
                    cover[y].append([img[i] for i in free[y]])
        labels = [v for v, _ in top]
        m -= 1
    return terms, diffs, psi


def _act_on_elements(alg, elems, b, y, labels):
    """Fiber coordinates at y of the summandwise products elems[t] . b."""
    out = []
    for e, w in zip(elems, labels):
        out.extend(block_coords(alg, alg.elem_mul(e, b), y, w))
    return out


def block_coords(alg, elem: dict, src: int, tgt: int) -> list:
    """The exact scalars of ``elem`` in the basis of the block (src, tgt);
    raises ValueError if it has a nonzero entry outside that block."""
    ids = alg.blocks.get((src, tgt), [])
    index = alg._block_index.get((src, tgt), {})
    vec = [ZERO] * len(ids)
    for k, v in elem.items():
        if v == 0:
            continue
        if k not in index:
            raise ValueError(f"element not supported on block ({src}, {tgt})")
        vec[index[k]] = v
    return vec


def act_by_elements(alg, vec, x, bid, y, labels):
    """``hatilt.complexes._act`` through algebra elements: split vec into one
    element per summand, multiply each by the basis element, read the
    products back in block coordinates."""
    return _act_on_elements(alg, _split(alg, vec, x, labels), alg.basis_elem(bid), y, labels)


def mult_matrix_by_elements(alg, src, tgt, left=None, right=None) -> ExactMatrix:
    """Matrix of b -> left . b . right from block ``src`` to block ``tgt``, a
    factor left as None being the unit, one product element at a time, each
    column read back through ``block_coords``; with a left factor only, this
    is the action of b on a fiber of an injective, transposed."""
    src_ids = alg.blocks.get(src, [])
    rows = len(alg.blocks.get(tgt, []))
    out = ExactMatrix(rows, len(src_ids))
    for j, bid in enumerate(src_ids):
        prod = alg.basis_elem(bid)
        if left is not None:
            prod = alg.elem_mul(left, prod)
        if right is not None:
            prod = alg.elem_mul(prod, right)
        col = block_coords(alg, prod, *tgt)
        for i in range(rows):
            out.data[i][j] = col[i]
    return out


def path_action_by_identity(M: QuiverRep, path) -> ExactMatrix:
    """``QuiverRep.path_action`` as the identity at the path's target
    multiplied by every arrow matrix in turn."""
    src, tgt = M.algebra.quiver.path_endpoints(path)
    m = ExactMatrix.identity(M.dims[tgt])
    for aid in reversed(path):
        m = arrow_map(M, M.algebra.quiver.arrow_by_id[aid]).matmul(m)
    assert m.rows == M.dims[src]
    return m


def projective_entry_maps(alg, elem, u, v):
    """Per-vertex matrices of the morphism P_u -> P_v at elem: left
    multiplication e_y A e_u -> e_y A e_v."""
    return {y: mult_matrix_by_elements(alg, (y, u), (y, v), left=elem) for y in alg.vertex_ids()}


def injective_entry_maps(alg, elem, u, v):
    """Per-vertex matrices of the morphism I_u -> I_v at elem: right
    multiplication e_v A e_y -> e_u A e_y on the dual fibers, dualised."""
    return {
        y: mult_matrix_by_elements(alg, (v, y), (u, y), right=elem).transpose()
        for y in alg.vertex_ids()
    }


def injective_sum_action_by_elements(alg, vertices, bid) -> ExactMatrix:
    """``InjectiveSum.basis_action``: on each summand I_v, the transpose of
    left multiplication by the basis element from e_src A e_v to e_tgt A e_v,
    one product element at a time, with zero blocks between summands."""
    b = alg.basis[bid]
    diagonal = [
        mult_matrix_by_elements(alg, (v, b.src), (v, b.tgt), left=alg.basis_elem(bid)).transpose()
        for v in vertices
    ]
    return _assemble_blocks(
        [
            [m if s == t else ExactMatrix(m.rows, other.cols) for s, other in enumerate(diagonal)]
            for t, m in enumerate(diagonal)
        ]
    )


def _assemble_blocks(blocks):
    if not blocks or not blocks[0]:
        return ExactMatrix(0, 0)
    row_sizes = [blocks[t][0].rows for t in range(len(blocks))]
    col_sizes = [blocks[0][s].cols for s in range(len(blocks[0]))]
    out = ExactMatrix(sum(row_sizes), sum(col_sizes))
    r0 = 0
    for t, rs in enumerate(row_sizes):
        c0 = 0
        for s, cs in enumerate(col_sizes):
            block = blocks[t][s]
            for i in range(rs):
                for j in range(cs):
                    out.data[r0 + i][c0 + j] = block.data[i][j]
            c0 += cs
        r0 += rs
    return out


def realize_complex_by_entries(X: ProjComplex) -> ModuleComplex:
    """``hatilt.complexes.realize_complex`` one entry and one vertex at a
    time: a multiplication matrix for every entry at every vertex, zero
    entries and empty blocks included, assembled into block matrices."""
    return _realize_by_entries(X, BoundQuiverAlgebra.injective, injective_entry_maps)


def realize_projectives(X: ProjComplex) -> ModuleComplex:
    """X as the complex of projective modules it stands for, built like
    ``realize_complex_by_entries``."""
    return _realize_by_entries(X, projective, projective_entry_maps)


def _realize_by_entries(X, module, entry_maps) -> ModuleComplex:
    """The module complex with ``module(alg, v)`` for each summand at v and, per
    entry e from u to v, the maps ``entry_maps(alg, e, u, v)``."""
    alg = X.algebra
    terms = {m: direct_sum([module(alg, v) for v in vs]) for m, vs in X.terms.items()}
    maps = {}
    for m, rows in X.diffs.items():
        src_vs, tgt_vs = X.terms[m], X.terms[m + 1]
        entries = [
            [entry_maps(alg, rows[t][s], us, vt) for s, us in enumerate(src_vs)]
            for t, vt in enumerate(tgt_vs)
        ]
        # a module complex keeps the vertices where both fibers are nonzero
        maps[m] = {
            y: _assemble_blocks([[e[y] for e in row] for row in entries])
            for y in alg.vertex_ids()
            if terms[m].dims[y] and terms[m + 1].dims[y]
        }
    mc = ModuleComplex(alg, terms, maps)
    mc.check()
    return mc


def resolving_sequence_eager(path: LatticePath) -> tuple[tuple[int, ...], int]:
    """``hatilt.pathcomb.resolving_sequence`` with every window's d+2 strip
    terms built by ``strip_sequence`` before the first is read."""
    d = path.d - 1
    n = path.n
    data = anchor_data(path)
    if data.h < 1 or data.mu == 0:
        raise ValueError(
            f"precondition violated: need h >= 1 and mu > 0, got h={data.h}, mu={data.mu}"
        )
    own = set(coords(path).entries)
    for v in range(1, n + d + 2):
        if v in own:
            continue
        window = tuple(sorted(own | {v}))
        position = window.index(v) + 1
        if _window_resolves_eager(window, position, d, n, data):
            return window, position
    raise RuntimeError(f"no resolving insertion found for {path}")


def _window_resolves_eager(window, position, d, n, data: AnchorData) -> bool:
    for j, term in enumerate(strip_sequence(window, d, n)):
        if d + 2 - j == position:
            continue  # the path being resolved
        term_data = anchor_data(term)
        if term_data.h > data.h:
            continue
        if term_data.h == data.h and term_data.mu < data.mu:
            continue
        return False
    return True
