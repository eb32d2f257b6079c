"""Desk-scale combinatorics and exact linear algebra for type-A higher
Auslander algebras, their Dyck-path tilting complexes and the derived
invariants of the resulting replicated endomorphism algebras."""

__version__ = "0.1.0"

from .pathcomb import (  # noqa: F401
    AnchorData,
    GridPoint,
    LatticePath,
    OrderedSeq,
    anchor_data,
    coords,
    enumerate_all,
    enumerate_dyck,
    enumerate_os,
    from_coords,
    preceq,
    relation_R,
    rotate,
    rotate_pow,
)
from .cluster import (  # noqa: F401
    ShiftedModule,
    generation_certificate,
    hom_dim,
    nakayama,
    projective_summands,
    rigidity_check,
    tilting_summands,
)
from .quiveralg import (  # noqa: F401
    BoundQuiverAlgebra,
    Quiver,
    QuiverRep,
    Relation,
    build_auslander_algebra,
    gabriel_quiver,
    module_M,
)
from .fdalg import (  # noqa: F401
    idempotent_subalgebra,
    iso_test,
    presentation_data,
    replicate,
    trivial_ext_r,
)
from .complexes import (  # noqa: F401
    ProjComplex,
    derived_nakayama,
    domdim,
    fcy_object_check,
    gldim,
    hom_complex_dim,
    minimal_proj_resolution,
    two_subhomogeneous_check,
)
