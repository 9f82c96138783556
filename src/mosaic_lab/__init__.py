"""mosaic-lab: finite bounded lattices, Nakano mosaics, polygroups and the
ortholattice <-> dualizable L-mosaic equivalence, all verified exhaustively."""

from .lattice_core import (
    AxiomReport,
    FiniteBoundedLattice,
    Involution,
    OrthoPair,
    build_from_covers,
    check_om_equivalences,
    complements,
    dual_lattice,
    find_sublattice_copy,
    generated_sublattice,
    is_distributive,
    is_modular,
    is_orthomodular,
    orthocomplementations,
)
from .hyperstructure import (
    Mosaic,
    Multioperation,
    check_morphism,
    find_neutral,
    is_associative,
    is_reproductive,
    verify_lmosaic,
    verify_mosaic,
)
from .nakano import (
    NakanoMosaic,
    additive_nakano,
    extremum_by_characterization,
    multiplicative_nakano,
)
from .equivalence import (
    DualizableLMosaicPair,
    functor_E,
    generated_polygroup_check,
    is_orthomodular_mosaic,
    morphism_transfer_check,
    reconstruct_lattice,
)
from .catalog import CatalogEntry, enumerate_lattices, enumerate_ortholattices, named

__version__ = "0.1.0"
