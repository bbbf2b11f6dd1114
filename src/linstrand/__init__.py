"""Exact combinatorial commutative algebra for edge ideals of d-partite
d-uniform clutters: the first linear strand in closed form, realized on a
relative simplicial pair; the last column of the Lyubeznik table of the cover
ideal; a combinatorial linear-resolution test; and a Hochster-formula Betti
oracle that everything is checked against."""

from .clutters import (
    Clutter,
    VertexTable,
    complete_clutter,
    d_partite_complement,
    ferrers_clutter,
    from_point_configuration,
    independent_sets,
    minimal_vertex_covers,
    random_clutter,
    ranked_projection,
    restrict,
)
from .errors import ConsistencyError, SizeGuardError
from .hochster import BettiTable, betti_table, is_linear_by_betti, linear_strand_betti, multigraded_betti
from .ideals import SquarefreeIdeal, alexander_dual, edge_ideal, linkage_ideal, squarefree_colon
from .linalg import GF2, QQ, ChainComplex, Field, Matrix, gf, homology_dims, rank
from .linearity import LinearityVerdict, ProjectionCertificate, complement_linearity_agrees, is_linear
from .lyubeznik import CrossCheckReport, LyubeznikColumn, cross_check_betti, lyubeznik_last_column
from .simplicial import (
    SimplicialComplex,
    SimplicialPair,
    chain_complex,
    f_vector,
    part_deficient_complex,
    relative_chain_complex,
    strand_support_pair,
)
from .strand import StrandComplex, StrandEntry, SupportReport, first_linear_strand, strand_homology_at, verify_support

__version__ = "0.1.0"
