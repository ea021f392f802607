"""Noncrossing partition diagrams, intertwiner matrices over multimatrix
algebras with a state, and the fusion ring of free wreath products."""

from .algebra import BasisIndex, DeltaFactor, MultiMatrixAlgebra
from .decorated import (
    DecoratedPartition,
    decorated_hom_dimension,
    enumerate_decorated,
    is_admissible,
)
from .errors import (
    BoundError,
    DomainError,
    NcwreathError,
    ShapeError,
    ValidationError,
)
from .fusion import (
    AlternatingWord,
    Word,
    WordRing,
    a_rep_trivial_multiplicity,
    dimension,
    free_product_fusion,
    fusion_product,
    involution,
    multiplicity_of_trivial,
    sorted_combination,
)
from .groups import (
    CyclicGroup,
    Group,
    IntegerGroup,
    TableGroup,
    parse_group_spec,
    parse_word_text,
)
from .partitions import (
    CompositionResult,
    Partition,
    Point,
    adjoint,
    catalan,
    compose,
    enumerate_partitions,
    identity_partition,
    is_noncrossing,
    tensor,
)
from .tensor_maps import (
    TensorMap,
    build_map,
    gram_rank,
    hom_dimension,
    verify_composition,
)

__all__ = [
    # errors
    "NcwreathError",
    "ValidationError",
    "ShapeError",
    "DomainError",
    "BoundError",
    # partitions
    "Point",
    "Partition",
    "CompositionResult",
    "is_noncrossing",
    "catalan",
    "enumerate_partitions",
    "identity_partition",
    "tensor",
    "adjoint",
    "compose",
    # groups
    "Group",
    "CyclicGroup",
    "IntegerGroup",
    "TableGroup",
    "parse_group_spec",
    "parse_word_text",
    # algebra
    "BasisIndex",
    "MultiMatrixAlgebra",
    "DeltaFactor",
    # tensor maps
    "TensorMap",
    "build_map",
    "verify_composition",
    "gram_rank",
    "hom_dimension",
    # decorated partitions
    "DecoratedPartition",
    "is_admissible",
    "enumerate_decorated",
    "decorated_hom_dimension",
    # fusion
    "Word",
    "WordRing",
    "AlternatingWord",
    "involution",
    "fusion_product",
    "dimension",
    "multiplicity_of_trivial",
    "a_rep_trivial_multiplicity",
    "free_product_fusion",
    "sorted_combination",
]

__version__ = "0.1.0"
