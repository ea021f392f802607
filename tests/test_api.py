"""The public surface: every exported name resolves, the definition
oracles and test-only helpers stay out of the package, and every size,
count and bound a caller passes obeys one integer rule."""

from __future__ import annotations

import importlib
import json
import re

import pytest

import ncwreath
from ncwreath.algebra import MultiMatrixAlgebra
from ncwreath.decorated import decorated_hom_dimension, enumerate_decorated
from ncwreath.errors import BoundError, ValidationError, _check_cost
from ncwreath.groups import CyclicGroup, Group, IntegerGroup, TableGroup
from ncwreath.partitions import (
    Partition,
    catalan,
    check_point_bound,
    enumerate_partitions,
    identity_partition,
)
from ncwreath.tensor_maps import TensorMap, build_map, hom_dimension, map_matrix, verify_composition

MODULES = [
    "ncwreath",
    "ncwreath.algebra",
    "ncwreath.decorated",
    "ncwreath.errors",
    "ncwreath.fusion",
    "ncwreath.groups",
    "ncwreath.partitions",
    "ncwreath.tensor_maps",
]

#: Names the package no longer defines, per module.
REMOVED_NAMES = {
    "ncwreath": ["delta_coefficient", "multi_index"],
    "ncwreath.tensor_maps": ["delta_coefficient", "multi_index", "_mul_chain", "_psi",
                             "_star", "_product", "_ONE", "_ZERO", "GRAM_RANK_THRESHOLD"],
    "ncwreath.fusion": ["concat", "fuse_words"],
    "ncwreath.groups": ["_ASSOCIATIVITY_FULL_CHECK_MAX", "_ASSOCIATIVITY_SAMPLES", "random"],
}
EVERY_REMOVED_NAME = {name for names in REMOVED_NAMES.values() for name in names}

REMOVED_ATTRIBUTES = [
    (MultiMatrixAlgebra, ["mul_basis", "basis_position", "check_index", "state_value",
                          "normalization", "inner_product"]),
    (Group, ["is_finite", "product"]),
    (CyclicGroup, ["is_finite"]),
    (IntegerGroup, ["is_finite"]),
    (TableGroup, ["is_finite"]),
    (TensorMap, ["upper", "lower"]),
    (Partition, ["points"]),
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


@pytest.mark.parametrize("module", MODULES)
def test_removed_names_are_not_exported(module):
    mod = importlib.import_module(module)
    assert not EVERY_REMOVED_NAME & set(mod.__all__)
    assert [name for name in REMOVED_NAMES.get(module, []) if hasattr(mod, name)] == []


@pytest.mark.parametrize(
    "cls,names", REMOVED_ATTRIBUTES, ids=[cls.__name__ for cls, _ in REMOVED_ATTRIBUTES]
)
def test_removed_attributes_are_gone(cls, names):
    assert [name for name in names if hasattr(cls, name)] == []


def test_gram_rank_takes_no_threshold():
    with pytest.raises(TypeError):
        ncwreath.gram_rank([], threshold=0.5)


@pytest.mark.parametrize("option", ["t_p", "t_q", "t_qp"])
def test_verify_composition_takes_no_prebuilt_maps(option):
    diagram = Partition.from_dict({"upper": 1, "lower": 1, "blocks": [["u1", "l1"]]})
    algebra = MultiMatrixAlgebra((1,), ((1.0,),))
    with pytest.raises(TypeError):
        ncwreath.verify_composition(algebra, diagram, diagram, **{option: None})


M2 = MultiMatrixAlgebra((2,), ((0.5, 0.5),))
CUP = Partition.from_dict({"upper": 0, "lower": 2, "blocks": [["l1", "l2"]]})
Z2 = CyclicGroup(2)

#: name in the message, its minimum, and a call taking the value under test
GUARDED = {
    "enumerate_partitions upper": ("upper", 0, lambda v: enumerate_partitions(v, 1)),
    "enumerate_partitions lower": ("lower", 0, lambda v: enumerate_partitions(1, v)),
    "enumerate_partitions max_points": (
        "max_points", 0, lambda v: enumerate_partitions(3, 1, max_points=v)),
    "check_point_bound max_points": ("max_points", 0, lambda v: check_point_bound(1, 1, v)),
    "hom_dimension upper": ("upper", 0, lambda v: hom_dimension(v, 1)),
    "hom_dimension max_points": ("max_points", 0, lambda v: hom_dimension(1, 1, max_points=v)),
    "identity_partition": ("k", 0, identity_partition),
    "catalan": ("n", 0, catalan),
    "Partition upper": ("'upper'", 0, lambda v: Partition(v, 0, [])),
    "Partition lower": ("'lower'", 0, lambda v: Partition(0, v, [])),
    "decorated_hom_dimension max_points": (
        "max_points", 0, lambda v: decorated_hom_dimension(Z2, (0, 1), (1, 0), max_points=v)),
    "enumerate_decorated max_points": (
        "max_points", 0, lambda v: enumerate_decorated(Z2, (0, 1), (1, 0), max_points=v)),
    "build_map max_entries": ("max_entries", 0, lambda v: build_map(M2, CUP, max_entries=v)),
    "TensorMap.dense max_entries": ("max_entries", 0, lambda v: build_map(M2, CUP).dense(v)),
    "map_matrix max_entries": ("max_entries", 0, lambda v: map_matrix(M2, CUP, max_entries=v)),
    "verify_composition max_entries": (
        "max_entries", 0, lambda v: verify_composition(M2, CUP, identity_partition(2),
                                                        max_entries=v)),
    "MultiMatrixAlgebra block size": (
        "block size", 1, lambda v: MultiMatrixAlgebra((v,), ((1.0,),))),
    "CyclicGroup order": ("cyclic group order", 1, CyclicGroup),
}
BAD_VALUES = [2.5, True, None, "3", -1]


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("name,minimum,call", GUARDED.values(), ids=GUARDED)
def test_sizes_counts_and_bounds_are_exact_ints(name, minimum, call, value):
    if type(value) is int:
        expected = f"{name} must be >= {minimum}, got {value}"
    else:
        expected = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
        call(value)


@pytest.mark.parametrize("rows", [(0, 0), (1, 2), (3, 1), (True, 2), (2, False)], ids=repr)
def test_enumerated_and_identity_diagrams_round_trip_through_json(rows):
    # a bool row would write "upper": true, which from_dict refuses
    try:
        diagrams = enumerate_partitions(*rows) + [identity_partition(rows[0])]
    except ValidationError:
        assert any(type(r) is not int for r in rows)
        return
    for p in diagrams:
        assert Partition.from_dict(json.loads(json.dumps(p.to_dict()))) == p


@pytest.mark.parametrize("bound", [0, 1, 16, 2**24, 10**39, 10**40 - 1])
@pytest.mark.parametrize("count", [10**40, 60.5], ids=["exact", "log10 estimate"])
def test_no_bound_below_the_exact_range_is_an_estimate(count, bound):
    with pytest.raises(BoundError) as raised:
        _check_cost("request", count, 1, "entries", bound)
    assert str(raised.value).endswith(f"over the bound of {bound:,} entries")


@pytest.mark.parametrize("bound", [15.5, 1e3, 10.0**39])
def test_a_float_bound_is_refused_not_read_as_a_log10(bound):
    with pytest.raises(ValidationError, match="^max_entries must be an integer"):
        build_map(M2, CUP, max_entries=bound)
