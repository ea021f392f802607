"""The public surface: every exported name resolves, and the definition
oracles and test-only helpers stay out of the package."""

from __future__ import annotations

import importlib

import pytest

import ncwreath
from ncwreath.algebra import MultiMatrixAlgebra
from ncwreath.groups import CyclicGroup, Group, IntegerGroup, TableGroup
from ncwreath.partitions import Partition
from ncwreath.tensor_maps import TensorMap

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
