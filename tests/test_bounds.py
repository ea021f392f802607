"""Every resource bound refuses in the one message shape, within a second
and before it allocates what it predicts: one case per bound, and the
requests whose refusal must come before their work (a dense matrix before
its map is built, a huge diagram count before its digits are formed). The
memory bound of an enumeration counts its memo, and a list only for callers
that return one."""

from __future__ import annotations

import json
import re
import sys
import time
import tracemalloc

import pytest

from ncwreath import cli, partitions
from ncwreath.algebra import MultiMatrixAlgebra
from ncwreath.decorated import decorated_hom_dimension, enumerate_decorated
from ncwreath.errors import BoundError
from ncwreath.groups import CyclicGroup
from ncwreath.partitions import catalan, enumerate_partitions, identity_partition
from ncwreath.tensor_maps import build_map, verify_composition

from helpers import make_partition as P

C4_UNIFORM = MultiMatrixAlgebra((1, 1, 1, 1), ((0.25,), (0.25,), (0.25,), (0.25,)))
M2_HALF = MultiMatrixAlgebra((2,), ((0.5, 0.5),))

NUMBER = r"(?:\d{1,3}(?:,\d{3})*|about 10\^\d+)"
#: ``name: count unit, ...`` or ``name: count × size unit = total unit, ...``
SHAPE = re.compile(
    rf"[^:]+: {NUMBER}(?: × {NUMBER} ([a-z]+) = {NUMBER})? ([a-z]+),"
    rf" over the bound of {NUMBER} \2"
)


def one_block(points: int):
    return P(0, points, " ".join(f"l{j}" for j in range(1, points + 1)))


def command(*argv):
    """The setup of a command line that may name ``m2.json`` (the algebra M2)
    and ``id12.json`` (the 12-strand identity), written to the test's folder."""
    files = {"m2.json": M2_HALF.to_dict(), "id12.json": identity_partition(12).to_dict()}

    def setup(tmp_path):
        for name, data in files.items():
            (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
        cli.build_parser()  # built once per process, not part of the refusal
        args = [str(tmp_path / arg) if arg in files else arg for arg in argv]
        return lambda: cli.run(args)
    return setup


# name: (is a command, setup returning the call, start of the message)
CASES = {
    "point count": (False, lambda tmp_path: lambda: enumerate_partitions(9, 9),
                    "NC(9, 9) of 477,638,700 diagrams: 18 points, over the bound of 16 points"),
    "list bytes": (False, lambda tmp_path: lambda: enumerate_partitions(35, 0, max_points=2000),
                   "list of NC(35, 0) diagrams: 3,116,285,494,907,301,262 × 535 bytes"
                   " = 1,667,212,739,775,406,175,170 bytes, over the bound of "),
    # 4^14 entries, 2 GiB, of a map with four non-zeros
    "dense matrix": (False, lambda tmp_path: build_map(C4_UNIFORM, one_block(14)).dense,
                     "dense matrix: 268,435,456 entries, over the bound of 16,777,216 entries"),
    "int64 offsets": (False, lambda tmp_path: lambda: build_map(C4_UNIFORM, one_block(32)),
                      "int64 offsets of the matrix: 18,446,744,073,709,551,616 entries,"
                      " over the bound of 9,223,372,036,854,775,808 entries"),
    "non-zeros": (False, lambda tmp_path: lambda: build_map(M2_HALF, one_block(26)),
                  "non-zeros of the map: 67,108,864 entries, over the bound of 16,777,216 entries"),
    "chain table": (False, lambda tmp_path: lambda: build_map(M2_HALF, one_block(24)),
                    "largest chain table: 16,777,216 × 24 entries = 402,653,184 entries,"
                    " over the bound of 16,777,216 entries"),
    "gram-rank stack": (True, command("tmap", "gram-rank", "--algebra", "m2.json",
                                      "--upper", "5", "--lower", "5"),
                        "Gram stack of NC(5, 5) maps: 16,796 × 1,048,576 entries"
                        " = 17,611,882,496 entries, over the bound of 16,777,216 entries"),
    # the dense size is refused before the map's 2^24 non-zeros are built
    "dense matrix before its map": (
        True, command("tmap", "build", "--algebra", "m2.json", "--partition", "id12.json"),
        f"dense matrix: {4**12:,} × {4**12:,} entries = {4**24:,} entries,"
        " over the bound of 16,777,216 entries"),
    "dense matrices before their maps": (
        False, lambda tmp_path: lambda: verify_composition(
            M2_HALF, identity_partition(12), identity_partition(12)),
        f"dense matrix: {4**12:,} × {4**12:,} entries"),
    # past the exact range only the magnitude of the diagram count is formed
    "point count of a huge request": (
        True, command("partitions", "enumerate", "--upper", "100000000000", "--lower", "0"),
        "NC(100000000000, 0) of about 10^60205999116 diagrams: 100,000,000,000 points,"
        " over the bound of 16 points"),
    "list bytes of a huge request": (
        True, command("partitions", "enumerate", "--upper", "100000000000", "--lower", "0",
                      "--max-points", "1000000000000"),
        "list of NC(100000000000, 0) diagrams: about 10^60205999116 × 800,000,000,104 bytes"
        " = about 10^60205999127 bytes, over the bound of "),
    # the exact Catalan(300,000) takes seconds to form, and 4^(10^11) longer
    "gram-rank stack of a huge request": (
        True, command("tmap", "gram-rank", "--algebra", "m2.json", "--upper", "300000",
                      "--lower", "0", "--max-points", "1000000"),
        "Gram stack of NC(300000, 0) maps: about 10^180609 × about 10^180617 entries"
        " = about 10^361227 entries, over the bound of 16,777,216 entries"),
    "gram-rank stack of a larger request": (
        True, command("tmap", "gram-rank", "--algebra", "m2.json", "--upper", "100000000000",
                      "--lower", "0", "--max-points", "1000000000000"),
        "Gram stack of NC(100000000000, 0) maps: about 10^60205999116 × about 10^60205999132"
        " entries = about 10^120411998248 entries, over the bound of 16,777,216 entries"),
}


@pytest.mark.parametrize("command,setup,expected", CASES.values(), ids=CASES)
def test_bound_refuses_at_once_in_one_shape(command, setup, expected, tmp_path, capsys):
    call = setup(tmp_path)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        if command:
            code = call()
        else:
            with pytest.raises(BoundError) as raised:
                call()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if command:
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("bound error: ") and err.endswith("\n")
        message = err[len("bound error: "):-1]
    else:
        message = str(raised.value)
    assert message.startswith(expected)
    shape = SHAPE.fullmatch(message)
    assert shape is not None and shape.group(1) in (None, shape.group(2))
    assert elapsed < 1.0
    assert peak < 1 << 16


@pytest.mark.parametrize("call,lists", [
    (lambda: enumerate_partitions(6, 6), True),
    (lambda: enumerate_decorated(CyclicGroup(2), (0,) * 6, (0,) * 6), True),
    (lambda: decorated_hom_dimension(CyclicGroup(2), (0,) * 6, (0,) * 6), False),
], ids=["enumerate_partitions", "enumerate_decorated", "decorated_hom_dimension"])
def test_memory_bound_counts_the_memo(call, lists, monkeypatch):
    # physical memory between the bytes of a list of NC(6, 6) and those of
    # the list with the enumeration's memo: a list is refused, a count is not.
    # The memo holds, for n < 12, 12 - n intervals of catalan(n) tuples of n
    # heads, each in a list slot (15.0 MB).
    slot = partitions._SLOT_BYTES
    listed = catalan(12) * (partitions._DIAGRAM_BYTES + slot * 12)
    memo = sum((12 - n) * catalan(n) * (sys.getsizeof(()) + slot * (n + 1)) for n in range(12))
    monkeypatch.setattr(partitions, "_MEMORY", listed + memo // 2)
    if lists:
        with pytest.raises(BoundError, match=r"^list of NC\(6, 6\) diagrams: 208,012 × [\d,]+"
                           r" bytes = [\d,]+ bytes, over the bound of [\d,]+ bytes$"):
            call()
    else:
        assert call() == 208_012
