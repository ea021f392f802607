"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from ncwreath.algebra import MultiMatrixAlgebra
from ncwreath import cli
from ncwreath.cli import COMMANDS, build_parser, main, run
from ncwreath.decorated import DecoratedPartition
from ncwreath.groups import CyclicGroup
from ncwreath.partitions import Partition, adjoint, enumerate_partitions
from ncwreath.tensor_maps import build_map

from helpers import chained_lines_algebra, cyclic_group_dict, word_dimension_from_the_right

M_PAYLOAD = {"upper": 2, "lower": 1, "blocks": [["u1", "u2", "l1"]]}
M_STAR_PAYLOAD = {"upper": 1, "lower": 2, "blocks": [["u1", "l1", "l2"]]}
ID1_PAYLOAD = {"upper": 1, "lower": 1, "blocks": [["u1", "l1"]]}

M2_UNIFORM = {"blocks": [{"size": 2, "q": [0.5, 0.5]}]}
C4_UNIFORM = {"blocks": [{"size": 1, "q": [0.25]} for _ in range(4)]}
C2_UNIFORM = {"blocks": [{"size": 1, "q": [0.5]}, {"size": 1, "q": [0.5]}]}
C2_SKEW = {"blocks": [{"size": 1, "q": [1 / 3]}, {"size": 1, "q": [2 / 3]}]}
MIXED = {
    "blocks": [
        {"size": 1, "q": [0.25]},
        {"size": 1, "q": [0.25]},
        {"size": 2, "q": [0.25, 0.25]},
    ]
}


@pytest.fixture()
def write_json(tmp_path):
    def _write(name: str, payload) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def no_int_digit_limit():
    """Read back integers longer than the interpreter's int-from-str limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestPartitionsCommands:
    def test_enumerate_count_only(self, capsys):
        code, out, err = run_cli(
            capsys, "partitions", "enumerate", "--upper", "0", "--lower", "4",
            "--count-only",
        )
        assert (code, err) == (0, "")
        assert out.strip() == "14"

    def test_enumerate_text_lists_diagrams(self, capsys):
        code, out, _ = run_cli(
            capsys, "partitions", "enumerate", "--upper", "1", "--lower", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert "u1" in lines[0]

    def test_enumerate_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "partitions", "enumerate", "--upper", "1", "--lower", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 5
        parsed = [Partition.from_dict(d) for d in payload["partitions"]]
        assert parsed == enumerate_partitions(1, 2)

    def test_enumerate_bound(self, capsys):
        code, _, err = run_cli(
            capsys, "partitions", "enumerate", "--upper", "9", "--lower", "9"
        )
        assert code == 3
        assert err.startswith("bound error:")

    @pytest.mark.parametrize("count_only", [[], ["--count-only"]])
    def test_bound_error_states_predicted_count(self, capsys, count_only):
        code, _, err = run_cli(
            capsys, "partitions", "enumerate", "--upper", "9", "--lower", "9",
            *count_only,
        )
        assert code == 3
        assert err == (
            "bound error: NC(9, 9) of 477,638,700 diagrams: 18 points, over the bound"
            " of 16 points\n"
        )

    def test_bound_error_for_huge_request(self, capsys):
        code, _, err = run_cli(
            capsys, "partitions", "enumerate", "--upper", "1000000", "--lower", "0",
            "--count-only",
        )
        assert code == 3
        assert err.startswith(
            "bound error: NC(1000000, 0) of about 10^602050 diagrams: 1,000,000 points"
        )

    def test_enumerate_past_what_a_list_holds(self, capsys):
        code, out, err = run_cli(
            capsys, "partitions", "enumerate", "--upper", "1000", "--lower", "0",
            "--max-points", "2000",
        )
        assert (code, out) == (3, "")
        assert err.startswith(
            "bound error: list of NC(1000, 0) diagrams: about 10^597 × 8,104 bytes"
            " = about 10^601 bytes, over the bound of "
        )

    def test_enumerate_raised_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "partitions", "enumerate", "--upper", "9", "--lower", "9",
            "--max-points", "18", "--count-only",
        )
        assert code == 0
        assert out.strip() == "477638700"  # catalan(18)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_count_past_int_digit_limit(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "partitions", "enumerate", "--upper", "4000", "--lower", "4000",
            "--count-only", "--max-points", "8000", "--format", fmt,
        )
        assert (code, err) == (0, "")
        with no_int_digit_limit():
            count = json.loads(out)["count"] if fmt == "json" else int(out)
        assert count == math.comb(16000, 8000) // 8001

    def test_compose_text(self, capsys, write_json):
        p = write_json("m.json", M_PAYLOAD)
        q = write_json("mstar.json", M_STAR_PAYLOAD)
        code, out, _ = run_cli(capsys, "partitions", "compose", "--p", p, "--q", q)
        assert code == 0
        assert out.splitlines() == [
            "result: u1 u2 l1 l2",
            "blocks_p: 1",
            "blocks_q: 1",
            "blocks_result: 1",
            "central_blocks: 0",
            "cycles: 0",
        ]

    def test_compose_json(self, capsys, write_json):
        p = write_json("m.json", M_PAYLOAD)
        q = write_json("mstar.json", M_STAR_PAYLOAD)
        code, out, _ = run_cli(
            capsys, "partitions", "compose", "--p", p, "--q", q, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cycles"] == 0
        assert Partition.from_dict(payload["result"]).block_count == 1

    def test_adjoint(self, capsys, write_json):
        path = write_json("m.json", M_PAYLOAD)
        code, out, _ = run_cli(
            capsys, "partitions", "adjoint", "--partition", path, "--format", "json"
        )
        assert code == 0
        got = Partition.from_dict(json.loads(out))
        assert got == adjoint(Partition.from_dict(M_PAYLOAD))

    def test_tensor(self, capsys, write_json):
        path = write_json("id1.json", ID1_PAYLOAD)
        code, out, _ = run_cli(capsys, "partitions", "tensor", "--p", path, "--q", path)
        assert code == 0
        assert out.strip() == "u1 l1 | u2 l2"

    def test_missing_file(self, capsys, write_json):
        q = write_json("mstar.json", M_STAR_PAYLOAD)
        code, _, err = run_cli(
            capsys, "partitions", "compose", "--p", "/does/not/exist.json", "--q", q
        )
        assert code == 2
        assert err.startswith("file error:")

    def test_unparsable_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "partitions", "adjoint", "--partition", str(bad)
        )
        assert code == 2
        assert err.startswith("parse error:")
        assert "bad.json" in err

    def test_crossing_partition_rejected(self, capsys, write_json):
        crossing = {"upper": 0, "lower": 4, "blocks": [["l1", "l3"], ["l2", "l4"]]}
        path = write_json("crossing.json", crossing)
        code, _, err = run_cli(capsys, "partitions", "adjoint", "--partition", path)
        assert code == 2
        assert err.startswith("parse error:")

    @pytest.mark.parametrize("size", [1.9, True, "1"])
    def test_partition_sizes_must_be_json_integers(self, capsys, write_json, size):
        path = write_json("p.json", {"upper": size, "lower": 1, "blocks": [["u1", "l1"]]})
        code, out, err = run_cli(capsys, "partitions", "adjoint", "--partition", path)
        assert (code, out) == (2, "")
        assert err.startswith("parse error:")
        assert "'upper' must be an integer" in err

    def test_algebra_block_size_must_be_a_json_integer(self, capsys, write_json):
        path = write_json("a.json", {"blocks": [{"size": 2.7, "q": [0.5, 0.5]}]})
        code, out, err = run_cli(capsys, "algebra", "check", "--algebra", path)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: block size must be an integer")

    def test_inputs_not_mutated(self, capsys, write_json):
        p = write_json("m.json", M_PAYLOAD)
        q = write_json("mstar.json", M_STAR_PAYLOAD)
        before = (open(p).read(), open(q).read())
        run_cli(capsys, "partitions", "compose", "--p", p, "--q", q)
        assert (open(p).read(), open(q).read()) == before


class TestTmapCommands:
    def test_build_text_has_legend(self, capsys, write_json):
        alg = write_json("alg.json", M2_UNIFORM)
        part = write_json("p.json", M_STAR_PAYLOAD)
        code, out, _ = run_cli(
            capsys, "tmap", "build", "--algebra", alg, "--partition", part
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "matrix: 16 x 4"
        assert lines[1].startswith("basis order (block,row,col): (1,1,1)")
        assert len(lines) == 3 + 16

    def test_build_csv_rows(self, capsys, write_json):
        alg = write_json("alg.json", C4_UNIFORM)
        part = write_json("p.json", ID1_PAYLOAD)
        code, out, _ = run_cli(
            capsys, "tmap", "build", "--algebra", alg, "--partition", part,
            "--format", "csv",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        values = [[float(x) for x in row] for row in rows]
        assert values == [
            [1.0 if i == j else 0.0 for j in range(4)] for i in range(4)
        ]

    def test_build_json_matches_library(self, capsys, write_json):
        alg_path = write_json("alg.json", M2_UNIFORM)
        part_path = write_json("p.json", M_PAYLOAD)
        code, out, _ = run_cli(
            capsys, "tmap", "build", "--algebra", alg_path, "--partition", part_path,
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        algebra = MultiMatrixAlgebra.from_dict(payload["algebra"])
        partition = Partition.from_dict(payload["partition"])
        expected = build_map(algebra, partition).matrix
        assert payload["rows"] == expected.shape[0]
        assert payload["matrix"] == expected.tolist()

    def test_build_bound(self, capsys, write_json):
        alg = write_json("alg.json", C4_UNIFORM)
        part = write_json("p.json", M_PAYLOAD)
        code, _, err = run_cli(
            capsys, "tmap", "build", "--algebra", alg, "--partition", part,
            "--max-entries", "10",
        )
        assert code == 3
        assert err.startswith("bound error:")

    def test_verify_ok(self, capsys, write_json):
        alg = write_json("alg.json", M2_UNIFORM)
        p = write_json("m.json", M_PAYLOAD)
        q = write_json("mstar.json", M_STAR_PAYLOAD)
        code, out, _ = run_cli(
            capsys, "tmap", "verify", "--algebra", alg, "--p", p, "--q", q
        )
        assert code == 0
        assert "ok: true" in out

    def test_verify_failure_exit_code(self, capsys, write_json):
        alg = write_json("alg.json", M2_UNIFORM)
        p = write_json("m.json", M_PAYLOAD)
        q = write_json("mstar.json", M_STAR_PAYLOAD)
        code, out, _ = run_cli(
            capsys, "tmap", "verify", "--algebra", alg, "--p", p, "--q", q,
            "--tolerance", "-1.0",
        )
        assert code == 1
        assert "ok: false" in out

    def test_verify_json(self, capsys, write_json):
        alg = write_json("alg.json", C4_UNIFORM)
        p = write_json("m.json", M_PAYLOAD)
        q = write_json("mstar.json", M_STAR_PAYLOAD)
        code, out, _ = run_cli(
            capsys, "tmap", "verify", "--algebra", alg, "--p", p, "--q", q,
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["deviation"] <= payload["tolerance"]
        assert payload["cycles"] == 0

    def test_verify_needs_delta_form(self, capsys, write_json):
        alg = write_json("alg.json", C2_SKEW)
        p = write_json("m.json", M_PAYLOAD)
        q = write_json("mstar.json", M_STAR_PAYLOAD)
        code, _, err = run_cli(
            capsys, "tmap", "verify", "--algebra", alg, "--p", p, "--q", q
        )
        assert code == 2
        assert err.startswith("parse error:")

    def test_gram_rank_full(self, capsys, write_json):
        alg = write_json("alg.json", C4_UNIFORM)
        code, out, _ = run_cli(
            capsys, "tmap", "gram-rank", "--algebra", alg, "--upper", "0",
            "--lower", "4",
        )
        assert code == 0
        assert out.splitlines() == ["count: 14", "rank: 14"]

    def test_gram_rank_deficient_below_dimension_four(self, capsys, write_json):
        alg = write_json("alg.json", C2_UNIFORM)
        code, out, _ = run_cli(
            capsys, "tmap", "gram-rank", "--algebra", alg, "--upper", "0",
            "--lower", "4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"upper": 0, "lower": 4, "count": 14, "rank": 8}

    @pytest.mark.parametrize(
        "shape,expected",
        [
            (["--upper", "0", "--lower", "7"], 429),
            (["--upper", "3", "--lower", "4"], 429),
            (["--upper", "4", "--lower", "4", "--max-entries", "100000000"], 1430),
        ],
    )
    def test_gram_rank_full_at_seven_and_eight_points(self, capsys, write_json, shape, expected):
        # delta = 4 is the edge of the generic range: the Gram's smallest
        # eigenvalue is 1.3e-8 of the largest at 7 points, 1.7e-10 at 8
        alg = write_json("alg.json", M2_UNIFORM)
        code, out, _ = run_cli(capsys, "tmap", "gram-rank", "--algebra", alg, *shape)
        assert code == 0
        assert out.splitlines()[-1] == f"rank: {expected}"

    def test_gram_rank_stack_bound(self, capsys, write_json):
        # each 4^10-entry map passes the per-map bound; their stack does not
        alg = write_json("alg.json", M2_UNIFORM)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "tmap", "gram-rank", "--algebra", alg, "--upper", "5", "--lower", "5"
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            "bound error: Gram stack of NC(5, 5) maps: 16,796 × 1,048,576 entries"
            " = 17,611,882,496 entries, over the bound of 16,777,216 entries\n"
        )

    def test_gram_rank_stack_bound_is_the_total(self, capsys, write_json):
        alg = write_json("alg.json", C4_UNIFORM)
        shape = ["--upper", "0", "--lower", "4"]
        code, out, _ = run_cli(
            capsys, "tmap", "gram-rank", "--algebra", alg, *shape, "--max-entries", "3584"
        )
        assert (code, out.splitlines()) == (0, ["count: 14", "rank: 14"])
        code, _, err = run_cli(
            capsys, "tmap", "gram-rank", "--algebra", alg, *shape, "--max-entries", "3583"
        )
        assert code == 3
        assert "14 × 256 entries = 3,584 entries, over the bound of 3,583 entries" in err

    def test_gram_rank_huge_stack_states_magnitudes(self, capsys, write_json):
        alg = write_json("alg.json", M2_UNIFORM)
        code, _, err = run_cli(
            capsys, "tmap", "gram-rank", "--algebra", alg, "--upper", "2000",
            "--lower", "2000", "--max-points", "4000",
        )
        assert code == 3
        assert err.startswith(
            "bound error: Gram stack of NC(2000, 2000) maps: about 10^2402 × about 10^2408"
            " entries = about 10^4810 entries"
        )


class TestAlgebraCommands:
    def test_check_frozen_output(self, capsys, write_json):
        path = write_json("m2_uniform.json", M2_UNIFORM)
        code, out, _ = run_cli(capsys, "algebra", "check", "--spec", path)
        assert code == 0
        assert out.strip() == '{"is_delta_form": true, "delta": 4.0, "factors": 1}'

    def test_check_algebra_flag_is_an_alias(self, capsys, write_json):
        path = write_json("m2_uniform.json", M2_UNIFORM)
        _, via_spec, _ = run_cli(capsys, "algebra", "check", "--spec", path)
        _, via_algebra, _ = run_cli(capsys, "algebra", "check", "--algebra", path)
        assert via_spec == via_algebra

    def test_check_not_delta_form(self, capsys, write_json):
        path = write_json("c2_skew.json", C2_SKEW)
        code, out, _ = run_cli(capsys, "algebra", "check", "--algebra", path)
        assert code == 0
        payload = json.loads(out)
        assert payload == {"is_delta_form": False, "delta": None, "factors": 2}

    def test_check_and_decompose_agree_on_chained_traces(self, capsys, write_json):
        path = write_json("chained.json", chained_lines_algebra().to_dict())
        code, out, _ = run_cli(capsys, "algebra", "check", "--spec", path)
        assert code == 0
        payload = json.loads(out)
        assert (payload["is_delta_form"], payload["factors"]) == (True, 1)
        code, out, _ = run_cli(capsys, "algebra", "decompose", "--algebra", path)
        assert (code, out.splitlines()[0]) == (0, "factors: 1")

    def test_check_requires_some_path(self, capsys):
        code, _, err = run_cli(capsys, "algebra", "check")
        assert code == 2
        assert err.startswith("parse error:")

    @pytest.mark.parametrize("q", ["1", ["0.5", "0.5"], [True]])
    def test_check_rejects_non_numeric_weights(self, capsys, write_json, q):
        size = len(q) if isinstance(q, list) else 1
        path = write_json("strings.json", {"blocks": [{"size": size, "q": q}]})
        code, out, err = run_cli(capsys, "algebra", "check", "--spec", path)
        assert (code, out) == (2, "")
        assert err.startswith("parse error:") and "number" in err

    def test_decompose_text(self, capsys, write_json):
        path = write_json("mixed.json", MIXED)
        code, out, _ = run_cli(capsys, "algebra", "decompose", "--algebra", path)
        assert code == 0
        assert out.splitlines() == [
            "factors: 2",
            "factor 1: delta=2 blocks=[1,2] sizes=[1,1]",
            "factor 2: delta=4 blocks=[3] sizes=[2]",
        ]

    def test_decompose_json_reparses(self, capsys, write_json):
        path = write_json("mixed.json", MIXED)
        code, out, _ = run_cli(
            capsys, "algebra", "decompose", "--algebra", path, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [f["delta"] for f in payload["factors"]] == [2.0, 4.0]
        assert [f["block_indices"] for f in payload["factors"]] == [[1, 2], [3]]
        for f in payload["factors"]:
            rebuilt = MultiMatrixAlgebra.from_dict(f["algebra"])
            assert rebuilt.is_delta_form() == pytest.approx(f["delta"])


class TestDecoratedCommands:
    def test_count_identity_labels(self, capsys):
        code, out, _ = run_cli(
            capsys, "decorated", "count", "--group", "cyclic:2",
            "--x", "e,e", "--y", "e,e",
        )
        assert code == 0
        assert out.strip() == "14"

    def test_count_builds_no_diagrams(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("count must not list the diagrams")

        monkeypatch.setattr(cli, "enumerate_decorated", refuse)
        code, out, _ = run_cli(
            capsys, "decorated", "count", "--group", "cyclic:2",
            "--x", "e,e,e,e", "--y", "e,e,e,e",
        )
        assert (code, out) == (0, "1430\n")

    def test_count_past_what_a_list_holds(self, capsys):
        code, out, err = run_cli(
            capsys, "decorated", "count", "--group", "cyclic:2", "--x", ",".join(["e"] * 600),
            "--y", "", "--max-points", "2000",
        )
        assert (code, out) == (3, "")
        assert err.startswith("bound error: list of NC(600, 0) diagrams: about 10^")

    def test_count_empty_lower(self, capsys):
        code, out, _ = run_cli(
            capsys, "decorated", "count", "--group", "cyclic:2", "--x", "s", "--y", ""
        )
        assert code == 0
        assert out.strip() == "0"

    def test_list_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "decorated", "list", "--group", "cyclic:2", "--x", "s", "--y", "s"
        )
        assert code == 0
        assert out.strip() == "u1=s l1=s"

    def test_list_json_reparses(self, capsys):
        code, out, _ = run_cli(
            capsys, "decorated", "list", "--group", "cyclic:3",
            "--x", "s,s2", "--y", "e", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["group"] == "cyclic:3"
        assert payload["count"] == len(payload["partitions"])
        group = CyclicGroup(3)
        for entry in payload["partitions"]:
            DecoratedPartition.from_dict(group, entry)

    def test_bad_group_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "decorated", "count", "--group", "dihedral:3", "--x", "", "--y", ""
        )
        assert code == 2
        assert err.startswith("parse error:")

    def test_bad_label(self, capsys):
        code, _, err = run_cli(
            capsys, "decorated", "count", "--group", "cyclic:2", "--x", "t", "--y", ""
        )
        assert code == 2
        assert err.startswith("parse error:")


class TestFusionCommands:
    def test_product_frozen_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "fusion", "product", "--group", "cyclic:2", "--x", "s", "--y", "s"
        )
        assert code == 0
        assert out == "∅: 1\n(e): 1\n(s,s): 1\n"

    def test_product_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "fusion", "product", "--group", "cyclic:2", "--x", "s",
            "--y", "s", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == [
            {"word": [], "mult": 1},
            {"word": ["e"], "mult": 1},
            {"word": ["s", "s"], "mult": 1},
        ]

    def test_product_empty_word(self, capsys):
        code, out, _ = run_cli(
            capsys, "fusion", "product", "--group", "cyclic:3", "--x", "", "--y", "s"
        )
        assert code == 0
        assert out == "(s): 1\n"

    def test_dim(self, capsys):
        code, out, _ = run_cli(
            capsys, "fusion", "dim", "--group", "cyclic:2", "--word", "s,s",
            "--n", "4",
        )
        assert code == 0
        assert out.strip() == "12"

    def test_dim_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "fusion", "dim", "--group", "cyclic:2", "--word", "e,e",
            "--n", "4", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "group": "cyclic:2",
            "word": ["e", "e"],
            "n": 4,
            "dimension": 5,
        }

    def test_dim_long_word(self, capsys):
        rng = random.Random(3000)
        letters = tuple(rng.randrange(2) for _ in range(3000))
        word = ",".join("s" if g else "e" for g in letters)
        code, out, err = run_cli(
            capsys, "fusion", "dim", "--group", "cyclic:2", "--word", word, "--n", "5"
        )
        assert (code, err) == (0, "")
        assert int(out) == word_dimension_from_the_right(CyclicGroup(2), letters, 5)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_dim_past_int_digit_limit(self, capsys, fmt):
        read_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = read_limit()
        code, out, err = run_cli(
            capsys, "fusion", "dim", "--group", "cyclic:2",
            "--word", ",".join(["s"] * 3000), "--n", "100", "--format", fmt,
        )
        assert (code, err) == (0, "")
        assert read_limit() == limit
        with no_int_digit_limit():
            value = json.loads(out)["dimension"] if fmt == "json" else int(out)
        assert value == word_dimension_from_the_right(CyclicGroup(2), (1,) * 3000, 100)

    def test_dim_small_n_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "fusion", "dim", "--group", "cyclic:2", "--word", "s", "--n", "3"
        )
        assert code == 2
        assert err.startswith("parse error:")

    def test_trivial_mult(self, capsys):
        code, out, _ = run_cli(
            capsys, "fusion", "trivial-mult", "--group", "cyclic:2",
            "--x", "s", "--y", "s",
        )
        assert code == 0
        assert out.strip() == "1"
        code, out, _ = run_cli(
            capsys, "fusion", "trivial-mult", "--group", "cyclic:3",
            "--x", "s", "--y", "s",
        )
        assert code == 0
        assert out.strip() == "0"

    def test_a_trivial_mult(self, capsys):
        code, out, _ = run_cli(
            capsys, "fusion", "a-trivial-mult", "--group", "cyclic:2",
            "--word", "e,e,e,e",
        )
        assert code == 0
        assert out.strip() == "14"

    def test_freeprod_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "fusion", "freeprod", "--factors", "cyclic:2@4,cyclic:2@5",
            "--x", "0:s", "--y", "0:s|1:s",
        )
        assert code == 0
        assert out.splitlines() == ["1:s: 1", "0:e|1:s: 1", "0:s,s|1:s: 1"]

    def test_freeprod_empty_words(self, capsys):
        code, out, _ = run_cli(
            capsys, "fusion", "freeprod", "--factors", "cyclic:2@4,cyclic:2@5",
            "--x", "", "--y", "",
        )
        assert code == 0
        assert out == "∅: 1\n"

    def test_freeprod_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "fusion", "freeprod", "--factors", "cyclic:2@4,cyclic:2@5",
            "--x", "0:s", "--y", "1:s", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == [
            {
                "word": [
                    {"factor": 0, "letters": ["s"]},
                    {"factor": 1, "letters": ["s"]},
                ],
                "mult": 1,
            }
        ]

    def test_freeprod_past_recursion_depth(self, capsys):
        n = sys.getrecursionlimit() + 1
        x = "|".join(f"{i % 2}:s" for i in range(n))
        y = "|".join(f"{i % 2}:s" for i in reversed(range(n)))
        code, out, err = run_cli(
            capsys, "fusion", "freeprod", "--factors", "cyclic:2@4,cyclic:2@5",
            "--x", x, "--y", y,
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 2 * n + 1
        assert lines[0] == "∅: 1"

    def test_freeprod_bad_factor_index(self, capsys):
        code, _, err = run_cli(
            capsys, "fusion", "freeprod", "--factors", "cyclic:2@4",
            "--x", "1:s", "--y", "",
        )
        assert code == 2
        assert err.startswith("parse error:")

    def test_freeprod_bad_factor_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "fusion", "freeprod", "--factors", "cyclic:2",
            "--x", "", "--y", "",
        )
        assert code == 2
        assert err.startswith("parse error:")

    def test_freeprod_small_dimension_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "fusion", "freeprod", "--factors", "cyclic:2@3",
            "--x", "", "--y", "",
        )
        assert code == 2
        assert err.startswith("parse error:")

    def test_boolean_table_rejected_on_load(self, capsys, write_json):
        path = write_json(
            "bool.json", {"elements": ["e", "s"], "identity": "e", "table": [[0, True], [True, 0]]}
        )
        code, out, err = run_cli(
            capsys, "fusion", "product", "--group", f"table:{path}", "--x", "s", "--y", "e"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: table entry True")


    def test_table_names_must_be_json_strings(self, capsys, write_json):
        # a string of names would otherwise be read character by character
        path = write_json(
            "chars.json", {"elements": "es", "identity": "e", "table": [[0, 1], [1, 0]]}
        )
        code, out, err = run_cli(
            capsys, "fusion", "product", "--group", f"table:{path}", "--x", "s", "--y", "s"
        )
        assert (code, out) == (2, "")
        assert err.startswith("parse error:")

    def test_non_associative_table_of_order_1000_rejected(self, capsys, write_json):
        path = write_json("big.json", cyclic_group_dict(1000, (1, 1)))
        code, out, err = run_cli(
            capsys, "fusion", "product", "--group", f"table:{path}", "--x", "1", "--y", "1"
        )
        assert (code, out) == (2, "")
        assert err.startswith("parse error: table is not associative")

    def test_bad_letter_over_a_large_table_stays_one_short_line(self, capsys, write_json):
        path = write_json("z1000.json", cyclic_group_dict(1000))
        code, out, err = run_cli(
            capsys, "fusion", "product", "--group", f"table:{path}", "--x", "1", "--y", "x9"
        )
        assert (code, out) == (2, "")
        assert err.startswith("parse error: 'x9' is not an element of")
        assert len(err.splitlines()) == 1 and len(err) < 200


class TestTopLevelBehavior:
    def test_unknown_topic(self, capsys):
        code, _, err = run_cli(capsys, "nonsense")
        assert code == 2
        assert "parse error:" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "fusion", "dim", "--group", "cyclic:2")
        assert code == 2
        assert "parse error:" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "partitions" in out

    def test_main_raises_system_exit(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fusion", "dim", "--group", "cyclic:2", "--word", "s", "--n", "4"])
        assert info.value.code == 0

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_reused_parser_matches_fresh_interpreters(self, capsys, monkeypatch):
        # help and usage text wrap at the terminal width; pin it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        sequence = [
            ["fusion", "dim", "--group", "cyclic:2"],
            ["fusion", "dim", "--group", "cyclic:2", "--word", "s", "--n", "4"],
            ["--help"],
            ["tmap", "build", "--help"],
            ["fusion", "dim", "--group", "cyclic:2", "--word", "s", "--n", "4", "--bogus"],
        ]
        in_process = [run_cli(capsys, *argv) for argv in sequence]
        assert [code for code, _, _ in in_process] == [2, 0, 0, 0, 2]
        env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(sys.path)}
        for argv, got in zip(sequence, in_process):
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from ncwreath.cli import main; main()",
                 *argv],
                capture_output=True,
                text=True,
                env=env,
                check=False,
            )
            assert got == (proc.returncode, proc.stdout, proc.stderr)

    def test_module_invocation(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "ncwreath.cli", "partitions", "enumerate",
                "--upper", "0", "--lower", "4", "--count-only",
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "14"


# One fixture command line per subcommand, sized and spelled like the
# benchmark's CLI scripts (7-point enumerations, `--x=...` labels, words of up
# to 30 letters); a dict stands for a JSON file.
COMMAND_FIXTURES = {
    ("partitions", "enumerate"): ["--upper", "3", "--lower", "4"],
    ("partitions", "compose"): ["--p", M_PAYLOAD, "--q", M_STAR_PAYLOAD],
    ("partitions", "adjoint"): ["--partition", M_PAYLOAD],
    ("partitions", "tensor"): ["--p", M_PAYLOAD, "--q", ID1_PAYLOAD],
    ("tmap", "build"): ["--algebra", MIXED, "--partition", M_PAYLOAD],
    ("tmap", "verify"): ["--algebra", M2_UNIFORM, "--p", M_PAYLOAD, "--q", M_STAR_PAYLOAD],
    ("tmap", "gram-rank"): ["--algebra", M2_UNIFORM, "--upper", "1", "--lower", "3"],
    ("algebra", "check"): ["--algebra", M2_UNIFORM],
    ("algebra", "decompose"): ["--algebra", MIXED],
    ("decorated", "count"): ["--group", "integers", "--x=1,-2", "--y=1,-2,3,-3"],
    ("decorated", "list"): ["--group", "cyclic:3", "--x=s,s2", "--y=s,s2,s,s2"],
    ("fusion", "product"): ["--group", "cyclic:3", "--x=s,s2,s,e,s2", "--y=s,e,s2,s"],
    ("fusion", "dim"): ["--group", "cyclic:3", f"--word={','.join(['s', 'e', 's2'] * 10)}",
                        "--n", "7"],
    ("fusion", "trivial-mult"): ["--group", "integers", "--x=1,-2,0", "--y=0,2,-1"],
    ("fusion", "a-trivial-mult"): ["--group", "cyclic:3", "--word=s,e,s2,s,e,s,s2,e"],
    ("fusion", "freeprod"): [
        "--factors", "cyclic:2@4,cyclic:3@5", "--x", "0:s|1:s,s2", "--y", "1:s,s2|0:s",
    ],
}


@pytest.mark.parametrize(
    "topic,action,fmt",
    [
        (topic, action, fmt)
        for topic, (_, commands) in COMMANDS.items()
        for action, _, _, _, formats in commands
        for fmt in ("text", "json", *formats)
    ],
)
def test_every_command_in_every_format(capsys, write_json, topic, action, fmt):
    argv = [
        topic, action, *(
            write_json(f"arg{i}.json", arg) if isinstance(arg, dict) else arg
            for i, arg in enumerate(COMMAND_FIXTURES[topic, action])
        ), "--format", fmt,
    ]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    if fmt == "json":
        # one compact ASCII line: the stdlib's default separators, no indent
        assert out == json.dumps(json.loads(out)) + "\n"
    else:
        # one line per item the handler yields, nothing else
        args = build_parser().parse_args(argv)
        _, lines = args.handler(args)
        assert out.strip() and out == "".join(f"{line}\n" for line in lines)


def test_json_escapes_non_ascii_names(capsys, write_json):
    path = write_json("sigma.json", {"elements": ["e", "σ"], "identity": "e",
                                     "table": [[0, 1], [1, 0]]})
    argv = ["fusion", "product", "--group", f"table:{path}", "--x", "σ", "--y", "σ"]
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out.isascii() and "\\u03c3" in out
    assert json.loads(out) == [
        {"word": [], "mult": 1},
        {"word": ["e"], "mult": 1},
        {"word": ["σ", "σ"], "mult": 1},
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out.splitlines()) == (0, ["∅: 1", "(e): 1", "(σ,σ): 1"])
