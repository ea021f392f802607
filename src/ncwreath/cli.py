"""Command-line front end.

Every library operation with a stable textual answer is exposed as a
subcommand so results can be scripted and diffed:

* ``partitions`` — enumerate diagrams, compose, adjoint, tensor.
* ``tmap`` — build a diagram's matrix over an algebra, verify the
  composition rescaling, compute Gram ranks.
* ``algebra`` — check the delta-form property, decompose a state.
* ``decorated`` — count or list admissibly labeled diagrams.
* ``fusion`` — word fusion products, dimensions, trivial multiplicities,
  and the free-product ring.

Output is text by default; ``--format json`` writes one compact ASCII line
of JSON that re-parses to the same value (``python -m json.tool`` indents
it). Exit codes: 0 success, 1 a verification over tolerance, 2 bad input
(``parse error:`` / ``file error:`` on standard error), 3 a resource bound
was hit (``bound error:``). No command writes to any input file.

Each handler ``_cmd_<topic>_<action>`` returns ``(payload, lines)``: the
JSON document and the text lines of the same answer. Diagrams, words,
algebras and matrices stay objects inside the payload and long text is
lazy, so each format pays only for itself. Only :func:`run` prints, with
integers of any size written exactly, and only :func:`run` turns
exceptions into exit codes 2 and 3; exit code 1 comes from a payload whose
``ok`` is false.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from .algebra import DEFAULT_TOLERANCE, MultiMatrixAlgebra
from .decorated import DecoratedPartition, decorated_hom_dimension, enumerate_decorated
from .errors import BoundError, NcwreathError, ValidationError, _check_cost
from .fusion import (
    AlternatingWord,
    Word,
    WordRing,
    a_rep_trivial_multiplicity,
    dimension,
    free_product_fusion,
    fusion_product,
    multiplicity_of_trivial,
    sorted_combination,
)
from .groups import Group, _load_json, parse_group_spec, parse_word_text
from .partitions import (
    DEFAULT_MAX_POINTS,
    Partition,
    adjoint,
    check_point_bound,
    compose,
    enumerate_partitions,
    tensor,
)
from .tensor_maps import (
    DEFAULT_MAX_ENTRIES,
    build_map,
    gram_rank,
    hom_dimension,
    map_matrix,
    verify_composition,
)

Result = tuple[Any, Iterable[Any]]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures match the CLI error contract."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"parse error: {message}", file=sys.stderr)
        raise SystemExit(2)


# -- input loading ------------------------------------------------------------


def _load_partition(path: str) -> Partition:
    return Partition.from_dict(_load_json(path))


def _load_algebra(path: str) -> MultiMatrixAlgebra:
    return MultiMatrixAlgebra.from_dict(_load_json(path))


def _parse_word(group: Group, text: str) -> Word:
    return Word(group, parse_word_text(group, text))


def _parse_factors(text: str) -> tuple[WordRing, ...]:
    """Parse a factor-ring list such as ``"cyclic:2@4,cyclic:2@5"``."""
    rings = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "@" not in chunk:
            raise ValidationError(
                f"factor {chunk!r} must look like <groupspec>@<dimension>"
            )
        spec, _, dim_text = chunk.rpartition("@")
        try:
            dim = int(dim_text)
        except ValueError:
            raise ValidationError(f"bad factor dimension {dim_text!r}") from None
        rings.append(WordRing(parse_group_spec(spec), dim))
    return tuple(rings)


def _parse_alternating(rings: Sequence[WordRing], text: str) -> AlternatingWord:
    """Parse an alternating word such as ``"0:s,s|1:e"``; ``""`` is empty."""
    text = text.strip()
    if not text:
        return AlternatingWord(())
    entries = []
    for chunk in text.split("|"):
        index_text, sep, letters_text = chunk.partition(":")
        if not sep:
            raise ValidationError(
                f"entry {chunk!r} must look like <factor>:<letters>"
            )
        try:
            index = int(index_text)
        except ValueError:
            raise ValidationError(f"bad factor index {index_text!r}") from None
        if not 0 <= index < len(rings):
            raise ValidationError(
                f"factor index {index} out of range for {len(rings)} factors"
            )
        entries.append((index, _parse_word(rings[index].group, letters_text)))
    return AlternatingWord(tuple(entries))


# -- output -------------------------------------------------------------------


def format_word(word: Word) -> str:
    if not word.letters:
        return "∅"
    return "(" + ",".join(word.names()) + ")"


def format_alternating(word: AlternatingWord) -> str:
    if not word.entries:
        return "∅"
    return "|".join(
        f"{index}:{','.join(label.names())}" for index, label in word.entries
    )


def _to_json(obj: Any) -> Any:
    """``json.dumps`` hook for the library objects a payload holds."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Word):
        return obj.names()
    if isinstance(obj, AlternatingWord):
        return [
            {"factor": index, "letters": label.names()} for index, label in obj.entries
        ]
    if isinstance(obj, (Partition, DecoratedPartition, MultiMatrixAlgebra)):
        return obj.to_dict()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _combination(combination, text_fn) -> Result:
    """A fusion result sorted once: JSON terms and ``word: mult`` text lines."""
    terms = sorted_combination(combination)
    return (
        [{"word": word, "mult": mult} for word, mult in terms],
        (f"{text_fn(word)}: {mult}" for word, mult in terms),
    )


# -- partitions ---------------------------------------------------------------


def _cmd_partitions_enumerate(args: argparse.Namespace) -> Result:
    shape = {"upper": args.upper, "lower": args.lower}
    if args.count_only:
        # the count is known in closed form; skip materializing the diagrams
        count = hom_dimension(args.upper, args.lower, max_points=args.max_points)
        return {**shape, "count": count}, [count]
    parts = enumerate_partitions(args.upper, args.lower, max_points=args.max_points)
    return {**shape, "count": len(parts), "partitions": parts}, parts


def _cmd_partitions_compose(args: argparse.Namespace) -> Result:
    p = _load_partition(args.p)
    q = _load_partition(args.q)
    result = compose(p, q)
    payload = {
        "result": result.result,
        "blocks_p": p.block_count,
        "blocks_q": q.block_count,
        "blocks_result": result.result.block_count,
        "central_blocks": result.central_blocks,
        "cycles": result.cycles,
    }
    return payload, (f"{key}: {value}" for key, value in payload.items())


def _cmd_partitions_adjoint(args: argparse.Namespace) -> Result:
    result = adjoint(_load_partition(args.partition))
    return result, [result]


def _cmd_partitions_tensor(args: argparse.Namespace) -> Result:
    result = tensor(_load_partition(args.p), _load_partition(args.q))
    return result, [result]


# -- tensor maps --------------------------------------------------------------


def _cmd_tmap_build(args: argparse.Namespace) -> Result:
    algebra = _load_algebra(args.algebra)
    p = _load_partition(args.partition)
    matrix = map_matrix(algebra, p, max_entries=args.max_entries)
    rows, cols = matrix.shape
    payload = {
        "algebra": algebra,
        "partition": p,
        "rows": rows,
        "cols": cols,
        "matrix": matrix,
    }
    if args.format == "csv":
        return payload, (",".join(format(float(x), ".17g") for x in row) for row in matrix)
    basis = " ".join(f"({ix.block},{ix.row},{ix.col})" for ix in algebra.basis_indices())
    header = [
        f"matrix: {rows} x {cols}",
        f"basis order (block,row,col): {basis}",
        "rows/columns are tuples over the basis, first factor most significant",
    ]
    body = (" ".join(format(float(x), ".10g") for x in row) for row in matrix)
    return payload, itertools.chain(header, body)


def _cmd_tmap_verify(args: argparse.Namespace) -> Result:
    algebra = _load_algebra(args.algebra)
    p = _load_partition(args.p)
    q = _load_partition(args.q)
    deviation = verify_composition(algebra, p, q, max_entries=args.max_entries)
    cycles = compose(p, q).cycles
    ok = deviation <= args.tolerance
    payload = {
        "deviation": deviation,
        "tolerance": args.tolerance,
        "cycles": cycles,
        "ok": ok,
    }
    return payload, [
        f"deviation: {deviation:.3e}",
        f"tolerance: {args.tolerance:.3e}",
        f"cycles: {cycles}",
        f"ok: {'true' if ok else 'false'}",
    ]


def _cmd_tmap_gram_rank(args: argparse.Namespace) -> Result:
    algebra = _load_algebra(args.algebra)
    # The Gram needs every map at once: bound the stack (by log10s past 40 points) first.
    count = check_point_bound(args.upper, args.lower, args.max_points)
    name = f"Gram stack of NC({args.upper}, {args.lower}) maps"
    m = args.upper + args.lower
    entries = algebra.dim**m if isinstance(count, int) else m * math.log10(algebra.dim)
    _check_cost(name, count, entries, "entries", args.max_entries)
    parts = enumerate_partitions(args.upper, args.lower, max_points=args.max_points)
    rank = gram_rank([build_map(algebra, p, max_entries=args.max_entries) for p in parts])
    payload = {"upper": args.upper, "lower": args.lower, "count": len(parts), "rank": rank}
    return payload, [f"count: {len(parts)}", f"rank: {rank}"]


# -- algebra ------------------------------------------------------------------


def _algebra_path(args: argparse.Namespace) -> str:
    path = args.algebra or args.spec
    if path is None:
        raise ValidationError("an algebra file is required (--algebra or --spec)")
    return path


def _cmd_algebra_check(args: argparse.Namespace) -> Result:
    algebra = _load_algebra(_algebra_path(args))
    delta = algebra.is_delta_form(args.tolerance)
    payload = {
        "is_delta_form": delta is not None,
        "delta": delta,
        "factors": len(algebra.decompose_by_delta(args.tolerance)),
    }
    return payload, [json.dumps(payload)]


def _cmd_algebra_decompose(args: argparse.Namespace) -> Result:
    factors = _load_algebra(_algebra_path(args)).decompose_by_delta(args.tolerance)
    payload = {
        "factors": [
            {"delta": f.delta, "block_indices": list(f.block_indices), "algebra": f.algebra}
            for f in factors
        ]
    }
    lines = [f"factors: {len(factors)}"]
    for rank, f in enumerate(factors, start=1):
        blocks = ",".join(str(b) for b in f.block_indices)
        sizes = ",".join(str(s) for s in f.algebra.block_sizes)
        lines.append(f"factor {rank}: delta={f.delta:g} blocks=[{blocks}] sizes=[{sizes}]")
    return payload, lines


# -- decorated ----------------------------------------------------------------


def _cmd_decorated(args: argparse.Namespace) -> Result:
    """``count`` and ``list`` share one payload; ``list`` adds the diagrams."""
    group = parse_group_spec(args.group)
    upper = parse_word_text(group, args.x)
    lower = parse_word_text(group, args.y)
    labels = {
        "group": group.describe(),
        "upper": Word(group, upper),
        "lower": Word(group, lower),
    }
    if args.action == "count":
        # positional labels: perfbench's tracer reads them as args[1] and args[2]
        count = decorated_hom_dimension(group, upper, lower, max_points=args.max_points)
        return {**labels, "count": count}, [count]
    found = enumerate_decorated(group, upper, lower, max_points=args.max_points)
    return {**labels, "count": len(found), "partitions": found}, found


# -- fusion -------------------------------------------------------------------


def _cmd_fusion_product(args: argparse.Namespace) -> Result:
    group = parse_group_spec(args.group)
    x = _parse_word(group, args.x)
    y = _parse_word(group, args.y)
    return _combination(fusion_product(x, y), format_word)


def _cmd_fusion_dim(args: argparse.Namespace) -> Result:
    group = parse_group_spec(args.group)
    word = _parse_word(group, args.word)
    value = dimension(word, args.n)
    payload = {"group": group.describe(), "word": word, "n": args.n, "dimension": value}
    return payload, [value]


def _cmd_fusion_trivial_mult(args: argparse.Namespace) -> Result:
    group = parse_group_spec(args.group)
    x = _parse_word(group, args.x)
    y = _parse_word(group, args.y)
    value = multiplicity_of_trivial(x, y)
    payload = {"group": group.describe(), "x": x, "y": y, "multiplicity": value}
    return payload, [value]


def _cmd_fusion_a_trivial_mult(args: argparse.Namespace) -> Result:
    group = parse_group_spec(args.group)
    letters = parse_word_text(group, args.word)
    value = a_rep_trivial_multiplicity(group, letters)
    word = Word(group, letters)
    payload = {"group": group.describe(), "word": word, "multiplicity": value}
    return payload, [value]


def _cmd_fusion_freeprod(args: argparse.Namespace) -> Result:
    rings = _parse_factors(args.factors)
    w1 = _parse_alternating(rings, args.x)
    w2 = _parse_alternating(rings, args.y)
    return _combination(free_product_fusion(rings, w1, w2), format_alternating)


# -- command table ------------------------------------------------------------

_SHAPE = [
    ("--upper", dict(type=int, required=True)),
    ("--lower", dict(type=int, required=True)),
]
_MAX_POINTS = ("--max-points", dict(
    type=int,
    default=DEFAULT_MAX_POINTS,
    help=f"refuse enumerations past this many points (default {DEFAULT_MAX_POINTS})",
))
_MAX_ENTRIES = ("--max-entries", dict(
    type=int,
    default=DEFAULT_MAX_ENTRIES,
    help="refuse matrices with more entries than this",
))
_ALGEBRA = ("--algebra", dict(required=True, help="path to an algebra JSON file"))
_ALGEBRA_INPUT = [
    ("--algebra", dict(help="path to an algebra JSON file")),
    ("--spec", dict(dest="spec", help="alias for --algebra", metavar="ALGEBRA")),
    ("--tolerance", dict(type=float, default=DEFAULT_TOLERANCE)),
]
_PARTITION = ("--partition", dict(required=True, help="path to the diagram (JSON)"))
_PQ = [
    ("--p", dict(required=True, help="path to the first diagram (JSON)")),
    ("--q", dict(required=True, help="path to the second diagram (JSON)")),
]
_LABELS = [
    ("--group", dict(required=True, help="cyclic:<s>, integers, table:<path>")),
    ("--x", dict(required=True, help="upper labels, comma-separated")),
    ("--y", dict(required=True, help="lower labels, comma-separated")),
    _MAX_POINTS,
]
_GROUP = ("--group", dict(required=True))
_WORDS = [
    _GROUP,
    ("--x", dict(required=True, help="first word, comma-separated")),
    ("--y", dict(required=True, help="second word, comma-separated")),
]

#: topic -> (help, [(action, handler, help, arguments, extra formats)]); every
#: action also takes ``--format`` with ``text``, ``json`` and its extra formats.
COMMANDS = {
    "partitions": ("noncrossing diagram operations", [
        ("enumerate", _cmd_partitions_enumerate, "list or count NC(upper, lower)", [
            *_SHAPE,
            ("--count-only", dict(action="store_true")),
            _MAX_POINTS,
        ], ()),
        ("compose", _cmd_partitions_compose, "compose two diagrams (q after p)", _PQ, ()),
        ("adjoint", _cmd_partitions_adjoint, "flip a diagram upside down", [
            _PARTITION,
        ], ()),
        ("tensor", _cmd_partitions_tensor, "place two diagrams side by side", [
            ("--p", dict(required=True, help="path to the left diagram (JSON)")),
            ("--q", dict(required=True, help="path to the right diagram (JSON)")),
        ], ()),
    ]),
    "tmap": ("diagram matrices over an algebra", [
        ("build", _cmd_tmap_build, "assemble the matrix of one diagram", [
            _ALGEBRA,
            _PARTITION,
            _MAX_ENTRIES,
        ], ("csv",)),
        ("verify", _cmd_tmap_verify,
         "check the composition rescaling for a pair of diagrams", [
            _ALGEBRA,
            *_PQ,
            ("--tolerance", dict(
                type=float,
                default=DEFAULT_TOLERANCE,
                help=f"largest acceptable deviation (default {DEFAULT_TOLERANCE})",
            )),
            _MAX_ENTRIES,
        ], ()),
        ("gram-rank", _cmd_tmap_gram_rank,
         "rank of the span of all NC(upper, lower) matrices", [
            _ALGEBRA,
            *_SHAPE,
            _MAX_POINTS,
            _MAX_ENTRIES,
        ], ()),
    ]),
    "algebra": ("state analysis on an algebra file", [
        ("check", _cmd_algebra_check, "report the delta-form status", _ALGEBRA_INPUT, ()),
        ("decompose", _cmd_algebra_decompose,
         "split into delta-form factors", _ALGEBRA_INPUT, ()),
    ]),
    "decorated": ("group-labeled diagrams", [
        ("count", _cmd_decorated, "count admissible labelings", _LABELS, ()),
        ("list", _cmd_decorated, "list admissible labelings", _LABELS, ()),
    ]),
    "fusion": ("word fusion ring operations", [
        ("product", _cmd_fusion_product, "fuse two words", _WORDS, ()),
        ("dim", _cmd_fusion_dim, "dimension of a word representation", [
            _GROUP,
            ("--word", dict(required=True, help="comma-separated word")),
            ("--n", dict(type=int, required=True, help="dimension parameter (>= 4)")),
        ], ()),
        ("trivial-mult", _cmd_fusion_trivial_mult,
         "multiplicity of the trivial word in a product", _WORDS, ()),
        ("a-trivial-mult", _cmd_fusion_a_trivial_mult,
         "multiplicity of the trivial representation in a product of basic ones", [
             _GROUP,
             ("--word", dict(required=True, help="comma-separated letters")),
         ], ()),
        ("freeprod", _cmd_fusion_freeprod, "fuse words across factor rings", [
            ("--factors", dict(
                required=True,
                help='factor rings, e.g. "cyclic:2@4,cyclic:2@5" (<groupspec>@<dimension>)',
            )),
            ("--x", dict(
                required=True, help='alternating word, e.g. "0:s,s|1:e" ("" is empty)'
            )),
            ("--y", dict(required=True, help='alternating word, e.g. "1:s" ("" is empty)')),
        ], ()),
    ]),
}

@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process. Usage errors and
    help look up ``sys.stdout`` and ``sys.stderr`` when they print."""
    parser = _Parser(prog="ncwreath", description=__doc__.splitlines()[0])
    topics = parser.add_subparsers(dest="topic", required=True)
    for topic, (topic_help, commands) in COMMANDS.items():
        sub = topics.add_parser(topic, help=topic_help)
        actions = sub.add_subparsers(dest="action", required=True)
        for action, handler, action_help, arguments, formats in commands:
            command = actions.add_parser(action, help=action_help)
            for flag, options in arguments:
                command.add_argument(flag, **options)
            command.add_argument(
                "--format",
                choices=["text", "json", *formats],
                default="text",
                help="output format (default: text)",
            )
            command.set_defaults(handler=handler)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Execute one command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        payload, lines = args.handler(args)
        # Results are exact integers of any size, so the int-to-str digit
        # limit is lifted while they are written; input parsing keeps it.
        # Python 3.10 releases before 3.10.7 have no limit.
        if limit is not None:
            sys.set_int_max_str_digits(0)
        if args.format == "json":
            lines = [json.dumps(payload, default=_to_json)]
        sys.stdout.writelines(f"{line}\n" for line in lines)
    except BoundError as exc:
        print(f"bound error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except (NcwreathError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return 0 if not isinstance(payload, dict) or payload.get("ok", True) else 1


def main(argv: Optional[Sequence[str]] = None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
