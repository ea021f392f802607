"""The four benchmark workloads.

Each workload yields rounds of operations. A round has a fixed number of
operations of each kind and fixed size bands; the seed picks the contents.
The slow operations keep a fixed order and are spread evenly through the
shuffled fast ones, so that every kind is sampled across the whole run. An
operation is timed as one call of ``Op.fn``; afterwards, with the clock
stopped, ``digest`` keeps the part of its output the check needs. Checks run
only after the timed phase, against the oracles in ``oracles.py``.

Latency tails are kept steady by construction: each round holds enough fast
operations that the slowest 1 % of a run falls inside one class of slow
operations of fixed size, well above the few milliseconds that a busy host
adds to a fast operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import oracles
from oracles import catalan


class Op:
    __slots__ = ("kind", "fn", "args", "expect", "raises")

    def __init__(self, kind, fn, args, expect=None, raises=None):
        self.kind, self.fn, self.args, self.expect, self.raises = kind, fn, args, expect, raises


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def interleave(rng, slow: list[Op], fast: list[Op]) -> list[Op]:
    """Shuffle ``fast`` and insert ``slow``, in order, at even spacing."""
    rng.shuffle(fast)
    step = len(fast) / len(slow)
    out = []
    for i, op in enumerate(slow):
        out.extend(fast[round(i * step): round((i + 1) * step)])
        out.append(op)
    return out


class Workload:
    """Base: subclasses define ``round``, ``digest`` and ``check``."""

    name = ""

    def __init__(self, lib, raw, seed: int, workdir: str) -> None:
        self.lib, self.raw, self.seed, self.workdir = lib, raw, seed, workdir

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def ops(self, index: int, tiny: bool = False) -> list[Op]:
        """The operations of round ``index``; round -1 is the warm-up."""
        return self.round(self.rng(index), index, tiny)

    def round(self, rng, index: int, tiny: bool) -> list[Op]:
        raise NotImplementedError

    def digest(self, op: Op, out):
        return out

    def check(self, op: Op, digest) -> bool:
        return digest == op.expect

    def probes(self) -> list[tuple[str, bool, str]]:
        """Known-defect probes run after the checks: (name, ok, outcome)."""
        return []


# -- diagram_calculus ---------------------------------------------------------


def _cycle(lib, p_data, r_data, s_data):
    p = lib.partition_from_dict(p_data)
    r = lib.partition_from_dict(r_data)
    s = lib.partition_from_dict(s_data)
    sr = lib.compose(r, s)
    rp = lib.compose(p, r)
    return lib.compose(p, sr.result), lib.compose(rp.result, s), sr, rp


def _tensor_adjoint(lib, p, q):
    t = lib.tensor(p, q)
    flipped = lib.adjoint(t)
    return t, lib.partition_from_dict(lib.partition_to_dict(flipped))


class DiagramCalculus(Workload):
    name = "diagram_calculus"
    # Per round: one enumeration of each size from 4 to 10 points plus six
    # more at 8 points, and 500 fast operations. The slowest 1 % (five per
    # round) is then the 10- and 9-point enumerations and the middle of the
    # seven 8-point ones.
    ENUMERATE_POINTS = (4, 5, 6, 7, 8, 9, 10, 8, 8, 8, 8, 8, 8)
    CYCLES, TENSORS, MALFORMED = 340, 110, 50

    def round(self, rng, index, tiny):
        lib, raw = self.lib, self.raw
        scale = 10 if tiny else 1
        heavy, ops = [], []
        for points in (4, 5, 6) if tiny else self.ENUMERATE_POINTS:
            upper = rng.randint(0, points)
            heavy.append(Op("enumerate", lib.enumerate_partitions, (upper, points - upper),
                            catalan(points)))
        for _ in range(self.CYCLES // scale):
            b, c = rng.randint(0, 4), rng.randint(0, 4)
            a, d = rng.randint(0, 8 - b), rng.randint(0, 8 - c)
            args = (oracles.random_payload(rng, a, b), oracles.random_payload(rng, b, c),
                    oracles.random_payload(rng, c, d))
            ops.append(Op("cycle", _cycle, (lib, *args)))
        for _ in range(self.TENSORS // scale):
            p_data = oracles.random_payload(rng, rng.randint(0, 4), rng.randint(0, 4))
            q_data = oracles.random_payload(rng, rng.randint(0, 4), rng.randint(0, 4))
            p, q = raw.partition_from_dict(p_data), raw.partition_from_dict(q_data)
            ops.append(Op("tensor", _tensor_adjoint, (lib, p, q),
                          oracles.tensor_key(p_data, q_data)))
        for i in range(self.MALFORMED // scale):
            kind = oracles.MALFORMED_KINDS[i % len(oracles.MALFORMED_KINDS)]
            ops.append(Op("malformed", lib.partition_from_dict,
                          (oracles.malformed_payload(rng, kind),), raises="ValidationError"))
        return interleave(rng, heavy, ops)

    def digest(self, op, out):
        if op.kind == "enumerate":
            return len(out)
        if op.kind == "cycle":
            left, right, sr, rp = out
            return (left.result.to_dict(), right.result.to_dict(),
                    left.cycles, right.cycles, sr.cycles, rp.cycles)
        if op.kind == "tensor":
            return out[0].to_dict(), out[1].to_dict()
        return out

    def check(self, op, digest):
        if op.kind == "cycle":
            left, right, left_cy, right_cy, sr_cy, rp_cy = digest
            return (left_cy == rp_cy + right_cy - sr_cy
                    and oracles.diagram_key(left) == oracles.diagram_key(right))
        if op.kind == "tensor":
            side_by_side, flipped = digest
            return (oracles.diagram_key(side_by_side) == op.expect
                    and oracles.diagram_key(flipped) == oracles.adjoint_key(op.expect))
        return digest == op.expect


# -- map_assembly -------------------------------------------------------------

ALGEBRAS = {
    "m2": {"blocks": [{"size": 2, "q": [0.5, 0.5]}]},
    "m2_nontracial": {"blocks": [{"size": 2, "q": [0.2, 0.8]}]},
    "c4": {"blocks": [{"size": 1, "q": [0.25]}] * 4},
    "c5": {"blocks": [{"size": 1, "q": [0.2]}] * 5},
    "m2_plus_c": {"blocks": [{"size": 2, "q": [0.4, 0.4]}, {"size": 1, "q": [0.2]}]},
}


def _gram(lib, algebra, upper, lower):
    parts = lib.enumerate_partitions(upper, lower)
    return lib.gram_rank([lib.build_map(algebra, p) for p in parts])


def _state(lib, data):
    algebra = lib.algebra_from_dict(data)
    return lib.is_delta_form(algebra), lib.decompose_by_delta(algebra)


class MapAssembly(Workload):
    name = "map_assembly"
    # Per round: four 10-point maps over each four-dimensional algebra (2.7 %
    # of the round, so the slowest 1 % lies inside them), three Gram ranks
    # whose algebras rotate with the round, and fast operations.
    SMALL, STATES, VERIFIES, LARGE_PER_ALGEBRA = 300, 100, 30, 4

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.algebras = [(self.raw.algebra_from_dict(d), d) for d in ALGEBRAS.values()]

    def _diagram(self, rng, upper, lower):
        data = oracles.random_payload(rng, upper, lower)
        return self.raw.partition_from_dict(data), data

    def _build(self, rng, kind, points, algebra=None):
        algebra, data = algebra or rng.choice(self.algebras)
        sizes = [b["size"] for b in data["blocks"]]
        upper = rng.randint(0, points)
        p, p_data = self._diagram(rng, upper, points - upper)
        n = algebra.dim
        expect = ((n ** (points - upper), n ** upper), oracles.map_nonzeros(p_data, sizes))
        return Op(kind, self.lib.build_map, (algebra, p), expect)

    def round(self, rng, index, tiny):
        lib = self.lib
        scale = 20 if tiny else 1
        heavy = []
        for points in (4,) if tiny else (4, 5, 6):
            upper = rng.randint(0, points)
            algebra, _ = self.algebras[(points + index) % len(self.algebras)]
            heavy.append(Op("gram", _gram, (lib, algebra, upper, points - upper),
                            catalan(points)))
        four_dim = [a for a in self.algebras if a[0].dim == 4]
        heavy += [self._build(rng, "build_large", 6 if tiny else 10, algebra)
                  for algebra in four_dim for _ in range(1 if tiny else self.LARGE_PER_ALGEBRA)]
        ops = [self._build(rng, "build_small", rng.randint(2, 6))
               for _ in range(self.SMALL // scale)]
        for _ in range(self.STATES // scale):
            groups = rng.randint(1, 3)
            data, grouping, deltas = oracles.random_state(rng, rng.randint(groups, 6), groups)
            ops.append(Op("state", _state, (lib, data), (grouping, deltas)))
        for _ in range(max(1, self.VERIFIES // scale)):
            while True:
                k, l, m = (rng.randint(0, 6) for _ in range(3))
                if k + l <= 6 and l + m <= 6 and k + m <= 6:
                    break
            algebra, _ = rng.choice(self.algebras)
            p, _ = self._diagram(rng, k, l)
            q, _ = self._diagram(rng, l, m)
            ops.append(Op("verify", lib.verify_composition, (algebra, p, q), 1e-9))
        return interleave(rng, heavy, ops)

    def digest(self, op, out):
        if op.kind.startswith("build"):
            return out.matrix.shape, int((out.matrix != 0).sum())
        if op.kind == "state":
            delta, factors = out
            return delta, [(f.delta, f.block_indices) for f in factors]
        return out

    def check(self, op, digest):
        if op.kind == "verify":
            return digest <= op.expect
        if op.kind == "state":
            delta, factors = digest
            grouping, deltas = op.expect
            if len(grouping) == 1:
                if delta is None or not close(delta, deltas[0]):
                    return False
            elif delta is not None:
                return False
            want = sorted(zip(grouping, deltas))
            got = sorted((indices, d) for d, indices in factors)
            return len(got) == len(want) and all(
                g[0] == w[0] and close(g[1], w[1]) for g, w in zip(got, want))
        return digest == op.expect


# -- intertwiner_counts ---------------------------------------------------------


class IntertwinerCounts(Workload):
    name = "intertwiner_counts"
    # Per round: (group index, letters from, to) for `dimension` and
    # `a_rep_trivial_multiplicity`, and the point counts for
    # `decorated_hom_dimension`. Cost varies tenfold across groups at one
    # length, so each band has a fixed group. The round holds 200 operations,
    # so the slowest 1 % is the 9-point count and one of the two 420-450
    # letter dimensions: the 99th percentile sits in the middle of that class.
    PRODUCTS, FREE_PRODUCTS = 166, 20
    DIMENSION_BANDS = ((0, 420, 451), (0, 420, 451), (1, 240, 360), (3, 120, 240),
                       (2, 20, 120))
    A_REP_BANDS = ((2, 8, 12), (3, 12, 16), (0, 16, 21))
    DECORATED_POINTS = range(4, 10)
    # the warm-up round's bands: small and of nearly fixed cost
    TINY_DIMENSION_BANDS, TINY_A_REP_BANDS = ((0, 20, 30), (3, 20, 30)), ((0, 8, 10),)
    PROBE_LENGTHS = (600, 1000, 3000)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        raw = self.raw
        table = oracles.symmetric_group_table(3)
        path = os.path.join(self.workdir, "s3.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh)
        self.groups = [
            (raw.parse_group_spec("cyclic:2"), oracles.GroupModel.cyclic(2)),
            (raw.parse_group_spec("cyclic:3"), oracles.GroupModel.cyclic(3)),
            (raw.parse_group_spec("integers"), oracles.GroupModel.integers(3)),
            (raw.parse_group_spec(f"table:{path}"), oracles.GroupModel.table(table)),
        ]

    def _word_pair(self, rng, longest):
        group, model = rng.choice(self.groups)
        x = model.word(rng, rng.randint(1, longest))
        cut = rng.randint(0, min(len(x), longest // 4))
        y = model.involution(x[len(x) - cut:])
        y += model.word(rng, rng.randint(1, longest - len(y)))
        return group, model, x, y

    def _alternating(self, rng, rings, models, entries, start):
        out, factor = [], start
        for _ in range(entries):
            out.append((factor, models[factor].word(rng, rng.randint(1, 3))))
            factor = (factor + rng.randint(1, len(rings) - 1)) % len(rings)
        return out

    def round(self, rng, index, tiny):
        lib, raw = self.lib, self.raw
        scale = 10 if tiny else 1
        heavy, ops = [], []
        for points in self.DECORATED_POINTS[: 2 if tiny else None]:
            group, model = self.groups[points % len(self.groups)]
            upper = rng.randint(0, points)
            heavy.append(Op("decorated", lib.decorated_hom_dimension,
                            (group, model.word(rng, upper), model.word(rng, points - upper))))
        for group_index, lo, hi in self.TINY_DIMENSION_BANDS if tiny else self.DIMENSION_BANDS:
            group, model = self.groups[group_index]
            word = raw.Word(group, model.word(rng, rng.randrange(lo, hi)))
            heavy.append(Op("dimension", lib.dimension, (word, rng.choice((4, 5, 7))), model))
        for group_index, lo, hi in self.TINY_A_REP_BANDS if tiny else self.A_REP_BANDS:
            group, model = self.groups[group_index]
            letters = model.word(rng, rng.randrange(lo, hi))
            heavy.append(Op("a_rep", lib.a_rep_trivial_multiplicity, (group, letters),
                            oracles.one_row_count(model, letters)))
        for _ in range(self.PRODUCTS // scale):
            group, model, x, y = self._word_pair(rng, 40)
            ops.append(Op("fusion_product", lib.fusion_product,
                          (raw.Word(group, x), raw.Word(group, y)), model))
        for _ in range(self.FREE_PRODUCTS // scale):
            count = rng.randint(2, 3)
            picks = [rng.choice(self.groups[:2]) for _ in range(count)]
            rings = tuple(raw.WordRing(g, rng.randint(4, 7)) for g, _ in picks)
            models = [m for _, m in picks]
            w1 = self._alternating(rng, rings, models, rng.randint(1, 8), rng.randrange(count))
            cut = rng.randint(0, len(w1))
            w2 = [(f, models[f].involution(label)) for f, label in reversed(w1[len(w1) - cut:])]
            start = (w2[-1][0] + 1) % count if w2 else rng.randrange(count)
            w2 += self._alternating(rng, rings, models, rng.randint(0, 6), start)

            def alternating(entries):
                return raw.AlternatingWord(tuple(
                    (f, raw.Word(rings[f].group, label)) for f, label in entries))

            ops.append(Op("free_product", lib.free_product_fusion,
                          (rings, alternating(w1), alternating(w2))))
        return interleave(rng, heavy, ops)

    def check(self, op, digest):
        raw = self.raw
        if op.kind == "fusion_product":
            x, y = op.args

            def dim(word):
                return oracles.word_dimension(op.expect, word.letters, 4)

            return sum(mult * dim(z) for z, mult in digest.items()) == dim(x) * dim(y)
        if op.kind == "dimension":
            word, n = op.args
            return digest == oracles.word_dimension(op.expect, word.letters, n)
        if op.kind == "decorated":
            group, upper, lower = op.args
            letters = tuple(group.inv(g) for g in reversed(upper)) + tuple(lower)
            return digest == raw.a_rep_trivial_multiplicity(group, letters)
        if op.kind == "free_product":
            rings, w1, w2 = op.args

            def dim(w):
                value = 1
                for factor, label in w.entries:
                    value *= raw.dimension(label, rings[factor].dim)
                return value

            return sum(dim(w) * m for w, m in digest.items()) == dim(w1) * dim(w2)
        return digest == op.expect

    def probes(self):
        raw = self.raw
        rng = self.rng("probes")
        group, model = self.groups[0]
        out = []
        for length in self.PROBE_LENGTHS:
            word = raw.Word(group, model.word(rng, length))
            try:
                ok = raw.dimension(word, 5) == oracles.word_dimension(model, word.letters, 5)
                outcome = "value"
            except raw.BoundError:
                ok, outcome = True, "BoundError"
            except Exception as exc:  # RecursionError at the seed
                ok, outcome = False, type(exc).__name__
            out.append((f"dimension:{length}", ok, outcome))
        return out


# -- cli_scripts ----------------------------------------------------------------


def _cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli_run(argv)
    return code, out.getvalue()


class CliScripts(Workload):
    name = "cli_scripts"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.s3_path = os.path.join(self.workdir, "s3.json")
        table = oracles.symmetric_group_table(3)
        with open(self.s3_path, "w", encoding="utf-8") as fh:
            json.dump(table, fh)
        self.bad_json = os.path.join(self.workdir, "bad.json")
        with open(self.bad_json, "w", encoding="utf-8") as fh:
            fh.write('{"upper": 1, "lower": ')
        self.groups = [
            ("cyclic:2", oracles.GroupModel.cyclic(2), ["e", "s"]),
            ("cyclic:3", oracles.GroupModel.cyclic(3), ["e", "s", "s2"]),
            ("integers", oracles.GroupModel.integers(3), None),
            (f"table:{self.s3_path}", oracles.GroupModel.table(table), table["elements"]),
        ]

    def _write(self, directory, name, data) -> str:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    @staticmethod
    def _text(names, letters) -> str:
        return ",".join(str(g) if names is None else names[g] for g in letters)

    def _group_words(self, rng, lengths):
        spec, model, names = rng.choice(self.groups)
        words = [model.word(rng, n) for n in lengths]
        return spec, model, names, words

    def round(self, rng, index, tiny):
        directory = os.path.join(self.workdir, f"round{index}")
        os.makedirs(directory)
        pay = oracles.random_payload
        k, l, m = rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 3)
        p = self._write(directory, "p.json", pay(rng, k, l))
        q = self._write(directory, "q.json", pay(rng, l, m))
        k2, l2, m2 = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        p2 = self._write(directory, "p2.json", pay(rng, k2, l2))
        q2 = self._write(directory, "q2.json", pay(rng, l2, m2))
        algebra = self._write(directory, "algebra.json", rng.choice(list(ALGEBRAS.values())))
        groups = rng.randint(1, 3)
        state = self._write(directory, "state.json",
                            oracles.random_state(rng, rng.randint(groups, 5), groups)[0])
        # 7-point enumerations (2 of 36 commands) are the slowest class
        points = 4 if tiny else 7
        upper = rng.randint(0, points)
        rank_points = rng.randint(2, 4)
        rank_upper = rng.randint(0, rank_points)

        # the lower row repeats the upper one and adds a pair g, g^-1, so at
        # least one labelling is admissible and `decorated list` prints a line
        spec, model, names, (dx, (g,)) = self._group_words(rng, (2, 1))
        dy = dx + (g, model.inv(g))
        decorated = ["--group", spec, f"--x={self._text(names, dx)}",
                     f"--y={self._text(names, dy)}"]
        spec, model, names, (fx, tail) = self._group_words(
            rng, (rng.randint(1, 10), rng.randint(1, 6)))
        fy = model.involution(fx[len(fx) - rng.randint(0, len(fx)):]) + tail
        product = ["--group", spec, f"--x={self._text(names, fx)}",
                   f"--y={self._text(names, fy)}"]
        spec, model, names, (tx,) = self._group_words(rng, (rng.randint(1, 8),))
        ty = model.involution(tx) if rng.random() < 0.5 else model.word(rng, len(tx))
        trivial = ["--group", spec, f"--x={self._text(names, tx)}",
                   f"--y={self._text(names, ty)}"]
        spec, model, names, (word,) = self._group_words(rng, (rng.randint(1, 30),))
        dim = ["--group", spec, f"--word={self._text(names, word)}",
               "--n", str(rng.choice((4, 5, 7)))]
        spec, model, names, (aword,) = self._group_words(rng, (rng.randint(1, 10),))
        amult = ["--group", spec, f"--word={self._text(names, aword)}"]
        models = (self.groups[0][1], self.groups[1][1])
        factor_names = (self.groups[0][2], self.groups[1][2])
        fa = [(i % 2, models[i % 2].word(rng, rng.randint(1, 2))) for i in range(rng.randint(1, 4))]
        cut = rng.randint(0, len(fa))
        fb = [(f, models[f].involution(w)) for f, w in reversed(fa[len(fa) - cut:])]

        def alternating(entries):
            return "|".join(f"{f}:{self._text(factor_names[f], w)}" for f, w in entries)

        freeprod = ["--factors", "cyclic:2@4,cyclic:3@5",
                    "--x", alternating(fa), "--y", alternating(fb)]

        commands = [
            ["partitions", "enumerate", "--upper", str(upper), "--lower", str(points - upper)],
            ["partitions", "compose", "--p", p, "--q", q],
            ["partitions", "adjoint", "--partition", p],
            ["partitions", "tensor", "--p", p2, "--q", q],
            ["tmap", "build", "--algebra", algebra, "--partition", p2],
            ["tmap", "verify", "--algebra", algebra, "--p", p2, "--q", q2],
            ["tmap", "gram-rank", "--algebra", algebra, "--upper", str(rank_upper),
             "--lower", str(rank_points - rank_upper)],
            ["algebra", "check", "--algebra", state],
            ["algebra", "decompose", "--algebra", state],
            ["decorated", "count", *decorated],
            ["decorated", "list", *decorated],
            ["fusion", "product", *product],
            ["fusion", "dim", *dim],
            ["fusion", "trivial-mult", *trivial],
            ["fusion", "a-trivial-mult", *amult],
            ["fusion", "freeprod", *freeprod],
        ]
        ops = []
        for argv in commands:
            ops.append(Op("text", _cli, (self.lib, argv), 0))
            ops.append(Op("json", _cli, (self.lib, [*argv, "--format", "json"]), 0))
        ops += [
            Op("error", _cli, (self.lib, ["fusion", "dim", "--group", "cyclic:3",
                                          "--word", "s,x9", "--n", "5"]), 2),
            Op("error", _cli, (self.lib, ["partitions", "adjoint", "--partition",
                                          self.bad_json]), 2),
            Op("error", _cli, (self.lib, ["partitions", "enumerate", "--upper", "9",
                                          "--lower", "9"]), 3),
            Op("error", _cli, (self.lib, ["tmap", "verify", "--algebra", algebra, "--p", p2,
                                          "--q", q2, "--tolerance", "-1"]), 1),
        ]
        rng.shuffle(ops)
        return ops

    def check(self, op, digest):
        code, stdout = digest
        if code != op.expect:
            return False
        if op.kind == "error":
            return True
        if op.kind == "text":
            return bool(stdout.strip())
        return self._json_matches(op.args[1], json.loads(stdout))

    def _json_matches(self, argv, got) -> bool:
        raw = self.raw
        opt, rest = {}, iter(argv[2:])
        for flag in rest:
            name, eq, value = flag.partition("=")
            opt[name] = value if eq else next(rest)
        command = tuple(argv[:2])

        def diagram(name):
            with open(opt[name], encoding="utf-8") as fh:
                return raw.partition_from_dict(json.load(fh))

        def algebra():
            with open(opt["--algebra"], encoding="utf-8") as fh:
                return raw.algebra_from_dict(json.load(fh))

        def key(d):
            return oracles.diagram_key(d if isinstance(d, dict) else d.to_dict())

        def words(group, name):
            return raw.Word(group, raw.parse_word_text(group, opt[name]))

        if command == ("partitions", "enumerate"):
            upper, lower = int(opt["--upper"]), int(opt["--lower"])
            want = {key(p) for p in raw.enumerate_partitions(upper, lower)}
            return (got["count"] == catalan(upper + lower)
                    and {key(d) for d in got["partitions"]} == want)
        if command == ("partitions", "compose"):
            result = raw.compose(diagram("--p"), diagram("--q"))
            return key(got["result"]) == key(result.result) and got["cycles"] == result.cycles
        if command == ("partitions", "adjoint"):
            return key(got) == key(raw.adjoint(diagram("--partition")))
        if command == ("partitions", "tensor"):
            return key(got) == key(raw.tensor(diagram("--p"), diagram("--q")))
        if command == ("tmap", "build"):
            return got["matrix"] == raw.build_map(algebra(), diagram("--partition")).matrix.tolist()
        if command == ("tmap", "verify"):
            deviation = raw.verify_composition(algebra(), diagram("--p"), diagram("--q"))
            return got["ok"] and abs(got["deviation"] - deviation) <= 1e-12
        if command == ("tmap", "gram-rank"):
            upper, lower = int(opt["--upper"]), int(opt["--lower"])
            a = algebra()
            maps = [raw.build_map(a, p) for p in raw.enumerate_partitions(upper, lower)]
            return got["rank"] == raw.gram_rank(maps) == catalan(upper + lower)
        if command[0] == "algebra":
            a = algebra()
            factors = [(f.delta, list(f.block_indices)) for f in raw.decompose_by_delta(a)]
            if command[1] == "check":
                return (got["delta"] == raw.is_delta_form(a)
                        and got["factors"] == len(factors))
            return [(f["delta"], f["block_indices"]) for f in got["factors"]] == factors
        group = None if command == ("fusion", "freeprod") else raw.parse_group_spec(opt["--group"])
        if command[0] == "decorated":
            count = raw.decorated_hom_dimension(
                group, raw.parse_word_text(group, opt["--x"]),
                raw.parse_word_text(group, opt["--y"]))
            listed = got.get("partitions")
            return got["count"] == count and (listed is None or len(listed) == count)
        if command == ("fusion", "product"):
            want = raw.fusion_product(words(group, "--x"), words(group, "--y"))
            return ({tuple(t["word"]): t["mult"] for t in got}
                    == {tuple(z.names()): m for z, m in want.items()})
        if command == ("fusion", "dim"):
            return got["dimension"] == raw.dimension(words(group, "--word"), int(opt["--n"]))
        if command == ("fusion", "trivial-mult"):
            return got["multiplicity"] == raw.multiplicity_of_trivial(
                words(group, "--x"), words(group, "--y"))
        if command == ("fusion", "a-trivial-mult"):
            return got["multiplicity"] == raw.a_rep_trivial_multiplicity(
                group, raw.parse_word_text(group, opt["--word"]))
        if command == ("fusion", "freeprod"):
            rings = tuple(raw.WordRing(raw.parse_group_spec(s.rpartition("@")[0]),
                                       int(s.rpartition("@")[2]))
                          for s in opt["--factors"].split(","))

            def alternating(text):
                entries = []
                for chunk in filter(None, text.split("|")):
                    f, _, letters = chunk.partition(":")
                    group_f = rings[int(f)].group
                    entries.append((int(f), raw.Word(group_f, raw.parse_word_text(group_f, letters))))
                return raw.AlternatingWord(tuple(entries))

            want = raw.free_product_fusion(rings, alternating(opt["--x"]), alternating(opt["--y"]))
            as_key = lambda entries: tuple((e["factor"], tuple(e["letters"])) for e in entries)
            return ({as_key(t["word"]): t["mult"] for t in got}
                    == {tuple((f, tuple(w.names())) for f, w in z.entries): m
                        for z, m in want.items()})
        raise ValueError(f"no JSON check for {command}")

    def probes(self):
        rng = self.rng("probes")
        out = []
        for length in IntertwinerCounts.PROBE_LENGTHS:
            word = ",".join(rng.choice("es") for _ in range(length))
            argv = ["fusion", "dim", "--group", "cyclic:2", "--word", word, "--n", "5",
                    "--format", "json"]
            try:
                code, stdout = _cli(self.raw, argv)
            except Exception as exc:  # RecursionError at the seed
                out.append((f"fusion dim:{length}", False, type(exc).__name__))
                continue
            if code == 0:
                letters = [0 if g == "e" else 1 for g in word.split(",")]
                ok = json.loads(stdout)["dimension"] == oracles.word_dimension(
                    oracles.GroupModel.cyclic(2), letters, 5)
            else:
                ok = code == 3
            out.append((f"fusion dim:{length}", ok, "value" if code == 0 else f"exit {code}"))
        return out


WORKLOADS = {w.name: w for w in (DiagramCalculus, MapAssembly, IntertwinerCounts, CliScripts)}
