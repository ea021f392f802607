"""Input generators and reference answers written from the definitions.

Nothing here calls into ``ncwreath``: the generators produce plain payloads
(dicts, tuples, group tables) and the oracles recompute answers by methods
unrelated to the library's own algorithms, so agreement is evidence.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb


def catalan(n: int) -> int:
    """Closed-form Catalan number; ``|NC(k, l)| = catalan(k + l)``."""
    return comb(2 * n, n) // (n + 1)


# -- noncrossing diagrams as payloads -----------------------------------------


def random_noncrossing(rng, points: int) -> list[list[int]]:
    """A random noncrossing partition of the line positions ``0..points-1``.

    Positions are scanned left to right with a stack of open blocks: each
    position first closes some open blocks, then joins the innermost open
    block or opens a new one. A closed block never grows again, so no two
    blocks can interleave; every noncrossing partition is reachable.
    """
    blocks: list[list[int]] = []
    stack: list[int] = []
    for pos in range(points):
        while stack and rng.random() < 0.35:
            stack.pop()
        if stack and rng.random() < 0.5:
            blocks[stack[-1]].append(pos)
        else:
            stack.append(len(blocks))
            blocks.append([pos])
    return blocks


def token(pos: int, upper: int, lower: int) -> str:
    """Point token of a bent-line position: ``u1..uk`` then ``ll..l1``."""
    if pos < upper:
        return f"u{pos + 1}"
    return f"l{upper + lower - pos}"


def payload(upper: int, lower: int, blocks) -> dict:
    return {
        "upper": upper,
        "lower": lower,
        "blocks": [[token(pos, upper, lower) for pos in block] for block in blocks],
    }


def random_payload(rng, upper: int, lower: int) -> dict:
    return payload(upper, lower, random_noncrossing(rng, upper + lower))


def diagram_key(data: dict):
    """Order-free identity of a diagram payload."""
    return (
        data["upper"],
        data["lower"],
        frozenset(frozenset(block) for block in data["blocks"]),
    )


def tensor_key(p: dict, q: dict):
    """Key of ``q`` placed to the right of ``p``."""

    def shift(tok: str) -> str:
        offset = p["upper"] if tok[0] == "u" else p["lower"]
        return f"{tok[0]}{int(tok[1:]) + offset}"

    blocks = [list(b) for b in p["blocks"]] + [[shift(t) for t in b] for b in q["blocks"]]
    return diagram_key(
        {"upper": p["upper"] + q["upper"], "lower": p["lower"] + q["lower"], "blocks": blocks}
    )


def adjoint_key(key):
    """Key of the upside-down diagram: rows swap, indices keep."""
    upper, lower, blocks = key
    swap = {"u": "l", "l": "u"}
    return (
        lower,
        upper,
        frozenset(frozenset(swap[t[0]] + t[1:] for t in block) for block in blocks),
    )


def malformed_payload(rng, kind: str) -> dict:
    """A payload that is not a noncrossing diagram, of the named kind."""
    upper, lower = rng.randint(2, 4), rng.randint(2, 4)
    points = upper + lower
    if kind == "crossing":
        a, b, c, d = sorted(rng.sample(range(points), 4))
        rest = [[x] for x in range(points) if x not in (a, b, c, d)]
        return payload(upper, lower, [[a, c], [b, d], *rest])
    data = random_payload(rng, upper, lower)
    block = rng.choice(data["blocks"])
    if kind == "duplicate":
        other = rng.choice(data["blocks"])
        other.append(rng.choice(block))
    elif kind == "out_of_range":
        block.append(f"u{upper + rng.randint(1, 3)}" if rng.random() < 0.5 else "l0")
    else:
        raise ValueError(kind)
    return data


MALFORMED_KINDS = ("crossing", "duplicate", "out_of_range")


def map_nonzeros(data: dict, block_sizes) -> int:
    """Non-zero entries of a diagram's map over a multimatrix algebra.

    Each block of ``m`` legs contributes the closed chains of matrix units of
    one algebra block, ``sum(s ** m)`` of them; blocks multiply.
    """
    count = 1
    for block in data["blocks"]:
        count *= sum(s ** len(block) for s in block_sizes)
    return count


# -- multimatrix states ------------------------------------------------------


def random_state(rng, blocks: int, groups: int):
    """A state whose blocks fall into ``groups`` inverse-trace classes.

    Returns the algebra payload, the designed grouping (sets of 1-based
    block indices) and each group's delta: the inverse-weight trace of its
    blocks after renormalizing the group's weights to mass one.
    """
    targets = rng.sample(range(3, 40), groups)
    label = [g for g in range(groups)] + [rng.randrange(groups) for _ in range(blocks - groups)]
    rng.shuffle(label)
    raw = []
    for b in range(blocks):
        size = rng.randint(1, 3)
        shape = [rng.uniform(0.5, 2.0) for _ in range(size)]
        scale = sum(1.0 / x for x in shape) / targets[label[b]]
        raw.append([x * scale for x in shape])
    total = sum(sum(row) for row in raw)
    weights = [[x / total for x in row] for row in raw]
    data = {"blocks": [{"size": len(row), "q": row} for row in weights]}
    grouping, deltas = [], []
    for g in range(groups):
        members = [b for b in range(blocks) if label[b] == g]
        mass = sum(sum(weights[b]) for b in members)
        traces = [sum(1.0 / x for x in weights[b]) for b in members]
        grouping.append(tuple(b + 1 for b in members))
        deltas.append(mass * sum(traces) / len(traces))
    return data, grouping, deltas


# -- groups and words --------------------------------------------------------


def symmetric_group_table(n: int) -> dict:
    """Multiplication table of S_n on permutations, ``(p*q)(x) = p(q(x))``."""
    perms = list(itertools.permutations(range(n)))
    identity = tuple(range(n))
    names = ["e" if p == identity else "p" + "".join(map(str, p)) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    return {"elements": names, "identity": "e", "table": table}


class GroupModel:
    """A group as plain data: identity, multiplication, inverse, letters."""

    def __init__(self, identity, mul, inv, letters):
        self.identity, self.mul, self.inv, self.letters = identity, mul, inv, letters

    @classmethod
    def cyclic(cls, order: int):
        return cls(0, lambda a, b: (a + b) % order, lambda a: -a % order, range(order))

    @classmethod
    def integers(cls, radius: int):
        return cls(0, lambda a, b: a + b, lambda a: -a, range(-radius, radius + 1))

    @classmethod
    def table(cls, data: dict):
        table = data["table"]
        size = len(table)
        e = data["elements"].index(data["identity"])
        inverse = [next(b for b in range(size) if table[a][b] == e) for a in range(size)]
        return cls(e, lambda a, b: table[a][b], lambda a: inverse[a], range(size))

    def word(self, rng, length: int) -> tuple:
        return tuple(rng.choice(self.letters) for _ in range(length))

    def involution(self, letters) -> tuple:
        return tuple(self.inv(g) for g in reversed(letters))


def one_row_count(group: GroupModel, letters) -> int:
    """Noncrossing partitions of a row of labels in which every block's
    left-to-right product is the identity, by an interval recursion.

    ``F(i, j)`` counts partitions of positions ``i..j-1``; ``B(a, j, h)``
    counts completions over ``a..j-1`` of a block whose product so far is
    ``h``: the block either closes, leaving ``a..j-1`` free, or takes its
    next member ``c``, leaving the gap ``a..c-1`` free.
    """
    letters = tuple(letters)
    mul, e = group.mul, group.identity

    @lru_cache(maxsize=None)
    def free(i: int, j: int) -> int:
        return 1 if i == j else block(i + 1, j, letters[i])

    @lru_cache(maxsize=None)
    def block(a: int, j: int, h) -> int:
        total = free(a, j) if h == e else 0
        for c in range(a, j):
            total += free(a, c) * block(c + 1, j, mul(h, letters[c]))
        return total

    return free(0, len(letters))


def word_dimension(group: GroupModel, letters, n: int) -> int:
    """Dimension of a word representation, iteratively.

    ``dim`` is the ring homomorphism with ``dim(g) = n - [g = e]`` on one
    letter, so ``dim(x g) = dim(x) dim(g) - dim(x[:-1] (x[-1] g)) -
    [x[-1] g = e] dim(x[:-1])``. Every word met is a prefix of ``letters``
    with its last letter replaced, so ``level[i][g]`` holds
    ``dim(letters[:i-1] + (g,))`` and levels fill bottom-up.
    """
    letters = tuple(letters)
    size = len(letters)
    if not size:
        return 1
    need = [set() for _ in range(size + 1)]
    need[size].add(letters[-1])
    for i in range(size, 1, -1):
        prev = letters[i - 2]
        need[i - 1].add(prev)
        need[i - 1].update(group.mul(prev, g) for g in need[i])
        if i >= 3:
            need[i - 2].add(letters[i - 3])

    def single(g) -> int:
        return n - (g == group.identity)

    level = [None, {g: single(g) for g in need[1]}]
    for i in range(2, size + 1):
        prev = letters[i - 2]
        before = level[i - 2][letters[i - 3]] if i >= 3 else 1
        row = {}
        for g in need[i]:
            value = level[i - 1][prev] * single(g) - level[i - 1][group.mul(prev, g)]
            if group.mul(prev, g) == group.identity:
                value -= before
            row[g] = value
        level.append(row)
    return level[size][letters[-1]]
