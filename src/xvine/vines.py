"""Regular vine tree sequences.

A vine on nodes 1..d is a sequence of trees T_1..T_q (q <= d-1): T_1 spans the
nodes, and the nodes of T_j are the edges of T_{j-1}, joined only when they
share a component (proximity). Each edge e carries a conditioned pair (a_e,
b_e) and a conditioning set D_e; the pair (a_e, b_e, D_e) identifies an edge
uniquely across the whole sequence.

Edges are entered as nested pairs: a first-tree edge is a pair of node labels,
a deeper edge is a pair of edges of the previous tree, e.g.
``[[(1, 2), (2, 3)], [((1, 2), (2, 3))]]`` for d = 3.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import (
    DomainError,
    InfeasibleDiagonal,
    MalformedMatrix,
    MissingSubset,
    NonpositiveValue,
    NotATree,
    ProximityViolation,
    TruncatedVine,
    UnknownEdge,
    WrongCardinality,
    XVineError,
    _count,
    _real,
)


@dataclass(frozen=True)
class Edge:
    """One edge of a vine tree; identity is the triple (a, b, cond)."""

    a: int
    b: int
    cond: frozenset[int]
    union: frozenset[int] = field(compare=False)
    level: int = field(compare=False)
    child_a: Edge | None = field(compare=False, repr=False, default=None)
    child_b: Edge | None = field(compare=False, repr=False, default=None)

    @property
    def key(self) -> tuple[int, int, tuple[int, ...]]:
        return self.a, self.b, tuple(sorted(self.cond))

    @property
    def label(self) -> str:
        if self.cond:
            return f"({self.a},{self.b};{','.join(map(str, sorted(self.cond)))})"
        return f"({self.a},{self.b})"


def _canon(item, level: int):
    """Canonical nested-frozenset form of a raw edge at the given level."""
    try:
        parts = list(item)
    except TypeError:
        raise WrongCardinality(f"edge entry {item!r} is not a pair") from None
    if len(parts) != 2:
        raise WrongCardinality(f"edge entry {item!r} must have exactly two endpoints")
    if level == 1:
        if not all(isinstance(p, int) and not isinstance(p, bool) for p in parts):
            raise WrongCardinality(f"first-tree edge {item!r} must join two integer nodes")
        out = frozenset(parts)
    else:
        out = frozenset(_canon(p, level - 1) for p in parts)
    if len(out) != 2:
        raise WrongCardinality(f"edge entry {item!r} joins a node to itself")
    return out


def _kruskal_forest(nodes: Iterable, pairs: Iterable[tuple]) -> list[tuple]:
    """Kruskal's forest: the pairs, in the order given, that join two
    components of the pairs taken before them (union-find on `nodes`)."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    taken = []
    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
            taken.append((x, y))
    return taken


def _check_tree(node_set: set, pairs: list[tuple], level: int) -> None:
    """Check that `pairs` is a spanning tree on `node_set`."""
    taken = len(_kruskal_forest(node_set, pairs))
    if taken < len(pairs):
        raise NotATree(f"tree {level} contains a cycle")
    if taken < len(node_set) - 1:
        raise NotATree(f"tree {level} is disconnected")


def _edge_key(ref) -> tuple:
    """The key (a, b, sorted D) with a < b of an Edge, (a, b) or (a, b, D)."""
    if isinstance(ref, Edge):
        return ref.key
    parts = tuple(ref)
    if len(parts) == 2:
        x, y = sorted(parts)
        return (x, y, ())
    if len(parts) == 3:
        x, y = sorted(parts[:2])
        return (x, y, tuple(sorted(parts[2])))
    raise UnknownEdge(f"cannot interpret edge reference {ref!r}")


def _components(e: Edge) -> frozenset:
    """What e joins: two nodes on tree 1, two edges of the previous tree deeper."""
    return e.union if e.level == 1 else frozenset((e.child_a, e.child_b))


def _join(prev: Sequence[Edge], pairs: Iterable) -> list[Edge]:
    """The tree after `prev`, one edge per pair of its edges, in input order.

    Each pair must share exactly one component (proximity), and the pairs
    must form a spanning tree on `prev`.
    """
    lvl = prev[0].level + 1
    if len(prev) < 2:
        raise WrongCardinality(f"tree {lvl - 1} has a single edge, so no tree follows it")
    pairs = [tuple(p) for p in pairs]
    if len(pairs) != len(prev) - 1:
        raise WrongCardinality(
            f"tree {lvl} must have {len(prev) - 1} edges, got {len(pairs)}")
    own = {e: e for e in prev}
    edges: list[Edge] = []
    for p in pairs:
        if len(p) != 2:
            raise WrongCardinality(f"tree {lvl} entry {p!r} must join two edges")
        e1, e2 = (own.get(x) if isinstance(x, Edge) else None for x in p)
        if e1 is None or e2 is None:
            raise NotATree(f"tree {lvl} endpoint is not an edge of tree {lvl - 1}")
        shared = _components(e1) & _components(e2)
        if len(shared) != 1:
            raise ProximityViolation(
                f"edges {e1.label} and {e2.label} share "
                f"{len(shared)} components, need exactly 1")
        union = e1.union | e2.union
        cond = e1.union & e2.union
        conditioned = union - cond
        if len(conditioned) != 2:
            raise WrongCardinality(
                f"joining {e1.label} and {e2.label} leaves "
                f"{len(conditioned)} conditioned variables")
        x, y = sorted(conditioned)
        ca = e1 if x in e1.union else e2
        cb = e2 if ca is e1 else e1
        edges.append(Edge(a=x, b=y, cond=cond, union=union, level=lvl,
                          child_a=ca, child_b=cb))
    _check_tree(set(prev), [(e.child_a, e.child_b) for e in edges], lvl)
    return edges


class VineSequence:
    """A validated (possibly truncated) regular vine tree sequence."""

    __slots__ = ("d", "nodes", "trees", "_by_key", "_cond")

    def __init__(self, trees: Sequence[Iterable], d: int | None = None):
        raw_trees = [list(t) for t in trees]
        if d is not None:
            node_set = set(range(1, _count(d, "d") + 1))
        else:
            node_set = set()
            for item in raw_trees[0] if raw_trees else ():
                node_set.update(_canon(item, 1))
        if len(node_set) < 2:
            raise WrongCardinality("a vine needs at least two nodes")
        if not raw_trees or len(raw_trees) > len(node_set) - 1:
            raise WrongCardinality(
                f"need between 1 and {len(node_set) - 1} trees, got {len(raw_trees)}")
        if len(raw_trees[0]) != len(node_set) - 1:
            raise WrongCardinality(
                f"tree 1 must have {len(node_set) - 1} edges, got {len(raw_trees[0])}")

        first: list[Edge] = []
        for item in raw_trees[0]:
            ck = _canon(item, 1)
            x, y = sorted(ck)
            if not ck <= node_set:
                raise NotATree(f"edge ({x},{y}) uses a node outside the node set")
            first.append(Edge(a=x, b=y, cond=frozenset(), union=ck, level=1))
        _check_tree(node_set, [(e.a, e.b) for e in first], 1)
        built = [first]
        by_raw = {e.union: e for e in first}  # canonical raw form -> edge of the last tree
        for lvl, raw in enumerate(raw_trees[1:], start=2):
            cks = [_canon(item, lvl) for item in raw]
            built.append(_join(built[-1], [[by_raw.get(k) for k in ck] for ck in cks]))
            by_raw = dict(zip(cks, built[-1]))
        self._set(node_set, built)

    def _set(self, nodes: Iterable[int], trees: Iterable[Iterable[Edge]]) -> None:
        self.nodes = tuple(sorted(nodes))
        self.d = len(self.nodes)
        self.trees = ()
        self._by_key = {}
        self._cond = {}
        for t in trees:
            self._add(t)

    def _add(self, tree: Iterable[Edge]) -> None:
        """Append a tree, sorted by edge key, and index its edges."""
        tree = tuple(sorted(tree, key=lambda e: e.key))
        self.trees = (*self.trees, tree)
        for e in tree:
            self._by_key[e.key] = e
            self._cond[(e.a, e.cond | {e.b})] = (e, "a")
            self._cond[(e.b, e.cond | {e.a})] = (e, "b")

    @classmethod
    def _of(cls, nodes: Iterable[int], trees) -> VineSequence:
        """A vine of already-validated trees."""
        out = cls.__new__(cls)
        out._set(nodes, trees)
        return out

    def extend(self, pairs: Iterable[tuple[Edge, Edge]]) -> VineSequence:
        """This vine with one more tree, whose edges join the given pairs of
        edges of the last tree. Only the new tree is validated and indexed."""
        new = _join(self.trees[-1], pairs)
        out = VineSequence.__new__(VineSequence)
        out.nodes, out.d, out.trees = self.nodes, self.d, self.trees
        out._by_key, out._cond = dict(self._by_key), dict(self._cond)
        out._add(new)
        return out

    # --- basic views ---------------------------------------------------------

    @property
    def q(self) -> int:
        """Number of trees (truncation level)."""
        return len(self.trees)

    @property
    def is_truncated(self) -> bool:
        return self.q < self.d - 1

    def level_edges(self, j: int) -> tuple[Edge, ...]:
        j = _count(j, "tree index")
        if not 1 <= j <= self.q:
            raise DomainError(f"tree index {j} outside 1..{self.q}")
        return self.trees[j - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, VineSequence):
            return NotImplemented
        return self.nodes == other.nodes and tuple(
            tuple(e.key for e in t) for t in self.trees) == tuple(
            tuple(e.key for e in t) for t in other.trees)

    def __hash__(self):
        return hash((self.nodes, tuple(tuple(e.key for e in t) for t in self.trees)))

    def __repr__(self) -> str:
        return f"VineSequence(d={self.d}, q={self.q})"

    # --- lookups -------------------------------------------------------------

    def find_edge(self, ref) -> Edge:
        """Resolve an edge reference: an Edge, (a, b) for tree 1, or (a, b, D)."""
        key = _edge_key(ref)
        try:
            return self._by_key[key]
        except KeyError:
            raise UnknownEdge(f"no edge ({key[0]},{key[1]};{key[2]}) in this vine") from None

    def conditional_edge(self, i: int, given: Iterable[int]):
        """Edge and side providing the conditional of i given `given`, if explicit."""
        return self._cond.get((i, frozenset(given)))

    # --- derived structures ----------------------------------------------------

    def truncate(self, q: int) -> VineSequence:
        """Keep only trees 1..q."""
        q = _count(q, "truncation level")
        if not 1 <= q <= self.q:
            raise DomainError(f"truncation level {q} outside 1..{self.q}")
        return VineSequence._of(self.nodes, self.trees[:q])

    def telescoping_product(self, gamma: Mapping[frozenset, float]) -> float:
        """Evaluate the telescoping edge product of a subset functional.

        gamma maps frozensets of nodes to positive reals with gamma({j}) = 1
        (singletons may be omitted). For any such functional the product over
        edges of gamma(D_e) * gamma(A_e) / (gamma(A_child_a) * gamma(A_child_b))
        collapses to gamma of the full node set when the vine is untruncated.
        """
        def g(s: frozenset) -> float:
            if len(s) == 1 and s not in gamma:
                return 1.0
            nodes = f"{{{','.join(map(str, sorted(s)))}}}"
            try:
                v = float(_real(gamma[s], f"gamma of {nodes}"))
            except KeyError:
                raise MissingSubset(f"gamma is missing the subset {nodes}") from None
            if not v > 0.0:
                raise NonpositiveValue(f"gamma of {nodes} must be positive, got {v}")
            return v

        out = 1.0
        for e in self.trees[0]:
            out *= g(e.union)
        for t in self.trees[1:]:
            for e in t:
                out *= g(e.cond) * g(e.union) / (g(e.child_a.union) * g(e.child_b.union))
        return out

    # --- structure matrices -----------------------------------------------------

    def to_structure_matrix(self, first_diag: int | None = None,
                            diagonal: Sequence[int] | None = None) -> StructureMatrix:
        """Encode as an upper-triangular structure matrix.

        Columns are filled right to left by repeatedly peeling a node that sits
        in the conditioned pair of exactly one deepest-tree edge. `diagonal`
        pins the whole peel order (position 1 is never peeled); otherwise the
        smallest eligible node other than `first_diag` is peeled each round.
        """
        if diagonal is not None:
            diagonal = tuple(_count(x, "diagonal entry") for x in diagonal)
            if sorted(diagonal) != list(self.nodes):
                raise InfeasibleDiagonal(
                    f"diagonal {diagonal} is not a permutation of the nodes")
            if first_diag is not None and first_diag != diagonal[0]:
                raise InfeasibleDiagonal(
                    f"first_diag={first_diag} conflicts with diagonal[0]={diagonal[0]}")
            first_diag = diagonal[0]
        if first_diag is not None and _count(first_diag, "first_diag") not in self.nodes:
            raise InfeasibleDiagonal(f"first_diag={first_diag} is not a node")

        d, q = self.d, self.q
        pos = {n: i for i, n in enumerate(self.nodes)}
        live: list[set[Edge]] = [set(t) for t in self.trees]
        live_nodes = set(self.nodes)
        mat = [[0] * d for _ in range(d)]

        for col in range(d, 1, -1):
            deepest_lvl = min(q, col - 1)
            owners: dict[int, list[Edge]] = {}
            for e in live[deepest_lvl - 1]:
                for m in e.union:
                    owners.setdefault(m, []).append(e)
            peelable = {m: es[0] for m, es in owners.items()
                        if len(es) == 1 and m in (es[0].a, es[0].b)}
            if diagonal is not None:
                want = diagonal[col - 1]
                if want not in peelable:
                    raise InfeasibleDiagonal(
                        f"node {want} cannot occupy diagonal position {col}")
            else:
                cands = set(peelable) - ({first_diag} if first_diag is not None else set())
                if not cands:
                    raise InfeasibleDiagonal(
                        f"no node other than {first_diag} can be peeled at column {col}")
                want = min(cands)
            e = peelable[want]
            for lvl in range(deepest_lvl, 0, -1):
                mat[lvl - 1][col - 1] = e.a if e.b == want else e.b
                live[lvl - 1].discard(e)
                if lvl > 1:
                    e = e.child_a if want in e.child_a.union else e.child_b
            live_nodes.discard(want)
            mat[col - 1][col - 1] = want
        mat[0][0] = live_nodes.pop()
        return StructureMatrix(d=d, trunc=q,
                               matrix=tuple(tuple(row) for row in mat))


@dataclass(frozen=True)
class StructureMatrix:
    """Upper-triangular integer encoding of a (truncated) vine."""

    d: int
    trunc: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d, q, m = self.d, self.trunc, self.matrix
        if d < 2:
            raise MalformedMatrix(f"dimension {d} below 2")
        if not 1 <= q <= d - 1:
            raise MalformedMatrix(f"truncation level {q} outside 1..{d - 1}")
        if len(m) != d or any(len(row) != d for row in m):
            raise MalformedMatrix(f"matrix must be {d}x{d}")
        diag = [m[i][i] for i in range(d)]
        if sorted(diag) != sorted(set(diag)) or len(set(diag)) != d:
            raise MalformedMatrix("diagonal is not a permutation of distinct nodes")
        allowed: set[int] = set()
        for i in range(d):          # column, 0-indexed
            for r in range(d):      # row
                v = m[r][i]
                if r > i and v != 0:
                    raise MalformedMatrix(f"nonzero entry below the diagonal at ({r+1},{i+1})")
                if r < i:
                    filled = r < min(i, q)
                    if filled and v not in allowed:
                        raise MalformedMatrix(
                            f"entry {v} at ({r+1},{i+1}) is not an earlier diagonal node")
                    if not filled and v != 0:
                        raise MalformedMatrix(
                            f"entry at ({r+1},{i+1}) must be 0 beyond truncation level {q}")
            allowed.add(m[i][i])

    def to_json(self) -> dict:
        return {"d": self.d, "trunc": self.trunc,
                "matrix": [list(row) for row in self.matrix]}

    @classmethod
    def from_json(cls, obj) -> StructureMatrix:
        if not isinstance(obj, Mapping):
            raise MalformedMatrix("structure JSON must be an object")
        try:
            d = int(obj["d"])
            trunc = int(obj["trunc"])
            rows = obj["matrix"]
            matrix = tuple(tuple(int(v) for v in row) for row in rows)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedMatrix(f"structure JSON malformed: {exc}") from exc
        return cls(d=d, trunc=trunc, matrix=matrix)


def from_structure_matrix(sm: StructureMatrix) -> VineSequence:
    """Decode a structure matrix back into a vine sequence, one tree at a time.

    Row k of column i joins the column's own tree-(k-1) edge, on its diagonal
    node and the entries above row k, with the tree-(k-1) edge on those
    entries and the one at row k.
    """
    d, q, m = sm.d, sm.trunc, sm.matrix
    try:
        vine = VineSequence([[(m[i][i], m[0][i]) for i in range(1, d)]], d=d)
        for k in range(2, q + 1):
            by_union = {e.union: e for e in vine.trees[-1]}
            pairs = []
            for i in range(k, d):
                above = frozenset(m[t][i] for t in range(k - 1))
                # a missing partner edge reaches the join as None, which rejects it
                pairs.append((by_union[above | {m[i][i]}], by_union.get(above | {m[k - 1][i]})))
            vine = vine.extend(pairs)
    except XVineError as exc:
        raise MalformedMatrix(f"decoded edges do not form a regular vine: {exc}") from exc
    return vine


@dataclass(frozen=True)
class SamplingOrder:
    """A node permutation with its nested edge chain for conditional sampling."""

    j: int
    sigma: tuple[int, ...]
    edges: tuple[Edge, ...]


def sampling_order(vine: VineSequence, j: int) -> SamplingOrder:
    """Canonical sampling order started at node j (untruncated vines only).

    sigma(1) = j; each subsequent step extends the chain by an edge of the next
    tree incident to the current chain edge, preferring edges that are leaves
    of the tree after that and breaking ties on the smallest new node.
    """
    if vine.is_truncated:
        raise TruncatedVine(
            f"sampling order needs all {vine.d - 1} trees, vine has {vine.q}")
    j = _count(j, "node")
    if j not in vine.nodes:
        raise DomainError(f"node {j} not in vine")
    sigma = [j]
    seen = {j}
    chain: list[Edge] = []
    current: Edge | None = None
    for lvl in range(1, vine.d):
        if lvl == 1:
            cands = [e for e in vine.trees[0] if j in (e.a, e.b)]
        else:
            cands = [e for e in vine.trees[lvl - 1]
                     if current in (e.child_a, e.child_b)]
        pool = cands
        if len(cands) > 1 and lvl < vine.d - 1:
            degree: dict[Edge, int] = {}
            for f in vine.trees[lvl]:
                degree[f.child_a] = degree.get(f.child_a, 0) + 1
                degree[f.child_b] = degree.get(f.child_b, 0) + 1
            leaves = [e for e in cands if degree.get(e, 0) <= 1]
            pool = leaves or cands
        new = {e: next(iter(e.union - seen)) for e in pool}
        e = min(pool, key=lambda e: new[e])
        chain.append(e)
        sigma.append(new[e])
        seen.add(new[e])
        current = e
    return SamplingOrder(j=j, sigma=tuple(sigma), edges=tuple(chain))


def _prufer_tree(seq: Sequence[int], d: int) -> list[tuple[int, int]]:
    degree = {n: 1 for n in range(1, d + 1)}
    for s in seq:
        degree[s] += 1
    edges = []
    leaves = sorted(n for n in degree if degree[n] == 1)
    for s in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            import bisect
            bisect.insort(leaves, s)
    edges.append((leaves[0], leaves[1]))
    return edges


def random_vine(d: int, rng, q: int | None = None) -> VineSequence:
    """Random regular vine on 1..d (testing aid): random spanning tree per level."""
    d = _count(d, "d", least=2)
    q = d - 1 if q is None else _count(q, "truncation level")
    if not 1 <= q <= d - 1:
        raise DomainError(f"truncation level {q} outside 1..{d - 1}")
    if d == 2:
        return VineSequence([[(1, 2)]], d=2)
    seq = [int(x) for x in rng.integers(1, d + 1, size=d - 2)]
    first = _prufer_tree(seq, d)
    vine = VineSequence([first], d=d)
    level = [vine.find_edge(p) for p in first]
    for _ in range(2, q + 1):
        cand = [(x, y) for x, y in itertools.combinations(level, 2)
                if len(_components(x) & _components(y)) == 1]
        chosen = _kruskal_forest(level, [cand[i] for i in rng.permutation(len(cand))])
        vine = vine.extend(chosen)
        joined = {_components(e): e for e in vine.trees[-1]}
        level = [joined[frozenset(p)] for p in chosen]
    return vine
