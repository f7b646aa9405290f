"""Vine tree sequences: validation, encodings, orders, telescoping."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_vine, random_admissible_gamma
from oracles import (
    REFERENCE_CHAINS,
    REFERENCE_MATRICES,
    REFERENCE_ORDERS,
    TRUNCATED_MATRIX,
)
from xvine.errors import (
    InfeasibleDiagonal,
    MalformedMatrix,
    MissingSubset,
    NonpositiveValue,
    NotATree,
    ProximityViolation,
    TruncatedVine,
    UnknownEdge,
    WrongCardinality,
)
from xvine.reference import chain_vine, cvine, five_variable_spec
from xvine.vines import (
    StructureMatrix,
    VineSequence,
    from_structure_matrix,
    random_vine,
    sampling_order,
)


@pytest.fixture(scope="module")
def bench():
    return five_variable_spec().vine


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_benchmark_vine_shape(bench):
    assert bench.d == 5 and bench.q == 4 and not bench.is_truncated
    labels = [e.label for e in bench.trees[0]]
    assert labels == ["(1,2)", "(2,3)", "(2,4)", "(4,5)"]
    top = bench.trees[3][0]
    assert (top.a, top.b, sorted(top.cond)) == (1, 5, [2, 3, 4])


def test_find_edge_forms(bench):
    e = bench.find_edge((2, 1))
    assert e.key == (1, 2, ())
    assert bench.find_edge((4, 1, (3, 2))).key == (1, 4, (2, 3))
    with pytest.raises(UnknownEdge):
        bench.find_edge((1, 4))
    with pytest.raises(UnknownEdge):
        bench.find_edge((1, 2, 3, 4))


def test_cycle_detected():
    with pytest.raises(NotATree):
        VineSequence([[(1, 2), (2, 3), (1, 3)]], d=4)


def test_disconnected_detected():
    with pytest.raises(NotATree):
        VineSequence([[(1, 2), (3, 4), (1, 2)]], d=4)


def test_proximity_violation_detected():
    t1 = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})]
    bad = [frozenset({t1[0], t1[2]}),  # (1,2) vs (3,4): no shared node
           frozenset({t1[0], t1[1]})]
    with pytest.raises(ProximityViolation):
        VineSequence([t1, bad], d=4)


def test_wrong_edge_count():
    with pytest.raises(WrongCardinality):
        VineSequence([[(1, 2)]], d=3)


def test_self_loop_rejected():
    with pytest.raises(WrongCardinality):
        VineSequence([[(1, 1), (2, 3)]], d=3)


# ---------------------------------------------------------------------------
# one tree at a time
# ---------------------------------------------------------------------------

def raw_trees(v):
    """The nested-pair form the constructor takes, rebuilt from a vine's edges."""
    def raw(e):
        return e.union if e.level == 1 else frozenset((raw(e.child_a), raw(e.child_b)))
    return [[raw(e) for e in t] for t in v.trees]


def grown(v):
    """v rebuilt from its first tree by one extension per deeper tree."""
    out = VineSequence([[(e.a, e.b) for e in v.trees[0]]], d=v.d)
    for t in v.trees[1:]:
        out = out.extend((e.child_a, e.child_b) for e in t)
    return out


VINE_CASES = [(seed, d, q) for seed in range(3) for d in range(3, 9)
              for q in (None, max(1, d // 2))]


@pytest.mark.parametrize("seed,d,q", VINE_CASES)
def test_extend_matches_raw_construction(seed, d, q):
    v = make_random_vine(seed, d, q)
    built = VineSequence(raw_trees(v), d=d)
    ext = grown(v)
    assert ext == built == v
    assert ext.q == v.q and ext.is_truncated == v.is_truncated
    assert ext.to_structure_matrix() == built.to_structure_matrix()
    for lead in v.nodes:
        assert ext.to_structure_matrix(first_diag=lead) == \
            built.to_structure_matrix(first_diag=lead)
    for e in built.trees[-1] + built.trees[0]:
        got = ext.find_edge(e.key)
        assert got.key == e.key and got.level == e.level and got.union == e.union
        if e.level > 1:
            assert (got.child_a.key, got.child_b.key) == (e.child_a.key, e.child_b.key)
            assert got.a in got.child_a.union and got.b in got.child_b.union
    for e in (x for t in v.trees for x in t):
        assert ext.conditional_edge(e.a, e.cond | {e.b}) == (ext.find_edge(e.key), "a")
        assert ext.conditional_edge(e.b, e.cond | {e.a}) == (ext.find_edge(e.key), "b")


@pytest.mark.parametrize("seed,d", [(s, d) for s in range(3) for d in range(3, 9)])
def test_truncate_slice_equals_rebuilt(seed, d):
    v = make_random_vine(seed, d)
    for q in range(1, v.q + 1):
        cut = v.truncate(q)
        rebuilt = VineSequence(raw_trees(v)[:q], d=d)
        assert cut == rebuilt and cut.q == q
        assert cut.to_structure_matrix() == rebuilt.to_structure_matrix()
        assert [e.key for e in cut.trees[-1]] == [e.key for e in v.trees[q - 1]]


def test_extend_rejects_bad_joins():
    v = make_random_vine(4, 6)
    first = VineSequence([[(e.a, e.b) for e in v.trees[0]]], d=6)
    two = first.extend((e.child_a, e.child_b) for e in v.trees[1])
    t1, t2 = list(first.trees[0]), list(two.trees[1])
    good = [(e.child_a, e.child_b) for e in v.trees[1]]
    # not adjacent: two first-tree edges without a common node
    apart = next((x, y) for i, x in enumerate(t1) for y in t1[i + 1:]
                 if not x.union & y.union)
    with pytest.raises(ProximityViolation):
        first.extend([apart] + good[1:])
    # not in the last tree: a tree-2 edge offered to tree 3, or tree-1 edges to tree 3
    with pytest.raises(NotATree):
        first.extend([(t2[0], t1[0])] + good[1:])
    with pytest.raises(NotATree):
        two.extend([(t1[0], t1[1])] + [(t2[0], t2[1])] * (len(t2) - 2))
    # a cycle among adjacent joins, with the right number of edges
    adjacent = [(x, y) for i, x in enumerate(t1) for y in t1[i + 1:]
                if len(x.union & y.union) == 1]
    cyc = next(c for c in (adjacent[i:i + len(good)] for i in range(len(adjacent)))
               if len(c) == len(good) and _has_cycle(c))
    with pytest.raises(NotATree):
        first.extend(cyc)
    # wrong count, and no tree after a single edge
    with pytest.raises(WrongCardinality):
        first.extend(good[1:])
    top = grown(make_random_vine(4, 3))
    with pytest.raises(WrongCardinality):
        top.extend([])


def _has_cycle(pairs):
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx == ry:
            return True
        parent[rx] = ry
    return False


def test_extend_checks_only_the_new_tree():
    v = make_random_vine(7, 5)
    one = VineSequence([[(e.a, e.b) for e in v.trees[0]]], d=5)
    ext = one.extend((e.child_a, e.child_b) for e in v.trees[1])
    assert all(a is b for a, b in zip(ext.trees[0], one.trees[0]))
    assert ext == v.truncate(2)


@pytest.mark.parametrize("seed,d", [(2, 5), (8, 7)])
def test_extend_indexes_the_new_tree_and_leaves_the_old_vine(seed, d):
    v = make_random_vine(seed, d)
    grow = VineSequence([[(e.a, e.b) for e in v.trees[0]]], d=d)
    for t in v.trees[1:]:
        before = grow
        grow = before.extend((e.child_a, e.child_b) for e in t)
        # the extended index is the one a fresh build makes
        fresh = VineSequence._of(grow.nodes, grow.trees)
        assert grow._by_key == fresh._by_key and grow._cond == fresh._cond
        # and the vine it grew from still knows only its own trees
        for e in t:
            with pytest.raises(UnknownEdge):
                before.find_edge(e.key)
            assert before.conditional_edge(e.a, e.cond | {e.b}) is None


# ---------------------------------------------------------------------------
# structure matrices
# ---------------------------------------------------------------------------

def test_benchmark_matrices_per_diagonal(bench):
    for lead, want in REFERENCE_MATRICES.items():
        sm = bench.to_structure_matrix(diagonal=REFERENCE_ORDERS[lead])
        assert sm.matrix == want, f"leading node {lead}"


def test_truncated_benchmark_matrix(bench):
    sm = bench.truncate(2).to_structure_matrix(first_diag=1)
    assert sm.matrix == TRUNCATED_MATRIX
    assert sm.trunc == 2


def test_explicit_diagonal_pinning(bench):
    sm = bench.to_structure_matrix(diagonal=(4, 5, 2, 3, 1))
    assert sm.matrix == REFERENCE_MATRICES[4]
    with pytest.raises(InfeasibleDiagonal):
        bench.to_structure_matrix(diagonal=(4, 4, 2, 3, 1))
    with pytest.raises(InfeasibleDiagonal):
        bench.to_structure_matrix(first_diag=9)
    with pytest.raises(InfeasibleDiagonal):
        bench.to_structure_matrix(first_diag=1, diagonal=(4, 5, 2, 3, 1))


def test_matrix_round_trip_benchmark(bench):
    for lead in (1, 2, 3, 4, 5):
        back = from_structure_matrix(bench.to_structure_matrix(first_diag=lead))
        assert [e.key for t in back.trees for e in t] == \
               [e.key for t in bench.trees for e in t]


@pytest.mark.parametrize("seed", range(12))
def test_matrix_round_trip_random(seed):
    rng = np.random.default_rng(1000 + seed)
    d = int(rng.integers(3, 8))
    q = int(rng.integers(1, d))
    v = random_vine(d, rng, q=q)
    back = from_structure_matrix(v.to_structure_matrix())
    assert [e.key for t in back.trees for e in t] == [e.key for t in v.trees for e in t]


def test_structure_matrix_validation():
    with pytest.raises(MalformedMatrix):
        StructureMatrix(d=3, trunc=2, matrix=((1, 1, 2), (9, 2, 1), (0, 0, 3)))
    with pytest.raises(MalformedMatrix):
        StructureMatrix(d=3, trunc=2, matrix=((1, 1, 1), (0, 1, 2), (0, 0, 3)))
    with pytest.raises(MalformedMatrix):
        StructureMatrix(d=3, trunc=1, matrix=((1, 1, 2), (0, 2, 1), (0, 0, 3)))
    with pytest.raises(MalformedMatrix):
        StructureMatrix(d=3, trunc=3, matrix=((1, 1, 2), (0, 2, 1), (0, 0, 3)))
    # entries must quote earlier diagonal nodes only
    with pytest.raises(MalformedMatrix):
        StructureMatrix(d=3, trunc=2, matrix=((1, 3, 2), (0, 2, 1), (0, 0, 3)))


def test_structure_matrix_json_round_trip():
    sm = StructureMatrix(d=3, trunc=2, matrix=((1, 1, 2), (0, 2, 1), (0, 0, 3)))
    back = StructureMatrix.from_json(sm.to_json())
    assert back == sm
    with pytest.raises(MalformedMatrix):
        StructureMatrix.from_json({"d": 3, "matrix": []})
    with pytest.raises(MalformedMatrix):
        StructureMatrix.from_json([1, 2, 3])


# ---------------------------------------------------------------------------
# sampling orders
# ---------------------------------------------------------------------------

def test_benchmark_sampling_orders(bench):
    for j in (1, 2, 3, 4, 5):
        so = sampling_order(bench, j)
        assert so.sigma == REFERENCE_ORDERS[j], f"start {j}"
        assert tuple(e.key for e in so.edges) == REFERENCE_CHAINS[j], f"start {j}"


def test_sampling_order_needs_full_vine(bench):
    with pytest.raises(TruncatedVine):
        sampling_order(bench.truncate(2), 1)


# ---------------------------------------------------------------------------
# truncation, telescoping
# ---------------------------------------------------------------------------

def test_truncate_bounds(bench):
    assert bench.truncate(4).q == 4
    with pytest.raises(Exception):
        bench.truncate(0)
    with pytest.raises(Exception):
        bench.truncate(5)


def test_telescoping_identity_benchmark(bench):
    rng = np.random.default_rng(5)
    gamma = random_admissible_gamma(bench, rng)
    lhs = bench.telescoping_product(gamma)
    assert abs(lhs / gamma[frozenset(bench.nodes)] - 1.0) < 1e-12


def test_telescoping_missing_subset(bench):
    gamma = random_admissible_gamma(bench, np.random.default_rng(6))
    gamma.pop(frozenset({2, 3}))
    with pytest.raises(MissingSubset):
        bench.telescoping_product(gamma)


def test_telescoping_nonpositive_value(bench):
    gamma = random_admissible_gamma(bench, np.random.default_rng(7))
    gamma[frozenset({2, 3})] = 0.0
    with pytest.raises(NonpositiveValue):
        bench.telescoping_product(gamma)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000), st.integers(3, 7))
def test_telescoping_identity_random(seed, d):
    v = make_random_vine(seed, d)
    gamma = random_admissible_gamma(v, np.random.default_rng(seed + 1))
    assert abs(v.telescoping_product(gamma) / gamma[frozenset(v.nodes)] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,q", [(2, 1), (3, 2), (5, 4), (7, 3), (10, 1)])
def test_random_vine_valid(d, q):
    v = random_vine(d, np.random.default_rng(d * 31 + q), q=q)
    assert v.d == d and v.q == q
    assert len(v.trees[0]) == d - 1


def test_random_vine_is_fixed_by_its_rng():
    # a change to how the trees are grown must not change which vine, nor
    # how much of the rng it uses
    rng = np.random.default_rng(11)
    v = random_vine(5, rng)
    assert [[e.key for e in t] for t in v.trees] == [
        [(1, 2, ()), (1, 3, ()), (1, 4, ()), (4, 5, ())],
        [(1, 5, (4,)), (2, 3, (1,)), (2, 4, (1,))],
        [(2, 5, (1, 4)), (3, 4, (1, 2))],
        [(3, 5, (1, 2, 4))],
    ]
    assert rng.integers(0, 1000) == 28


def test_named_vines():
    path = chain_vine(4)
    assert [e.label for e in path.trees[0]] == ["(1,2)", "(2,3)", "(3,4)"]
    star = cvine(4)
    assert {e.key for e in star.trees[0]} == {(1, 2, ()), (1, 3, ()), (1, 4, ())}
    assert star.trees[1][0].cond == frozenset({1})
    assert chain_vine(5, q=2).q == 2
