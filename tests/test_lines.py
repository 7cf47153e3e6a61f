"""The 27-line configuration: classes, incidence, Weyl orbits, coplanar pairs."""

import functools
import itertools
import random

import pytest

from exactgeom import lines
from exactgeom.errors import VerificationError
from exactgeom.lines import (
    CANONICAL_CLASS,
    LABELS,
    MARKED_ROOTS,
    SIMPLE_ROOTS,
    PermGroup,
    cartan_matrix,
    classify_fiber,
    dynkin_type,
    enumerate_closure,
    exhaustive_box_solutions,
    incidence,
    incidence_dot,
    incidence_graph,
    line_class,
    pairing,
    srg_parameters,
    stabilizer,
    stabilizer_chain,
    stabilizer_roots,
    tritangent_pairs,
    weyl_group,
)


@functools.cache
def full_closure() -> frozenset:
    """Test-only oracle: all 51840 elements of W(E6), enumerated by closure."""
    return enumerate_closure(weyl_group().generators)


def test_named_classes():
    assert line_class("a1") == (0, 1, 0, 0, 0, 0, 0)
    assert line_class("b1") == (2, 0, -1, -1, -1, -1, -1)
    assert line_class("c12") == (1, -1, -1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        line_class("z9")


def test_line_equations_hold():
    for label in LABELS:
        vec = line_class(label)
        assert pairing(vec, vec) == -1
        assert pairing(vec, CANONICAL_CLASS) == -1


def test_exhaustive_box_search_matches_constructed_lines():
    solutions = set(exhaustive_box_solutions())
    assert len(solutions) == 27
    assert solutions == set(lines.LINE_CLASSES.values())


def test_box_search_matches_product_filter():
    # the 7 * 5^6 filter the bucketed search replaced, in the same order
    expected = [
        (a0, *rest)
        for a0 in range(-3, 4)
        for rest in itertools.product(range(-2, 3), repeat=6)
        if lines.is_line_class((a0, *rest))
    ]
    assert exhaustive_box_solutions() == expected


def test_incidence_examples():
    assert incidence("a1", "c12") is True
    assert incidence("a1", "a2") is False
    with pytest.raises(ValueError):
        incidence("a1", "a1")


def test_distinct_lines_pair_to_zero_or_one():
    for l1, l2 in itertools.combinations(LABELS, 2):
        assert pairing(line_class(l1), line_class(l2)) in (0, 1)


def test_every_vertex_has_degree_ten():
    graph = incidence_graph()
    assert all(len(neighbors) == 10 for neighbors in graph.values())


def test_reflection_in_root_e1_minus_e2():
    group = weyl_group()
    gen = group.generators[0]  # reflection in e1 - e2
    mapping = dict(zip(LABELS, (LABELS[i] for i in gen)))
    assert mapping["a1"] == "a2" and mapping["a2"] == "a1"
    assert mapping["b1"] == "b2" and mapping["b2"] == "b1"
    assert mapping["c12"] == "c12"
    for j in range(3, 7):
        assert mapping[f"c1{j}"] == f"c2{j}"


def test_reflection_in_triple_root():
    gen = weyl_group().generators[5]  # reflection in h - e1 - e2 - e3
    mapping = dict(zip(LABELS, (LABELS[i] for i in gen)))
    assert mapping["a1"] == "c23"


def test_identity_fixes_everything():
    assert lines.identity_perm() in full_closure()
    assert dict(zip(LABELS, (LABELS[i] for i in lines.identity_perm()))) == {x: x for x in LABELS}


def test_weyl_group_order():
    assert weyl_group().order == 51840


def test_chain_matches_full_closure_oracle():
    elements = full_closure()
    assert len(elements) == 51840 == weyl_group().order
    a1 = LABELS.index("a1")
    assert frozenset(g for g in elements if g[a1] == a1) == stabilizer("a1").elements


def test_transversal_words_reach_every_line():
    group = weyl_group()
    assert group.base == "a1" and sorted(group.transversal) == sorted(LABELS)
    for label, word in group.transversal.items():
        vec = line_class("a1")
        for i in word:
            vec = lines.reflect(vec, SIMPLE_ROOTS[i])
        assert vec == line_class(label)


def test_schreier_check_rejects_a_proper_subgroup():
    # without h - e2 - e3 - e4 the four roots span S5 (order 120), which
    # fixes a1 but is not its whole stabilizer
    roots = MARKED_ROOTS[:4]
    generators = tuple(lines._reflection_perm(r) for r in roots)
    small = PermGroup(generators, enumerate_closure(generators))
    assert small.order == 120
    with pytest.raises(VerificationError, match="Schreier generator"):
        stabilizer_chain(weyl_group().generators, "a1", small)


def test_stabilizer_roots_form_a_d5_diagram():
    roots = lines._root_orbit()
    assert len(roots) == 72 and set(MARKED_ROOTS) <= roots
    assert dynkin_type(cartan_matrix(MARKED_ROOTS)) == "D5"
    assert dynkin_type(cartan_matrix(SIMPLE_ROOTS)) == "E6"
    assert dynkin_type(cartan_matrix(SIMPLE_ROOTS[:5])) == "A5"
    for label in LABELS:
        roots = stabilizer_roots(label)
        assert all(pairing(r, line_class(label)) == 0 for r in roots)
        assert dynkin_type(cartan_matrix(roots)) == "D5"


def test_dynkin_type_rejects_non_diagrams():
    # a cycle e1-e2, e2-e3, e3-e1; two orthogonal roots; a class of norm -1
    cycle = (SIMPLE_ROOTS[0], SIMPLE_ROOTS[1], (0, -1, 0, 1, 0, 0, 0))
    assert dynkin_type(cartan_matrix(cycle)) is None
    assert dynkin_type(cartan_matrix((SIMPLE_ROOTS[0], SIMPLE_ROOTS[2]))) is None
    assert dynkin_type(cartan_matrix((line_class("a1"),))) is None


def test_weyl_group_transitive():
    assert len(weyl_group().orbits()) == 1


def test_stabilizer_order_and_index():
    stab = stabilizer("a1")
    assert stab.order == 1920
    assert weyl_group().order // stab.order == 27


def test_stabilizer_orbits_match_incidence_partition():
    for marked in LABELS:
        stab = stabilizer(marked)
        assert stab.order == 1920
        orbits = {frozenset(o) for o in stab.orbits()}
        fiber = classify_fiber(marked)
        assert orbits == {frozenset((marked,)), fiber.meeting, fiber.skew}
        assert sorted(len(o) for o in orbits) == [1, 10, 16]


def test_fiber_partition_sizes():
    fiber = classify_fiber("a1")
    assert len(fiber.meeting) == 10 and len(fiber.skew) == 16
    assert fiber.meeting == frozenset(
        {f"b{j}" for j in range(2, 7)} | {f"c1{j}" for j in range(2, 7)}
    )
    assert "a2" in fiber.skew


def test_group_preserves_pairing():
    group = weyl_group()
    pairs = list(itertools.combinations(range(27), 2))
    classes = [line_class(label) for label in LABELS]
    for g in group.generators:
        for i, j in pairs:
            assert pairing(classes[g[i]], classes[g[j]]) == pairing(classes[i], classes[j])
    rng = random.Random(31)
    sample = rng.sample(sorted(full_closure()), 100)
    for g in sample:
        for i, j in rng.sample(pairs, 40):
            assert pairing(classes[g[i]], classes[g[j]]) == pairing(classes[i], classes[j])


def test_strongly_regular_parameters():
    assert srg_parameters() == (27, 10, 1, 5)


def test_neighbors_of_a_line_form_perfect_matching():
    # restricted to the ten lines meeting l, the incidence graph is five
    # disjoint edges, which are exactly the coplanar pairs through l
    graph = incidence_graph()
    for marked in LABELS:
        neighbors = sorted(graph[marked])
        edges = [
            frozenset((m, mp))
            for m, mp in itertools.combinations(neighbors, 2)
            if mp in graph[m]
        ]
        assert len(edges) == 5
        assert sorted(x for e in edges for x in e) == neighbors
        assert set(edges) == set(tritangent_pairs(marked))


def test_tritangent_pairs_of_a1():
    expected = {frozenset((f"c1{j}", f"b{j}")) for j in range(2, 7)}
    assert set(tritangent_pairs("a1")) == expected


def test_tritangent_pairs_sum_to_anticanonical():
    minus_k = tuple(-c for c in CANONICAL_CLASS)
    for marked in ("a1", "c34", "b6"):
        for pair in tritangent_pairs(marked):
            m, mp = sorted(pair)
            total = tuple(
                a + b + c
                for a, b, c in zip(line_class(marked), line_class(m), line_class(mp))
            )
            assert total == minus_k
            assert incidence(m, mp)


def test_dot_output():
    dot = incidence_dot()
    assert dot.startswith("graph")
    assert "a1 -- c12;" in dot
    assert dot.count("--") == 27 * 10 // 2


def test_verification_summary():
    summary = lines.verification_summary()
    assert summary["weyl_order"] == 51840
    assert summary["stabilizer_order"] == 1920
    assert summary["stabilizer_type"] == "D5"
    assert summary["index"] == 27
    assert summary["orbit_sizes"] == [1, 10, 16]
    assert summary["orbits_match_incidence"]
    assert summary["srg"] == [27, 10, 1, 5]
    assert summary["generators_preserve_pairing"]
