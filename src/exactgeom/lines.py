"""The 27 lines on a smooth cubic surface and their Weyl-group symmetry.

The Picard lattice has basis h, e1, ..., e6 with pairing
<u, w> = u0 w0 - sum_i ui wi and canonical class K = -3h + sum_i ei.
Lines are the 27 classes l with <l, l> = <l, K> = -1: the six exceptional
classes ai = ei, the six conic classes bi = 2h - sum_{l != i} el, and the
fifteen cij = h - ei - ej.  Two distinct lines meet exactly when their
pairing is 1, giving the 10-regular strongly regular incidence graph with
parameters (27, 10, 1, 5).

The symmetry group W(E6) is generated by the six reflections in the roots
e1-e2, ..., e5-e6, h-e1-e2-e3 (norm -2, orthogonal to K).  It is held as a
stabilizer chain, never enumerated: the orbit of the line a1 with a Schreier
tree, and the stabilizer H of a1, the closure of the reflections in the five
roots orthogonal to e1 (a D5 diagram).  Every Schreier generator lies in H,
so H is the whole stabilizer (Schreier's lemma) and the order is
27 * 1920 = 51840.  H splits the remaining lines into orbits of sizes 10
(the incident lines) and 16 (the skew ones).  Through
each line pass exactly five tritangent planes, pairing up its ten incident
lines into five coplanar pairs {m, m'} with l + m + m' = -K.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import VerificationError

PicClass = tuple[int, int, int, int, int, int, int]
Perm = tuple[int, ...]

CANONICAL_CLASS: PicClass = (-3, 1, 1, 1, 1, 1, 1)


def pairing(u: PicClass, w: PicClass) -> int:
    """Signature (1,6) intersection pairing on the Picard lattice."""
    return u[0] * w[0] - sum(ui * wi for ui, wi in zip(u[1:], w[1:]))


def _build_lines() -> tuple[tuple[str, ...], dict[str, PicClass]]:
    classes: dict[str, PicClass] = {}
    for i in range(1, 7):
        vec = [0] * 7
        vec[i] = 1
        classes[f"a{i}"] = tuple(vec)
    for i in range(1, 7):
        vec = [2] + [-1] * 6
        vec[i] = 0
        classes[f"b{i}"] = tuple(vec)
    for i, j in itertools.combinations(range(1, 7), 2):
        vec = [1] + [0] * 6
        vec[i] = -1
        vec[j] = -1
        classes[f"c{i}{j}"] = tuple(vec)
    return tuple(classes), classes


LABELS, LINE_CLASSES = _build_lines()
_INDEX = {label: k for k, label in enumerate(LABELS)}
_CLASS_TO_LABEL = {vec: label for label, vec in LINE_CLASSES.items()}

SIMPLE_ROOTS: tuple[PicClass, ...] = tuple(
    [
        tuple([0] + [1 if k == i else -1 if k == i + 1 else 0 for k in range(1, 7)])
        for i in range(1, 6)
    ]
    + [(1, -1, -1, -1, 0, 0, 0)]
)


def is_line_class(vec: PicClass) -> bool:
    return pairing(vec, vec) == -1 and pairing(vec, CANONICAL_CLASS) == -1


def line_class(label: str) -> PicClass:
    try:
        return LINE_CLASSES[label]
    except KeyError:
        raise ValueError(f"unknown line label {label!r}") from None


def exhaustive_box_solutions() -> list[PicClass]:
    """Brute-force search for line classes with |a0| <= 3 and |ai| <= 2.

    Independent of the constructive list above; used to cross-check that the
    equations <l,l> = <l,K> = -1 have exactly the 27 known solutions there.
    For l = (a0, a1, ..., a6) they read a1 + ... + a6 = 1 - 3 a0 and
    a1^2 + ... + a6^2 = a0^2 + 1, so one pass over the 5^6 tails, bucketed
    by (sum, sum of squares), finds every solution for every a0.
    """
    buckets: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for rest in itertools.product(range(-2, 3), repeat=6):
        key = (sum(rest), sum(x * x for x in rest))
        buckets.setdefault(key, []).append(rest)
    out = []
    for a0 in range(-3, 4):
        for rest in buckets.get((1 - 3 * a0, a0 * a0 + 1), ()):
            vec = (a0, *rest)
            if not is_line_class(vec):
                raise VerificationError(f"box search hit {vec} is not a line class")
            out.append(vec)
    return out


def incidence(label1: str, label2: str) -> bool:
    """Whether two distinct lines meet (pairing 1; skew lines pair to 0)."""
    if label1 == label2:
        raise ValueError("incidence is defined for distinct lines only")
    return pairing(line_class(label1), line_class(label2)) == 1


@functools.cache
def incidence_graph() -> dict[str, frozenset[str]]:
    graph = {}
    for label in LABELS:
        graph[label] = frozenset(
            other for other in LABELS if other != label and incidence(label, other)
        )
    return graph


def srg_parameters() -> tuple[int, int, int, int]:
    """(n, k, lambda, mu) of the incidence graph, verifying strong regularity."""
    graph = incidence_graph()
    degrees = {len(nb) for nb in graph.values()}
    if len(degrees) != 1:
        raise VerificationError(f"incidence graph is not regular: degrees {degrees}")
    k = degrees.pop()
    lambdas, mus = set(), set()
    for x, y in itertools.combinations(LABELS, 2):
        common = len(graph[x] & graph[y])
        if y in graph[x]:
            lambdas.add(common)
        else:
            mus.add(common)
    if len(lambdas) != 1 or len(mus) != 1:
        raise VerificationError("incidence graph is not strongly regular")
    return (len(LABELS), k, lambdas.pop(), mus.pop())


def incidence_dot() -> str:
    """Graphviz DOT source for the incidence graph."""
    lines_out = ["graph line_incidence {"]
    for x, y in itertools.combinations(LABELS, 2):
        if incidence(x, y):
            lines_out.append(f"  {x} -- {y};")
    lines_out.append("}")
    return "\n".join(lines_out)


# --- the reflection group ----------------------------------------------------


def reflect(vec: PicClass, root: PicClass) -> PicClass:
    """Reflection in a norm -2 root: v -> v + <v, r> r."""
    factor = pairing(vec, root)
    return tuple(v + factor * r for v, r in zip(vec, root))


def _reflection_perm(root: PicClass) -> Perm:
    images = []
    for label in LABELS:
        image = reflect(line_class(label), root)
        target = _CLASS_TO_LABEL.get(image)
        if target is None:
            raise RuntimeError(f"reflection in {root} does not permute the line classes")
        images.append(_INDEX[target])
    return tuple(images)


def identity_perm() -> Perm:
    return tuple(range(len(LABELS)))


def compose(p: Perm, q: Perm) -> Perm:
    """The permutation applying q first, then p."""
    return tuple(p[i] for i in q)


def invert(p: Perm) -> Perm:
    inverse = [0] * len(p)
    for i, image in enumerate(p):
        inverse[image] = i
    return tuple(inverse)


def _orbit(seeds, generators, act) -> dict:
    """Breadth-first search from ``seeds`` under ``act(point, g)`` for each g
    in ``generators``: every point reached, mapped in search order to
    (parent, index of g) for the first g that reached it, a seed to None."""
    tree = dict.fromkeys(seeds)
    queue = list(tree)
    for point in queue:
        for i, g in enumerate(generators):
            image = act(point, g)
            if image not in tree:
                tree[image] = (point, i)
                queue.append(image)
    return tree


def _apply(point: int, g: Perm) -> int:
    return g[point]


def generator_orbits(generators: tuple[Perm, ...]) -> list[frozenset[str]]:
    """The orbits of the group the generators span, by search on the 27 points."""
    seen: set[int] = set()
    out = []
    for start in range(len(LABELS)):
        if start not in seen:
            orbit = _orbit([start], generators, _apply)
            seen.update(orbit)
            out.append(frozenset(LABELS[i] for i in orbit))
    return out


@dataclass(frozen=True)
class PermGroup:
    """A permutation group on the 27 labels, enumerated by closure."""

    generators: tuple[Perm, ...]
    elements: frozenset[Perm]

    @property
    def order(self) -> int:
        return len(self.elements)

    def orbits(self) -> list[frozenset[str]]:
        return generator_orbits(self.generators)


def enumerate_closure(generators: tuple[Perm, ...]) -> frozenset[Perm]:
    return frozenset(_orbit([identity_perm()], generators, lambda p, g: compose(g, p)))


@dataclass(frozen=True)
class StabilizerChain:
    """A group as the orbit of a base line and the enumerated stabilizer of it.

    ``transversal[x]`` is a word (i1, ..., ik) of generator indices whose
    product u_x = g_ik ... g_i1 maps the base to x.  The order is
    |orbit| * |stabilizer| by orbit-stabilizer; no other element is listed.
    """

    generators: tuple[Perm, ...]
    base: str
    transversal: dict[str, tuple[int, ...]]
    stabilizer: PermGroup

    @property
    def order(self) -> int:
        return len(self.transversal) * self.stabilizer.order

    def orbits(self) -> list[frozenset[str]]:
        return generator_orbits(self.generators)


def stabilizer_chain(
    generators: tuple[Perm, ...], base: str, stabilizer: PermGroup
) -> StabilizerChain:
    """Certify ``stabilizer`` as the full stabilizer of ``base`` in <generators>.

    A Schreier tree on the orbit of the base gives the transversal.  By
    Schreier's lemma the Schreier generators u_{s(x)}^-1 s u_x, one per orbit
    point x and generator s, generate the stabilizer of the base (Sims 1970),
    so the stabilizer is no larger than ``stabilizer`` when each of them lies
    in it.  The caller must know that ``stabilizer`` fixes the base and lies
    in <generators>.
    """
    base_idx = _INDEX[base]
    words = {base_idx: ()}
    perms = {base_idx: identity_perm()}
    # after the base, the search lists every point after its parent
    for y, (x, i) in list(_orbit([base_idx], generators, _apply).items())[1:]:
        words[y] = (*words[x], i)
        perms[y] = compose(generators[i], perms[x])
    for x, u in perms.items():
        for i, g in enumerate(generators):
            schreier = compose(invert(perms[g[x]]), compose(g, u))
            if schreier not in stabilizer.elements:
                raise VerificationError(
                    f"Schreier generator at {LABELS[x]}, generator {i} "
                    f"is not in the given stabilizer of {base}"
                )
    transversal = {LABELS[x]: word for x, word in words.items()}
    return StabilizerChain(generators, base, transversal, stabilizer)


MARKED_LINE = "a1"

# A base of the roots orthogonal to a1 = e1: e2-e3, ..., e5-e6 and h-e2-e3-e4.
MARKED_ROOTS: tuple[PicClass, ...] = SIMPLE_ROOTS[1:5] + ((1, 0, -1, -1, -1, 0, 0),)


def _fixing_group(roots: tuple[PicClass, ...], label: str) -> PermGroup:
    """The closure of the reflections in ``roots``, each checked to fix ``label``."""
    generators = tuple(_reflection_perm(root) for root in roots)
    idx = _INDEX[label]
    for root, g in zip(roots, generators):
        if g[idx] != idx:
            raise VerificationError(f"reflection in {root} moves {label}")
    return PermGroup(generators, enumerate_closure(generators))


def _root_orbit() -> set[PicClass]:
    """The images w(r) of the simple roots r under W(E6): the 72 roots.

    The reflection in w(r) is w s_r w^-1, so it lies in W(E6).
    """
    return set(_orbit(SIMPLE_ROOTS, SIMPLE_ROOTS, reflect))


@functools.cache
def weyl_group() -> StabilizerChain:
    """The full symmetry group of the configuration, order 27 * 1920 = 51840.

    The stabilizer of the marked line is the closure of the reflections in
    ``MARKED_ROOTS``, which fix it and lie in W(E6) since the roots are images
    of simple roots; the Schreier check in ``stabilizer_chain`` proves it is
    the whole stabilizer, so W(E6) itself is never enumerated.
    """
    missing = set(MARKED_ROOTS) - _root_orbit()
    if missing:
        raise VerificationError(f"{sorted(missing)} are not images of simple roots")
    generators = tuple(_reflection_perm(root) for root in SIMPLE_ROOTS)
    return stabilizer_chain(
        generators, MARKED_LINE, _fixing_group(MARKED_ROOTS, MARKED_LINE)
    )


@functools.cache
def stabilizer_roots(label: str) -> tuple[PicClass, ...]:
    """Five roots whose reflections generate the stabilizer of a line.

    They are u_x(r) for r in ``MARKED_ROOTS``, applying the transversal word
    of the line x; the reflection in u_x(r) is u_x s_r u_x^-1.
    """
    word = weyl_group().transversal[label]
    roots = []
    for root in MARKED_ROOTS:
        for i in word:
            root = reflect(root, SIMPLE_ROOTS[i])
        roots.append(root)
    return tuple(roots)


@functools.cache
def stabilizer(label: str) -> PermGroup:
    """The subgroup fixing one line, order 1920, closed from five reflections."""
    group = weyl_group()
    if label == group.base:
        return group.stabilizer
    return _fixing_group(stabilizer_roots(label), label)


def cartan_matrix(roots: tuple[PicClass, ...]) -> list[list[int]]:
    """The matrix <ri, rj> of pairings (-2 on the diagonal for roots)."""
    return [[pairing(r, s) for s in roots] for r in roots]


def dynkin_type(cartan: list[list[int]]) -> str | None:
    """The ADE type of a simply-laced Cartan matrix in this sign convention.

    Nodes are the roots, edges the pairs with <ri, rj> = 1.  A path of n
    nodes is An; a tree with one node of degree 3 and arms of lengths
    1, 1, n - 3 is Dn, and arms 1, 2, 2 / 1, 2, 3 / 1, 2, 4 give E6 / E7 / E8.
    Anything else (not roots, an obtuse pair, a cycle, a disconnected
    diagram) gives None.
    """
    n = len(cartan)
    if n == 0 or any(cartan[i][i] != -2 for i in range(n)):
        return None
    if any(cartan[i][j] not in (0, 1) for i in range(n) for j in range(n) if i != j):
        return None
    neighbors = [[j for j in range(n) if j != i and cartan[i][j] == 1] for i in range(n)]
    # the nodes joined to node 0: a step to j is an edge or stays put
    reached = _orbit([0], range(n), lambda i, j: j if j in neighbors[i] else i)
    if sum(len(nb) for nb in neighbors) != 2 * (n - 1) or len(reached) != n:
        return None
    branch = [i for i in range(n) if len(neighbors[i]) >= 3]
    if not branch:
        return f"A{n}"
    if len(branch) > 1 or len(neighbors[branch[0]]) > 3:
        return None
    arms = []
    for start in neighbors[branch[0]]:
        length, previous, node = 1, branch[0], start
        while len(neighbors[node]) == 2:
            previous, node = node, next(j for j in neighbors[node] if j != previous)
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return f"D{n}"
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return f"E{n}"
    return None


@dataclass(frozen=True)
class FiberClasses:
    """The three incidence classes of a marked line: itself, the 10 lines
    meeting it, and the 16 skew to it."""

    marked: str
    meeting: frozenset[str]
    skew: frozenset[str]


def classify_fiber(label: str) -> FiberClasses:
    neighbors = incidence_graph()[label]
    skew = frozenset(x for x in LABELS if x != label and x not in neighbors)
    return FiberClasses(label, neighbors, skew)


def tritangent_pairs(label: str) -> tuple[frozenset[str], ...]:
    """The five coplanar pairs {m, m'} through a line: l + m + m' = -K.

    The ten lines meeting l are covered exactly once and the members of each
    pair meet each other.
    """
    target = tuple(-k - c for k, c in zip(CANONICAL_CLASS, line_class(label)))
    neighbors = sorted(incidence_graph()[label])
    pairs = []
    for m, mp in itertools.combinations(neighbors, 2):
        vec = tuple(x + y for x, y in zip(line_class(m), line_class(mp)))
        if vec == target:
            if not incidence(m, mp):
                raise VerificationError(f"coplanar pair {m}, {mp} fails to meet")
            pairs.append(frozenset((m, mp)))
    covered = sorted(x for pair in pairs for x in pair)
    if len(pairs) != 5 or covered != neighbors:
        raise VerificationError(f"tritangent pairs of {label} do not form a perfect matching")
    return tuple(pairs)


def verification_summary() -> dict:
    """All line-configuration facts in one machine-readable bundle."""
    group = weyl_group()
    stab = stabilizer(MARKED_LINE)
    fiber = classify_fiber(MARKED_LINE)
    orbit_partition = stab.orbits()
    orbit_sizes = sorted(len(o) for o in orbit_partition)
    orbit_sets = {frozenset(o) for o in orbit_partition}
    incidence_sets = {frozenset((MARKED_LINE,)), fiber.meeting, fiber.skew}
    pairing_ok = all(
        pairing(line_class(LABELS[g[i]]), line_class(LABELS[g[j]]))
        == pairing(line_class(LABELS[i]), line_class(LABELS[j]))
        for g in group.generators
        for i in range(len(LABELS))
        for j in range(i + 1, len(LABELS))
    )
    matching = tritangent_pairs(MARKED_LINE)
    return {
        "line_count": len(LABELS),
        "box_search_count": len(exhaustive_box_solutions()),
        "weyl_order": group.order,
        "stabilizer_order": stab.order,
        "stabilizer_type": dynkin_type(cartan_matrix(stabilizer_roots(MARKED_LINE))),
        "index": len(group.transversal),
        "orbit_sizes": orbit_sizes,
        "orbits_match_incidence": orbit_sets == incidence_sets,
        "weyl_transitive": len(group.orbits()) == 1,
        "generators_preserve_pairing": pairing_ok,
        "srg": list(srg_parameters()),
        "tritangent_pair_count": len(matching),
        "tritangent_pairs": [sorted(pair) for pair in matching],
        "marked_line": MARKED_LINE,
    }
