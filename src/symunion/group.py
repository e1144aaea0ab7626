"""Knot groups: Wirtinger presentations, free-group words, the longitude
word of a symmetric-union diagram, and the fold-down homomorphism onto the
group of the partial diagram.

Words are tuples of (generator name, exponent) with exponents +1 or -1.
All verification here stays inside the free group on the generators, where
reduction is decidable; relator matching is up to cyclic rotation and
inversion, the symmetries a basepoint change induces on Wirtinger relators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .construct import built_union, derived
from .diagram import NoCrossings, PlanarDiagram, over_arcs
from .report import VerificationReport

GroupWord = tuple[tuple[str, int], ...]


class GroupError(Exception):
    pass


class MissingMetadata(GroupError):
    pass


# -- free-group words ------------------------------------------------------------


def free_reduce(w: Sequence[tuple[str, int]]) -> GroupWord:
    out: list[tuple[str, int]] = []
    for g, e in w:
        if e not in (1, -1):
            raise ValueError(f"exponent {e} not +1/-1")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def inverse_word(w: Sequence[tuple[str, int]]) -> GroupWord:
    return tuple((g, -e) for g, e in reversed(w))


def exponent_sum(w: Sequence[tuple[str, int]], gen: str | None = None) -> int:
    return sum(e for g, e in w if gen is None or g == gen)


def canonical_relator_key(w: Sequence[tuple[str, int]]) -> GroupWord:
    """Least rotation over the cyclically reduced word and its inverse;
    relators that differ by basepoint rotation, conjugation, or inversion
    share a key."""
    r = free_reduce(w)
    while len(r) >= 2 and r[0][0] == r[-1][0] and r[0][1] == -r[-1][1]:
        r = r[1:-1]
    if not r:
        return ()
    best = None
    for cand in (r, inverse_word(r)):
        for k in range(len(cand)):
            rot = cand[k:] + cand[:k]
            if best is None or rot < best:
                best = rot
    return best


def word_text(w: Sequence[tuple[str, int]]) -> str:
    return " ".join(g if e == 1 else f"{g}^-1" for g, e in w)


# -- presentations ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WirtingerPresentation:
    generators: tuple[str, ...]
    relators: tuple[GroupWord, ...]
    meridian: str
    # diagram bookkeeping; None for a presentation written by hand
    arcs: tuple[tuple[int, ...], ...] | None = None
    arc_of_edge: Mapping[int, int] | None = None

    def generator_of_edge(self, e: int) -> str:
        if self.arc_of_edge is None:
            raise MissingMetadata("presentation carries no arc data")
        return self.generators[self.arc_of_edge[e]]


def wirtinger(d: PlanarDiagram) -> WirtingerPresentation:
    """One generator per arc (maximal over-strand run), one relator per
    crossing, in the form g_in g_over^e g_out^-1 g_over^-e with e the
    crossing sign. The meridian generator belongs to the arc through the
    edge labeled a0 when present, else the arc through edge 1."""
    if not d.crossings:
        raise NoCrossings("wirtinger needs at least one crossing")

    arcs = over_arcs(d)
    arc_of_edge = {e: i for i, arc in enumerate(arcs) for e in arc}

    names: list[str] = []
    used: set[str] = set()
    fallback = "g" if d.labels else "x"
    for i, arc in enumerate(arcs):
        labeled = [e for e in arc if e in d.labels]
        name = d.labels[labeled[0]] if labeled else f"{fallback}{i + 1}"
        if name in used:
            name = f"{fallback}{i + 1}"
        used.add(name)
        names.append(name)

    relators = []
    for i, x in enumerate(d.crossings):
        u = names[arc_of_edge[x.a]]
        v = names[arc_of_edge[x.c]]
        o = names[arc_of_edge[x.b]]
        e = d.sign(i)
        relators.append(((u, 1), (o, e), (v, -1), (o, -e)))

    a0_edges = [e for e, lbl in d.labels.items() if lbl == "a0"]
    base_edge = a0_edges[0] if a0_edges else 1
    meridian = names[arc_of_edge[base_edge]]

    return WirtingerPresentation(
        tuple(names),
        tuple(relators),
        meridian,
        arcs=arcs,
        arc_of_edge=arc_of_edge,
    )


def presentation(d: PlanarDiagram) -> WirtingerPresentation:
    """wirtinger(d); a built union computes it once and keeps it, so the
    certificates that read it share one copy."""
    return derived(d, "wirtinger", lambda: wirtinger(d))


# -- the longitude word of a symmetric union --------------------------------------


def _labeled_edge(d: PlanarDiagram, label: str) -> int:
    for e, lbl in d.labels.items():
        if lbl == label:
            return e
    raise MissingMetadata(f"diagram has no edge labeled {label}")


def longitude_word(d: PlanarDiagram) -> GroupWord:
    """The longitude read off a symmetric-union diagram, as a concatenation
    of per-undercrossing difference words along the two halves of the knot
    between the axis edges a0 and a1.

    Forward half (read from a0 toward a1): at each undercrossing append
    in^s out^-s, where s is the crossing sign and in/out are the generators
    of the under-strand arcs. Backward half: collect in^-s out^s at each
    undercrossing and prepend. Mirror-corresponding crossings have opposite
    signs, so the two halves contribute words that are formal inverses of
    each other once both under-arcs map to a common target; that is what
    lets the image of the whole word cancel freely. The total exponent sum
    is zero, so the word has zero linking with the knot.
    """
    p = presentation(d)
    e_start = _labeled_edge(d, "a0")
    e_stop = _labeled_edge(d, "a1")
    pred = {v: k for k, v in d.succ.items()}

    def gen(edge: int) -> str:
        return p.generators[p.arc_of_edge[edge]]

    forward: list[tuple[str, int]] = []
    e = e_start
    while e != e_stop:
        i, s = d.head_of[e]
        if s == 0:
            x = d.crossings[i]
            sg = d.sign(i)
            forward.append((gen(x.a), sg))
            forward.append((gen(x.c), -sg))
        e = d.succ[e]

    backward: list[tuple[str, int]] = []
    e = e_start
    while True:
        i, s = d.tail_of[e]
        if s == 2:
            x = d.crossings[i]
            sg = d.sign(i)
            w = [(gen(x.a), -sg), (gen(x.c), sg)]
            backward = w + backward
        e = pred[e]
        if e == e_stop:
            break

    return tuple(backward) + tuple(forward)


# -- the fold-down homomorphism ----------------------------------------------------

GroupMap = dict[str, GroupWord]


def apply_map(phi: Mapping[str, GroupWord], w: Sequence[tuple[str, int]]) -> GroupWord:
    out: list[tuple[str, int]] = []
    for g, e in w:
        if g not in phi:
            raise ValueError(f"map is not defined on generator {g}")
        img = phi[g]
        out.extend(img if e == 1 else inverse_word(img))
    return tuple(out)


def build_epimorphism(spec, k: PlanarDiagram, khat: WirtingerPresentation) -> GroupMap:
    """Map the group of a built symmetric union onto the group of its
    partial diagram, using the edge-label roles the builder recorded.

    Edges labeled x<j> or x<j>* fold onto the arc of partial edge j; the
    axis edges a0/a1 and all tangle-region edges s*_i fold onto the arcs at
    the marked edges. Every edge of an arc must agree on the target; that
    consistency is asserted at runtime.
    """
    if not k.labels:
        raise MissingMetadata("diagram carries no construction labels")
    if khat.arc_of_edge is None:
        raise MissingMetadata("target presentation carries no arc data")
    src = presentation(k)

    def target_of_label(lbl: str) -> str:
        if lbl in ("a0", "a1"):
            return khat.generator_of_edge(spec.marked_arcs[0])
        if lbl.startswith("s"):
            region = int(lbl.split("_")[1])
            return khat.generator_of_edge(spec.marked_arcs[region])
        if lbl.startswith("x"):
            j = int(lbl.rstrip("*")[1:])
            return khat.generator_of_edge(j)
        raise MissingMetadata(f"unrecognized edge label {lbl}")

    phi: GroupMap = {}
    assert src.arcs is not None
    for i, arc in enumerate(src.arcs):
        targets = {target_of_label(k.labels[e]) for e in arc if e in k.labels}
        if len(targets) != 1:
            raise MissingMetadata(
                f"arc {i} folds onto several targets: {sorted(targets)}"
            )
        phi[src.generators[i]] = ((targets.pop(), 1),)
    return phi


def verify_homomorphism(
    phi: Mapping[str, GroupWord],
    src: WirtingerPresentation,
    dst: WirtingerPresentation,
) -> VerificationReport:
    """Each source relator must map to a word that freely reduces to empty
    or matches a target relator up to rotation and inversion."""
    rep = VerificationReport("homomorphism check")
    missing = [g for g in src.generators if g not in phi]
    rep.add("map total on source generators", not missing, ", ".join(missing))
    if missing:
        return rep
    dst_keys = {canonical_relator_key(r) for r in dst.relators}
    for idx, r in enumerate(src.relators):
        img = free_reduce(apply_map(phi, r))
        if not img:
            rep.add(f"relator {idx}", True, "image reduces to empty")
        elif canonical_relator_key(img) in dst_keys:
            rep.add(f"relator {idx}", True, "image matches a target relator")
        else:
            rep.add(f"relator {idx}", False, f"image {word_text(img)} unmatched")
    return rep


def verify_surjective(
    phi: Mapping[str, GroupWord], dst: WirtingerPresentation
) -> bool:
    hit = {w[0][0] for w in phi.values() if len(w) == 1 and w[0][1] == 1}
    return all(g in hit for g in dst.generators)


def verify_longitude_trivial(
    phi: Mapping[str, GroupWord], gamma: Sequence[tuple[str, int]]
) -> VerificationReport:
    rep = VerificationReport("longitude triviality")
    img = apply_map(phi, gamma)
    red = free_reduce(img)
    rep.record("length before reduction", len(img))
    rep.record("length after reduction", len(red))
    rep.add("longitude image freely trivial", not red, word_text(red[:8]))
    return rep


def meridian_image(
    phi: Mapping[str, GroupWord], src: WirtingerPresentation
) -> GroupWord:
    return free_reduce(apply_map(phi, ((src.meridian, 1),)))


def certify_epimorphism(union) -> VerificationReport:
    """Run the whole certificate for the fold-down map of a built union
    (or of the union a spec builds): relator images are relations, the
    map is onto, the meridian goes to a meridian, and the longitude word
    dies in the free group."""
    k = built_union(union)
    spec = k.meta.spec
    src = presentation(k)
    dst = wirtinger(spec.partial)
    phi = build_epimorphism(spec, k, dst)

    rep = VerificationReport("fold-down epimorphism certificate")
    hom = verify_homomorphism(phi, src, dst)
    bad = [c for c in hom.checks if not c.passed]
    rep.add(
        "relator images are relations",
        hom.passed,
        bad[0].detail if bad else f"{len(src.relators)} relators checked",
    )
    rep.add("map is onto", verify_surjective(phi, dst))

    mi = meridian_image(phi, src)
    rep.record("meridian image", word_text(mi))
    rep.add(
        "meridian maps to a meridian",
        len(mi) == 1 and mi[0][1] == 1 and mi[0][0] in dst.generators,
    )

    gamma = longitude_word(k)
    rep.add("longitude has zero linking", exponent_sum(gamma) == 0)
    lt = verify_longitude_trivial(phi, gamma)
    for c in lt.checks:
        rep.add(c.name, c.passed, c.detail)
    rep.data.update(lt.data)
    return rep
