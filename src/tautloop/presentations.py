"""Group presentations: the universal currency between modules.

Covers the directed-edge presentations P(L, Omega, S), right-angled Artin and
Coxeter presentations, and length-truncated presentations.  A presentation may
carry an involution pairing marking generators that are formal inverses of one
another (the directed edge x->y against y->x); engines collapse each pair onto
one core generator.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from . import words
from .complexes import edge_symbol
from .words import Letter, Word


class PresentationError(ValueError):
    pass


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    inverse_pairs: tuple[tuple[str, str], ...] = ()
    # tables derived from the fields above, built on first use
    _core: tuple = field(default=None, init=False, compare=False, repr=False)
    _core_relators: tuple = field(default=None, init=False, compare=False, repr=False)
    _variants: dict = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def build(
        cls,
        generators: Sequence[str],
        relators: Iterable[Word],
        inverse_pairs: Iterable[tuple[str, str]] = (),
    ) -> "GroupPresentation":
        gens = tuple(str(g) for g in generators)
        if len(set(gens)) != len(gens):
            raise PresentationError("duplicate generators")
        gen_set = set(gens)
        pairs = tuple(sorted(tuple(sorted(p)) for p in inverse_pairs))
        try:
            pairing = words.pairing_map(pairs)
        except ValueError as exc:
            raise PresentationError(str(exc)) from None
        if not gen_set.issuperset(pairing):
            raise PresentationError(f"inverse pairs outside generators: {sorted(set(pairing) - gen_set)}")
        seen: set[Word] = set()
        kept: list[Word] = []
        for r in relators:
            r = words.word(r)
            for sym, _ in r:
                if sym not in gen_set:
                    raise PresentationError(f"relator uses unknown generator {sym!r}")
            key = words.canonical_cyclic(r)
            if not key or key in seen:
                continue
            seen.add(key)
            kept.append(r)
        return cls(gens, tuple(kept), pairs)

    # -- core view -----------------------------------------------------

    def _core_table(self) -> tuple[tuple[str, ...], dict[Letter, int], dict[int, Letter]]:
        """Core generators, each generator letter's signed 1-based index (a
        formal-inverse mate's is its core mate's, negated) and each index's
        core letter."""
        if self._core is None:
            pairing = words.pairing_map(self.inverse_pairs)
            core = tuple(g for g in self.generators if words.is_core(g, pairing))
            letters = {e * i: (g, e) for i, g in enumerate(core, 1) for e in (1, -1)}
            codes = {letter: c for c, letter in letters.items()}
            mates = (g for g in pairing if not words.is_core(g, pairing))
            codes.update({(g, e): -codes[pairing[g], e] for g in mates for e in (1, -1)})
            object.__setattr__(self, "_core", (core, codes, letters))
        return self._core

    def core_generators(self) -> tuple[str, ...]:
        """Generators with the larger member of each formal-inverse pair dropped."""
        return self._core_table()[0]

    def encode(self, w: Word) -> tuple[int, ...]:
        """Signed-index encoding of the freely reduced word over the core
        alphabet, one lookup per letter.  Every letter is looked up before
        reduction, so a foreign one raises even where it would cancel."""
        try:
            return reduce_ints(map(self._core_table()[1].__getitem__, w))
        except KeyError as exc:
            sym, exp = exc.args[0]
            message = f"unknown generator {sym!r}" if exp in (1, -1) else f"bad exponent {exp!r}"
            raise PresentationError(message) from None

    def decode(self, codes: Iterable[int]) -> Word:
        try:
            return tuple(map(self._core_table()[2].__getitem__, codes))
        except KeyError as exc:
            raise PresentationError(f"no core letter has code {exc.args[0]!r}") from None

    def core_relators(self) -> tuple[tuple[int, ...], ...]:
        """Encoded relators, pairing-normalised; trivialised ones are dropped."""
        if self._core_relators is None:
            out = []
            seen = set()
            for r in self.relators:
                enc = self.encode(r)
                if not enc:
                    continue
                key = canonical_cyclic_ints(enc)
                if key in seen:
                    continue
                seen.add(key)
                out.append(enc)
            object.__setattr__(self, "_core_relators", tuple(out))
        return self._core_relators

    def relator_variants(self) -> dict[tuple[int, ...], None]:
        """Every rotation of every core relator and of its inverse, as an
        insertion-ordered set: iteration follows the relators, and membership
        is one lookup."""
        if self._variants is None:
            object.__setattr__(self, "_variants", _add_variants({}, self.core_relators()))
        return self._variants

    def extended(self, relators: Sequence[Word]) -> "GroupPresentation":
        """``build`` of this presentation's relators followed by new ones in
        the canonical forms that ``truncated_presentation`` keeps, with the
        encoded relators and variants grown from this presentation's."""
        out = GroupPresentation(self.generators, self.relators + tuple(relators), self.inverse_pairs)
        object.__setattr__(out, "_core", self._core_table())
        encoded = tuple(self.encode(r) for r in relators)
        object.__setattr__(out, "_core_relators", self.core_relators() + encoded)
        object.__setattr__(out, "_variants", _add_variants(dict(self.relator_variants()), encoded))
        return out

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        data = {
            "generators": list(self.generators),
            "relators": [words.to_json(r) for r in self.relators],
        }
        if self.inverse_pairs:
            data["inverse_pairs"] = [list(p) for p in self.inverse_pairs]
        return data

    @classmethod
    def from_json(cls, data: Mapping) -> "GroupPresentation":
        return cls.build(
            words.json_list(data["generators"]),
            [words.from_json(r) for r in words.json_list(data["relators"])],
            [tuple(words.json_list(p)) for p in words.json_list(data.get("inverse_pairs", []))],
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def gap_export(self) -> str:
        """Plain-text export in GAP style, for external cross-checking."""
        names = {g: f"g{i + 1}" for i, g in enumerate(self.generators)}
        lines = [
            "# generators: " + ", ".join(f"{names[g]} = {g}" for g in self.generators),
            "f := FreeGroup(" + ", ".join(f'"{names[g]}"' for g in self.generators) + ");",
        ]
        rel_strs = []
        for r in self.relators:
            if not r:
                continue
            rel_strs.append(
                "*".join(
                    f"f.{self.generators.index(s) + 1}" + ("" if e == 1 else "^-1")
                    for s, e in r
                )
            )
        lines.append("rels := [" + ", ".join(rel_strs) + "];")
        lines.append("g := f / rels;")
        return "\n".join(lines) + "\n"


# -- integer-coded word helpers (engines work on these) -----------------


def reduce_ints(w: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for c in w:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def invert_ints(w: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(operator.neg, reversed(w)))


def _add_variants(variants: dict, relators) -> dict:
    """Adds every rotation of each relator and of its inverse, in order."""
    for r in relators:
        for base in (r, invert_ints(r)):
            for i in range(len(base)):
                variants.setdefault(base[i:] + base[:i])
    return variants


def cyclic_reduce_ints(w: Sequence[int]) -> tuple[int, ...]:
    w = reduce_ints(w)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = reduce_ints(w[1:-1])
    return tuple(w)


def canonical_cyclic_ints(w: Sequence[int]) -> tuple[int, ...]:
    w = cyclic_reduce_ints(w)
    if not w:
        return ()
    cands = [w[i:] + w[:i] for i in range(len(w))]
    iw = invert_ints(w)
    cands += [iw[i:] + iw[:i] for i in range(len(iw))]
    return min(cands)


def exponent_vector(w: Sequence[int], n_gens: int) -> tuple[int, ...]:
    v = [0] * n_gens
    for c in w:
        v[abs(c) - 1] += 1 if c > 0 else -1
    return tuple(v)


# -- homomorphisms -----------------------------------------------------


@dataclass(frozen=True)
class Homomorphism:
    """Generator-image description of a map between presented groups."""

    source: GroupPresentation
    target: GroupPresentation
    images: tuple[tuple[str, Word], ...]

    @classmethod
    def build(cls, source, target, images: Mapping[str, Word]) -> "Homomorphism":
        missing = [g for g in source.core_generators() if g not in images]
        if missing:
            raise PresentationError(f"no image for generators {missing}")
        return cls(source, target, tuple(sorted((g, words.word(w)) for g, w in images.items())))

    @classmethod
    def identity_on_generators(cls, source, target) -> "Homomorphism":
        if set(source.generators) != set(target.generators):
            raise PresentationError("generator sets differ")
        return cls.build(source, target, {g: ((g, 1),) for g in source.core_generators()})

    def image_map(self) -> dict[str, Word]:
        return dict(self.images)

    def apply(self, w: Word) -> Word:
        imgs = self.image_map()
        out: list = []
        for sym, exp in self.source.decode(self.source.encode(w)):
            img = imgs[sym]
            out.extend(img if exp == 1 else words.invert(img))
        return self.target.decode(self.target.encode(out))

    def check_relators(self, budget=None):
        """Tri-state the image of each source relator in the target."""
        from .word_engine import WordProblemEngine

        engine = WordProblemEngine(self.target, budget)
        return tuple(engine.is_trivial(self.apply(r)) for r in self.source.relators)


# -- the paper's presentation families ---------------------------------


def build_P(complex_, omega, s_set: Iterable[int]) -> GroupPresentation:
    """Directed-edge presentation with edge, triangle and long-cycle relators.

    Generators are the directed edges of the complex; opposite edges are
    formally inverse.  One edge relator per undirected edge, two triangle
    relators per 2-simplex, and one long-cycle relator per (n, loop) pair
    with n in S minus {0}.
    """
    s_vals = sorted(set(int(n) for n in s_set))
    if 0 not in s_vals:
        raise PresentationError("the standard generating set requires 0 in S")
    if not complex_.is_connected():
        raise PresentationError("complex must be connected")
    omega.validate(complex_)

    gens: list[str] = []
    pairs: list[tuple[str, str]] = []
    relators: list[Word] = []
    for u, v in complex_.sorted_edges():
        a, b = edge_symbol(u, v), edge_symbol(v, u)
        gens.extend([a, b])
        pairs.append((a, b))
        relators.append(((a, 1), (b, 1)))
    for x, y, z in complex_.simplices_of_dim(2):
        tri = (edge_symbol(x, y), edge_symbol(y, z), edge_symbol(z, x))
        relators.append(tuple((g, 1) for g in tri))
        relators.append(tuple((g, -1) for g in tri))
    for n in s_vals:
        if n == 0:
            continue
        for loop in omega.loops:
            w: list = []
            for u, v in loop.directed_edges():
                w.extend([(edge_symbol(u, v), 1 if n > 0 else -1)] * abs(n))
            relators.append(tuple(w))
    return GroupPresentation.build(gens, relators, pairs)


def build_RAAG(complex_) -> GroupPresentation:
    """Right-angled Artin presentation: one commutator per edge."""
    gens = list(complex_.vertices)
    relators = [((u, 1), (v, 1), (u, -1), (v, -1)) for u, v in complex_.sorted_edges()]
    return GroupPresentation.build(gens, relators)


def build_RACG(complex_) -> GroupPresentation:
    """Right-angled Coxeter presentation: v^2 per vertex, (vw)^2 per edge."""
    gens = list(complex_.vertices)
    relators: list[Word] = [((v, 1), (v, 1)) for v in gens]
    for u, v in complex_.sorted_edges():
        relators.append(((u, 1), (v, 1), (u, 1), (v, 1)))
    return GroupPresentation.build(gens, relators)


def truncated_presentation(
    generators: Sequence[str],
    trivial_words: Iterable[Word],
    length_bound: int,
    inverse_pairs: Iterable[tuple[str, str]] = (),
) -> GroupPresentation:
    """Presentation whose relators are the supplied trivial words of length
    strictly below the bound, deduplicated up to rotation, inversion and free
    reduction."""
    pairing = words.pairing_map(inverse_pairs)
    canonical = (words.canonical_cyclic(words.normalize(words.word(w), pairing)) for w in trivial_words)
    # canonical forms live on the core alphabet; restrict generators to it.
    # ``build`` drops empty and repeated relators by their canonical form
    core = [g for g in generators if words.is_core(g, pairing)]
    return GroupPresentation.build(core, [w for w in canonical if len(w) < length_bound])
