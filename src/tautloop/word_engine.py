"""Layered, certificate-producing word-problem oracle.

The general word problem is undecidable, so every answer is a tri-state:
Proved and Refuted always carry a replayable certificate, Unknown never does.
Routes, in the order tried:

* free reduction (empty word);
* abelianization witness (exact, via Smith normal form);
* registered homomorphisms into groups with decidable word problems;
* budgeted Todd-Coxeter coset enumeration (conclusive both ways when the
  table completes), run only when the abelianization is finite, since the
  table of an infinite group never completes;
* bounded normal-closure derivation search (independent Proved route);
* finite-quotient search over symmetric groups (Refuted route), on
  permutations coded by index; a branch is dropped at the word's last
  generator when the word maps to the identity there.

Budgets are deterministic; no wall-clock component; so identical inputs
always give identical answers and certificates.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, astuple, dataclass, fields, replace
from operator import add
from typing import ClassVar, Sequence

from . import normal_forms, words
from .complexes import bfs
from .linalg import rank_of_diagonal, smith_normal_form
from .presentations import (
    GroupPresentation,
    Homomorphism,
    PresentationError,
    exponent_vector,
    reduce_ints,
)
from .words import Word

PROVED = "proved"
REFUTED = "refuted"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Budget:
    """Deterministic resource limits for enumeration and search."""

    max_cosets: int = 2000
    max_deductions: int = 200_000
    max_search_depth: int = 3

    def __post_init__(self) -> None:
        if self.max_cosets <= 0 or self.max_deductions <= 0 or self.max_search_depth <= 0:
            raise ValueError("budget fields must be positive")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "Budget":
        return cls(**{name: words.json_int(value) for name, value in data.items()})

    def within(self, other: "Budget") -> "Budget":
        """The field-wise minimum of this budget and ``other``."""
        return Budget(*map(min, astuple(self), astuple(other)))


@dataclass(frozen=True)
class BudgetExceeded:
    """Inconclusive outcome marker; downstream this means Unknown, never error.
    ``definitions`` counts the cosets an enumeration defined before it gave up."""

    reason: str
    definitions: int = 0


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration
# ---------------------------------------------------------------------------


class CosetTable:
    """A completed coset table over the core alphabet.

    Columns alternate generator / inverse per core generator, so a letter's
    inverse is in column ``col(code) ^ 1``.  Cosets are numbered 0..n-1 in
    discovery order, which makes enumeration output deterministic, and every
    entry is filled.  ``definitions`` and ``fills`` are what the enumeration
    that built it spent.
    """

    complete = True

    def __init__(self, n_core: int, rows: list[list[int]], definitions: int, fills: int) -> None:
        self.n_core = n_core
        self.ncols = 2 * n_core
        self.rows = rows
        self.definitions = definitions
        self.fills = fills
        self.cols = {code: self.col(code) for i in range(1, n_core + 1) for code in (i, -i)}

    @staticmethod
    def col(code: int) -> int:
        return 2 * (abs(code) - 1) + (0 if code > 0 else 1)

    def trace(self, start: int, codes: Sequence[int]) -> int:
        rows, cols = self.rows, self.cols
        c = start
        for code in codes:
            c = rows[c][cols[code]]
        return c

    def permutations(self) -> dict[int, tuple[int, ...]]:
        """Core generator index (1-based) -> permutation of cosets."""
        return {g: tuple(row[self.col(g)] for row in self.rows) for g in range(1, self.n_core + 1)}

    def quotient_witness(self, pres: GroupPresentation, w: Word) -> QuotientWitness:
        """The regular representation of a completed table, as a permutation
        witness for the word w."""
        core = pres.core_generators()
        perms = self.permutations()
        images = tuple(sorted((core[g - 1], perms[g]) for g in perms))
        return QuotientWitness(len(self.rows), images, tuple(w))

    def element_words(self) -> list[tuple[int, ...]]:
        """Shortest representative word per coset, via BFS in lex column order."""
        codes = [g for i in range(1, self.n_core + 1) for g in (i, -i)]
        nbrs = [[(d, (code,)) for code, d in zip(codes, row)] for row in self.rows]
        reps: dict[int, tuple[int, ...]] = {}
        for c, (_, parent, letter) in bfs(nbrs, 0).items():
            reps[c] = reps.get(parent, ()) + letter
        return [reps[c] for c in range(len(self.rows))]

    def content_hash(self) -> str:
        payload = json.dumps(self.rows, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def todd_coxeter(
    pres: GroupPresentation,
    subgroup_gens: Sequence[Word] = (),
    budget: Budget | None = None,
) -> CosetTable | BudgetExceeded:
    """HLT-style coset enumeration with immediate coincidence handling.

    Deterministic: cosets are processed in increasing order, relators in
    presentation order, and new cosets are defined along the relator being
    scanned.  Completion with a trivial subgroup yields the regular
    representation (cosets = group elements).  The working table and the
    union-find of its coincidences live here; only a completed table,
    renumbered, leaves as a ``CosetTable``.
    """
    if budget is None:
        budget = Budget()
    # each word as its letters' columns, encoded once; an inverse letter's
    # column is its letter's column ^ 1
    relators = [[CosetTable.col(c) for c in r] for r in pres.core_relators()]
    sub = [[CosetTable.col(c) for c in pres.encode(w)] for w in subgroup_gens]
    n_core = len(pres.core_generators())
    ncols = 2 * n_core
    rows: list[list[int | None]] = [[None] * ncols]
    parent = [0]  # a coset merged away points towards the one that absorbed it
    definitions = fills = 0

    def rep(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(c: int, colx: int) -> int | None:
        nonlocal definitions, fills
        if definitions == budget.max_cosets:
            return None
        definitions += 1
        n = len(rows)
        rows.append([None] * ncols)
        parent.append(n)
        rows[c][colx] = n
        rows[n][colx ^ 1] = c
        fills += 2
        return n

    def merge(a: int, b: int, queue: list[int]) -> None:
        a, b = rep(a), rep(b)
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        parent[hi] = lo
        queue.append(hi)

    def coincidence(a: int, b: int) -> None:
        nonlocal fills
        queue: list[int] = []
        merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            y = queue[qi]
            qi += 1
            for colx in range(ncols):
                d = rows[y][colx]
                if d is None:
                    continue
                # detach the mirror entry before transplanting the edge
                if rows[d][colx ^ 1] == y:
                    rows[d][colx ^ 1] = None
                mu, nu = rep(y), rep(d)
                existing = rows[mu][colx]
                if existing is not None:
                    merge(nu, existing, queue)
                else:
                    back = rows[nu][colx ^ 1]
                    if back is not None:
                        merge(mu, back, queue)
                    else:
                        rows[mu][colx] = nu
                        rows[nu][colx ^ 1] = mu
                        fills += 2

    def scan_and_fill(start: int, cols: list[int]) -> bool:
        """Returns False on budget exhaustion."""
        nonlocal fills
        i, j = 0, len(cols) - 1
        f = b = rep(start)
        while True:
            while i <= j:
                nxt = rows[f][cols[i]]
                if nxt is None:
                    break
                f = rep(nxt)
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return True
            while j >= i:
                prv = rows[b][cols[j] ^ 1]
                if prv is None:
                    break
                b = rep(prv)
                j -= 1
            if j < i:
                coincidence(f, b)
                return True
            if i == j:
                rows[f][cols[i]] = b
                rows[b][cols[i] ^ 1] = f
                fills += 2
                return fills <= budget.max_deductions
            if define(f, cols[i]) is None or fills > budget.max_deductions:
                return False

    for w in sub:
        if not scan_and_fill(0, w):
            return BudgetExceeded("coset budget exhausted on subgroup generators", definitions)
    c = 0
    while c < len(rows):
        for r in relators:
            if rep(c) != c:
                break
            if not scan_and_fill(c, r):
                return BudgetExceeded("coset budget exhausted", definitions)
        # close remaining gaps in this row so the table ends complete
        if rep(c) == c:
            for colx in range(ncols):
                if rows[c][colx] is None and define(c, colx) is None:
                    return BudgetExceeded("coset budget exhausted", definitions)
        c += 1
    # renumber the live cosets 0..n-1 in discovery order
    live = [c for c in range(len(rows)) if parent[c] == c]
    remap = {old: new for new, old in enumerate(live)}
    table = [[None if e is None else remap[rep(e)] for e in rows[old]] for old in live]
    if any(e is None for row in table for e in row):
        return BudgetExceeded("table incomplete after scan", definitions)
    return CosetTable(n_core, table, definitions, fills)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def _same(value):
    return value


# certificate field -> (writer to JSON, reader from JSON); a reader raises on input out of shape
_FIELDS = {
    "word": (words.to_json, words.from_json),
    "image": (words.to_json, words.from_json),
    "degree": (_same, words.json_int),
    "n_cosets": (_same, words.json_int),
    "coset": (_same, words.json_int),
    "images": (
        lambda images: {g: list(p) for g, p in images},
        lambda data: tuple(sorted((g, tuple(map(words.json_int, words.json_list(p)))) for g, p in data.items())),
    ),
    "steps": (
        lambda steps: [[pos, words.to_json(ins)] for pos, ins in steps],
        lambda data: tuple((words.json_int(pos), words.from_json(ins)) for pos, ins in data),
    ),
    "budget": (Budget.to_json, Budget.from_json),
    "table_hash": (_same, words.json_str),
    "hom_kind": (_same, words.json_str),
    "payload": (_same, _same),  # replay decides whether it is a complex
}


class _Certificate:
    """A certificate's JSON: its ``kind`` under ``"type"``, then each field
    under its own name, written and read in field order through ``_FIELDS``."""

    def to_json(self) -> dict:
        return {"type": self.kind} | {f.name: _FIELDS[f.name][0](getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict):
        return cls(*(_FIELDS[f.name][1](data[f.name]) for f in fields(cls)))


@dataclass(frozen=True)
class FreeReductionCertificate(_Certificate):
    """The word freely reduces to the empty word; replay reduces it again."""

    kind: ClassVar[str] = "free_reduction"
    word: Word


@dataclass(frozen=True)
class QuotientWitness(_Certificate):
    """Finite permutation representation separating a word from the identity.

    Every relator must map to the identity permutation and the word to a
    non-identity one; both conditions are re-checked on replay.
    """

    kind: ClassVar[str] = "quotient_witness"
    degree: int
    images: tuple[tuple[str, tuple[int, ...]], ...]  # core generator -> permutation
    word: Word


@dataclass(frozen=True)
class NormalClosureDerivation(_Certificate):
    """Sequence of conjugated-relator insertions reducing a word to empty."""

    kind: ClassVar[str] = "normal_closure_derivation"
    word: Word
    steps: tuple[tuple[int, Word], ...]  # (position, inserted relator variant)


@dataclass(frozen=True)
class CosetEnumerationCertificate(_Certificate):
    """Outcome of a deterministic completed enumeration.

    Replay re-runs the enumeration under the recorded budget, capped by the
    checker's, and checks that the completed table matches the recorded size
    and hash, is internally consistent, and sends the word to coset 0, which
    must be the recorded coset.  The enumerator itself is the trusted kernel
    here; the fully independent Proved route is the normal-closure derivation.
    """

    kind: ClassVar[str] = "coset_enumeration"
    budget: Budget
    n_cosets: int
    table_hash: str
    word: Word
    coset: int


@dataclass(frozen=True)
class HomImageWitness(_Certificate):
    """Nontrivial image under a registered homomorphism with an exact engine."""

    kind: ClassVar[str] = "hom_image"
    hom_kind: str
    payload: dict
    word: Word
    image: Word


CERT_TYPES = {
    cls.kind: cls
    for cls in (FreeReductionCertificate, QuotientWitness, NormalClosureDerivation,
                CosetEnumerationCertificate, HomImageWitness)
}


def certificate_from_json(data: dict):
    return CERT_TYPES[data["type"]].from_json(data)


@dataclass(frozen=True)
class TriState:
    """A verdict: proved and refuted ones carry a certificate, unknown ones never do."""

    status: str
    certificate: object | None = None

    def __post_init__(self) -> None:
        if self.status not in (PROVED, REFUTED, UNKNOWN):
            raise ValueError(f"unknown verdict status {self.status!r}")
        if (self.certificate is None) != (self.status == UNKNOWN):
            kind = "without" if self.certificate is None else "with"
            raise ValueError(f"{self.status} verdict {kind} a certificate")

    @property
    def proved(self) -> bool:
        return self.status == PROVED

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def unknown(self) -> bool:
        return self.status == UNKNOWN

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "TriState":
        cert = certificate_from_json(data["certificate"]) if "certificate" in data else None
        return cls(data["status"], cert)


# ---------------------------------------------------------------------------
# Registered homomorphisms (exact Refuted shortcuts)
# ---------------------------------------------------------------------------


class BBImageHom:
    """The directed-edge -> x y^{-1} map into the right-angled Artin group.

    Sound for any presentation whose generators are the directed edges of the
    complex and whose relators all die in the Artin group (checked once at
    registration and again on certificate replay).
    """

    kind = "bb"

    def __init__(self, complex_) -> None:
        self.map = normal_forms.BBMap(complex_)
        # every witness carries the complex, serialised once here
        self.payload = complex_.to_json()

    def check_compatible(self, pres: GroupPresentation) -> bool:
        try:
            return all(not self.map.normal_form(r) for r in pres.relators)
        except normal_forms.NormalFormError:
            return False

    def image(self, w: Word) -> Word:
        return self.map.image(w)

    def witness(self, w: Word, image: Word) -> HomImageWitness:
        return HomImageWitness(self.kind, self.payload, w, image)


# ---------------------------------------------------------------------------
# Abelianization witness
# ---------------------------------------------------------------------------


def _abelian_data(pres: GroupPresentation):
    """Core generators, each coordinate's modulus (its Smith factor of the
    relator exponent matrix, 0 for a free coordinate) and each letter code's
    row: ``V[j-1]`` for ``+j`` and its negative for ``-j``, ``V`` the right
    transform.  A word's coordinates sum its letters' rows."""
    core = pres.core_generators()
    n = len(core)
    relator_rows = [list(exponent_vector(r, n)) for r in pres.core_relators()]
    if relator_rows:
        diag, v = smith_normal_form(relator_rows)
    else:
        diag, v = [], [[int(i == j) for j in range(n)] for i in range(n)]
    rows = {}
    for j, row in enumerate(v, 1):
        rows[j] = tuple(row)
        rows[-j] = tuple(-x for x in row)
    return core, tuple(diag) + (0,) * (n - len(diag)), rows


def _abelian_coords(data, codes: Sequence[int]) -> tuple[int, ...]:
    core, _, rows = data
    return tuple(map(sum, zip((0,) * len(core), *(rows[c] for c in codes))))


def _smallest_nondividing_modulus(value: int) -> int:
    m = 2
    while value % m == 0:
        m += 1
    return m


def _abelian_obstruction(data, coords: Sequence[int]) -> tuple[int, int] | None:
    """The first coordinate ``i`` nonzero in its cyclic factor and a modulus
    showing it, or None when the word dies in the abelianization."""
    for i, (x, m) in enumerate(zip(coords, data[1])):
        if m:
            if x % m:
                return i, m
        elif x:
            return i, _smallest_nondividing_modulus(x)
    return None


def _abelian_quotient(data, codes: Sequence[int], w: Word) -> QuotientWitness | None:
    """Cyclic-quotient witness for the word ``w`` with the given codes, from
    the abelianization data of ``_abelian_data``."""
    found = _abelian_obstruction(data, _abelian_coords(data, codes))
    if found is None:
        return None
    i, modulus = found
    core, _, rows = data
    images = []
    for j, g in enumerate(core, 1):
        s = rows[j][i] % modulus
        images.append((g, tuple((x + s) % modulus for x in range(modulus))))
    return QuotientWitness(modulus, tuple(sorted(images)), tuple(w))


def abelian_witness(pres: GroupPresentation, w: Word) -> QuotientWitness | None:
    """Cyclic-quotient witness when the word survives abelianization."""
    return _abelian_quotient(_abelian_data(pres), pres.encode(w), w)


# ---------------------------------------------------------------------------
# Normal-closure derivation search
# ---------------------------------------------------------------------------


def normal_closure_search(
    pres: GroupPresentation, w: Word, budget: Budget
) -> NormalClosureDerivation | None:
    """Breadth-first search for a derivation of w from conjugated relators.

    Moves insert a rotation of a relator (or its inverse) at some position,
    followed by canonical free reduction; success is reaching the empty word
    within the depth budget.
    """
    start = pres.encode(w)
    if not start:
        return NormalClosureDerivation(tuple(w), ())
    relators = pres.core_relators()
    if not relators:
        return None
    variants = pres.relator_variants()
    max_rel = max(len(r) for r in relators)
    length_cap = len(start) + 2 * max_rel
    frontier = {start: ()}
    seen = {start}
    for _ in range(budget.max_search_depth):
        nxt: dict[tuple[int, ...], tuple] = {}
        for state, path in frontier.items():
            for pos in range(len(state) + 1):
                for var in variants:
                    cand = reduce_ints(state[:pos] + var + state[pos:])
                    if cand in seen or len(cand) > length_cap:
                        continue
                    new_path = path + ((pos, var),)
                    if not cand:
                        steps = tuple((p, pres.decode(v)) for p, v in new_path)
                        return NormalClosureDerivation(tuple(w), steps)
                    seen.add(cand)
                    nxt[cand] = new_path
        frontier = nxt
        if not frontier:
            break
    return None


# ---------------------------------------------------------------------------
# Finite quotient search
# ---------------------------------------------------------------------------

MAX_QUOTIENT_DEGREE = 8
# the highest degree that the engine and ``group_is_trivial`` search
ENGINE_QUOTIENT_DEGREE = 4


def _perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _eval_perm_word(codes: Sequence[int], images: Sequence[tuple[int, ...]], degree: int):
    acc = tuple(range(degree))
    for c in codes:
        p = images[abs(c) - 1]
        if c < 0:
            p = _perm_inverse(p)
        acc = tuple(p[x] for x in acc)
    return acc


class _Permutations:
    """The permutations of one degree, each coded by its index in
    ``itertools.permutations`` order, so 0 is the identity.  Inverses and
    products are looked up in tables filled on first use, so a large degree
    never builds its whole multiplication table."""

    def __init__(self, degree: int) -> None:
        self.perms = list(itertools.permutations(range(degree)))
        self._index = {p: i for i, p in enumerate(self.perms)}
        self._inverse: dict[int, int] = {}
        self._product: dict[int, int] = {}

    def inverse(self, a: int) -> int:
        inv = self._inverse.get(a)
        if inv is None:
            inv = self._inverse[a] = self._index[_perm_inverse(self.perms[a])]
        return inv

    def evaluate(self, codes: Sequence[int], signed: Sequence[int]) -> int:
        """The code of a word whose letter ``c`` maps to ``signed[c]``, the
        letters applied left to right as ``_eval_perm_word`` applies them."""
        perms, index, product, size = self.perms, self._index, self._product, len(self.perms)
        acc = 0
        for c in codes:
            p = signed[c]
            key = acc * size + p
            nxt = product.get(key)
            if nxt is None:
                image = perms[p]
                nxt = product[key] = index[tuple(image[x] for x in perms[acc])]
            acc = nxt
        return acc


def _quotient_search(
    pres: GroupPresentation,
    max_degree: int,
    codes: Sequence[int],
    word_for_witness: Word,
) -> QuotientWitness | None:
    """Lexicographic backtracking over homomorphisms into symmetric groups.

    Each relator is checked at the depth of its last generator, and so is the
    word ``codes`` when it is not empty: a branch on which the word maps to
    the identity is dropped there, as it does so at every leaf below.  With
    no word, a leaf is accepted when some generator maps off the identity.
    """
    core = pres.core_generators()
    n = len(core)
    if n == 0:
        return None
    by_last = [[] for _ in range(n)]
    for r in pres.core_relators():
        if r:
            by_last[max(map(abs, r)) - 1].append(r)
    word_at = max(map(abs, codes)) - 1 if codes else n
    for degree in range(2, max_degree + 1):
        group = _Permutations(degree)
        # signed[j] codes the image of generator j and signed[-j], read from
        # the list's end, its inverse
        signed = [0] * (2 * n + 1)

        def extend(i: int) -> bool:
            if i == n:
                return bool(codes) or any(signed[1 : n + 1])
            for p in range(len(group.perms)):
                signed[i + 1], signed[-i - 1] = p, group.inverse(p)
                if (
                    all(group.evaluate(r, signed) == 0 for r in by_last[i])
                    and (i != word_at or group.evaluate(codes, signed) != 0)
                    and extend(i + 1)
                ):
                    return True
            return False

        if extend(0):
            images = zip(core, (group.perms[signed[i]] for i in range(1, n + 1)))
            return QuotientWitness(degree, tuple(sorted(images)), tuple(word_for_witness))
    return None


def finite_quotient_search(
    pres: GroupPresentation, w: Word, max_degree: int = MAX_QUOTIENT_DEGREE
) -> QuotientWitness | None:
    """First (lexicographic) symmetric-group witness of nontriviality of w.

    Returning None is NOT evidence of triviality.
    """
    if max_degree > MAX_QUOTIENT_DEGREE:
        raise ValueError(f"max_degree capped at {MAX_QUOTIENT_DEGREE}")
    codes = pres.encode(w)
    if not codes:
        return None
    return _quotient_search(pres, max_degree, codes, tuple(w))


def nontrivial_quotient_search(
    pres: GroupPresentation, max_degree: int = MAX_QUOTIENT_DEGREE
) -> QuotientWitness | None:
    """Witness that the presented group itself is nontrivial."""
    if max_degree > MAX_QUOTIENT_DEGREE:
        raise ValueError(f"max_degree capped at {MAX_QUOTIENT_DEGREE}")
    witness = _quotient_search(pres, max_degree, (), ())
    return None if witness is None else _first_moved(witness)


def _first_moved(witness: QuotientWitness) -> QuotientWitness | None:
    """The witness with its first generator that moves a point as its word,
    or None when every generator fixes every point."""
    for g, p in witness.images:
        if p != tuple(range(witness.degree)):
            return replace(witness, word=((g, 1),))
    return None


# ---------------------------------------------------------------------------
# The layered oracle
# ---------------------------------------------------------------------------


class WordProblemEngine:
    """Caches per-presentation state (enumeration, abelian data) across calls."""

    def __init__(
        self,
        pres: GroupPresentation,
        budget: Budget | None = None,
        homs: Sequence[BBImageHom] = (),
    ) -> None:
        self.pres = pres
        self.budget = budget or Budget()
        self.homs = [h for h in homs if h.check_compatible(pres)]
        self._abelian = _abelian_data(pres)
        self._table: CosetTable | BudgetExceeded | None = None

    def table(self) -> CosetTable | None:
        """The completed coset table of the trivial subgroup, or None when the
        enumeration does not complete in the budget.  A complete table lists
        the group's elements, so none is tried when the abelianization has a
        free factor: the group is then infinite."""
        if self._table is None:
            core, mods, _ = self._abelian
            if rank_of_diagonal(mods) == len(core):
                self._table = todd_coxeter(self.pres, (), self.budget)
            else:
                self._table = BudgetExceeded("infinite abelianization")
        return self._table if isinstance(self._table, CosetTable) else None

    def is_trivial(self, w: Word) -> TriState:
        codes = self.pres.encode(w)
        if not codes:
            return TriState(PROVED, FreeReductionCertificate(tuple(w)))
        ab = _abelian_quotient(self._abelian, codes, w)
        if ab is not None:
            return TriState(REFUTED, ab)
        for hom in self.homs:
            image = hom.image(self.pres.decode(codes))
            if image:
                return TriState(REFUTED, hom.witness(tuple(w), image))
        table = self.table()
        if table is not None:
            coset = table.trace(0, codes)
            if coset == 0:
                cert = CosetEnumerationCertificate(
                    self.budget, len(table.rows), table.content_hash(), tuple(w), 0
                )
                return TriState(PROVED, cert)
            return TriState(REFUTED, table.quotient_witness(self.pres, w))
        derivation = normal_closure_search(self.pres, w, self.budget)
        if derivation is not None:
            return TriState(PROVED, derivation)
        witness = finite_quotient_search(self.pres, w, ENGINE_QUOTIENT_DEGREE)
        if witness is not None:
            return TriState(REFUTED, witness)
        return TriState(UNKNOWN)


def is_trivial(
    pres: GroupPresentation,
    w: Word,
    budget: Budget | None = None,
    homs: Sequence[BBImageHom] = (),
) -> TriState:
    return WordProblemEngine(pres, budget, homs).is_trivial(w)


def group_is_trivial(pres: GroupPresentation, budget: Budget | None = None) -> TriState:
    """Tri-state check that the presented group collapses to the identity."""
    engine = WordProblemEngine(pres, budget)
    table = engine.table()
    if table is not None and len(table.rows) == 1:
        cert = CosetEnumerationCertificate(engine.budget, 1, table.content_hash(), (), 0)
        return TriState(PROVED, cert)
    witness = nontrivial_quotient_search(pres, ENGINE_QUOTIENT_DEGREE)
    if witness is None:
        # no permutation quotient of degree at most 4, so any cyclic quotient
        # has order above 4: the abelianization finds one if there is one
        for i, g in enumerate(pres.core_generators(), 1):
            witness = _abelian_quotient(engine._abelian, (i,), ((g, 1),))
            if witness is not None:
                break
    if witness is not None:
        return TriState(REFUTED, witness)
    if table is not None:
        # finite but not order 1: some generator acts nontrivially in the
        # regular representation, which is itself a permutation witness
        regular = _first_moved(table.quotient_witness(pres, ()))
        if regular is not None:
            return TriState(REFUTED, regular)
    return TriState(UNKNOWN)


# ---------------------------------------------------------------------------
# Kernel search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSearchResult:
    """Outcome of the breadth-first kernel search between two presentations."""

    found: bool
    length: int | None
    word: Word | None
    certified_lower_bound: int
    minimal_up_to_unknowns: bool
    unknown_count: int
    target_certificate: object | None = None
    source_certificate: object | None = None

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "length": self.length,
            "word": words.to_json(self.word) if self.word else None,
            "certified_lower_bound": self.certified_lower_bound,
            "minimal_up_to_unknowns": self.minimal_up_to_unknowns,
            "unknown_count": self.unknown_count,
        }


def _dying_words(rows, data):
    """A function from a length to the freely reduced words of that length
    over the letters of ``rows`` (letter code -> coordinates, in alphabet
    order), lexicographic, whose rows sum to coordinates that die in the
    abelianization ``data``.  It meets in the middle: a word is a prefix of
    half its length, rounded up, and a suffix.  The half-words of a length
    are built once, in order, with reduced coordinates (torsion ones mod
    their Smith factor, free ones whole); the suffixes are filed once under
    their reduced negative sum, and a prefix meets its own by one lookup.
    Lexicographic order is (prefix, suffix) order."""
    core, mods, _ = data
    torsion = [(i, m) for i, m in enumerate(mods) if m]

    def image(coords):
        coords = list(coords)
        for i, m in torsion:
            coords[i] %= m
        return tuple(coords)

    alphabet = [(c, image(row)) for c, row in rows.items()]
    halves = [[((), (0,) * len(core))]]
    filed: dict[int, dict] = {}

    def half(h: int) -> list:
        while len(halves) <= h:
            halves.append([(word + (c,), image(map(add, coords, row))) for word, coords in halves[-1]
                           for c, row in alphabet if not word or word[-1] != -c])
        return halves[h]

    def of_length(length: int):
        h = length // 2
        if h not in filed:
            filed[h] = {}
            for word, coords in half(h):
                filed[h].setdefault(image(-x for x in coords), []).append(word)
        for prefix, coords in half(length - h):
            for suffix in filed[h].get(coords, ()):
                if not suffix or suffix[0] != -prefix[-1]:
                    yield prefix + suffix

    return of_length


def kernel_shortest_element(
    pres_s: GroupPresentation,
    pres_t: GroupPresentation,
    quotient,
    radius: int,
    budget: Budget | None = None,
    homs_s: Sequence[BBImageHom] = (),
    homs_t: Sequence[BBImageHom] = (),
) -> KernelSearchResult:
    """Shortest word trivial in the target but not in the source, under the
    identity on generators, the one ``quotient`` accepted.

    Breadth-first over freely reduced words, met in the middle in the
    target's abelianization: each prefix of half the length is joined by one
    lookup to the suffixes whose sums kill its own, so only words that die
    there are built, decoded and handed to the engines.  The half-word lists
    hold at most 2n(2n-1)^(ceil(radius/2)-1) words each, for n core
    generators.  The result is certified minimal only when every shorter word
    resolved conclusively, otherwise it is flagged minimal-up-to-Unknowns.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if quotient != Homomorphism.identity_on_generators(pres_s, pres_t):
        raise ValueError("kernel search needs the identity on generators as its quotient")
    eng_s = WordProblemEngine(pres_s, budget, homs_s)
    eng_t = WordProblemEngine(pres_t, budget, homs_t)
    abelian_t = eng_t._abelian
    letters = [c for i, _ in enumerate(pres_s.core_generators(), 1) for c in (i, -i)]
    rows = {c: _abelian_coords(abelian_t, pres_t.encode(pres_s.decode((c,)))) for c in letters}
    words_of_length = _dying_words(rows, abelian_t)
    unknown_count = 0
    certified_lower_bound = 0
    for length in range(1, radius + 1):
        # only the words that die in the target's abelianization: its engine
        # refutes every other word there, and the one route before, free
        # reduction, proves only words whose coordinates are 0
        for codes in words_of_length(length):
            w = pres_s.decode(codes)
            in_t = eng_t.is_trivial(w)
            in_s = eng_s.is_trivial(w) if in_t.proved else None
            if in_t.unknown or (in_s is not None and in_s.unknown):
                unknown_count += 1
            elif in_s is not None and in_s.refuted:
                return KernelSearchResult(
                    True,
                    length,
                    w,
                    certified_lower_bound + 1,
                    unknown_count > 0,
                    unknown_count,
                    target_certificate=in_t.certificate,
                    source_certificate=in_s.certificate,
                )
        # every word up to this length resolved conclusively
        if unknown_count == 0:
            certified_lower_bound = length
    return KernelSearchResult(
        False, None, None, certified_lower_bound + 1, unknown_count > 0, unknown_count
    )


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------


def _verify_quotient_witness(pres: GroupPresentation, codes, cert: QuotientWitness) -> bool:
    images = dict(cert.images)
    core = pres.core_generators()
    # every length is checked before anything of the claimed degree is built
    if not codes or set(images) != set(core) or any(len(p) != cert.degree for p in images.values()):
        return False
    perms = []
    for g in core:
        p = images[g]
        if sorted(p) != list(range(cert.degree)):
            return False
        perms.append(tuple(p))
    identity = tuple(range(cert.degree))
    for r in pres.core_relators():
        if _eval_perm_word(r, perms, cert.degree) != identity:
            return False
    return _eval_perm_word(codes, perms, cert.degree) != identity


def _verify_derivation(pres: GroupPresentation, codes, cert: NormalClosureDerivation) -> bool:
    state = codes
    for pos, ins in cert.steps:
        ins_codes = pres.encode(ins)
        if ins_codes not in pres.relator_variants():
            return False
        if pos < 0 or pos > len(state):
            return False
        state = reduce_ints(state[:pos] + ins_codes + state[pos:])
    return state == ()


def _verify_table_consistency(pres: GroupPresentation, table: CosetTable) -> bool:
    n = len(table.rows)
    for c in range(n):
        for colx in range(table.ncols):
            d = table.rows[c][colx]
            if d is None or not (0 <= d < n):
                return False
            if table.rows[d][colx ^ 1] != c:
                return False
    for r in pres.core_relators():
        for c in range(n):
            if table.trace(c, r) != c:
                return False
    return True


def _verify_enumeration(pres: GroupPresentation, codes, cert: CosetEnumerationCertificate) -> bool:
    if cert.coset != 0:  # only the coset of the identity proves a word trivial
        return False
    table = todd_coxeter(pres, (), cert.budget)
    if not isinstance(table, CosetTable):
        return None  # out of budget: verify_certificate decides what that means
    if len(table.rows) != cert.n_cosets or table.content_hash() != cert.table_hash:
        return False
    if not _verify_table_consistency(pres, table):
        return False
    return table.trace(0, codes) == 0


def _verify_hom_image(pres: GroupPresentation, codes, cert: HomImageWitness) -> bool:
    from .complexes import FlagComplex

    if cert.hom_kind != BBImageHom.kind:
        return False
    try:
        hom = BBImageHom(FlagComplex.from_json(cert.payload))
    except (ValueError, LookupError, TypeError, AttributeError):
        return False  # a payload that is no complex replays nothing
    if not hom.check_compatible(pres):
        return False
    image = hom.image(pres.decode(codes))
    return bool(image) and image == cert.image


# certificate type -> the verdict it can support and its check of the encoded word
_REPLAY = {
    FreeReductionCertificate: (PROVED, lambda pres, codes, cert: not codes),
    QuotientWitness: (REFUTED, _verify_quotient_witness),
    NormalClosureDerivation: (PROVED, _verify_derivation),
    CosetEnumerationCertificate: (PROVED, _verify_enumeration),
    HomImageWitness: (REFUTED, _verify_hom_image),
}


def verify_certificate(pres: GroupPresentation, state: TriState, budget: Budget | None = None) -> bool | None:
    """Replay a Proved/Refuted certificate; Unknown verifies vacuously.

    The certificate's word is encoded over the presentation before any check,
    so a symbol outside it, or outside a homomorphism's payload, fails replay.
    A coset enumeration reruns within both its recorded budget and ``budget``;
    out of a ``budget`` below the recorded one it decides nothing (None), as
    a forged budget and an honest larger one look the same from here.
    """
    cert = state.certificate
    if state.unknown:
        return True
    verdict, check = _REPLAY.get(type(cert), (None, None))
    if state.status != verdict:
        return False
    capped = cert
    if budget is not None and isinstance(cert, CosetEnumerationCertificate):
        capped = replace(cert, budget=cert.budget.within(budget))
    try:
        replayed = check(pres, pres.encode(cert.word), capped)
    except (PresentationError, normal_forms.NormalFormError):
        return False
    if replayed is None:  # the enumeration ran out of its budget
        return None if capped != cert else False
    return replayed
