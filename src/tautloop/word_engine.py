"""Layered, certificate-producing word-problem oracle.

The general word problem is undecidable, so every answer is a tri-state:
Proved and Refuted always carry a replayable certificate, Unknown never does.
Routes, in the order tried:

* free reduction (empty word);
* abelianization witness (exact, via Smith normal form);
* registered homomorphisms into groups with decidable word problems;
* budgeted Todd-Coxeter coset enumeration (conclusive both ways when the
  table completes);
* bounded normal-closure derivation search (independent Proved route);
* finite-quotient search over symmetric groups (Refuted route).

Budgets are deterministic; no wall-clock component; so identical inputs
always give identical answers and certificates.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import normal_forms, words
from .linalg import mat_vec, smith_normal_form
from .presentations import (
    GroupPresentation,
    canonical_cyclic_ints,
    exponent_vector,
    invert_ints,
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
        return {
            "max_cosets": self.max_cosets,
            "max_deductions": self.max_deductions,
            "max_search_depth": self.max_search_depth,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Budget":
        return cls(**data)


@dataclass(frozen=True)
class BudgetExceeded:
    """Inconclusive outcome marker; downstream this means Unknown, never error."""

    reason: str


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration
# ---------------------------------------------------------------------------


class CosetTable:
    """Completed (or partial) coset table over the core alphabet.

    Columns alternate generator / inverse per core generator.  After
    completion the table is compacted: cosets are renumbered 0..n-1 in
    discovery order, which makes enumeration output deterministic.
    """

    def __init__(self, n_core: int) -> None:
        self.n_core = n_core
        self.ncols = 2 * n_core
        self.rows: list[list[int | None]] = [[None] * self.ncols]
        self.parent = [0]
        self.complete = False
        self.definitions = 0
        self.fills = 0

    @staticmethod
    def col(code: int) -> int:
        return 2 * (abs(code) - 1) + (0 if code > 0 else 1)

    @staticmethod
    def inv_col(colx: int) -> int:
        return colx ^ 1

    def rep(self, c: int) -> int:
        while self.parent[c] != c:
            self.parent[c] = self.parent[self.parent[c]]
            c = self.parent[c]
        return c

    def alive(self) -> list[int]:
        return [c for c in range(len(self.rows)) if self.parent[c] == c]

    @property
    def n_cosets(self) -> int:
        return len(self.alive())

    def trace(self, start: int, codes: Sequence[int]) -> int | None:
        c = start
        for code in codes:
            nxt = self.rows[c][self.col(code)]
            if nxt is None:
                return None
            c = self.rep(nxt)
        return c

    def compact(self) -> None:
        live = self.alive()
        remap = {old: new for new, old in enumerate(live)}
        self.rows = [
            [None if e is None else remap[self.rep(e)] for e in self.rows[old]] for old in live
        ]
        self.parent = list(range(len(self.rows)))

    def permutations(self) -> dict[int, tuple[int, ...]]:
        """Core generator index (1-based) -> permutation of cosets."""
        out = {}
        for g in range(1, self.n_core + 1):
            out[g] = tuple(self.rows[c][self.col(g)] for c in range(len(self.rows)))
        return out

    def element_words(self) -> list[tuple[int, ...]]:
        """Shortest representative word per coset, via BFS in lex column order."""
        n = len(self.rows)
        reps: list[tuple[int, ...] | None] = [None] * n
        reps[0] = ()
        queue = [0]
        codes = [g for i in range(1, self.n_core + 1) for g in (i, -i)]
        while queue:
            nxt = []
            for c in queue:
                for code in codes:
                    d = self.rows[c][self.col(code)]
                    if d is not None and reps[d] is None:
                        reps[d] = reps[c] + (code,)
                        nxt.append(d)
            queue = nxt
        return [r if r is not None else () for r in reps]

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
    representation (cosets = group elements).
    """
    if budget is None:
        budget = Budget()
    core = pres.core_generators()
    relators = [r for r in pres.core_relators()]
    sub = [reduce_ints(pres.encode(w)) for w in subgroup_gens]
    t = CosetTable(len(core))

    def define(c: int, colx: int) -> int | None:
        t.definitions += 1
        if t.definitions > budget.max_cosets:
            return None
        t.rows.append([None] * t.ncols)
        t.parent.append(len(t.rows) - 1)
        n = len(t.rows) - 1
        t.rows[c][colx] = n
        t.rows[n][CosetTable.inv_col(colx)] = c
        t.fills += 2
        return n

    def merge(a: int, b: int, queue: list[int]) -> None:
        a, b = t.rep(a), t.rep(b)
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        t.parent[hi] = lo
        queue.append(hi)

    def coincidence(a: int, b: int) -> None:
        queue: list[int] = []
        merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            y = queue[qi]
            qi += 1
            for colx in range(t.ncols):
                d = t.rows[y][colx]
                if d is None:
                    continue
                # detach the mirror entry before transplanting the edge
                if t.rows[d][CosetTable.inv_col(colx)] == y:
                    t.rows[d][CosetTable.inv_col(colx)] = None
                mu, nu = t.rep(y), t.rep(d)
                existing = t.rows[mu][colx]
                if existing is not None:
                    merge(nu, existing, queue)
                else:
                    back = t.rows[nu][CosetTable.inv_col(colx)]
                    if back is not None:
                        merge(mu, back, queue)
                    else:
                        t.rows[mu][colx] = nu
                        t.rows[nu][CosetTable.inv_col(colx)] = mu
                        t.fills += 2

    def scan_and_fill(start: int, w: Sequence[int]) -> bool:
        """Returns False on budget exhaustion."""
        i, j = 0, len(w) - 1
        f = b = t.rep(start)
        while True:
            while i <= j:
                nxt = t.rows[f][CosetTable.col(w[i])]
                if nxt is None:
                    break
                f = t.rep(nxt)
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return True
            while j >= i:
                prv = t.rows[b][CosetTable.col(-w[j])]
                if prv is None:
                    break
                b = t.rep(prv)
                j -= 1
            if j < i:
                coincidence(f, b)
                return True
            if i == j:
                t.rows[f][CosetTable.col(w[i])] = b
                t.rows[b][CosetTable.col(-w[i])] = f
                t.fills += 2
                if t.fills > budget.max_deductions:
                    return False
                return True
            n = define(f, CosetTable.col(w[i]))
            if n is None:
                return False
            if t.fills > budget.max_deductions:
                return False

    for w in sub:
        if not scan_and_fill(0, w):
            return BudgetExceeded("coset budget exhausted on subgroup generators")
    c = 0
    while c < len(t.rows):
        if t.rep(c) != c:
            c += 1
            continue
        for r in relators:
            if t.rep(c) != c:
                break
            if not scan_and_fill(c, r):
                return BudgetExceeded("coset budget exhausted")
        # close remaining gaps in this row so the table ends complete
        if t.rep(c) == c:
            for colx in range(t.ncols):
                if t.rows[c][colx] is None:
                    if define(c, colx) is None:
                        return BudgetExceeded("coset budget exhausted")
        c += 1
    t.compact()
    if any(e is None for row in t.rows for e in row):
        return BudgetExceeded("table incomplete after scan")
    t.complete = True
    return t


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeReductionCertificate:
    """The word freely reduces to the empty word; replay reduces it again."""

    word: Word
    kind: str = "free_reduction"

    def to_json(self) -> dict:
        return {"type": self.kind, "word": words.to_json(self.word)}

    @classmethod
    def from_json(cls, data: dict) -> "FreeReductionCertificate":
        return cls(words.from_json(data["word"]))


@dataclass(frozen=True)
class QuotientWitness:
    """Finite permutation representation separating a word from the identity.

    Every relator must map to the identity permutation and the word to a
    non-identity one; both conditions are re-checked on replay.
    """

    degree: int
    images: tuple[tuple[str, tuple[int, ...]], ...]  # core generator -> permutation
    word: Word

    def to_json(self) -> dict:
        return {
            "type": "quotient_witness",
            "degree": self.degree,
            "images": {g: list(p) for g, p in self.images},
            "word": words.to_json(self.word),
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuotientWitness":
        return cls(
            int(data["degree"]),
            tuple(sorted((g, tuple(p)) for g, p in data["images"].items())),
            words.from_json(data["word"]),
        )


@dataclass(frozen=True)
class NormalClosureDerivation:
    """Sequence of conjugated-relator insertions reducing a word to empty."""

    word: Word
    steps: tuple[tuple[int, Word], ...]  # (position, inserted relator variant)

    def to_json(self) -> dict:
        return {
            "type": "normal_closure_derivation",
            "word": words.to_json(self.word),
            "steps": [[pos, words.to_json(ins)] for pos, ins in self.steps],
        }

    @classmethod
    def from_json(cls, data: dict) -> "NormalClosureDerivation":
        return cls(
            words.from_json(data["word"]),
            tuple((int(pos), words.from_json(ins)) for pos, ins in data["steps"]),
        )


@dataclass(frozen=True)
class CosetEnumerationCertificate:
    """Outcome of a deterministic completed enumeration.

    Replay re-runs the enumeration under the recorded budget and checks that
    the completed table matches the recorded hash, is internally consistent,
    and sends the word to the recorded coset.  The enumerator itself is the
    trusted kernel here; the fully independent Proved route is the
    normal-closure derivation.
    """

    budget: Budget
    n_cosets: int
    table_hash: str
    word: Word
    coset: int

    def to_json(self) -> dict:
        return {
            "type": "coset_enumeration",
            "budget": self.budget.to_json(),
            "n_cosets": self.n_cosets,
            "table_hash": self.table_hash,
            "word": words.to_json(self.word),
            "coset": self.coset,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CosetEnumerationCertificate":
        return cls(
            Budget.from_json(data["budget"]),
            int(data["n_cosets"]),
            data["table_hash"],
            words.from_json(data["word"]),
            int(data["coset"]),
        )


@dataclass(frozen=True)
class HomImageWitness:
    """Nontrivial image under a registered homomorphism with an exact engine."""

    hom_kind: str
    payload: dict
    word: Word
    image: Word

    def to_json(self) -> dict:
        return {
            "type": "hom_image",
            "hom_kind": self.hom_kind,
            "payload": self.payload,
            "word": words.to_json(self.word),
            "image": words.to_json(self.image),
        }

    @classmethod
    def from_json(cls, data: dict) -> "HomImageWitness":
        return cls(
            data["hom_kind"],
            data["payload"],
            words.from_json(data["word"]),
            words.from_json(data["image"]),
        )


CERT_TYPES = {
    "free_reduction": FreeReductionCertificate,
    "quotient_witness": QuotientWitness,
    "normal_closure_derivation": NormalClosureDerivation,
    "coset_enumeration": CosetEnumerationCertificate,
    "hom_image": HomImageWitness,
}


def certificate_from_json(data: dict):
    return CERT_TYPES[data["type"]].from_json(data)


@dataclass(frozen=True)
class TriState:
    status: str
    certificate: object | None = None

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
        cert = data.get("certificate")
        return cls(data["status"], certificate_from_json(cert) if cert else None)


def _check_invariant(state: TriState) -> TriState:
    if state.status in (PROVED, REFUTED) and state.certificate is None:
        raise AssertionError("conclusive states must carry a certificate")
    if state.status == UNKNOWN and state.certificate is not None:
        raise AssertionError("Unknown never carries a certificate")
    return state


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
        self.complex = complex_
        self.map = normal_forms.BBMap(complex_)

    def check_compatible(self, pres: GroupPresentation) -> bool:
        try:
            return all(not self.map.normal_form(r) for r in pres.relators)
        except normal_forms.NormalFormError:
            return False

    def image(self, w: Word) -> Word:
        return self.map.image(w)

    def witness(self, w: Word, image: Word) -> HomImageWitness:
        return HomImageWitness(self.kind, self.complex.to_json(), w, image)


def _replay_hom_witness(pres: GroupPresentation, cert: HomImageWitness) -> bool:
    from .complexes import FlagComplex

    if cert.hom_kind != BBImageHom.kind:
        return False
    hom = BBImageHom(FlagComplex.from_json(cert.payload))
    if not hom.check_compatible(pres):
        return False
    image = hom.image(cert.word)
    return bool(image) and image == cert.image


# ---------------------------------------------------------------------------
# Abelianization witness
# ---------------------------------------------------------------------------


def _abelian_data(pres: GroupPresentation):
    core = pres.core_generators()
    n = len(core)
    rows = [list(exponent_vector(r, n)) for r in pres.core_relators()]
    if not rows:
        diag: list[int] = []
        v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    else:
        diag, v = smith_normal_form(rows)
    return core, n, diag, v


def _smallest_nondividing_modulus(value: int) -> int:
    m = 2
    while value % m == 0:
        m += 1
    return m


def abelian_witness(pres: GroupPresentation, w: Word) -> QuotientWitness | None:
    """Cyclic-quotient witness when the word survives abelianization."""
    core, n, diag, v = _abelian_data(pres)
    if n == 0:
        return None
    vec = list(exponent_vector(reduce_ints(pres.encode(w)), n))
    coords = mat_vec(vec, v)
    r = len(diag)
    for i in range(n):
        if i < r and diag[i] != 0:
            if coords[i] % diag[i] != 0:
                modulus = diag[i]
                shift = coords[i] % modulus
            else:
                continue
        elif coords[i] != 0:
            modulus = _smallest_nondividing_modulus(coords[i])
            shift = coords[i] % modulus
        else:
            continue
        images = []
        for j, g in enumerate(core):
            s = v[j][i] % modulus
            images.append((g, tuple((x + s) % modulus for x in range(modulus))))
        return QuotientWitness(modulus, tuple(sorted(images)), tuple(w))
    return None


# ---------------------------------------------------------------------------
# Normal-closure derivation search
# ---------------------------------------------------------------------------


def _relator_variants(relators: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for r in relators:
        for base in (tuple(r), invert_ints(r)):
            for i in range(len(base)):
                rot = base[i:] + base[:i]
                if rot not in seen:
                    seen.add(rot)
                    out.append(rot)
    return out


def normal_closure_search(
    pres: GroupPresentation, w: Word, budget: Budget
) -> NormalClosureDerivation | None:
    """Breadth-first search for a derivation of w from conjugated relators.

    Moves insert a rotation of a relator (or its inverse) at some position,
    followed by canonical free reduction; success is reaching the empty word
    within the depth budget.
    """
    start = reduce_ints(pres.encode(w))
    if not start:
        return NormalClosureDerivation(tuple(w), ())
    relators = pres.core_relators()
    if not relators:
        return None
    variants = _relator_variants(relators)
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


def _quotient_search(
    pres: GroupPresentation,
    max_degree: int,
    accept,
    word_for_witness: Word,
) -> QuotientWitness | None:
    """Lexicographic backtracking over homomorphisms into symmetric groups."""
    core = pres.core_generators()
    relators = pres.core_relators()
    n = len(core)
    if n == 0:
        return None
    by_last = [[] for _ in range(n)]
    for r in relators:
        if r:
            by_last[max(abs(c) for c in r) - 1].append(r)
    for degree in range(2, max_degree + 1):
        identity = tuple(range(degree))
        perms = [tuple(p) for p in itertools.permutations(range(degree))]
        assignment: list[tuple[int, ...]] = []

        def extend() -> QuotientWitness | None:
            i = len(assignment)
            if i == n:
                if accept(assignment, degree):
                    images = tuple(sorted(zip(core, assignment)))
                    return QuotientWitness(degree, images, tuple(word_for_witness))
                return None
            for p in perms:
                assignment.append(p)
                ok = all(
                    _eval_perm_word(r, assignment, degree) == identity for r in by_last[i]
                )
                if ok:
                    found = extend()
                    if found is not None:
                        return found
                assignment.pop()
            return None

        found = extend()
        if found is not None:
            return found
    return None


def finite_quotient_search(
    pres: GroupPresentation, w: Word, max_degree: int = MAX_QUOTIENT_DEGREE
) -> QuotientWitness | None:
    """First (lexicographic) symmetric-group witness of nontriviality of w.

    Returning None is NOT evidence of triviality.
    """
    if max_degree > MAX_QUOTIENT_DEGREE:
        raise ValueError(f"max_degree capped at {MAX_QUOTIENT_DEGREE}")
    codes = reduce_ints(pres.encode(w))
    if not codes:
        return None

    def accept(assignment, degree) -> bool:
        return _eval_perm_word(codes, assignment, degree) != tuple(range(degree))

    return _quotient_search(pres, max_degree, accept, tuple(w))


def nontrivial_quotient_search(
    pres: GroupPresentation, max_degree: int = MAX_QUOTIENT_DEGREE
) -> QuotientWitness | None:
    """Witness that the presented group itself is nontrivial."""
    core = pres.core_generators()

    def accept(assignment, degree) -> bool:
        return any(p != tuple(range(degree)) for p in assignment)

    witness = _quotient_search(pres, max_degree, accept, ())
    if witness is None:
        return None
    # surviving generator recorded as the witness word
    for g, p in witness.images:
        if p != tuple(range(witness.degree)):
            return QuotientWitness(witness.degree, witness.images, ((g, 1),))
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
        max_quotient_degree: int = 4,
    ) -> None:
        self.pres = pres
        self.budget = budget or Budget()
        self.max_quotient_degree = max_quotient_degree
        self.homs = [h for h in homs if h.check_compatible(pres)]
        self._abelian = _abelian_data(pres)
        self._table: CosetTable | BudgetExceeded | None = None

    def table(self) -> CosetTable | BudgetExceeded:
        if self._table is None:
            self._table = todd_coxeter(self.pres, (), self.budget)
        return self._table

    def _abelian_witness(self, codes, w: Word) -> QuotientWitness | None:
        core, n, diag, v = self._abelian
        if n == 0:
            return None
        vec = list(exponent_vector(codes, n))
        coords = mat_vec(vec, v)
        r = len(diag)
        for i in range(n):
            if i < r and diag[i] != 0:
                if coords[i] % diag[i] == 0:
                    continue
                modulus = diag[i]
            elif coords[i] != 0:
                modulus = _smallest_nondividing_modulus(coords[i])
            else:
                continue
            images = []
            for j, g in enumerate(core):
                s = v[j][i] % modulus
                images.append((g, tuple((x + s) % modulus for x in range(modulus))))
            return QuotientWitness(modulus, tuple(sorted(images)), tuple(w))
        return None

    def is_trivial(self, w: Word) -> TriState:
        codes = reduce_ints(self.pres.encode(w))
        if not codes:
            return _check_invariant(TriState(PROVED, FreeReductionCertificate(tuple(w))))
        ab = self._abelian_witness(codes, w)
        if ab is not None:
            return _check_invariant(TriState(REFUTED, ab))
        for hom in self.homs:
            image = hom.image(self.pres.decode(codes))
            if image:
                return _check_invariant(TriState(REFUTED, hom.witness(tuple(w), image)))
        table = self.table()
        if isinstance(table, CosetTable) and table.complete:
            coset = table.trace(0, codes)
            if coset == 0:
                cert = CosetEnumerationCertificate(
                    self.budget, len(table.rows), table.content_hash(), tuple(w), 0
                )
                return _check_invariant(TriState(PROVED, cert))
            core = self.pres.core_generators()
            perms = table.permutations()
            images = tuple(sorted((core[g - 1], perms[g]) for g in perms))
            return _check_invariant(
                TriState(REFUTED, QuotientWitness(len(table.rows), images, tuple(w)))
            )
        derivation = normal_closure_search(self.pres, w, self.budget)
        if derivation is not None:
            return _check_invariant(TriState(PROVED, derivation))
        witness = finite_quotient_search(self.pres, w, self.max_quotient_degree)
        if witness is not None:
            return _check_invariant(TriState(REFUTED, witness))
        return TriState(UNKNOWN)


def is_trivial(
    pres: GroupPresentation,
    w: Word,
    budget: Budget | None = None,
    homs: Sequence[BBImageHom] = (),
    max_quotient_degree: int = 4,
) -> TriState:
    return WordProblemEngine(pres, budget, homs, max_quotient_degree).is_trivial(w)


def group_is_trivial(pres: GroupPresentation, budget: Budget | None = None) -> TriState:
    """Tri-state check that the presented group collapses to the identity."""
    budget = budget or Budget()
    table = todd_coxeter(pres, (), budget)
    if isinstance(table, CosetTable) and table.complete and len(table.rows) == 1:
        cert = CosetEnumerationCertificate(budget, 1, table.content_hash(), (), 0)
        return _check_invariant(TriState(PROVED, cert))
    witness = nontrivial_quotient_search(pres, max_degree=4)
    if witness is None:
        # the abelianization may separate faster than a raw degree search
        for g in pres.core_generators():
            ab = abelian_witness(pres, ((g, 1),))
            if ab is not None:
                witness = ab
                break
    if witness is not None:
        return _check_invariant(TriState(REFUTED, witness))
    if isinstance(table, CosetTable) and table.complete:
        # finite but not order 1: some generator acts nontrivially in the
        # regular representation, which is itself a permutation witness
        core = pres.core_generators()
        perms = table.permutations()
        images = tuple(sorted((core[g - 1], perms[g]) for g in perms))
        for g, p in images:
            if p != tuple(range(len(table.rows))):
                return _check_invariant(
                    TriState(REFUTED, QuotientWitness(len(table.rows), images, ((g, 1),)))
                )
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


def _reduced_words_of_length(n_core: int, length: int):
    """Freely reduced signed-index words, lexicographic within each length."""
    alphabet = [c for i in range(1, n_core + 1) for c in (i, -i)]

    def extend(prefix: tuple[int, ...], remaining: int):
        if remaining == 0:
            yield prefix
            return
        for c in alphabet:
            if prefix and prefix[-1] == -c:
                continue
            yield from extend(prefix + (c,), remaining - 1)

    yield from extend((), length)


def kernel_shortest_element(
    pres_s: GroupPresentation,
    pres_t: GroupPresentation,
    quotient,
    radius: int,
    budget: Budget | None = None,
    homs_s: Sequence[BBImageHom] = (),
    homs_t: Sequence[BBImageHom] = (),
) -> KernelSearchResult:
    """Shortest word trivial in the target but not in the source.

    Breadth-first over freely reduced words; the result is certified minimal
    only when every shorter word resolved conclusively, otherwise it is
    flagged minimal-up-to-Unknowns.
    """
    if set(pres_s.generators) != set(pres_t.generators):
        raise ValueError("kernel search needs identical generating symbols")
    budget = budget or Budget()
    eng_s = WordProblemEngine(pres_s, budget, homs_s)
    eng_t = WordProblemEngine(pres_t, budget, homs_t)
    n_core = len(pres_s.core_generators())
    unknown_count = 0
    certified_lower_bound = 0
    for length in range(1, radius + 1):
        layer_clean = True
        for codes in _reduced_words_of_length(n_core, length):
            if reduce_ints(codes) != codes:
                continue
            w = pres_s.decode(codes)
            in_t = eng_t.is_trivial(w)
            if in_t.unknown:
                unknown_count += 1
                layer_clean = False
                continue
            if in_t.refuted:
                continue
            in_s = eng_s.is_trivial(w)
            if in_s.unknown:
                unknown_count += 1
                layer_clean = False
                continue
            if in_s.proved:
                continue
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
        if layer_clean and certified_lower_bound == length - 1:
            certified_lower_bound = length
    return KernelSearchResult(
        False, None, None, certified_lower_bound + 1, unknown_count > 0, unknown_count
    )


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------


def _verify_quotient_witness(pres: GroupPresentation, cert: QuotientWitness) -> bool:
    images = dict(cert.images)
    core = pres.core_generators()
    if set(images) != set(core):
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
    codes = reduce_ints(pres.encode(cert.word))
    if not codes:
        return False
    return _eval_perm_word(codes, perms, cert.degree) != identity


def _verify_derivation(pres: GroupPresentation, cert: NormalClosureDerivation) -> bool:
    variants = set(_relator_variants(pres.core_relators()))
    state = reduce_ints(pres.encode(cert.word))
    for pos, ins in cert.steps:
        ins_codes = tuple(pres.encode(ins))
        if ins_codes not in variants:
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
            if table.rows[d][CosetTable.inv_col(colx)] != c:
                return False
    for r in pres.core_relators():
        for c in range(n):
            if table.trace(c, r) != c:
                return False
    return True


def _verify_enumeration(pres: GroupPresentation, cert: CosetEnumerationCertificate, expect_coset: int | None) -> bool:
    table = todd_coxeter(pres, (), cert.budget)
    if not isinstance(table, CosetTable) or not table.complete:
        return False
    if len(table.rows) != cert.n_cosets or table.content_hash() != cert.table_hash:
        return False
    if not _verify_table_consistency(pres, table):
        return False
    if expect_coset is None:
        return True
    return table.trace(0, reduce_ints(pres.encode(cert.word))) == expect_coset


def verify_certificate(pres: GroupPresentation, state: TriState) -> bool:
    """Replay a Proved/Refuted certificate; Unknown verifies vacuously."""
    cert = state.certificate
    if state.unknown:
        return cert is None
    if cert is None:
        return False
    if isinstance(cert, FreeReductionCertificate):
        return state.proved and not reduce_ints(pres.encode(cert.word))
    if isinstance(cert, QuotientWitness):
        return state.refuted and _verify_quotient_witness(pres, cert)
    if isinstance(cert, NormalClosureDerivation):
        return state.proved and _verify_derivation(pres, cert)
    if isinstance(cert, CosetEnumerationCertificate):
        return state.proved and _verify_enumeration(pres, cert, cert.coset)
    if isinstance(cert, HomImageWitness):
        return state.refuted and _replay_hom_witness(pres, cert)
    return False
