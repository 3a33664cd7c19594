"""Unpruned finite quotient search, kept for the tests.

This is the library's search before it coded permutations by index and
dropped a branch once the word was decided: every generator is assigned a
permutation tuple, relators are checked at the depth of their last generator,
and the word, or the group's nontriviality, is tested only at the leaves.
The order of the search is the library's, so its witnesses must equal these.
"""

from __future__ import annotations

import itertools

from tautloop.word_engine import MAX_QUOTIENT_DEGREE, QuotientWitness


def _perm_inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _eval_perm_word(codes, images, degree):
    acc = tuple(range(degree))
    for c in codes:
        p = images[abs(c) - 1]
        if c < 0:
            p = _perm_inverse(p)
        acc = tuple(p[x] for x in acc)
    return acc


def _quotient_search(pres, max_degree, accept, word_for_witness):
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
        assignment = []

        def extend():
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


def finite_quotient_search(pres, w, max_degree=MAX_QUOTIENT_DEGREE):
    codes = pres.encode(w)
    if not codes:
        return None

    def accept(assignment, degree):
        return _eval_perm_word(codes, assignment, degree) != tuple(range(degree))

    return _quotient_search(pres, max_degree, accept, tuple(w))


def nontrivial_quotient_search(pres, max_degree=MAX_QUOTIENT_DEGREE):
    def accept(assignment, degree):
        return any(p != tuple(range(degree)) for p in assignment)

    witness = _quotient_search(pres, max_degree, accept, ())
    if witness is None:
        return None
    for g, p in witness.images:
        if p != tuple(range(witness.degree)):
            return QuotientWitness(witness.degree, witness.images, ((g, 1),))
    return None
