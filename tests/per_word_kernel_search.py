"""Per-word reference for the kernel search, kept for the tests.

Every freely reduced word is decoded and handed to the target's engine, and
the source's engine decides the words the target proves trivial; nothing is
settled before the engine.  The library's search skips the words that the
target's abelianization refutes, so its results must equal these.

``reduced_words_with_sums`` is the library's enumerator before it cut the
prefixes that can no longer die in the target's abelianization: it builds
every freely reduced word and sums its letters' rows, so the words whose sums
die are the reference for the pruned enumerator.
"""

from __future__ import annotations

from operator import add

from tautloop.word_engine import Budget, KernelSearchResult, WordProblemEngine


def reduced_words_of_length(n_core: int, length: int):
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


def reduced_words_with_sums(n_core: int, length: int, rows):
    """Freely reduced signed-index words, lexicographic within each length,
    each with the sum of its letters' ``rows`` (letter code -> tuple)."""
    alphabet = [(c, rows[c]) for i in range(1, n_core + 1) for c in (i, -i)]

    def extend(prefix: tuple[int, ...], coords: tuple[int, ...], remaining: int):
        back = -prefix[-1] if prefix else 0
        for c, row in alphabet:
            if c != back:
                word, total = prefix + (c,), tuple(map(add, coords, row))
                if remaining == 1:
                    yield word, total
                else:
                    yield from extend(word, total, remaining - 1)

    yield from extend((), (0,) * len(rows[1]) if n_core else (), length)


def kernel_search(pres_s, pres_t, radius, budget=None, homs_s=(), homs_t=()):
    budget = budget or Budget()
    eng_s = WordProblemEngine(pres_s, budget, homs_s)
    eng_t = WordProblemEngine(pres_t, budget, homs_t)
    n_core = len(pres_s.core_generators())
    unknown_count = 0
    certified_lower_bound = 0
    for length in range(1, radius + 1):
        layer_clean = True
        for codes in reduced_words_of_length(n_core, length):
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
