from __future__ import annotations

import random
import sys
import time
import tracemalloc
import unicodedata

import numpy as np
import pytest

from docbench import metrics
from docbench.metrics import (DEFAULT_MATCH, EMPTY_EXTRACTION,
                              EMPTY_GROUND_TRUTH, MatchConfig, accuracy,
                              collate, edit_distance, f1, lev_ratio, precision,
                              recall, score_document, similarity_matrix)

from oracles import (accuracy_reference, distance_full_table, distance_via_lcs,
                     matrix_reference, prf_bruteforce, ratio_reference)

AUTHORS = ["Yuta", "Hamada", "Gary", "Shiu"]

ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.,-"


# a few shared characters plus some outside the BMP
EDGE_ALPHABET = ALPHABET[:6] + "\U0001d400\U0001f600é"


# characters whose casefold or NFC form differs in length or composes:
# a combining acute, sharp s, capital and final sigma, dotted capital I,
# Hangul jamo that compose to one syllable, and two outside the BMP
FOLD_ALPHABET = "aeAE\u0301\u00df\u03a3\u03c2\u0130\u1100\u1161\u11a8\U0001d400\U0001f600"


# metrics._SMALL_CELLS patched to send every kernel through numpy, then none
REGIMES = (0, 1 << 40)


def _random_word(rng: random.Random, max_len: int = 12) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, max_len)))


def _edge_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(EDGE_ALPHABET) for _ in range(length))


def test_worked_example_distance_and_ratio():
    assert edit_distance("Gary", "Yuta", 2) == 6
    assert lev_ratio("Gary", "Yuta") == 0.25
    # the same comparison with unit substitutions
    assert edit_distance("Gary", "Yuta", 1) == 4


def test_author_matrix_unit_diagonal():
    matrix = similarity_matrix(AUTHORS, AUTHORS)
    assert matrix.m == 4 and matrix.n == 4
    assert np.array_equal(np.diag(matrix.values), np.ones(4))
    # Gary (row 2) against Yuta (column 0), and the symmetric entry
    assert matrix.values[2, 0] == 0.25
    assert matrix.values[0, 2] == 0.25


def test_distance_trivial_cases():
    assert edit_distance("", "") == 0
    assert edit_distance("abc", "") == 3
    assert edit_distance("", "abcd") == 4
    assert edit_distance("same", "same") == 0
    assert lev_ratio("", "") == 1.0
    assert lev_ratio("abc", "") == 0.0
    assert accuracy("", "some tokens") == 0.0


def test_substitution_cost_validation():
    with pytest.raises(ValueError):
        edit_distance("a", "b", 3)
    with pytest.raises(ValueError):
        MatchConfig(substitution_cost=0)
    with pytest.raises(ValueError):
        MatchConfig(threshold=1.5)
    with pytest.raises(ValueError):
        MatchConfig(threshold=-0.1)


def test_distance_against_lcs_oracle():
    # cost-2 distances collapse to the LCS identity
    rng = random.Random(20140101)
    for _ in range(1200):
        a = _random_word(rng)
        b = _random_word(rng)
        assert edit_distance(a, b, 2) == distance_via_lcs(a, b)


def test_distance_against_full_table_oracle_both_costs():
    rng = random.Random(20140202)
    for _ in range(600):
        a = _random_word(rng)
        b = _random_word(rng)
        for cost in (1, 2):
            expected = distance_full_table(a, b, cost)
            assert edit_distance(a, b, cost) == expected


def test_distance_symmetry():
    rng = random.Random(7)
    for _ in range(300):
        a = _random_word(rng)
        b = _random_word(rng)
        assert edit_distance(a, b) == edit_distance(b, a)


def test_distance_edge_cases_against_oracle_both_costs():
    # empty strings, characters outside the BMP and strings longer than a
    # machine word: the recurrence has no width limit
    rng = random.Random(99)
    for _ in range(300):
        a = _edge_word(rng, rng.choice((0, 1, 5, 63, 64, 70)))
        b = _edge_word(rng, rng.randint(0, 70))
        for cost in (1, 2):
            assert edit_distance(a, b, cost) == distance_full_table(a, b, cost)


def test_long_string_distance_routes_consistently():
    # collated paragraphs run through the same big-int recurrence as tokens
    rng = random.Random(31)
    a = " ".join(_random_word(rng, 8) for _ in range(40))
    b = " ".join(_random_word(rng, 8) for _ in range(42))
    assert edit_distance(a, b, 2) == distance_via_lcs(a, b)


def test_collated_pair_distance_against_oracle_both_costs():
    # a paragraph-sized collated text (~2.5K characters, so a pattern of
    # ~40 machine words) against a noisy extraction of its first fifth; the
    # oracle's full table bounds the size of the other side
    rng = random.Random(2545)
    gt = [_random_word(rng, 9) for _ in range(460)]
    extracted = [w if rng.random() < 0.8 else _random_word(rng, 9)
                 for w in gt[:90]]
    a, b = collate(extracted), collate(gt)
    assert 2000 < len(b) < 3000
    for cost in (1, 2):
        assert edit_distance(a, b, cost) == distance_full_table(a, b, cost)


# a combining mark, NUL, a lone surrogate of each half and two characters
# outside the BMP: every one a single code point, so a single bit
MASK_ALPHABET = "ab \u0301\x00\ud800\udfff\U0001d518\U0001f600"


def _masks_by_definition(text: str) -> dict[str, int]:
    """Bit i of masks[c] set where text[i] == c, read off a bit string."""
    return {c: int("".join("1" if x == c else "0" for x in reversed(text)), 2)
            for c in set(text)}


def test_masks_match_their_definition_on_both_sides_of_the_cutoff():
    rng = random.Random(1305)
    cut = metrics._MASKS_CUTOFF
    # 260 distinct characters at 5K: the numpy builder splits them into
    # blocks, as it does the 9 of the 50K text
    wide = MASK_ALPHABET + "".join(map(chr, range(0x4E00, 0x4E00 + 251)))
    assert len(wide) > 8 * metrics._BLOCK_BITS // 5000
    cases = [(MASK_ALPHABET, n) for n in (0, 1, cut - 1, cut, cut + 1, 5000, 50_000)]
    for alphabet, length in cases + [(wide, 5000)]:
        text = "".join(rng.choice(alphabet) for _ in range(length))
        assert metrics._masks(text) == _masks_by_definition(text), length


def test_long_pair_with_lone_surrogates_matches_oracle_both_costs():
    # a pattern past the cutoff is encoded as utf-32, which must take lone
    # surrogates as code points rather than raise
    rng = random.Random(1306)
    b = "".join(rng.choice(MASK_ALPHABET) for _ in range(metrics._MASKS_CUTOFF + 40))
    a = "".join(c if rng.random() < 0.8 else rng.choice(MASK_ALPHABET)
                for c in b[:300])
    assert "\ud800" in a and "\udfff" in b
    for cost in (1, 2):
        assert edit_distance(a, b, cost) == distance_full_table(a, b, cost)
        assert (lev_ratio(a, b, MatchConfig(substitution_cost=cost))
                == ratio_reference(a, b, cost))


def test_masks_build_in_linear_time_and_bounded_memory():
    # The per-character loop copies an int as wide as each position, so it
    # grows with the square of the text: ~1.4 s for these 400K characters
    # (~0.34 s at 200K). The numpy builder takes ~25 ms.
    rng = random.Random(1307)
    text = " ".join(_random_word(rng, 9) for _ in range(80_000))[:400_000]
    assert len(text) == 400_000
    best = float("inf")
    for _ in range(3):
        metrics._masks.cache_clear()
        started = time.perf_counter()
        metrics._masks(text)
        best = min(best, time.perf_counter() - started)
    assert best < 0.2, f"masks of 400K characters took {best:.3f} s"
    # temporaries stay bounded: the code points and one block of bools
    metrics._masks.cache_clear()
    tracemalloc.start()
    try:
        masks = metrics._masks(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(sys.getsizeof(mask) for mask in masks.values())
    assert peak < 2 * size, (peak, size)
    metrics._masks.cache_clear()


def test_matrix_entries_equal_pairwise_recomputation():
    rng = random.Random(20140303)
    extracted = [_random_word(rng) for _ in range(20)]
    gt = [_random_word(rng) for _ in range(20)]
    matrix = similarity_matrix(extracted, gt)
    for i in range(20):
        for j in range(20):
            direct = lev_ratio(extracted[i], gt[j])
            assert matrix.values[i, j] == direct
            assert matrix.values[i, j] == ratio_reference(extracted[i], gt[j])


def test_matrix_matches_reference_both_costs():
    # empty, non-BMP and 64+ character tokens share one packed pattern
    rng = random.Random(41)
    lengths = (0, 1, 3, 8, 12, 64, 70)
    extracted = [_edge_word(rng, rng.choice(lengths)) for _ in range(15)]
    gt = [_edge_word(rng, rng.choice(lengths)) for _ in range(12)] + ["", "x" * 65]
    for cost in (1, 2):
        config = MatchConfig(substitution_cost=cost)
        matrix = similarity_matrix(extracted, gt, config)
        assert matrix.values.tolist() == matrix_reference(extracted, gt, cost)


def test_matrix_empty_sides():
    assert similarity_matrix([], ["a"]).values.shape == (0, 1)
    assert similarity_matrix(["a"], []).values.shape == (1, 0)
    assert precision(similarity_matrix([], ["a"])) == 0.0
    assert recall(similarity_matrix(["a"], [])) == 0.0


def test_precision_recall_against_bruteforce():
    rng = random.Random(20140404)
    for _ in range(1000):
        m = rng.randint(0, 6)
        n = rng.randint(0, 6)
        extracted = [_random_word(rng, 6) for _ in range(m)]
        gt = [_random_word(rng, 6) for _ in range(n)]
        threshold = rng.choice([0.0, 0.3, 0.5, 0.7, 0.9, 1.0])
        matrix = similarity_matrix(extracted, gt)
        expected_p, expected_r, expected_f1, _, _ = prf_bruteforce(
            [list(row) for row in matrix.values], threshold)
        assert precision(matrix, threshold) == expected_p
        assert recall(matrix, threshold) == expected_r
        assert f1(precision(matrix, threshold), recall(matrix, threshold)) \
            == expected_f1


def test_threshold_is_inclusive():
    # ratio("ab","ac") = 1 - 2/4 exactly at the boundary
    matrix = similarity_matrix(["ab"], ["ac"])
    assert matrix.values[0, 0] == 0.5
    assert precision(matrix, 0.5) == 1.0
    assert recall(matrix, 0.5) == 1.0
    assert precision(matrix, 0.5000001) == 0.0


def test_permutation_invariance():
    rng = random.Random(20140505)
    for _ in range(200):
        extracted = [_random_word(rng, 6) for _ in range(rng.randint(1, 8))]
        gt = [_random_word(rng, 6) for _ in range(rng.randint(1, 8))]
        base = score_document(extracted, gt)
        shuffled_gt = gt[:]
        rng.shuffle(shuffled_gt)
        shuffled_ex = extracted[:]
        rng.shuffle(shuffled_ex)
        scrambled = score_document(shuffled_ex, shuffled_gt)
        assert scrambled.precision == base.precision
        assert scrambled.recall == base.recall
        assert scrambled.f1 == base.f1


def test_zero_threshold_gives_perfect_precision_recall():
    config = MatchConfig(threshold=0.0)
    scores = score_document(["xx", "yy"], ["zz"], config)
    assert scores.precision == 1.0
    assert scores.recall == 1.0


def test_f1_zero_when_both_zero():
    assert f1(0.0, 0.0) == 0.0
    assert f1(1.0, 1.0) == 1.0
    assert f1(0.5, 0.5) == 0.5


def test_accuracy_is_order_sensitive():
    gt = ["We", "study", "gauge", "theory"]
    reordered = ["theory", "gauge", "study", "We"]
    assert accuracy(collate(gt), collate(gt)) == 1.0
    assert accuracy(collate(reordered), collate(gt)) < 1.0
    scores = score_document(reordered, gt)
    assert scores.f1 == 1.0
    assert scores.accuracy < 1.0


def test_case_folding_option():
    config = MatchConfig(case_sensitive=False)
    assert lev_ratio("ABC", "abc", config) == 1.0
    assert lev_ratio("ABC", "abc") < 1.0


def test_nfc_option():
    composed = "café"
    decomposed = "café"
    assert lev_ratio(composed, decomposed) < 1.0
    config = MatchConfig(normalize_nfc=True)
    assert lev_ratio(composed, decomposed, config) == 1.0


def test_score_document_flags_and_counts():
    empty = score_document([], ["a", "b"])
    assert empty.precision == 0.0 and empty.recall == 0.0
    assert empty.f1 == 0.0 and empty.accuracy == 0.0
    assert empty.m == 0 and empty.n == 2
    assert EMPTY_EXTRACTION in empty.flags

    no_gt = score_document(["a"], [])
    assert no_gt.recall == 0.0
    assert EMPTY_GROUND_TRUTH in no_gt.flags

    class RecordLike:
        tokens = ("alpha", "beta")

    scores = score_document(RecordLike(), ["alpha", "beta"])
    assert scores.f1 == 1.0
    assert scores.precision * scores.m == 2
    assert scores.recall * scores.n == 2


def test_scores_stay_in_unit_interval():
    rng = random.Random(20140606)
    for _ in range(300):
        extracted = [_random_word(rng, 5) for _ in range(rng.randint(0, 7))]
        gt = [_random_word(rng, 5) for _ in range(rng.randint(0, 7))]
        scores = score_document(extracted, gt)
        for value in (scores.precision, scores.recall, scores.f1, scores.accuracy):
            assert 0.0 <= value <= 1.0


def _fold_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(FOLD_ALPHABET) for _ in range(length))


def _prepared(text: str) -> str:
    """The casefolded, then NFC-normalized text, written out independently."""
    return unicodedata.normalize("NFC", text.casefold())


def test_matrix_across_blocks_matches_reference_both_costs():
    # enough rows for at least three blocks of the larger, cost-2 block
    rng = random.Random(2004)
    gt = ([_fold_word(rng, rng.choice((0, 1, 4, 9))) for _ in range(30)]
          + ["x" * 300, "", "a b", "\U0001d400 \u00df", "E\u0301" * 40])
    rng.shuffle(gt)
    extracted = [_fold_word(rng, rng.choice((0, 2, 5, 12))) for _ in range(220)]
    extracted += ["a b", "X" * 70, ""]
    bits = sum(len(_prepared(t)) + 1 for t in gt)
    rows_per_block = metrics._BLOCK_BITS // (8 * ((bits + 7) // 8))
    assert len(extracted) >= 3 * rows_per_block
    ex_p = [_prepared(t) for t in extracted]
    gt_p = [_prepared(t) for t in gt]
    for cost in (1, 2):
        config = MatchConfig(substitution_cost=cost, case_sensitive=False,
                             normalize_nfc=True)
        matrix = similarity_matrix(extracted, gt, config)
        assert matrix.values.tolist() == matrix_reference(ex_p, gt_p, cost)


def test_matrix_hands_one_vector_per_row_at_cost_2(monkeypatch):
    # cost 2 counts the LCS vector alone; Myers's cost 1 needs both deltas
    handed = []
    lane_ones = metrics._lane_ones

    def counting(vectors, nbytes, lanes):
        handed.append(len(vectors))
        return lane_ones(vectors, nbytes, lanes)

    monkeypatch.setattr(metrics, "_lane_ones", counting)
    rng = random.Random(1986)
    extracted = [_random_word(rng) for _ in range(37)]
    gt = [_random_word(rng) for _ in range(11)]
    for cost, per_row in ((2, 1), (1, 2)):
        handed.clear()
        similarity_matrix(extracted, gt, MatchConfig(substitution_cost=cost))
        assert sum(handed) == per_row * len(extracted)


def test_score_document_builds_ground_truth_masks_once():
    # the matrix's lanes and the accuracy's pattern are one mask table
    rng = random.Random(1999)
    gt = [_random_word(rng, 8) + "#" for _ in range(40)]
    extracted = gt[:30] + ["noise"]
    metrics._masks.cache_clear()
    score_document(extracted, gt)
    info = metrics._masks.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_accuracy_matches_reference_under_casefold_and_nfc():
    rng = random.Random(2001)
    missed = 0
    for _ in range(120):
        gt = [_fold_word(rng, rng.randint(0, 5)) for _ in range(rng.randint(0, 7))]
        extracted = [w if rng.random() < 0.6 else _fold_word(rng, rng.randint(0, 5))
                     for w in gt[:rng.randint(0, len(gt))]]
        a, b = collate(extracted), collate(gt)
        for cost in (1, 2):
            config = MatchConfig(substitution_cost=cost, case_sensitive=False,
                                 normalize_nfc=True)
            expected = ratio_reference(_prepared(a), _prepared(b), cost)
            assert score_document(extracted, gt, config).accuracy == expected
            # the extraction as the pattern: not the masks the matrix built
            before = metrics._masks.cache_info().misses
            assert accuracy(b, a, config) == expected
            missed += metrics._masks.cache_info().misses - before
    assert missed > 0


def _variant(rng: random.Random, word: str) -> str:
    """word, or a spelling equal to it once casefolded and NFC-normalized."""
    return rng.choice((word, word.swapcase(), word.upper(),
                       unicodedata.normalize("NFD", word)))


def test_score_document_precision_recall_match_oracles(monkeypatch):
    for cells in REGIMES:
        monkeypatch.setattr(metrics, "_SMALL_CELLS", cells)
        _check_precision_recall_against_oracles()


def _check_precision_recall_against_oracles():
    rng = random.Random(2001)
    thresholds = (0.0, 0.5, 0.7, 0.9, 1.0)
    shapes = set()
    for case in range(1500):
        fold = case % 2 == 1
        config = MatchConfig(threshold=thresholds[case % 5],
                             substitution_cost=1 + case // 2 % 2,
                             case_sensitive=not fold, normalize_nfc=fold)
        gt = [_fold_word(rng, rng.randint(0, 4)) for _ in range(rng.randint(0, 8))]
        gt += rng.choices(gt, k=rng.randint(0, 3)) if gt else []  # duplicates
        shape = rng.randrange(4)
        if shape == 0:  # all exact, shuffled, some repeated
            extracted = rng.sample(gt, len(gt))
            extracted += rng.choices(gt, k=rng.randint(0, 2)) if gt else []
        elif shape == 1:  # empty extraction
            extracted = []
        else:  # twins (some equal only after preparing), noise, duplicates
            extracted = [_variant(rng, w) if rng.random() < 0.6
                         else _fold_word(rng, rng.randint(0, 4)) for w in gt]
            extracted += [_fold_word(rng, rng.randint(0, 4))
                          for _ in range(rng.randint(0, 3))]
            extracted += rng.choices(extracted, k=rng.randint(0, 2)) if extracted else []
        ex_p = [_prepared(t) for t in extracted] if fold else extracted
        gt_p = [_prepared(t) for t in gt] if fold else gt
        expected_p, expected_r, _, _, _ = prf_bruteforce(
            matrix_reference(ex_p, gt_p, config.substitution_cost), config.threshold)
        scores = score_document(extracted, gt, config)
        assert (scores.precision, scores.recall) == (expected_p, expected_r), \
            (case, extracted, gt)
        shapes.add((shape, bool(gt), fold and any(
            e != g and _prepared(e) == _prepared(g) for e in extracted for g in gt)))
    # every shape met with and without ground truth, and twins only once prepared
    assert {(s, has_gt) for s, has_gt, _ in shapes} == {
        (s, has_gt) for s in range(4) for has_gt in (False, True)}
    assert any(prepared_only for _, _, prepared_only in shapes)


@pytest.mark.parametrize("cost", (1, 2))
def test_score_document_threshold_is_inclusive_on_every_path(monkeypatch, cost: int):
    # ratio("ab", "ac") = 0.5 exactly: as a lone row, and as a lone
    # ground-truth token that reaches the lane of a twin ("ab")
    ab_ac = 1 - edit_distance("ab", "ac", cost) / 4
    for cells in REGIMES:
        monkeypatch.setattr(metrics, "_SMALL_CELLS", cells)
        for extracted, gt in ((["ab"], ["ac"]), (["ab", "zz"], ["ac", "ab"])):
            for threshold in (ab_ac, ab_ac + 1e-7):
                config = MatchConfig(threshold=threshold, substitution_cost=cost)
                expected = prf_bruteforce(matrix_reference(extracted, gt, cost),
                                          threshold)
                scores = score_document(extracted, gt, config)
                assert (scores.precision, scores.recall) == expected[:2]
        at = score_document(["ab"], ["ac"], MatchConfig(threshold=0.5))
        assert (at.precision, at.recall) == (1.0, 1.0)
        above = score_document(["ab"], ["ac"], MatchConfig(threshold=0.5000001))
        assert (above.precision, above.recall) == (0.0, 0.0)


def _kernel_passes(monkeypatch) -> list[int]:
    """Patch _lane_ratios to record the rows of each numpy kernel pass."""
    passes = []
    lane_ratios = metrics._lane_ratios

    def counting(ex, gx, cost):
        passes.append(len(ex))
        return lane_ratios(ex, gx, cost)

    monkeypatch.setattr(metrics, "_lane_ratios", counting)
    return passes


def test_score_document_matches_oracles_around_the_small_cutoff(monkeypatch):
    # kernel rows x lanes at one below, at and one above _SMALL_CELLS: the
    # extracted tokens are distinct and none has a twin once casefolded and
    # NFC-normalized, so every one of them is a kernel row
    passes = _kernel_passes(monkeypatch)
    rng = random.Random(2014)
    cutoff = metrics._SMALL_CELLS
    regimes = set()
    for cells in (cutoff - 1, cutoff, cutoff + 1):
        rows = next(r for r in (5, 4, 3, 2, 1) if cells % r == 0)
        gt = [_fold_word(rng, rng.randint(1, 5)) for _ in range(cells // rows)]
        extracted: list[str] = []
        while len(extracted) < rows:  # a near miss of a lane, or noise
            word = rng.choice(gt)
            at = rng.randrange(len(word))
            word = (word[:at] + rng.choice(FOLD_ALPHABET) + word[at + 1:]
                    if len(extracted) % 2 else _fold_word(rng, 5))
            prepared = {_prepared(t) for t in extracted + gt}
            if _prepared(word) not in prepared:
                extracted.append(word)
        ex_p = [_prepared(t) for t in extracted]
        gt_p = [_prepared(t) for t in gt]
        for cost in (1, 2):
            for threshold in (0.0, 0.7, 1.0):
                config = MatchConfig(threshold=threshold, substitution_cost=cost,
                                     case_sensitive=False, normalize_nfc=True)
                passes.clear()
                scores = score_document(extracted, gt, config)
                expected = prf_bruteforce(matrix_reference(ex_p, gt_p, cost),
                                          threshold)
                assert (scores.precision, scores.recall) == expected[:2], \
                    (cells, cost, threshold)
                assert passes == ([rows] if cells >= cutoff else [])
                regimes.add((cells >= cutoff, 0 < expected[0] < 1))
    assert regimes >= {(False, True), (True, True)}


def test_small_unit_runs_no_numpy_kernel(monkeypatch):
    passes = _kernel_passes(monkeypatch)

    def refuse(*args):
        raise AssertionError("_lane_ones called below the cutoff")

    monkeypatch.setattr(metrics, "_lane_ones", refuse)
    for cost in (1, 2):
        config = MatchConfig(substitution_cost=cost)
        scores = score_document(["Deep", "Unsupervisd", "Parsng"],
                                ["Deep", "Unsupervised", "Parsing", "of"], config)
        assert (scores.precision, scores.recall) == (1.0, 0.75)
    assert passes == []


def test_kernel_runs_only_for_tokens_without_an_exact_twin(monkeypatch):
    texts = []
    deltas = metrics._deltas

    def counting(text, *args):
        texts.append(text)
        return deltas(text, *args)

    monkeypatch.setattr(metrics, "_deltas", counting)
    rng = random.Random(1999)
    gt = [f"{_random_word(rng, 8)}#{i}" for i in range(40)]  # distinct
    score_document(gt, gt)
    assert texts == []
    extracted = gt[:30] + ["noise"]
    score_document(extracted, gt)
    # one row for the noise, one per unmatched ground-truth token, and the
    # accuracy's one pass over the collated extraction
    assert sorted(texts) == sorted(["noise", *gt[30:], collate(extracted)])
    texts.clear()
    score_document(["noise"] * 3 + gt[:30] + ["noise"], gt + gt[35:])
    assert texts.count("noise") == 1
    assert texts.count(gt[35]) == 1
    assert len(texts) == 1 + 10 + 1
    texts.clear()
    # no twin: the ground-truth tokens cannot qualify, so only the distinct
    # extracted tokens run
    noisy = [f"x{t}" for t in gt[:10]]
    score_document(noisy * 2, gt)
    assert sorted(texts) == sorted([*noisy, collate(noisy * 2)])
    texts.clear()
    # 5 twins and 35 lone ground-truth tokens: the twins mark the lanes they
    # reach, the cheaper of the two exact passes
    extracted = gt[:5] + ["noise"]
    score_document(extracted, gt)
    assert sorted(texts) == sorted(["noise", *gt[:5], collate(extracted)])


def test_exact_extraction_scores_one_with_no_kernel_or_masks(monkeypatch):
    """A non-empty extraction equal to the ground truth, token for token,
    gets the oracles' scores without preparing tokens, reaching the kernel
    or building masks; one equal only once casefolded and NFC-normalized,
    and two empty sequences, still take the counting path."""
    def refuse(*args):
        raise AssertionError("_lane_hits reached by an exact extraction")

    counted = []
    qualified_texts = metrics._qualified_texts

    def counting(*args):
        counted.append(args)
        return qualified_texts(*args)

    monkeypatch.setattr(metrics, "_lane_hits", refuse)
    monkeypatch.setattr(metrics, "_qualified_texts", counting)
    rng = random.Random(2022)
    units = [["Deep", "of", "Deep", "Deep"], ["", "a", ""],
             ["\U0001d400x", "\U0001f600", "\u00e9"], ["Parsing"]]
    units += [rng.choices([_fold_word(rng, rng.randint(0, 4)) for _ in range(4)],
                          k=rng.randint(1, 8)) for _ in range(30)]
    for tokens in units:
        for cost in (1, 2):
            for threshold in (0.0, 0.7, 1.0):
                for fold in (False, True):
                    config = MatchConfig(threshold=threshold, substitution_cost=cost,
                                         case_sensitive=not fold, normalize_nfc=fold)
                    prepared = [_prepared(t) for t in tokens] if fold else tokens
                    p, r, f, _, _ = prf_bruteforce(
                        matrix_reference(prepared, prepared, cost), threshold)
                    acc = accuracy_reference(prepared, prepared, cost)
                    metrics._masks.cache_clear()
                    scores = score_document(list(tokens), tuple(tokens), config)
                    assert metrics._masks.cache_info().misses == 0
                    m = len(tokens)
                    assert scores == (p, r, f, acc, m, m, ()), (tokens, config)
    assert counted == []
    config = MatchConfig(case_sensitive=False, normalize_nfc=True)
    scores = score_document(["DEEP", "Pars\u0130ng"], ["deep", "pars\u0130ng"], config)
    assert scores == (1.0, 1.0, 1.0, 1.0, 2, 2, ())
    assert score_document([], [], config) == (
        0.0, 0.0, 0.0, 1.0, 0, 0, (EMPTY_EXTRACTION, EMPTY_GROUND_TRUTH))
    assert len(counted) == 2


@pytest.mark.parametrize("cost", (1, 2))
@pytest.mark.parametrize("inside", (False, True))
def test_score_document_matches_oracles_across_row_blocks(monkeypatch, cost: int,
                                                          inside: bool):
    # A long lone ground-truth token widens the lanes, so a row block holds
    # a few kernel rows. The lone extracted rows end on a block edge or
    # inside a block, and the lone ground-truth rows after them, read at the
    # twins' lanes, fill the later blocks.
    rng = random.Random(2002 + 2 * cost + inside)

    def word(letters: str) -> str:
        return "".join(rng.choice(letters) for _ in range(4))

    def swap(text: str, letters: str) -> str:
        at = rng.randrange(len(text))
        return text[:at] + rng.choice(letters) + text[at + 1:]

    twins = list(dict.fromkeys(word("abcdef") for _ in range(15)))
    lone_gt = [swap(t, "uvwxyz") for t in twins[:3]]  # reach a twin's lane
    lone_gt += [word("uvwxyz") for _ in range(2)] + [word("uvwxyz") * 1750]
    gt = twins + lone_gt
    rng.shuffle(gt)
    per_row = 1 if cost == 2 else 2
    nbytes = (sum(len(t) + 1 for t in gt) + 7) // 8
    step = metrics._BLOCK_BITS // (8 * per_row * nbytes)
    assert step >= 2
    lone_ex: list[str] = []
    while len(lone_ex) < 2 * step + inside:
        text = swap(rng.choice(twins), "ghijk") if rng.random() < 0.5 else word("ghijk")
        if text not in lone_ex:
            lone_ex.append(text)
    extracted = twins + lone_ex + rng.choices(lone_ex, k=3)
    rng.shuffle(extracted)

    blocks = []
    lane_ones = metrics._lane_ones

    def counting(vectors, *args):
        blocks.append(len(vectors) // per_row)
        return lane_ones(vectors, *args)

    monkeypatch.setattr(metrics, "_lane_ones", counting)
    monkeypatch.setattr(metrics, "_SMALL_CELLS", 0)  # the numpy regime's blocks
    config = MatchConfig(substitution_cost=cost)
    scores = score_document(extracted, gt, config)
    expected = prf_bruteforce(matrix_reference(extracted, gt, cost), config.threshold)
    assert (scores.precision, scores.recall) == expected[:2]
    assert 0 < expected[0] < 1 and 0 < expected[1] < 1
    assert len(blocks) >= 3 and set(blocks[:-1]) == {step}
    assert sum(blocks) == len(lone_ex) + len(lone_gt)
    assert (len(lone_ex) % step != 0) == inside
