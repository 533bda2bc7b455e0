"""Pairwise alignment and MSA assembly tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.msa import aligner
from repro.msa.aligner import (
    GAP_SCORE,
    MATCH_SCORE,
    MISMATCH_SCORE,
    Msa,
    PairwiseAlignment,
    _fill,
    assemble_msa,
    global_align,
)
from repro.msa.engine import MsaEngine
from repro.msa.jackhmmer import Hit
from repro.sequences.alphabets import MoleculeType
from repro.sequences.generator import mutate_sequence, random_sequence

from .aligner_oracle import oracle_fill, oracle_global_align


class TestGlobalAlign:
    def test_identical_sequences(self):
        a = global_align("MKTAYI", "MKTAYI")
        assert a.aligned_query == a.aligned_target == "MKTAYI"
        assert a.identity == 1.0

    def test_single_substitution(self):
        a = global_align("MKTAYI", "MKTCYI")
        assert "-" not in a.aligned_query
        assert a.identity == pytest.approx(5 / 6)

    def test_deletion_in_target(self):
        a = global_align("MKTAYI", "MKTYI")
        assert len(a.aligned_query) == 6
        assert a.aligned_target.count("-") == 1

    def test_insertion_in_target(self):
        a = global_align("MKTYI", "MKTAYI")
        assert a.aligned_query.count("-") == 1

    def test_alignment_lengths_equal(self):
        q = random_sequence(50, seed=1)
        t = mutate_sequence(q, MoleculeType.PROTEIN, 0.7, seed=2)
        a = global_align(q, t)
        assert len(a.aligned_query) == len(a.aligned_target)

    def test_gapless_projection_has_query_length(self):
        q = random_sequence(60, seed=3)
        t = mutate_sequence(q, MoleculeType.PROTEIN, 0.6, seed=4)
        a = global_align(q, t)
        assert len(a.target_row()) == len(q)

    def test_homolog_identity_tracks_mutation_rate(self):
        q = random_sequence(200, seed=5)
        close = global_align(q, mutate_sequence(q, MoleculeType.PROTEIN, 0.9,
                                                seed=6)).identity
        far = global_align(q, mutate_sequence(q, MoleculeType.PROTEIN, 0.4,
                                              seed=7)).identity
        assert close > far

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            global_align("", "MK")

    def test_score_optimality_on_small_case(self):
        # Brute check: aligning "AC" to "AGC" should pay one gap, not
        # two mismatches: score = 2 + 2 - 2 = 2.
        a = global_align("AC", "AGC")
        assert a.score == pytest.approx(2.0)

    def test_mismatched_aligned_lengths_rejected(self):
        with pytest.raises(ValueError):
            PairwiseAlignment("AB-", "AB", 0.0)


class TestMsa:
    def make(self):
        return Msa(
            query_name="q",
            molecule_type=MoleculeType.PROTEIN,
            rows=("MKT", "MAT", "M-T"),
            row_names=("q", "h1", "h2"),
        )

    def test_depth_width(self):
        msa = self.make()
        assert msa.depth == 3
        assert msa.width == 3

    def test_column(self):
        assert self.make().column(1) == "KA-"

    def test_coverage(self):
        cov = self.make().coverage()
        assert cov[0] == pytest.approx(1.0)
        assert cov[1] == pytest.approx(2 / 3)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Msa("q", MoleculeType.PROTEIN, ("MKT", "MK"), ("q", "h"))

    def test_names_must_align(self):
        with pytest.raises(ValueError):
            Msa("q", MoleculeType.PROTEIN, ("MKT",), ("q", "extra"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Msa("q", MoleculeType.PROTEIN, tuple(), tuple())


class TestAssembleMsa:
    def test_query_is_first_row(self):
        q = random_sequence(40, seed=8)
        hits = [
            Hit(f"h{i}", mutate_sequence(q, MoleculeType.PROTEIN, 0.8,
                                         seed=9 + i), 50.0, 52.0, 1e-6)
            for i in range(4)
        ]
        msa = assemble_msa("q", q, MoleculeType.PROTEIN, hits)
        assert msa.rows[0] == q
        assert msa.depth == 5
        assert all(len(r) == len(q) for r in msa.rows)

    def test_max_rows_respected(self):
        q = random_sequence(30, seed=10)
        hits = [
            Hit(f"h{i}", mutate_sequence(q, MoleculeType.PROTEIN, 0.8,
                                         seed=20 + i), 50.0, 52.0, 1e-6)
            for i in range(10)
        ]
        msa = assemble_msa("q", q, MoleculeType.PROTEIN, hits, max_rows=4)
        assert msa.depth == 4

    def test_no_hits_yields_query_only(self):
        q = random_sequence(30, seed=11)
        msa = assemble_msa("q", q, MoleculeType.PROTEIN, [])
        assert msa.depth == 1


# ---------------------------------------------------------------------------
# Differential against the scalar oracle (tests/aligner_oracle.py)
# ---------------------------------------------------------------------------

#: Two- and three-letter alphabets make score ties (and so the DIAG/UP/
#: LEFT tie-breaks) common; the 20-letter one is the protein regime.
ALPHABETS = ("AB", "ABC", "ACDEFGHIKLMNPQRSTVWY")


@st.composite
def seq_pairs(draw, n=(1, 40), m=(1, 40)):
    alphabet = draw(st.sampled_from(ALPHABETS))
    query = draw(st.text(alphabet, min_size=n[0], max_size=n[1]))
    target = draw(st.text(alphabet, min_size=m[0], max_size=m[1]))
    return query, target


def assert_matches_oracle(query, target):
    pointers, last_row = _fill(query, target)
    ref_pointers, ref_last_row = oracle_fill(query, target)
    assert np.array_equal(pointers, ref_pointers)
    assert np.array_equal(last_row, ref_last_row)
    assert global_align(query, target) == oracle_global_align(query, target)


class TestOracleDifferential:
    @pytest.mark.parametrize("query,target", [
        ("A", "A"), ("A", "B"), ("A", "AAAA"), ("AAAA", "A"),
        ("AB", "BA"), ("ABAB", "BABA"), ("AB" * 20, "BA" * 3),
        ("AAB", "ABB"), ("ABC" * 5, "CBA" * 5),
    ])
    def test_tie_heavy_cases(self, query, target):
        assert_matches_oracle(query, target)

    @settings(max_examples=200, deadline=None)
    @given(seq_pairs())
    def test_random_pairs(self, pair):
        assert_matches_oracle(*pair)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(seq_pairs(n=(1, 1)), seq_pairs(m=(1, 1))))
    def test_length_one(self, pair):
        assert_matches_oracle(*pair)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(seq_pairs(n=(40, 80), m=(1, 4)),
                     seq_pairs(n=(1, 4), m=(40, 80))))
    def test_very_unequal_lengths(self, pair):
        assert_matches_oracle(*pair)

    @settings(max_examples=40, deadline=None)
    @given(seq_pairs())
    def test_identical_sequences(self, pair):
        query, _ = pair
        assert_matches_oracle(query, query)

    def test_scores_are_integer_valued(self):
        # The prefix-max left pass is exact because every score is a
        # small integer in float64; with a score such as 0.1, which has
        # no exact binary form, (x - ramp) + ramp could round away from
        # the cell-by-cell sums.
        for value in (MATCH_SCORE, MISMATCH_SCORE, GAP_SCORE):
            assert float(value).is_integer(), value

    def test_2pv7_msa_rows_match_oracle(self, msa_engine, samples,
                                        monkeypatch):
        calls = []

        def recording_align(query, target):
            calls.append((query, target))
            return global_align(query, target)

        monkeypatch.setattr(aligner, "global_align", recording_align)
        result = MsaEngine(msa_engine.config).run(samples["2PV7"])
        msas = {id(msa): msa for msa in result.chain_msas.values()}
        assert calls and msas
        checked = 0
        for msa in msas.values():
            query = msa.rows[0]
            targets = [t for q, t in calls if q == query]
            assert len(targets) == msa.depth - 1
            for row, target in zip(msa.rows[1:], targets):
                assert row == oracle_global_align(query, target).target_row()
                checked += 1
        assert checked == len(calls)
