// Unit tests for src/scoring: substitution matrices, Mendel distance
// derivations (including the metric-repair property tests DESIGN.md §6.2
// calls out), and Karlin–Altschul statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/error.h"
#include "src/scoring/distance.h"
#include "src/scoring/karlin.h"
#include "src/scoring/matrix.h"
#include "src/sequence/alphabet.h"

namespace mendel::score {

// Print matrix parameters by name, not by address, so the test names that
// gtest lists (and ctest registers) are the same on every build and run.
void PrintTo(const ScoringMatrix* m, std::ostream* os) { *os << m->name(); }

namespace {

using seq::Alphabet;
using seq::encode;

seq::Code P(char c) { return encode(Alphabet::kProtein, c); }
seq::Code D(char c) { return encode(Alphabet::kDna, c); }

// ---------- ScoringMatrix ----------

TEST(ScoringMatrix, Blosum62KnownEntries) {
  const auto& m = blosum62();
  EXPECT_EQ(m.score(P('W'), P('W')), 11);
  EXPECT_EQ(m.score(P('A'), P('A')), 4);
  EXPECT_EQ(m.score(P('L'), P('L')), 4);
  EXPECT_EQ(m.score(P('A'), P('R')), -1);
  EXPECT_EQ(m.score(P('W'), P('C')), -2);
  EXPECT_EQ(m.score(P('I'), P('L')), 2);
  EXPECT_EQ(m.score(P('E'), P('Z')), 4);
  EXPECT_EQ(m.score(P('*'), P('*')), 1);
  EXPECT_EQ(m.score(P('A'), P('*')), -4);
}

TEST(ScoringMatrix, Pam250KnownEntries) {
  const auto& m = pam250();
  EXPECT_EQ(m.score(P('W'), P('W')), 17);
  EXPECT_EQ(m.score(P('C'), P('C')), 12);
  EXPECT_EQ(m.score(P('F'), P('Y')), 7);
}

class CanonicalMatrixTest
    : public ::testing::TestWithParam<const ScoringMatrix*> {};

TEST_P(CanonicalMatrixTest, IsSymmetric) {
  EXPECT_TRUE(GetParam()->is_symmetric()) << GetParam()->name();
}

TEST_P(CanonicalMatrixTest, DiagonalIsRowMaximumForCoreResidues) {
  const ScoringMatrix& m = *GetParam();
  for (seq::Code a = 0; a < 20; ++a) {
    for (seq::Code b = 0; b < 20; ++b) {
      EXPECT_LE(m.score(a, b), m.score(a, a))
          << m.name() << " row " << int(a) << " col " << int(b);
    }
  }
}

TEST_P(CanonicalMatrixTest, MaxAndMinConsistent) {
  const ScoringMatrix& m = *GetParam();
  EXPECT_GT(m.max_match_score(), 0);
  EXPECT_LT(m.min_score(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllMatrices, CanonicalMatrixTest,
                         ::testing::Values(&blosum62(), &blosum80(),
                                           &pam250()),
                         [](const auto& param_info) { return param_info.param->name(); });

TEST(ScoringMatrix, DnaMatchMismatch) {
  const auto m = dna_matrix(2, -3);
  EXPECT_EQ(m.score(D('A'), D('A')), 2);
  EXPECT_EQ(m.score(D('A'), D('C')), -3);
  EXPECT_EQ(m.score(D('A'), D('N')), 0);
  EXPECT_EQ(m.score(D('N'), D('N')), 0);
}

TEST(ScoringMatrix, LookupByName) {
  EXPECT_EQ(matrix_by_name("BLOSUM62").name(), "BLOSUM62");
  EXPECT_EQ(matrix_by_name("BLOSUM80").name(), "BLOSUM80");
  EXPECT_EQ(matrix_by_name("PAM250").name(), "PAM250");
  EXPECT_EQ(matrix_by_name("DNA").alphabet(), Alphabet::kDna);
  EXPECT_THROW(matrix_by_name("BLOSUM999"), InvalidArgument);
}

// ---------- DistanceMatrix ----------

TEST(DistanceMatrix, HammingIsMetric) {
  const auto d = DistanceMatrix::hamming(Alphabet::kDna);
  EXPECT_TRUE(d.is_metric());
  EXPECT_EQ(d.at(D('A'), D('A')), 0.0);
  EXPECT_EQ(d.at(D('A'), D('G')), 1.0);
}

TEST(DistanceMatrix, PaperDerivationMatchesFormula) {
  // Paper §III-B: M[i][j] = |B[i][j] - B[i][i]|.
  const auto d = DistanceMatrix::paper_from_scores(blosum62());
  EXPECT_EQ(d.at(P('A'), P('R')), std::abs(-1 - 4));
  EXPECT_EQ(d.at(P('W'), P('C')), std::abs(-2 - 11));
  EXPECT_TRUE(d.zero_diagonal());
}

TEST(DistanceMatrix, PaperDerivationIsNotSymmetric) {
  // The published transform is asymmetric because B[i][i] != B[j][j]:
  // this is the flaw DESIGN.md documents and the metric variant repairs.
  const auto d = DistanceMatrix::paper_from_scores(blosum62());
  EXPECT_FALSE(d.is_symmetric());
  EXPECT_NE(d.at(P('A'), P('W')), d.at(P('W'), P('A')));
}

class MetricDerivationTest
    : public ::testing::TestWithParam<const ScoringMatrix*> {};

TEST_P(MetricDerivationTest, SatisfiesAllMetricAxioms) {
  const auto d = DistanceMatrix::metric_from_scores(*GetParam());
  EXPECT_TRUE(d.zero_diagonal());
  EXPECT_TRUE(d.is_symmetric());
  EXPECT_TRUE(d.satisfies_triangle_inequality());
  EXPECT_TRUE(d.is_metric());
}

TEST_P(MetricDerivationTest, DistinctResiduesHavePositiveDistance) {
  const auto d = DistanceMatrix::metric_from_scores(*GetParam());
  for (seq::Code a = 0; a < 20; ++a) {
    for (seq::Code b = 0; b < 20; ++b) {
      if (a == b) continue;
      EXPECT_GT(d.at(a, b), 0.0)
          << GetParam()->name() << " " << int(a) << "," << int(b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMatrices, MetricDerivationTest,
                         ::testing::Values(&blosum62(), &blosum80(),
                                           &pam250()),
                         [](const auto& param_info) { return param_info.param->name(); });

TEST(DistanceMatrix, RepairEnforcesTriangle) {
  DistanceMatrix d(Alphabet::kDna);
  // Start from uniform distance 5, then plant a triangle violation:
  // d(0,2)=10 but d(0,1)+d(1,2)=2.
  for (seq::Code a = 0; a < 5; ++a) {
    for (seq::Code b = 0; b < 5; ++b) d.set(a, b, a == b ? 0.0 : 5.0);
  }
  d.set(0, 2, 10.0);
  d.set(2, 0, 10.0);
  d.set(0, 1, 1.0);
  d.set(1, 0, 1.0);
  d.set(1, 2, 1.0);
  d.set(2, 1, 1.0);
  EXPECT_FALSE(d.satisfies_triangle_inequality());
  d.repair_triangle_inequality();
  EXPECT_TRUE(d.satisfies_triangle_inequality());
  // The violating pair relaxes through code 1.
  EXPECT_EQ(d.at(0, 2), 2.0);
  EXPECT_TRUE(d.is_symmetric());
}

TEST(DistanceMatrix, MetricDerivationPreservesSimilarityOrdering) {
  // I/L are similar (BLOSUM62 +2), W/C dissimilar (-2): the distance must
  // reflect that.
  const auto d = DistanceMatrix::metric_from_scores(blosum62());
  EXPECT_LT(d.at(P('I'), P('L')), d.at(P('W'), P('C')));
}

TEST(DistanceMatrix, MaxEntryBoundsWindowDistance) {
  const auto d = DistanceMatrix::metric_from_scores(blosum62());
  const auto a = seq::encode_string(Alphabet::kProtein, "MKVLAWHH");
  const auto b = seq::encode_string(Alphabet::kProtein, "WWWWWWWW");
  EXPECT_LE(window_distance(d, a, b), 8 * d.max_entry());
}

// ---------- window distances ----------

TEST(WindowDistance, SumsPerResidue) {
  const auto d = DistanceMatrix::hamming(Alphabet::kDna);
  const auto a = seq::encode_string(Alphabet::kDna, "ACGT");
  const auto b = seq::encode_string(Alphabet::kDna, "AGGT");
  EXPECT_EQ(window_distance(d, a, b), 1.0);
  EXPECT_EQ(window_distance(d, a, a), 0.0);
}

TEST(WindowDistance, MismatchedLengthThrows) {
  const auto d = DistanceMatrix::hamming(Alphabet::kDna);
  const auto a = seq::encode_string(Alphabet::kDna, "ACGT");
  const auto b = seq::encode_string(Alphabet::kDna, "ACG");
  EXPECT_THROW(window_distance(d, a, b), InvalidArgument);
}

TEST(WindowDistance, BoundedVariantExactUnderBound) {
  const auto d = DistanceMatrix::metric_from_scores(blosum62());
  const auto a = seq::encode_string(Alphabet::kProtein, "MKVLAWHH");
  const auto b = seq::encode_string(Alphabet::kProtein, "MKVLAWHW");
  const double exact = window_distance(d, a, b);
  EXPECT_EQ(window_distance_bounded(d, a, b, exact + 1), exact);
  EXPECT_GT(window_distance_bounded(d, a, b, exact / 2), exact / 2);
}

TEST(HammingDistance, CountsAndIdentity) {
  const auto a = seq::encode_string(Alphabet::kDna, "ACGTACGT");
  const auto b = seq::encode_string(Alphabet::kDna, "ACGAACGA");
  EXPECT_EQ(hamming_distance(a, b), 2u);
  EXPECT_DOUBLE_EQ(percent_identity(a, b), 0.75);
  EXPECT_DOUBLE_EQ(percent_identity(a, a), 1.0);
}

// ---------- consecutivity score ----------

TEST(ConsecutivityScore, AllMatchesConsecutive) {
  const auto m = dna_matrix();
  const auto a = seq::encode_string(Alphabet::kDna, "ACGTACGT");
  EXPECT_DOUBLE_EQ(consecutivity_score(a, a, m), 1.0);
}

TEST(ConsecutivityScore, IsolatedMatchesScoreZero) {
  const auto m = dna_matrix();
  const auto a = seq::encode_string(Alphabet::kDna, "AAAA");
  const auto b = seq::encode_string(Alphabet::kDna, "ACAC");
  // Matches at positions 0 and 2 only — both isolated runs of length 1.
  EXPECT_DOUBLE_EQ(consecutivity_score(a, b, m), 0.0);
}

TEST(ConsecutivityScore, PartialRuns) {
  const auto m = dna_matrix();
  const auto a = seq::encode_string(Alphabet::kDna, "ACACACAC");
  const auto b = seq::encode_string(Alphabet::kDna, "AGATATAC");
  // Matches at 0, 2, 4, 6, 7; only the 6-7 run has length >= 2.
  EXPECT_DOUBLE_EQ(consecutivity_score(a, b, m), 2.0 / 5.0);
}

TEST(ConsecutivityScore, MixedRuns) {
  const auto m = dna_matrix();
  const auto a = seq::encode_string(Alphabet::kDna, "AAAACAAA");
  const auto b = seq::encode_string(Alphabet::kDna, "AAAAGCAA");
  // Pairing: AAAA match (run 4), pos4 C/G mismatch, pos5 A/C mismatch,
  // pos6-7 AA match (run 2). 6 matches, all in runs >= 2 -> 1.0.
  EXPECT_DOUBLE_EQ(consecutivity_score(a, b, m), 1.0);
}

TEST(ConsecutivityScore, ProteinUsesPositiveSubstitutions) {
  const auto& m = blosum62();
  // I/L scores +2 (positive => counts as successive match).
  const auto a = seq::encode_string(Alphabet::kProtein, "IIII");
  const auto b = seq::encode_string(Alphabet::kProtein, "LLLL");
  EXPECT_DOUBLE_EQ(consecutivity_score(a, b, m), 1.0);
  // W vs C scores -2 (no match at all).
  const auto c = seq::encode_string(Alphabet::kProtein, "WWWW");
  const auto d = seq::encode_string(Alphabet::kProtein, "CCCC");
  EXPECT_DOUBLE_EQ(consecutivity_score(c, d, m), 0.0);
}

TEST(ConsecutivityScore, NoMatchesIsZero) {
  const auto m = dna_matrix();
  const auto a = seq::encode_string(Alphabet::kDna, "AAAA");
  const auto b = seq::encode_string(Alphabet::kDna, "CCCC");
  EXPECT_DOUBLE_EQ(consecutivity_score(a, b, m), 0.0);
}

TEST(DefaultDistance, SelectsByAlphabet) {
  EXPECT_EQ(default_distance(Alphabet::kDna).at(D('A'), D('C')), 1.0);
  EXPECT_TRUE(default_distance(Alphabet::kProtein).is_metric());
}

// ---------- Karlin–Altschul ----------

TEST(Karlin, LambdaSatisfiesRootEquation) {
  const auto& freqs = seq::protein_background_frequencies();
  const auto params = solve_ungapped(blosum62(), freqs);
  // Verify sum p_i p_j exp(lambda s_ij) == 1 at the solved lambda.
  double total = 0.0;
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    for (std::size_t j = 0; j < freqs.size(); ++j) {
      total += freqs[i] * freqs[j] *
               std::exp(params.lambda *
                        blosum62().score(static_cast<seq::Code>(i),
                                         static_cast<seq::Code>(j)));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(Karlin, Blosum62UngappedLambdaNearPublished) {
  // NCBI's ungapped BLOSUM62 lambda is ~0.318 (Robinson frequencies); with
  // UniProt composition the root lands close by.
  const auto params =
      solve_ungapped(blosum62(), seq::protein_background_frequencies());
  EXPECT_GT(params.lambda, 0.25);
  EXPECT_LT(params.lambda, 0.40);
  EXPECT_GT(params.h, 0.0);
  EXPECT_GT(params.k, 0.0);
}

TEST(Karlin, DnaUngappedLambda) {
  const auto m = dna_matrix(1, -1);  // classic +1/-1
  const auto params =
      solve_ungapped(m, seq::dna_background_frequencies());
  // Known closed form: lambda = ln 3 for +1/-1 at uniform composition.
  EXPECT_NEAR(params.lambda, std::log(3.0), 1e-4);
}

TEST(Karlin, RejectsAllPositiveMatrix) {
  ScoringMatrix m("BAD", seq::Alphabet::kDna, {1, 1});
  for (seq::Code a = 0; a < 4; ++a) {
    for (seq::Code b = 0; b < 4; ++b) m.set(a, b, 1);
  }
  EXPECT_THROW(
      solve_ungapped(m, seq::dna_background_frequencies()),
      InvalidArgument);
}

TEST(Karlin, GappedParamsTabulated) {
  EXPECT_NEAR(gapped_params(blosum62()).lambda, 0.267, 1e-9);
  EXPECT_NEAR(gapped_params(pam250()).lambda, 0.215, 1e-9);
}

TEST(Karlin, EvalueDecreasesWithScore) {
  const auto params = gapped_params(blosum62());
  const double e1 = evalue(params, 50, 500, 1000000);
  const double e2 = evalue(params, 100, 500, 1000000);
  EXPECT_GT(e1, e2);
}

TEST(Karlin, EvalueScalesWithSearchSpace) {
  const auto params = gapped_params(blosum62());
  EXPECT_DOUBLE_EQ(evalue(params, 60, 500, 2000000),
                   2 * evalue(params, 60, 500, 1000000));
  EXPECT_DOUBLE_EQ(evalue(params, 60, 1000, 1000000),
                   2 * evalue(params, 60, 500, 1000000));
}

TEST(Karlin, BitScoreMonotone) {
  const auto params = gapped_params(blosum62());
  EXPECT_LT(bit_score(params, 50), bit_score(params, 100));
}

}  // namespace
}  // namespace mendel::score
