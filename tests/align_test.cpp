// Unit and property tests for src/align: ungapped X-drop extension, full
// Smith–Waterman, and the banded gapped aligner (including the
// banded == SW oracle property from DESIGN.md §4).
#include <limits>

#include <gtest/gtest.h>

#include "src/align/banded.h"
#include "src/align/smith_waterman.h"
#include "src/align/ungapped.h"
#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/scoring/matrix.h"
#include "src/workload/generator.h"

namespace mendel::align {
namespace {

using seq::Alphabet;

std::vector<seq::Code> dna(const std::string& s) {
  return seq::encode_string(Alphabet::kDna, s);
}
std::vector<seq::Code> prot(const std::string& s) {
  return seq::encode_string(Alphabet::kProtein, s);
}

// Counts cigar column totals to cross-check alignment spans.
struct CigarTotals {
  std::size_t q = 0, s = 0, columns = 0;
};
CigarTotals cigar_totals(const std::string& cigar) {
  CigarTotals t;
  std::size_t i = 0;
  while (i < cigar.size()) {
    std::size_t count = 0;
    while (i < cigar.size() && std::isdigit(static_cast<unsigned char>(cigar[i]))) {
      count = count * 10 + static_cast<std::size_t>(cigar[i] - '0');
      ++i;
    }
    const char op = cigar[i++];
    t.columns += count;
    if (op == 'M' || op == 'D') t.q += count;
    if (op == 'M' || op == 'I') t.s += count;
  }
  return t;
}

// ---------- window_score / ungapped extension ----------

TEST(Ungapped, WindowScoreSums) {
  const auto m = score::dna_matrix(2, -3);
  EXPECT_EQ(window_score(dna("ACGT"), dna("ACGT"), m), 8);
  EXPECT_EQ(window_score(dna("ACGT"), dna("ACGA"), m), 3);
  EXPECT_THROW(window_score(dna("ACG"), dna("ACGT"), m), InvalidArgument);
}

TEST(Ungapped, ExtendsPerfectMatchToFullLength) {
  const auto m = score::dna_matrix(2, -3);
  const auto q = dna("ACGTACGTACGT");
  const auto hsp = extend_ungapped(q, q, 4, 4, 4, m, {16});
  EXPECT_EQ(hsp.q_begin, 0u);
  EXPECT_EQ(hsp.q_end, q.size());
  EXPECT_EQ(hsp.s_begin, 0u);
  EXPECT_EQ(hsp.s_end, q.size());
  EXPECT_EQ(hsp.score, static_cast<int>(2 * q.size()));
}

TEST(Ungapped, StopsAtMismatchRun) {
  const auto m = score::dna_matrix(2, -3);
  // Subject shares the middle 8-mer, everything else disagrees badly.
  const auto q = dna("CCCCACGTACGTCCCC");
  const auto s = dna("GGGGACGTACGTGGGG");
  const auto hsp = extend_ungapped(q, s, 4, 4, 8, m, {4});
  EXPECT_EQ(hsp.q_begin, 4u);
  EXPECT_EQ(hsp.q_end, 12u);
  EXPECT_EQ(hsp.score, 16);
}

TEST(Ungapped, ExtensionAbsorbsSingleMismatch) {
  const auto m = score::dna_matrix(2, -3);
  //                 0123456789
  const auto q = dna("ACGTACGTAA");
  const auto s = dna("ACGTACGTCA");  // mismatch at 8, match at 9
  const auto hsp = extend_ungapped(q, s, 0, 0, 4, m, {16});
  // Extending through the mismatch (-3) to gain the final match (+2) nets
  // -1 — extension keeps the best prefix, which stops at position 8.
  EXPECT_EQ(hsp.q_end, 8u);
  EXPECT_EQ(hsp.score, 16);
}

TEST(Ungapped, DiagonalPreserved) {
  const auto m = score::dna_matrix(2, -3);
  const auto q = dna("TTACGTACGT");
  const auto s = dna("ACGTACGT");
  const auto hsp = extend_ungapped(q, s, 2, 0, 4, m, {16});
  EXPECT_EQ(hsp.diagonal(), -2);
  EXPECT_EQ(hsp.q_end - hsp.q_begin, hsp.s_end - hsp.s_begin);
}

TEST(Ungapped, RejectsSeedOutOfRange) {
  const auto m = score::dna_matrix();
  const auto q = dna("ACGT");
  EXPECT_THROW(extend_ungapped(q, q, 2, 2, 4, m, {}), InvalidArgument);
  EXPECT_THROW(extend_ungapped(q, q, 0, 0, 0, m, {}), InvalidArgument);
}

// ---------- Smith–Waterman ----------

TEST(SmithWaterman, IdenticalSequences) {
  const auto m = score::dna_matrix(2, -3);
  const auto q = dna("ACGTACGTAC");
  const auto a = smith_waterman(q, q, m, {5, 2});
  EXPECT_EQ(a.hsp.score, 20);
  EXPECT_EQ(a.hsp.q_begin, 0u);
  EXPECT_EQ(a.hsp.q_end, 10u);
  EXPECT_EQ(a.identities, 10u);
  EXPECT_EQ(a.gap_columns, 0u);
  EXPECT_EQ(a.cigar, "10M");
}

TEST(SmithWaterman, FindsEmbeddedLocalMatch) {
  const auto m = score::dna_matrix(2, -3);
  const auto q = dna("TTTTTACGTACGTTTTTT");
  const auto s = dna("GGGGGACGTACGGGGGG");
  const auto a = smith_waterman(q, s, m, {5, 2});
  EXPECT_EQ(a.hsp.score, 14);  // 7 matching residues ACGTACG
  EXPECT_EQ(a.identities, 7u);
}

TEST(SmithWaterman, HandlesSingleGap) {
  const auto m = score::dna_matrix(2, -3);
  // subject = query with one residue deleted; gap open 5 extend 2 means a
  // 1-column gap costs 7 but regains 2*6 from the right side.
  const auto q = dna("ACGTACGTACGT");
  const auto s = dna("ACGTAGTACGT");  // 'C' at position 5 deleted
  const auto a = smith_waterman(q, s, m, {5, 2});
  EXPECT_EQ(a.gap_columns, 1u);
  EXPECT_EQ(a.hsp.score, 2 * 11 - 7);
  const auto totals = cigar_totals(a.cigar);
  EXPECT_EQ(totals.q, a.hsp.q_len());
  EXPECT_EQ(totals.s, a.hsp.s_len());
  EXPECT_EQ(totals.columns, a.columns);
}

TEST(SmithWaterman, EmptyInputsYieldEmptyAlignment) {
  const auto m = score::dna_matrix();
  const auto q = dna("ACGT");
  const std::vector<seq::Code> empty;
  EXPECT_EQ(smith_waterman(q, empty, m, {5, 2}).hsp.score, 0);
  EXPECT_EQ(smith_waterman(empty, q, m, {5, 2}).hsp.score, 0);
}

TEST(SmithWaterman, NoPositivePairMeansNoAlignment) {
  const auto m = score::dna_matrix(2, -3);
  const auto a = smith_waterman(dna("AAAA"), dna("CCCC"), m, {5, 2});
  EXPECT_EQ(a.hsp.score, 0);
  EXPECT_EQ(a.columns, 0u);
}

TEST(SmithWaterman, ProteinAlignmentUsesSubstitutionScores) {
  const auto& m = score::blosum62();
  const auto q = prot("MKVLAWHH");
  const auto s = prot("MKVLAWHH");
  const auto a = smith_waterman(q, s, m, m.default_gaps());
  int expected = 0;
  for (seq::Code c : q) expected += m.score(c, c);
  EXPECT_EQ(a.hsp.score, expected);
}

// ---------- banded ----------

TEST(Banded, MatchesSmithWatermanWhenBandCoversEverything) {
  const auto m = score::dna_matrix(2, -3);
  const auto q = dna("ACGTACGTTGCAACGT");
  const auto s = dna("TACGTACGTAACGTT");
  const auto sw = smith_waterman(q, s, m, {5, 2});
  const auto banded = banded_local_align(
      q, s, m, {5, 2}, {0, q.size() + s.size()});
  EXPECT_EQ(banded.hsp.score, sw.hsp.score);
  EXPECT_EQ(banded.identities, sw.identities);
}

// Property: over random homologous pairs, a full-width band reproduces the
// exact Smith–Waterman score, and any band yields a score <= SW.
class BandedOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandedOracleTest, FullBandEqualsSwAndNarrowBandNeverExceeds) {
  Rng rng(GetParam());
  const auto& m = score::blosum62();
  const auto base =
      workload::random_sequence(Alphabet::kProtein, 120, "base", rng);
  const auto mutated =
      workload::mutate(base, {0.15, 0.02, 0.4}, "mut", rng);
  const auto sw =
      smith_waterman(base.codes(), mutated.codes(), m, m.default_gaps());
  const auto full = banded_local_align(base.codes(), mutated.codes(), m,
                                       m.default_gaps(), {0, 400});
  EXPECT_EQ(full.hsp.score, sw.hsp.score);

  for (std::size_t radius : {2u, 8u, 16u}) {
    const auto narrow = banded_local_align(base.codes(), mutated.codes(), m,
                                           m.default_gaps(), {0, radius});
    EXPECT_LE(narrow.hsp.score, sw.hsp.score) << "radius " << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPairs, BandedOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(Banded, RespectsBandRestriction) {
  const auto m = score::dna_matrix(2, -3);
  // The only strong alignment sits on diagonal +6; a radius-2 band at
  // diagonal 0 must not see it.
  const auto q = dna("ACGTACGTAAAAAA");
  const auto s = dna("TTTTTTACGTACGT");
  const auto off_band = banded_local_align(q, s, m, {5, 2}, {0, 2});
  EXPECT_LT(off_band.hsp.score, 16);
  const auto on_band = banded_local_align(q, s, m, {5, 2}, {6, 2});
  EXPECT_EQ(on_band.hsp.score, 16);
}

TEST(Banded, CenteredDiagonalFindsShiftedMatch) {
  const auto m = score::dna_matrix(2, -3);
  const auto q = dna("AACGTACGTACGTAA");
  const auto s = dna("CGTACGTACGT");
  // Alignment lies on diagonal -2.
  const auto a = banded_local_align(q, s, m, {5, 2}, {-2, 1});
  EXPECT_EQ(a.hsp.score, 22);
  EXPECT_EQ(static_cast<std::ptrdiff_t>(a.hsp.s_begin) -
                static_cast<std::ptrdiff_t>(a.hsp.q_begin),
            -2);
}

TEST(Banded, CigarColumnsConsistent) {
  Rng rng(77);
  const auto& m = score::blosum62();
  const auto base =
      workload::random_sequence(Alphabet::kProtein, 90, "b", rng);
  const auto mutated = workload::mutate(base, {0.1, 0.03, 0.5}, "m", rng);
  const auto a = banded_local_align(base.codes(), mutated.codes(), m,
                                    m.default_gaps(), {0, 24});
  if (a.hsp.score > 0) {
    const auto totals = cigar_totals(a.cigar);
    EXPECT_EQ(totals.q, a.hsp.q_len());
    EXPECT_EQ(totals.s, a.hsp.s_len());
    EXPECT_EQ(totals.columns, a.columns);
    EXPECT_LE(a.identities, a.columns);
  }
}

TEST(Banded, EmptyInputs) {
  const auto m = score::dna_matrix();
  const std::vector<seq::Code> empty;
  const auto q = dna("ACGT");
  EXPECT_EQ(banded_local_align(q, empty, m, {5, 2}, {0, 4}).hsp.score, 0);
  EXPECT_EQ(banded_local_align(empty, q, m, {5, 2}, {0, 4}).hsp.score, 0);
}

// A radius far past m + n is clamped to the rectangle: the DP stays
// (m + 1) x (2 (m + n) + 1) and returns exactly the result of the
// smallest band that covers every cell.
TEST(Banded, RadiusPastTheRectangleIsClamped) {
  Rng rng(91);
  const auto& m = score::blosum62();
  for (int i = 0; i < 8; ++i) {
    const auto base = workload::random_sequence(
        Alphabet::kProtein, 60 + 20 * static_cast<std::size_t>(i), "b", rng);
    const auto mutated = workload::mutate(base, {0.1, 0.03, 0.5}, "m", rng);
    const std::size_t covering = base.size() + mutated.size();
    const std::ptrdiff_t center = i - 4;
    const auto want = banded_local_align(base.codes(), mutated.codes(), m,
                                         m.default_gaps(), {center, covering});
    ASSERT_GT(want.hsp.score, 0);
    for (std::size_t radius :
         {std::size_t{1} << 40, std::size_t{0xFFFFFFFF},
          std::numeric_limits<std::size_t>::max() / 4}) {
      EXPECT_EQ(banded_local_align(base.codes(), mutated.codes(), m,
                                   m.default_gaps(), {center, radius}),
                want);
      EXPECT_EQ(banded_local_align_reference(base.codes(), mutated.codes(), m,
                                             m.default_gaps(),
                                             {center, radius}),
                want);
    }
  }
  // A band that misses the rectangle has no cells at all.
  const auto q = dna("ACGTACGT");
  const auto dm = score::dna_matrix();
  EXPECT_EQ(banded_local_align(q, q, dm, {5, 2}, {100, 50}).hsp.score, 0);
  EXPECT_EQ(banded_local_align(q, q, dm, {5, 2}, {-100, 50}).hsp.score, 0);
}

}  // namespace
}  // namespace mendel::align
