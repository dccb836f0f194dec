// Tests for the mendel command-line tool (src/cli): flag parsing and every
// subcommand, run in-process against temp files.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/cli/cli.h"
#include "src/cli/flags.h"
#include "src/common/error.h"

namespace mendel::cli {
namespace {

// ---------- Flags ----------

TEST(Flags, ParsesKeyEqualsValue) {
  const auto flags = Flags::parse({"--alpha=1", "--name=foo"});
  EXPECT_EQ(flags.integer("alpha", 0), 1);
  EXPECT_EQ(flags.str("name", ""), "foo");
}

TEST(Flags, ParsesKeySpaceValue) {
  const auto flags = Flags::parse({"--alpha", "7", "--name", "bar"});
  EXPECT_EQ(flags.integer("alpha", 0), 7);
  EXPECT_EQ(flags.str("name", ""), "bar");
}

TEST(Flags, BooleanFlagWithoutValue) {
  const auto flags = Flags::parse({"--verbose", "--out", "x"});
  EXPECT_TRUE(flags.boolean("verbose"));
  EXPECT_FALSE(flags.boolean("quiet"));
  EXPECT_EQ(flags.str("out", ""), "x");
}

TEST(Flags, PositionalsCollected) {
  const auto flags = Flags::parse({"first", "--k", "3", "second"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "first");
  EXPECT_EQ(flags.positional()[1], "second");
}

TEST(Flags, RequiredMissingThrows) {
  const auto flags = Flags::parse({});
  EXPECT_THROW(flags.str_required("db"), InvalidArgument);
}

TEST(Flags, TypeErrorsThrow) {
  const auto flags = Flags::parse({"--n", "abc", "--x", "1.5.2"});
  EXPECT_THROW(flags.integer("n", 0), InvalidArgument);
  EXPECT_THROW(flags.real("x", 0), InvalidArgument);
}

TEST(Flags, RejectUnconsumedReportsTypos) {
  const auto flags = Flags::parse({"--speling-error", "1", "--ok", "2"});
  EXPECT_EQ(flags.integer("ok", 0), 2);
  EXPECT_THROW(flags.reject_unconsumed(), InvalidArgument);
}

TEST(Flags, RealAndDefaults) {
  const auto flags = Flags::parse({"--e", "0.5"});
  EXPECT_DOUBLE_EQ(flags.real("e", 1.0), 0.5);
  EXPECT_DOUBLE_EQ(flags.real("missing", 2.5), 2.5);
  EXPECT_EQ(flags.integer("missing", 9), 9);
}

TEST(Flags, NarrowedIntegerRejectsNegativeValues) {
  const auto flags = Flags::parse({"--groups", "-1", "--budget", "-1"});
  try {
    flags.integer_as<std::uint32_t>("groups", 10);
    FAIL() << "--groups -1 was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--groups"), std::string::npos);
  }
  EXPECT_THROW(flags.integer_as<std::size_t>("budget", 0), InvalidArgument);
}

TEST(Flags, NarrowedIntegerRejectsValuesPastTheType) {
  const auto flags = Flags::parse(
      {"--n", "4294967296", "--max", "4294967295", "--bytes", "4294967296"});
  EXPECT_THROW(flags.integer_as<std::uint32_t>("n", 0), InvalidArgument);
  EXPECT_EQ(flags.integer_as<std::uint32_t>("max", 0), 4294967295u);
  EXPECT_EQ(flags.integer_as<std::size_t>("bytes", 0),
            std::size_t{4294967296});
  EXPECT_EQ(flags.integer_as<std::uint32_t>("missing", 7), 7u);
}

TEST(Flags, OutOfRangeLiteralThrows) {
  const auto flags = Flags::parse(
      {"--seed", "99999999999999999999", "--low", "-99999999999999999999"});
  EXPECT_THROW(flags.integer("seed", 0), InvalidArgument);
  EXPECT_THROW(flags.integer("low", 0), InvalidArgument);
}

// ---------- CLI end-to-end ----------

struct TempDir {
  // Unique per test: the suites run concurrently under `ctest -j`, and a
  // shared path would let one test's cleanup delete another's live index.
  std::string base = std::string("/tmp/mendel_cli_test_") +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name();
  std::string db = base + "_db.fa";
  std::string queries = base + "_q.fa";
  std::string index = base + ".mnd";
  ~TempDir() {
    std::remove(db.c_str());
    std::remove(queries.c_str());
    std::remove(index.c_str());
  }
};

int run(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

TEST(Cli, HelpPrintsCommands) {
  std::string out;
  EXPECT_EQ(run({"help"}, &out), 0);
  EXPECT_NE(out.find("generate"), std::string::npos);
  EXPECT_NE(out.find("query"), std::string::npos);
  EXPECT_EQ(run({}, &out), 0);
}

TEST(Cli, UnknownCommandFails) {
  std::string err;
  EXPECT_EQ(run({"frobnicate"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(Cli, GenerateIndexInfoQueryPipeline) {
  TempDir files;
  std::string out;

  ASSERT_EQ(run({"generate", "--out", files.db, "--families", "4",
                 "--members", "3", "--background", "6", "--min-len", "200",
                 "--max-len", "400", "--queries", files.queries,
                 "--query-count", "2", "--query-length", "120",
                 "--query-noise", "0.03"},
                &out),
            0);
  EXPECT_NE(out.find("wrote 18 sequences"), std::string::npos) << out;
  EXPECT_NE(out.find("wrote 2 queries"), std::string::npos);

  ASSERT_EQ(run({"index", "--db", files.db, "--out", files.index,
                 "--groups", "3", "--nodes-per-group", "2", "--cutoff-depth",
                 "4", "--sample", "256"},
                &out),
            0);
  EXPECT_NE(out.find("index saved to"), std::string::npos) << out;

  ASSERT_EQ(run({"info", "--index", files.index}, &out), 0);
  EXPECT_NE(out.find("3 groups x 2 nodes"), std::string::npos) << out;

  ASSERT_EQ(run({"query", "--index", files.index, "--queries",
                 files.queries},
                &out),
            0);
  EXPECT_NE(out.find("Query: query0"), std::string::npos) << out;
  EXPECT_NE(out.find("bits"), std::string::npos);
}

TEST(Cli, QueryTabularAndPairwiseFormats) {
  TempDir files;
  std::string out;
  ASSERT_EQ(run({"generate", "--out", files.db, "--families", "3",
                 "--members", "3", "--background", "4", "--min-len", "200",
                 "--max-len", "300", "--queries", files.queries,
                 "--query-count", "1", "--query-length", "120",
                 "--query-noise", "0.0"},
                &out),
            0);
  ASSERT_EQ(run({"index", "--db", files.db, "--out", files.index,
                 "--groups", "2", "--nodes-per-group", "2", "--cutoff-depth",
                 "4", "--sample", "256"},
                &out),
            0);

  ASSERT_EQ(run({"query", "--index", files.index, "--queries",
                 files.queries, "--format", "tabular"},
                &out),
            0);
  EXPECT_NE(out.find("# query\tsubject"), std::string::npos) << out;
  EXPECT_NE(out.find("query0"), std::string::npos);

  ASSERT_EQ(run({"query", "--index", files.index, "--queries",
                 files.queries, "--format", "pairwise"},
                &out),
            0);
  EXPECT_NE(out.find("Query  1\t"), std::string::npos) << out;
  EXPECT_NE(out.find("Sbjct"), std::string::npos);
}

TEST(Cli, QueryLabelsTurnaroundByTransport) {
  TempDir files;
  std::string out;
  ASSERT_EQ(run({"generate", "--out", files.db, "--families", "3",
                 "--members", "3", "--background", "4", "--min-len", "200",
                 "--max-len", "300", "--queries", files.queries,
                 "--query-count", "1", "--query-length", "120"},
                &out),
            0);
  ASSERT_EQ(run({"index", "--db", files.db, "--out", files.index,
                 "--groups", "2", "--nodes-per-group", "2", "--cutoff-depth",
                 "4", "--sample", "256"},
                &out),
            0);

  // The simulator reports virtual time; a live transport reports wall time
  // and must not call it simulated.
  ASSERT_EQ(run({"query", "--index", files.index, "--queries",
                 files.queries},
                &out),
            0);
  EXPECT_NE(out.find(" ms simulated turnaround"), std::string::npos) << out;
  ASSERT_EQ(run({"query", "--index", files.index, "--queries",
                 files.queries, "--transport", "threaded"},
                &out),
            0);
  EXPECT_NE(out.find(" ms wall-clock turnaround"), std::string::npos) << out;
  EXPECT_EQ(out.find("simulated"), std::string::npos) << out;
}

TEST(Cli, BalanceReportsBothPlacements) {
  TempDir files;
  std::string out;
  ASSERT_EQ(run({"generate", "--out", files.db, "--families", "3",
                 "--members", "3", "--background", "4", "--min-len", "150",
                 "--max-len", "250"},
                &out),
            0);
  ASSERT_EQ(run({"balance", "--db", files.db, "--groups", "2",
                 "--nodes-per-group", "2", "--sample", "256",
                 "--cutoff-depth", "4"},
                &out),
            0);
  EXPECT_NE(out.find("flat SHA-1"), std::string::npos) << out;
  EXPECT_NE(out.find("two-tier vp-LSH"), std::string::npos);
}

TEST(Cli, AddAndGrowSubcommands) {
  TempDir files;
  const std::string more = "/tmp/mendel_cli_more.fa";
  std::string out;
  ASSERT_EQ(run({"generate", "--out", files.db, "--families", "3",
                 "--members", "3", "--background", "4", "--min-len", "150",
                 "--max-len", "250"},
                &out),
            0);
  ASSERT_EQ(run({"index", "--db", files.db, "--out", files.index,
                 "--groups", "2", "--nodes-per-group", "2", "--cutoff-depth",
                 "4", "--sample", "256"},
                &out),
            0);
  // Incrementally add a second batch.
  ASSERT_EQ(run({"generate", "--out", more, "--families", "1", "--members",
                 "2", "--background", "1", "--min-len", "150", "--max-len",
                 "200", "--seed", "99"},
                &out),
            0);
  ASSERT_EQ(run({"add", "--index", files.index, "--db", more}, &out), 0);
  EXPECT_NE(out.find("added 3 sequences"), std::string::npos) << out;
  // Grow a group by one node.
  ASSERT_EQ(run({"grow", "--index", files.index, "--group", "1"}, &out), 0);
  EXPECT_NE(out.find("added node 4 to group 1"), std::string::npos) << out;
  // The grown index still answers info.
  ASSERT_EQ(run({"info", "--index", files.index}, &out), 0);
  std::remove(more.c_str());
}

TEST(Cli, MissingRequiredFlagIsUsageError) {
  std::string err;
  EXPECT_EQ(run({"index", "--db", "/nonexistent.fa"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--out"), std::string::npos);
}

TEST(Cli, UnknownFlagRejected) {
  TempDir files;
  std::string out, err;
  ASSERT_EQ(run({"generate", "--out", files.db, "--families", "2",
                 "--members", "2", "--background", "2", "--min-len", "120",
                 "--max-len", "150"},
                &out),
            0);
  EXPECT_EQ(run({"balance", "--db", files.db, "--grups", "2"}, nullptr,
                &err),
            2);
  EXPECT_NE(err.find("--grups"), std::string::npos);
}

TEST(Cli, MissingFilesSurfaceIoErrors) {
  std::string err;
  EXPECT_EQ(run({"index", "--db", "/nonexistent.fa", "--out", "/tmp/x.mnd"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("error:"), std::string::npos);
  EXPECT_EQ(run({"info", "--index", "/nonexistent.mnd"}, nullptr, &err), 2);
}

TEST(Cli, BadAlphabetRejected) {
  std::string err;
  EXPECT_EQ(run({"generate", "--out", "/tmp/x.fa", "--alphabet", "rna"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("alphabet"), std::string::npos);
}

}  // namespace
}  // namespace mendel::cli
