// Pins both byte formats to the checked-in fuzz corpus (tests/fuzz/corpus,
// written by tools/fuzz_seed_gen):
//   * every wire_message_fuzz seed decodes through decode_payload with no
//     DecodeError and re-encodes byte for byte, and every payload
//     selector has a seed;
//   * every snapshot_fuzz seed survives Client::load_index followed by
//     Client::save_index byte for byte, and load_index rejects the
//     malformed variants the snapshot auditor rejects.
// The fuzz_corpus_is_current ctest checks the other direction: the corpus
// is exactly what the current encoders generate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/mendel/client.h"
#include "src/mendel/protocol.h"
#include "tests/fuzz/wire_selectors.h"

namespace mendel {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus(const std::string& harness) {
  std::vector<fs::path> files;
  for (const auto& entry :
       fs::directory_iterator(fs::path(MENDEL_FUZZ_CORPUS_DIR) / harness)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

fs::path corpus_file(const std::string& harness, const std::string& name) {
  return fs::path(MENDEL_FUZZ_CORPUS_DIR) / harness / name;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(WireCorpus, EverySeedDecodesAndReencodesByteForByte) {
  const auto files = corpus("wire_message_fuzz");
  ASSERT_FALSE(files.empty());
  for (const fs::path& file : files) {
    const auto bytes = read_file(file);
    ASSERT_FALSE(bytes.empty()) << file;
    const std::span<const std::uint8_t> payload(bytes.data() + 1,
                                                bytes.size() - 1);
    fuzz::with_wire_payload(bytes[0], [&]<typename Payload>() {
      Payload decoded;
      ASSERT_NO_THROW(decoded = core::decode_payload<Payload>(payload))
          << file;
      const auto reencoded = core::encode_payload(decoded);
      EXPECT_TRUE(std::equal(reencoded.begin(), reencoded.end(),
                             payload.begin(), payload.end()))
          << file << " does not re-encode to its own bytes";
    });
  }
}

TEST(WireCorpus, EveryPayloadSelectorHasASeed) {
  std::set<unsigned> selectors;
  for (const fs::path& file : corpus("wire_message_fuzz")) {
    const auto bytes = read_file(file);
    if (!bytes.empty()) selectors.insert(bytes[0] % fuzz::kWireSelectors);
  }
  EXPECT_EQ(selectors.size(), fuzz::kWireSelectors);
}

TEST(SnapshotCorpus, LoadIndexThenSaveIndexIsTheIdentity) {
  const auto files = corpus("snapshot_fuzz");
  ASSERT_FALSE(files.empty());
  const fs::path out =
      fs::temp_directory_path() / "mendel_codec_corpus_resave.mnd";
  for (const fs::path& file : files) {
    core::Client client(core::ClientOptions{});
    client.load_index(file.string());
    client.save_index(out.string());
    EXPECT_EQ(read_file(out), read_file(file))
        << file << " does not re-save to its own bytes";
  }
  std::remove(out.c_str());
}

// The shipped loader rejects what the auditor rejects: both go through
// core::read_snapshot.
void expect_load_index_rejects(const std::vector<std::uint8_t>& bytes,
                               const char* what) {
  const fs::path path =
      fs::temp_directory_path() / "mendel_codec_corpus_reject.mnd";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  core::Client client(core::ClientOptions{});
  EXPECT_THROW(client.load_index(path.string()), DecodeError) << what;
  std::remove(path.c_str());
}

TEST(SnapshotCorpus, LoadIndexRejectsATrailingByte) {
  auto bytes = read_file(corpus_file("snapshot_fuzz", "index_protein_v3"));
  bytes.push_back(0);
  expect_load_index_rejects(bytes, "one trailing byte");
}

TEST(SnapshotCorpus, LoadIndexRejectsAnUnknownAlphabet) {
  auto bytes = read_file(corpus_file("snapshot_fuzz", "index_dna_v3"));
  // The alphabet byte follows the magic: u32 length + "mendel-index-v3".
  constexpr std::size_t kAlphabetOffset = 4 + 15;
  ASSERT_GT(bytes.size(), kAlphabetOffset);
  ASSERT_EQ(bytes[kAlphabetOffset], 0u);  // DNA
  bytes[kAlphabetOffset] = 2;
  expect_load_index_rejects(bytes, "alphabet byte 2");
}

}  // namespace
}  // namespace mendel
