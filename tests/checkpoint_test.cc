// Checkpoint format tests: Graph / FrozenGraph round-trips, section CRC
// verification against bit flips and truncation, the report section (round
// trip, and every malformed payload loads as kDataLoss), atomic tmp+rename
// writes (a failpoint-injected failure must never leave a half checkpoint
// under the final name), listing and GC.

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "graph/frozen.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "reason/validation.h"

namespace ged {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/gedlib_ckpt_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

void RemoveTree(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteAll(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

Graph SampleGraph() {
  Graph g;
  for (int i = 0; i < 12; ++i) {
    NodeId v = g.AddNode("kind_" + std::to_string(i % 3));
    g.SetAttr(v, "idx", Value(int64_t{i}));
    if (i % 2 == 0) g.SetAttr(v, "name", Value("node \"quoted\" " +
                                               std::to_string(i)));
    if (i % 3 == 0) g.SetAttr(v, "weight", Value(0.25 * i));
    if (i % 4 == 0) g.SetAttr(v, "odd", Value(i % 2 == 1));
  }
  for (int i = 0; i < 12; ++i) {
    g.AddEdge(i, "next", (i + 1) % 12);
    if (i % 3 == 0) g.AddEdge(i, "skip", (i + 4) % 12);
  }
  return g;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir(); }
  void TearDown() override {
    failpoints::DisableAll();
    RemoveTree(dir_);
  }
  std::string dir_;
};

TEST_F(CheckpointTest, GraphRoundTrip) {
  Graph g = SampleGraph();
  auto saved = SaveCheckpoint(g, 17, dir_);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  auto loaded = LoadCheckpoint(saved.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().epoch, 17u);
  EXPECT_TRUE(loaded.value().graph == g);
}

TEST_F(CheckpointTest, FrozenGraphRoundTrip) {
  Graph g = SampleGraph();
  FrozenGraph frozen = FrozenGraph::Freeze(g);
  auto saved = SaveCheckpoint(frozen, 5, dir_);
  ASSERT_TRUE(saved.ok());
  auto loaded = LoadCheckpoint(saved.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The CSR snapshot preserves nodes, labels, edges and attrs exactly, so
  // the rebuilt mutable graph equals the original source graph.
  EXPECT_TRUE(loaded.value().graph == g);
}

TEST_F(CheckpointTest, EmptyGraphRoundTrip) {
  Graph g;
  auto saved = SaveCheckpoint(g, 0, dir_);
  ASSERT_TRUE(saved.ok());
  auto loaded = LoadCheckpoint(saved.value());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().graph.NumNodes(), 0u);
  EXPECT_EQ(loaded.value().epoch, 0u);
}

TEST_F(CheckpointTest, EveryBitFlipIsDetected) {
  Graph g = SampleGraph();
  auto saved = SaveCheckpoint(g, 3, dir_);
  ASSERT_TRUE(saved.ok());
  const std::string full = ReadAll(saved.value());
  // Flipping any single byte must never yield a silently different graph:
  // either the load fails (the expected outcome) or — for bytes the format
  // does not cover, of which there are none — the graph is unchanged.
  // Stride through the file to keep runtime reasonable while still hitting
  // header, every section header, and every section payload.
  for (size_t i = 0; i < full.size(); i += 7) {
    std::string mutated = full;
    mutated[i] ^= 0x10;
    WriteAll(saved.value(), mutated);
    auto loaded = LoadCheckpoint(saved.value());
    if (loaded.ok()) {
      EXPECT_TRUE(loaded.value().graph == g ||
                  loaded.value().epoch != 3u)
          << "flip at byte " << i << " changed the graph silently";
      // The epoch itself is outside any section CRC; a flip there is
      // caught one level up by recovery's epoch-gap check.
    } else {
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << loaded.status().ToString();
    }
  }
}

TEST_F(CheckpointTest, TruncationIsDataLoss) {
  Graph g = SampleGraph();
  auto saved = SaveCheckpoint(g, 3, dir_);
  ASSERT_TRUE(saved.ok());
  const std::string full = ReadAll(saved.value());
  for (size_t keep : {size_t{0}, size_t{4}, size_t{9}, full.size() / 2,
                      full.size() - 1}) {
    WriteAll(saved.value(), full.substr(0, keep));
    auto loaded = LoadCheckpoint(saved.value());
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  }
}

TEST_F(CheckpointTest, UnknownSectionIdsAreSkipped) {
  Graph g = SampleGraph();
  auto saved = SaveCheckpoint(g, 3, dir_);
  ASSERT_TRUE(saved.ok());
  std::string data = ReadAll(saved.value());

  // Append a CRC-valid section with an unknown id — including id 0, which
  // must not be mistaken for a known section and clobber a parsed one —
  // and bump the section count (u32 after magic + version + epoch).
  for (uint32_t id : {uint32_t{0}, uint32_t{7}}) {
    std::string mutated = data;
    const std::string payload = "not-a-real-section";
    binio::PutU32(&mutated, id);
    binio::PutU64(&mutated, payload.size());
    binio::PutU32(&mutated, Crc32c(payload.data(), payload.size()));
    mutated.append(payload);
    mutated[8 + 4 + 8] = 4;  // section count 3 -> 4
    WriteAll(saved.value(), mutated);
    auto loaded = LoadCheckpoint(saved.value());
    ASSERT_TRUE(loaded.ok()) << "id " << id << ": "
                             << loaded.status().ToString();
    EXPECT_TRUE(loaded.value().graph == g) << "id " << id;
  }
}

// A report over SampleGraph: rows of two GEDs with different arities, in
// ViolationLess order.
ValidationReport SampleReport() {
  ValidationReport report;
  report.matches_checked = 1234;
  report.violations = {{0, MatchRow{1, 2}},    {0, MatchRow{1, 5}},
                       {0, MatchRow{4, 0}},    {2, MatchRow{3}},
                       {2, MatchRow{11}},      {3, MatchRow{0, 1, 2}}};
  report.satisfied = false;
  return report;
}

constexpr uint64_t kFingerprint = 0x5eed5eed5eed5eedULL;

TEST_F(CheckpointTest, ReportSectionRoundTrip) {
  Graph g = SampleGraph();
  const ValidationReport report = SampleReport();
  auto saved = SaveCheckpoint(g, 21, dir_,
                              EncodeReportSection(kFingerprint, report));
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  auto loaded = LoadCheckpoint(saved.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().graph == g);
  ASSERT_TRUE(loaded.value().report.has_value());
  const CheckpointReport& r = *loaded.value().report;
  EXPECT_EQ(r.sigma_fingerprint, kFingerprint);
  EXPECT_EQ(r.matches_checked, report.matches_checked);
  EXPECT_EQ(r.violations, report.violations);

  // Rows are grouped per GED and arity: 3 groups, no per-row ged_index.
  const std::string payload = EncodeReportSection(kFingerprint, report);
  EXPECT_EQ(payload.size(), 24 + 3 * 16 + 4 * (3 * 2 + 2 * 1 + 1 * 3));

  // An empty report still round-trips as a present section.
  auto empty = SaveCheckpoint(FrozenGraph::Freeze(g), 22, dir_,
                              EncodeReportSection(7, ValidationReport{}));
  ASSERT_TRUE(empty.ok());
  auto loaded_empty = LoadCheckpoint(empty.value());
  ASSERT_TRUE(loaded_empty.ok()) << loaded_empty.status().ToString();
  ASSERT_TRUE(loaded_empty.value().report.has_value());
  EXPECT_TRUE(loaded_empty.value().report->violations.empty());
  EXPECT_EQ(loaded_empty.value().report->sigma_fingerprint, 7u);
}

TEST_F(CheckpointTest, NoReportSectionWritesTheThreeSectionLayout) {
  Graph g = SampleGraph();
  auto saved = SaveCheckpoint(g, 3, dir_);
  ASSERT_TRUE(saved.ok());
  const std::string data = ReadAll(saved.value());
  EXPECT_EQ(data[8 + 4 + 8], 3);  // section count
  auto loaded = LoadCheckpoint(saved.value());
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().report.has_value());
}

TEST_F(CheckpointTest, ReportSectionByteFlipIsDataLoss) {
  Graph g = SampleGraph();
  const std::string payload = EncodeReportSection(kFingerprint, SampleReport());
  auto saved = SaveCheckpoint(g, 3, dir_, payload);
  ASSERT_TRUE(saved.ok());
  const std::string full = ReadAll(saved.value());
  // Section 4 is the last section: its payload is the file's tail.
  for (size_t i = full.size() - payload.size(); i < full.size(); ++i) {
    std::string mutated = full;
    mutated[i] ^= 0x01;
    WriteAll(saved.value(), mutated);
    auto loaded = LoadCheckpoint(saved.value());
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << i;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  }
}

// Malformed payloads with a valid CRC (SaveCheckpoint checksums whatever it
// is given): the decoder itself must reject them.
TEST_F(CheckpointTest, MalformedReportSectionIsDataLoss) {
  Graph g = SampleGraph();
  const std::string good = EncodeReportSection(kFingerprint, SampleReport());
  auto expect_data_loss = [&](const std::string& payload, const char* what) {
    auto saved = SaveCheckpoint(g, 3, dir_, payload);
    ASSERT_TRUE(saved.ok()) << what;
    auto loaded = LoadCheckpoint(saved.value());
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << what;
  };
  // A truncated row: the last node id is cut in half, then entirely.
  expect_data_loss(good.substr(0, good.size() - 2), "half a node id");
  expect_data_loss(good.substr(0, good.size() - 4), "truncated row");
  // A header cut short.
  expect_data_loss(good.substr(0, 20), "truncated header");
  // Trailing garbage after the declared rows.
  expect_data_loss(good + std::string(4, '\0'), "trailing bytes");

  // A node id ≥ |V|.
  ValidationReport dangling = SampleReport();
  dangling.violations.back() = {3, MatchRow{0, 1, static_cast<NodeId>(
                                                      g.NumNodes())}};
  expect_data_loss(EncodeReportSection(kFingerprint, dangling),
                   "node id out of range");

  // Rows out of order, and a duplicate row.
  ValidationReport unordered = SampleReport();
  std::swap(unordered.violations[0], unordered.violations[1]);
  expect_data_loss(EncodeReportSection(kFingerprint, unordered),
                   "rows out of order");
  ValidationReport duplicate = SampleReport();
  duplicate.violations[1] = duplicate.violations[0];
  expect_data_loss(EncodeReportSection(kFingerprint, duplicate),
                   "duplicate row");

  // A row count larger than the section can hold.
  std::string inflated = good;
  inflated[16] = 0x7f;  // u64 rows, low byte
  inflated[23] = 0x10;  // and high byte
  expect_data_loss(inflated, "row count beyond the section");
}

TEST_F(CheckpointTest, MissingFileIsUnavailable) {
  auto loaded = LoadCheckpoint(dir_ + "/checkpoint-000000000009.ckpt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
}

TEST_F(CheckpointTest, InjectedFailureLeavesNoFinalFile) {
  Graph g = SampleGraph();
  for (const char* fp : {"checkpoint.write", "checkpoint.fsync",
                         "checkpoint.rename"}) {
    failpoints::Enable(fp, FailpointAction::Error());
    auto saved = SaveCheckpoint(g, 9, dir_);
    EXPECT_FALSE(saved.ok()) << fp;
    failpoints::DisableAll();
    EXPECT_TRUE(ListCheckpoints(dir_).empty())
        << fp << " left a visible checkpoint";
    // No tmp litter either.
    auto loaded = LoadCheckpoint(dir_ + "/" + CheckpointFileName(9) + ".tmp");
    EXPECT_FALSE(loaded.ok()) << fp << " left a tmp file";
  }
  // After the faults clear, the same save succeeds.
  auto saved = SaveCheckpoint(g, 9, dir_);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(ListCheckpoints(dir_).size(), 1u);
}

TEST_F(CheckpointTest, ListingSortsByEpochAndGcKeepsNewest) {
  Graph g = SampleGraph();
  for (uint64_t epoch : {30u, 7u, 100u}) {
    ASSERT_TRUE(SaveCheckpoint(g, epoch, dir_).ok());
  }
  auto list = ListCheckpoints(dir_);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].epoch, 7u);
  EXPECT_EQ(list[1].epoch, 30u);
  EXPECT_EQ(list[2].epoch, 100u);

  ASSERT_TRUE(RemoveObsoleteCheckpoints(dir_, 100).ok());
  list = ListCheckpoints(dir_);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].epoch, 100u);
}

}  // namespace
}  // namespace ged
