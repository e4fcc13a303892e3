// Crash-safety tests for the durable incremental validator: WAL-backed
// commits, checkpoint + WAL-suffix recovery (the report seeded from the
// checkpoint, and the full-validation fallback when the checkpoint has no
// report or Σ changed), graceful degradation under injected faults, and
// the headline crash matrix — for every failpoint on the commit and
// checkpoint paths, a forked child crashes there (std::_Exit, no flushes)
// and the parent recovers a report bit-identical to a never-crashed oracle
// at the same commit epoch and to the reference validator (tests/
// reference/, which shares no code with the engine) on the recovered
// graph.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "ged/ged.h"
#include "graph/io.h"
#include "incr/incremental.h"
#include "incr/wal.h"
#include "obs/metrics.h"
#include "reason/validation.h"
#include "reference_compare.h"

namespace ged {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/gedlib_recovery_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

void RemoveTree(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

// Σ: every (x:hub)-[link]->(y:spoke) match is a violation (Y = false), so
// the live report grows deterministically with the workload below.
std::vector<Ged> TestSigma() {
  Pattern q;
  VarId x = q.AddVar("x", "hub");
  VarId y = q.AddVar("y", "spoke");
  q.AddEdge(x, "link", y);
  std::vector<Ged> sigma;
  sigma.emplace_back("forbid_link", std::move(q), std::vector<Literal>{},
                     std::vector<Literal>{}, /*y_is_false=*/true);
  return sigma;
}

// Deterministic workload step i against the current graph: the child and
// the oracle generate byte-identical delta sequences from it.
void RecordStep(GraphDelta* d, const Graph& g, int i) {
  NodeId v = d->AddNode(i % 3 == 0 ? "hub" : "spoke");
  d->SetAttr(v, "idx", Value(int64_t{i}));
  if (i % 4 == 0) d->SetAttr(v, "tag", Value("step-" + std::to_string(i)));
  if (g.NumNodes() > 0) {
    d->AddEdge(v, "link", static_cast<NodeId>((i * 7) % g.NumNodes()));
    if (i % 2 == 1) {
      d->AddEdge(static_cast<NodeId>((i * 3) % g.NumNodes()), "link", v);
    }
  }
}

ValidationOptions DurableOptions(const std::string& dir,
                                 size_t refreeze_cutoff = 4096) {
  ValidationOptions opts;
  opts.durability.dir = dir;
  opts.durability.fsync = DurabilityOptions::Fsync::kEveryCommit;
  opts.overlay_refreeze_cutoff = refreeze_cutoff;
  return opts;
}

// Builds the never-crashed oracle: a fresh (non-durable) validator fed the
// first `epochs` deterministic steps.
std::unique_ptr<IncrementalValidator> BuildOracle(uint64_t epochs) {
  auto v = std::make_unique<IncrementalValidator>(Graph(), TestSigma(),
                                                  ValidationOptions{});
  for (uint64_t i = 0; i < epochs; ++i) {
    GraphDelta d = v->NewDelta();
    RecordStep(&d, v->graph(), static_cast<int>(i));
    EXPECT_TRUE(v->Commit(d).ok());
  }
  return v;
}

void ExpectReportsEqual(const ValidationReport& a, const ValidationReport& b) {
  EXPECT_EQ(a.satisfied, b.satisfied);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.violations, b.violations);
}

// The recovered report against the reference validator run on the
// recovered graph (homomorphism semantics, as every validator here uses).
void ExpectReportMatchesReference(const IncrementalValidator& v) {
  reference::RefReport ref =
      reference::Validate(v.graph(), v.sigma(), /*injective=*/false);
  EXPECT_EQ(RefRows(v.report().violations), ref.violations);
  EXPECT_EQ(v.report().satisfied, ref.violations.empty());
}

// TestSigma plus a rule on the reverse edge direction: the two rules'
// violations differ, so a report seeded under the wrong rule order would
// be visibly wrong.
std::vector<Ged> TwoRuleSigma() {
  std::vector<Ged> sigma = TestSigma();
  Pattern q;
  VarId x = q.AddVar("x", "spoke");
  VarId y = q.AddVar("y", "hub");
  q.AddEdge(x, "link", y);
  sigma.emplace_back("forbid_back_link", std::move(q), std::vector<Literal>{},
                     std::vector<Literal>{}, /*y_is_false=*/true);
  return sigma;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir(); }
  void TearDown() override {
    failpoints::DisableAll();
    RemoveTree(dir_);
  }
  std::string dir_;
};

TEST_F(RecoveryTest, MissingDirectoryIsCleanColdStart) {
  ValidationOptions opts = DurableOptions(dir_ + "/fresh");
  IncrementalValidator::RecoveryStats rs;
  auto v = IncrementalValidator::Recover(TestSigma(), opts, &rs);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_FALSE(rs.from_checkpoint);
  EXPECT_EQ(rs.recovered_epoch, 0u);
  EXPECT_EQ(v.value()->graph().NumNodes(), 0u);
  EXPECT_TRUE(v.value()->durable());
  // The recovered validator serves commits durably right away.
  GraphDelta d = v.value()->NewDelta();
  RecordStep(&d, v.value()->graph(), 0);
  EXPECT_TRUE(v.value()->Commit(d).ok());
  EXPECT_EQ(v.value()->commit_epoch(), 1u);
}

TEST_F(RecoveryTest, CleanShutdownRecoversExactly) {
  constexpr int kSteps = 25;
  {
    auto v = IncrementalValidator::Create(Graph(), TestSigma(),
                                          DurableOptions(dir_));
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    for (int i = 0; i < kSteps; ++i) {
      GraphDelta d = v.value()->NewDelta();
      RecordStep(&d, v.value()->graph(), i);
      ASSERT_TRUE(v.value()->Commit(d).ok());
    }
  }
  IncrementalValidator::RecoveryStats rs;
  auto recovered =
      IncrementalValidator::Recover(TestSigma(), DurableOptions(dir_), &rs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(rs.recovered_epoch, static_cast<uint64_t>(kSteps));
  auto oracle = BuildOracle(kSteps);
  EXPECT_TRUE(recovered.value()->graph() == oracle->graph());
  ExpectReportsEqual(recovered.value()->report(), oracle->report());
}

// One delta of hub/spoke nodes wired among themselves: well past 4096
// nodes + edges.
GraphDelta LargeDelta(const IncrementalValidator& v) {
  GraphDelta d = v.NewDelta();
  std::vector<NodeId> ids;
  for (int i = 0; i < 1400; ++i) {
    ids.push_back(d.AddNode(i % 3 == 0 ? "hub" : "spoke"));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t k = 1; k <= 3; ++k) {
      d.AddEdge(ids[i], "link", ids[(i + 7 * k) % ids.size()]);
    }
  }
  return d;
}

uint64_t FreezeRuns(const MetricsRegistry& registry) {
  return registry.Snapshot()
      .metrics[static_cast<size_t>(EngineMetric::kFreezeRuns)]
      .value;
}

// Create and Recover freeze the graph once: the overlay base is also the
// snapshot the seeding validation reads.
TEST_F(RecoveryTest, CreateAndRecoverFreezeTheGraphOnce) {
  ValidationOptions opts = DurableOptions(dir_, /*refreeze_cutoff=*/0);
  opts.durability.fsync = DurabilityOptions::Fsync::kNone;
  Graph large;
  {
    auto v = IncrementalValidator::Create(Graph(), TestSigma(), opts);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    ASSERT_TRUE(v.value()->Commit(LargeDelta(*v.value())).ok());
    large = v.value()->graph();
  }
  ASSERT_GE(large.Size(), 4096u);

  MetricsRegistry created;
  ValidationOptions plain;
  plain.obs.enabled = true;
  plain.obs.metrics = &created;
  auto v = IncrementalValidator::Create(large, TestSigma(), plain);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(FreezeRuns(created), 1u);

  MetricsRegistry recovered_metrics;
  opts.obs.enabled = true;
  opts.obs.metrics = &recovered_metrics;
  auto recovered = IncrementalValidator::Recover(TestSigma(), opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.value()->graph() == large);
  EXPECT_EQ(FreezeRuns(recovered_metrics), 1u);
  // The report seeded from the overlay base is the full validation's.
  ExpectReportsEqual(recovered.value()->report(),
                     recovered.value()->RevalidateFull());
  ExpectReportsEqual(v.value()->report(), v.value()->RevalidateFull());
}

TEST_F(RecoveryTest, CheckpointPlusSuffixReplay) {
  constexpr int kSteps = 60;
  {
    // Tiny cutoff: several re-freezes run, each piggybacking a checkpoint.
    auto v = IncrementalValidator::Create(Graph(), TestSigma(),
                                          DurableOptions(dir_, 4));
    ASSERT_TRUE(v.ok());
    for (int i = 0; i < kSteps; ++i) {
      GraphDelta d = v.value()->NewDelta();
      RecordStep(&d, v.value()->graph(), i);
      ASSERT_TRUE(v.value()->Commit(d).ok());
    }
    v.value()->FinishRefreeze();
    EXPECT_GT(v.value()->checkpoints_written(), 0u);
  }
  IncrementalValidator::RecoveryStats rs;
  auto recovered = IncrementalValidator::Recover(TestSigma(),
                                                 DurableOptions(dir_), &rs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(rs.from_checkpoint);
  EXPECT_GT(rs.checkpoint_epoch, 0u);
  EXPECT_EQ(rs.recovered_epoch, static_cast<uint64_t>(kSteps));
  // Replay covered only the suffix past the checkpoint.
  EXPECT_EQ(rs.checkpoint_epoch + rs.wal_records_replayed,
            static_cast<uint64_t>(kSteps));
  auto oracle = BuildOracle(kSteps);
  EXPECT_TRUE(recovered.value()->graph() == oracle->graph());
  ExpectReportsEqual(recovered.value()->report(), oracle->report());
}

// Runs `steps` deterministic steps through a durable validator over `dir`
// (re-freeze cutoff 4: checkpoints with reports get written), then
// `suffix` more while checkpoint writes fail, so at least `suffix` WAL
// records lie past the newest checkpoint. Returns the live report and
// stores the final commit epoch.
ValidationReport WriteHistory(const std::string& dir,
                              const std::vector<Ged>& sigma, int steps,
                              int suffix, uint64_t* epoch) {
  auto v = IncrementalValidator::Create(Graph(), sigma, DurableOptions(dir, 4));
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  if (!v.ok()) return {};
  for (int i = 0; i < steps + suffix; ++i) {
    if (i == steps) {
      v.value()->FinishRefreeze();
      EXPECT_GT(v.value()->checkpoints_written(), 0u);
      failpoints::Enable("checkpoint.write", FailpointAction::Error());
    }
    GraphDelta d = v.value()->NewDelta();
    RecordStep(&d, v.value()->graph(), i);
    EXPECT_TRUE(v.value()->Commit(d).ok());
  }
  v.value()->FinishRefreeze();
  failpoints::DisableAll();
  *epoch = v.value()->commit_epoch();
  return v.value()->report();
}

TEST_F(RecoveryTest, ReportSeededFromCheckpointEqualsLiveReport) {
  uint64_t epoch = 0;
  const ValidationReport live =
      WriteHistory(dir_, TestSigma(), /*steps=*/30, /*suffix=*/6, &epoch);
  IncrementalValidator::RecoveryStats rs;
  auto recovered =
      IncrementalValidator::Recover(TestSigma(), DurableOptions(dir_), &rs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const IncrementalValidator& v = *recovered.value();
  EXPECT_TRUE(rs.from_checkpoint);
  EXPECT_TRUE(rs.report_from_checkpoint);
  EXPECT_GT(rs.report_rows_loaded, 0u);
  EXPECT_GE(rs.wal_records_replayed, 6u);
  EXPECT_EQ(rs.recovered_epoch, epoch);
  EXPECT_EQ(v.commit_epoch(), epoch);

  // Field for field, matches_checked included: the checkpoint's count plus
  // the replayed suffix's incremental work.
  EXPECT_EQ(v.report().violations, live.violations);
  EXPECT_EQ(v.report().satisfied, live.satisfied);
  EXPECT_EQ(v.report().matches_checked, live.matches_checked);
  EXPECT_EQ(v.report().aborted_geds, live.aborted_geds);
  ExpectReportsEqual(v.report(), v.RevalidateFull());
  ExpectReportMatchesReference(v);

  // Replayed records are neither commits nor appended again.
  EXPECT_EQ(v.last_commit().commits, 0u);
  EXPECT_EQ(v.wal()->stats().appends, 0u);

  // The recovered validator keeps committing exactly.
  GraphDelta d = recovered.value()->NewDelta();
  RecordStep(&d, v.graph(), static_cast<int>(epoch));
  ASSERT_TRUE(recovered.value()->Commit(d).ok());
  EXPECT_EQ(v.last_commit().commits, 1u);
  ExpectReportsEqual(v.report(), v.RevalidateFull());
}

TEST_F(RecoveryTest, ChangedSigmaFallsBackToFullValidation) {
  uint64_t epoch = 0;
  WriteHistory(dir_, TwoRuleSigma(), /*steps=*/30, /*suffix=*/4, &epoch);

  std::vector<Ged> reordered = TwoRuleSigma();
  std::swap(reordered[0], reordered[1]);
  std::vector<Ged> edited = TwoRuleSigma();
  edited[1] = Ged("forbid_back_link", edited[1].pattern(),
                  {Literal::Const(0, Sym("idx"), Value(int64_t{1}))}, {},
                  /*y_is_false=*/true);
  for (const std::vector<Ged>* sigma : {&reordered, &edited}) {
    SCOPED_TRACE(sigma == &reordered ? "reordered" : "edited");
    IncrementalValidator::RecoveryStats rs;
    auto recovered =
        IncrementalValidator::Recover(*sigma, DurableOptions(dir_), &rs);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(rs.from_checkpoint);
    EXPECT_FALSE(rs.report_from_checkpoint);
    EXPECT_EQ(rs.report_rows_loaded, 0u);
    EXPECT_EQ(rs.recovered_epoch, epoch);
    EXPECT_FALSE(recovered.value()->report().violations.empty());
    ExpectReportsEqual(recovered.value()->report(),
                       recovered.value()->RevalidateFull());
    ExpectReportMatchesReference(*recovered.value());
  }

  // The unchanged Σ still takes the seeded path.
  IncrementalValidator::RecoveryStats rs;
  auto recovered =
      IncrementalValidator::Recover(TwoRuleSigma(), DurableOptions(dir_), &rs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(rs.report_from_checkpoint);
  ExpectReportMatchesReference(*recovered.value());
}

TEST_F(RecoveryTest, CheckpointWithoutReportSectionRecoversExactly) {
  constexpr int kSteps = 20;
  constexpr uint64_t kCheckpointEpoch = 12;
  {
    // Cutoff 0: no re-freeze, so no checkpoint; the WAL holds every step.
    auto v = IncrementalValidator::Create(Graph(), TestSigma(),
                                          DurableOptions(dir_, 0));
    ASSERT_TRUE(v.ok());
    for (int i = 0; i < kSteps; ++i) {
      GraphDelta d = v.value()->NewDelta();
      RecordStep(&d, v.value()->graph(), i);
      ASSERT_TRUE(v.value()->Commit(d).ok());
    }
  }
  // A checkpoint without section 4, as a writer that predates it encodes
  // one: three sections, the graph only.
  auto saved = SaveCheckpoint(BuildOracle(kCheckpointEpoch)->graph(),
                              kCheckpointEpoch, dir_);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();

  IncrementalValidator::RecoveryStats rs;
  auto recovered =
      IncrementalValidator::Recover(TestSigma(), DurableOptions(dir_), &rs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(rs.from_checkpoint);
  EXPECT_EQ(rs.checkpoint_epoch, kCheckpointEpoch);
  EXPECT_FALSE(rs.report_from_checkpoint);
  EXPECT_EQ(rs.wal_records_replayed, kSteps - kCheckpointEpoch);
  auto oracle = BuildOracle(kSteps);
  EXPECT_TRUE(recovered.value()->graph() == oracle->graph());
  ExpectReportsEqual(recovered.value()->report(), oracle->report());
  ExpectReportMatchesReference(*recovered.value());
}

TEST_F(RecoveryTest, WalFailureRejectsCommitAndLeavesStateUntouched) {
  auto v = IncrementalValidator::Create(Graph(), TestSigma(),
                                        DurableOptions(dir_));
  ASSERT_TRUE(v.ok());
  for (int i = 0; i < 5; ++i) {
    GraphDelta d = v.value()->NewDelta();
    RecordStep(&d, v.value()->graph(), i);
    ASSERT_TRUE(v.value()->Commit(d).ok());
  }
  const Graph graph_before = v.value()->graph();
  const ValidationReport report_before = v.value()->report();
  const uint64_t epoch_before = v.value()->commit_epoch();

  failpoints::Enable("wal.append.write", FailpointAction::Error());
  GraphDelta d = v.value()->NewDelta();
  RecordStep(&d, v.value()->graph(), 5);
  auto r = v.value()->Commit(d);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(v.value()->graph() == graph_before);
  ExpectReportsEqual(v.value()->report(), report_before);
  EXPECT_EQ(v.value()->commit_epoch(), epoch_before);
  EXPECT_GE(v.value()->wal()->stats().failures, 1u);

  // The cause clears; the very same delta commits (same epoch stamp).
  failpoints::DisableAll();
  ASSERT_TRUE(v.value()->Commit(d).ok());
  EXPECT_EQ(v.value()->commit_epoch(), epoch_before + 1);
}

TEST_F(RecoveryTest, RefreezeFailureDegradesAndRecovers) {
  ValidationOptions opts;  // durability not needed for this one
  opts.overlay_refreeze_cutoff = 4;
  auto v = IncrementalValidator::Create(Graph(), TestSigma(), opts);
  ASSERT_TRUE(v.ok());

  failpoints::Enable("refreeze.worker", FailpointAction::Error());
  int i = 0;
  while (v.value()->last_commit().refreezes_started == 0) {
    GraphDelta d = v.value()->NewDelta();
    RecordStep(&d, v.value()->graph(), i++);
    ASSERT_TRUE(v.value()->Commit(d).ok());
    ASSERT_LT(i, 64) << "re-freeze never started";
  }
  // Adoption of the failed worker must not crash or wedge: serving
  // continues on the current overlay, the failure is counted.
  EXPECT_FALSE(v.value()->FinishRefreeze());
  EXPECT_FALSE(v.value()->RefreezeInFlight());
  EXPECT_EQ(v.value()->last_commit().refreezes_failed, 1u);
  EXPECT_EQ(v.value()->overlay_epoch(), 0u);
  ExpectReportsEqual(v.value()->report(), v.value()->RevalidateFull());

  // Fault cleared: after the capped backoff, the next re-freeze succeeds
  // and the overlay advances to a fresh base epoch.
  failpoints::DisableAll();
  uint64_t started = v.value()->last_commit().refreezes_started;
  while (v.value()->last_commit().refreezes_started == started) {
    GraphDelta d = v.value()->NewDelta();
    RecordStep(&d, v.value()->graph(), i++);
    ASSERT_TRUE(v.value()->Commit(d).ok());
    ASSERT_LT(i, 128) << "re-freeze never retried after backoff";
  }
  EXPECT_TRUE(v.value()->FinishRefreeze());
  EXPECT_EQ(v.value()->overlay_epoch(), 1u);
  EXPECT_EQ(v.value()->last_commit().refreezes_failed, 1u);
  ExpectReportsEqual(v.value()->report(), v.value()->RevalidateFull());
}

TEST_F(RecoveryTest, CheckpointFailureIsNonFatal) {
  auto v = IncrementalValidator::Create(Graph(), TestSigma(),
                                        DurableOptions(dir_, 4));
  ASSERT_TRUE(v.ok());
  failpoints::Enable("checkpoint.write", FailpointAction::Error());
  for (int i = 0; i < 30; ++i) {
    GraphDelta d = v.value()->NewDelta();
    RecordStep(&d, v.value()->graph(), i);
    ASSERT_TRUE(v.value()->Commit(d).ok());
  }
  v.value()->FinishRefreeze();
  EXPECT_GT(v.value()->checkpoint_failures(), 0u);
  EXPECT_EQ(v.value()->checkpoints_written(), 0u);
  failpoints::DisableAll();

  // The WAL alone still recovers everything.
  const uint64_t epoch = v.value()->commit_epoch();
  v.value().reset();  // release the WAL before recovering from the dir
  IncrementalValidator::RecoveryStats rs;
  auto recovered = IncrementalValidator::Recover(TestSigma(),
                                                 DurableOptions(dir_), &rs);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(rs.from_checkpoint);
  EXPECT_EQ(rs.recovered_epoch, epoch);
  auto oracle = BuildOracle(epoch);
  EXPECT_TRUE(recovered.value()->graph() == oracle->graph());
  ExpectReportsEqual(recovered.value()->report(), oracle->report());
}

// ----- the crash matrix -----------------------------------------------------

struct CrashCase {
  const char* failpoint;
  uint64_t nth;           // armed hit to crash on
  size_t refreeze_cutoff; // small => checkpoints happen
  int commits;
};

// Child body: build a durable validator over `dir`, arm the crash, run the
// deterministic workload. Exit codes: 42 = injected crash (expected),
// 0 = the failpoint never fired, 3/4 = setup/commit failure.
int CrashChild(const std::string& dir, const CrashCase& c) {
  ValidationOptions opts = DurableOptions(dir, c.refreeze_cutoff);
  if (c.refreeze_cutoff < 4096) {
    // Keep WAL segments small too, so rotation-path points get exercised.
    opts.durability.wal_segment_bytes = 512;
  }
  auto v = IncrementalValidator::Create(Graph(), TestSigma(), opts);
  if (!v.ok()) return 3;
  // Arm only after construction so the crash hits mid-stream, not during
  // the WAL open of a fresh validator.
  failpoints::Enable(c.failpoint, FailpointAction::Crash().OnNthHit(c.nth));
  for (int i = 0; i < c.commits; ++i) {
    GraphDelta d = v.value()->NewDelta();
    RecordStep(&d, v.value()->graph(), i);
    if (!v.value()->Commit(d).ok()) return 4;
  }
  // Block on any in-flight re-freeze: a worker headed for a checkpoint
  // failpoint crashes the process during this join.
  v.value()->FinishRefreeze();
  return 0;
}

TEST_F(RecoveryTest, CrashMatrixRecoversBitIdenticalReports) {
  const CrashCase kMatrix[] = {
      // Commit path: crash before, inside, and after the WAL write.
      {"wal.append.write", 8, 4096, 20},
      {"wal.append.mid_write", 8, 4096, 20},
      {"wal.append.fsync", 8, 4096, 20},
      {"commit.wal_appended", 8, 4096, 20},
      // Segment rotation (small segments force it).
      {"wal.rotate.open", 1, 16, 40},
      // Checkpoint path: crash while writing, syncing, renaming.
      {"checkpoint.write", 1, 8, 40},
      {"checkpoint.fsync", 1, 8, 40},
      {"checkpoint.rename", 1, 8, 40},
      // The same windows once earlier checkpoints (with their reports)
      // exist: recovery seeds the report and replays the WAL suffix.
      {"wal.append.mid_write", 30, 8, 40},
      {"commit.wal_appended", 30, 8, 40},
      {"checkpoint.write", 3, 8, 40},
      {"checkpoint.rename", 3, 8, 40},
  };
  int seeded = 0, fallback = 0;
  for (const CrashCase& c : kMatrix) {
    SCOPED_TRACE(std::string(c.failpoint) + " #" + std::to_string(c.nth));
    std::string dir =
        dir_ + "/" + c.failpoint + "-" + std::to_string(c.nth);

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      _exit(CrashChild(dir, c));
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), kFailpointCrashExitCode)
        << "child did not crash at the failpoint (exit "
        << WEXITSTATUS(wstatus) << ")";

    IncrementalValidator::RecoveryStats rs;
    auto recovered = IncrementalValidator::Recover(
        TestSigma(), DurableOptions(dir), &rs);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

    // The oracle never crashed: it simply ran the first `recovered_epoch`
    // steps. Reports must match bit-for-bit.
    auto oracle = BuildOracle(rs.recovered_epoch);
    EXPECT_TRUE(recovered.value()->graph() == oracle->graph());
    ExpectReportsEqual(recovered.value()->report(), oracle->report());
    // A report seeded from a checkpoint carries the incremental work count
    // the never-crashed process accumulated.
    if (rs.report_from_checkpoint) {
      EXPECT_EQ(recovered.value()->report().matches_checked,
                oracle->report().matches_checked);
    }
    ++(rs.report_from_checkpoint ? seeded : fallback);
    // And the reference validator, which shares no code with the engine,
    // agrees on the recovered graph.
    ExpectReportMatchesReference(*recovered.value());

    // And the recovered validator still serves durable commits.
    GraphDelta d = recovered.value()->NewDelta();
    RecordStep(&d, recovered.value()->graph(),
               static_cast<int>(rs.recovered_epoch));
    EXPECT_TRUE(recovered.value()->Commit(d).ok());
  }
  // The matrix covers both restart paths.
  EXPECT_GT(seeded, 0);
  EXPECT_GT(fallback, 0);
}

}  // namespace
}  // namespace ged
