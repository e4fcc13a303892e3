// ingest and recover: the write path and the restart path of an
// IncrementalValidator with durability on (fsync every commit, overlay
// commits, background re-freeze with checkpoints — all defaults).
//
// ingest  — episodes. Seed a validator from a GenCardsBase graph, then
//           commit CARDS release waves (16 new revisions each, plus two
//           late dependencies between existing revisions, which take the
//           edge-seeded re-scan). One operation is delta construction plus
//           Commit. Each episode ends with FinishRefreeze() and a check
//           that the live report equals RevalidateFull().
// recover — set-up commits one episode and drops the validator (a
//           simulated restart). One operation is IncrementalValidator::
//           Recover on a fresh copy of that directory; its report must
//           equal the live report from before the restart.
//
// Traced ingest replays every commit through the public building blocks in
// the order Commit runs them — delta Check, WAL append, mutable apply,
// overlay apply, retract, touching scan, edge-seeded scan, reconcile — on
// a shadow graph, overlay and WAL of its own, re-freezing (and
// checkpointing) synchronously when the overlay passes the same cutoff, and
// asserts the shadow report equals the validator's after every commit.
// Traced recover splits a restart into checkpoint load, WAL replay and the
// validator construction (plan, freeze, full validation), and replays the
// validation layers on the recovered graph.

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "gen/scenarios.h"
#include "graph/io.h"
#include "graph/overlay.h"
#include "harness.h"
#include "incr/delta.h"
#include "incr/incremental.h"
#include "incr/wal.h"
#include "plan/plan.h"
#include "reason/validation.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ged;
namespace fs = std::filesystem;

constexpr size_t kRevisionsPerWave = 16;
constexpr size_t kLateDepsPerWave = 2;

struct IngestParams {
  CardsParams cards;
  size_t waves = 0;  // commits per episode
  size_t refreeze_cutoff = ValidationOptions{}.overlay_refreeze_cutoff;
};

// Inputs of instance `i` of a run (an ingest episode, a recover instance).
IngestParams Params(const Options& o, uint64_t i) {
  IngestParams p;
  p.cards.num_packages = o.tiny() ? 16 : 64;
  p.cards.revisions_per_package = o.tiny() ? 4 : 8;
  p.cards.deps_per_revision = o.tiny() ? 4 : 8;
  p.cards.core_packages = o.tiny() ? 4 : 8;
  p.cards.off_license = 6;
  p.cards.seed = SubSeed(o.seed, i);
  p.waves = o.tiny() ? 8 : 12;
  // Tiny graphs never outgrow the default cutoff; a smaller one still
  // exercises re-freeze and checkpoints.
  if (o.tiny()) p.refreeze_cutoff = 256;
  return p;
}

Graph WithHeadroom(const Graph& base) {
  Graph g = base;
  g.Reserve(base.NumNodes() * 2, base.NumEdges() * 2);
  return g;
}

ValidationOptions DurableOptions(const IngestParams& p, const std::string& dir) {
  ValidationOptions opts;
  opts.overlay_refreeze_cutoff = p.refreeze_cutoff;
  opts.durability.dir = dir;
  return opts;
}

// A CARDS release wave: new revisions of random packages, each depending
// on several heavily shared core revisions, plus late dependencies added
// between already existing revisions. One new revision in eight carries the
// deviant "gpl" license — by position, not by draw, so the live report's
// size does not swing with the seed.
GraphDelta MakeRelease(const IncrementalValidator& v, const IngestParams& p,
                       const CardsInstance& cards, std::mt19937_64* rng) {
  static const Label kRevision = Sym("revision"),
                     kHasRevision = Sym("has_revision"),
                     kDependsOn = Sym("depends_on");
  static const AttrId kLicense = Sym("license");
  const CardsParams& cp = p.cards;
  const size_t packages = cards.packages.size();
  const size_t core_revs = cp.core_packages * cp.revisions_per_package;
  GraphDelta d = v.NewDelta();
  for (size_t i = 0; i < kRevisionsPerWave; ++i) {
    NodeId rev = d.AddNode(kRevision);
    d.SetAttr(rev, kLicense, i % 8 == 0 ? Value("gpl") : Value("mit"));
    d.AddEdge(cards.packages[(*rng)() % packages], kHasRevision, rev);
    for (size_t k = 0; k < cp.deps_per_revision; ++k) {
      d.AddEdge(rev, kDependsOn,
                static_cast<NodeId>(packages + (*rng)() % core_revs));
    }
  }
  const size_t existing = v.graph().NumNodes() - packages;
  for (size_t j = 0; j < kLateDepsPerWave; ++j) {
    NodeId src = static_cast<NodeId>(packages + (*rng)() % existing);
    NodeId dst = static_cast<NodeId>(packages + (*rng)() % core_revs);
    if (src != dst) d.AddEdge(src, kDependsOn, dst);
  }
  return d;
}

constexpr uint64_t kRecoverInstances = 3;

std::mt19937_64 EpisodeRng(const Options& o, uint64_t episode) {
  return std::mt19937_64(o.seed * 1000003ULL + episode);
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

struct Episode {
  CardsInstance cards;
  std::unique_ptr<IncrementalValidator> v;
};

// Generates the base graph and seeds a durable validator in `dir`.
Episode SeedEpisode(const IngestParams& p, const std::string& dir,
                    Outcome* r) {
  ResetDir(dir);
  Episode e;
  e.cards = GenCardsBase(p.cards);
  Result<std::unique_ptr<IncrementalValidator>> v = IncrementalValidator::Create(
      WithHeadroom(e.cards.graph), CardsGeds(), DurableOptions(p, dir));
  if (v.ok()) {
    e.v = std::move(v.value());
  } else {
    r->Check(false, "validator seed failed: " + v.status().ToString());
  }
  return e;
}

// ----- the shadow commit path of the traced ingest run ------------------------

class Shadow {
 public:
  Shadow(const Graph& base, const std::vector<Ged>& sigma,
         const IngestParams& p, const std::string& dir)
      : graph_(WithHeadroom(base)),
        plan_(RulesetPlan::Compile(sigma)),
        cutoff_(p.refreeze_cutoff),
        dir_(dir) {
    overlay_ = OverlayView(
        std::make_shared<FrozenGraph>(FrozenGraph::Freeze(graph_)), 0);
    report_ = ValidateWithPlan(graph_, plan_).violations;
    ResetDir(dir);
    DurabilityOptions d;
    d.dir = dir;
    Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(d);
    if (wal.ok()) wal_ = std::move(wal.value());
  }

  bool ok() const { return wal_ != nullptr && ok_; }
  const std::vector<Violation>& report() const { return report_; }
  uint64_t wal_bytes() const { return wal_ ? wal_->stats().bytes : 0; }
  uint64_t checkpoint_bytes() const { return checkpoint_bytes_; }

  // One commit, stage by stage, in the order Commit runs them.
  void Commit(const GraphDelta& d, SpanLog* log) {
    {
      Span s(log, "incr.delta_check");
      ok_ &= d.Check(graph_).ok();
    }
    {
      Span s(log, "wal.append");
      ok_ &= wal_->Append(d, epoch_ + 1).ok();
    }
    GraphDelta::Applied ap;
    {
      Span s(log, "graph.mutable_apply");
      Result<GraphDelta::Applied> applied = d.Apply(&graph_);
      ok_ &= applied.ok();
      if (applied.ok()) ap = std::move(applied.value());
    }
    {
      Span s(log, "graph.overlay_apply");
      ok_ &= d.Apply(&overlay_).ok();
    }
    ++epoch_;
    {
      Span s(log, "incr.reconcile");
      EraseViolationsTouching(&report_, ap.changed_nodes);
    }
    std::vector<NodeId> rescan;
    std::merge(ap.changed_nodes.begin(), ap.changed_nodes.end(),
               ap.new_nodes.begin(), ap.new_nodes.end(),
               std::back_inserter(rescan));
    std::vector<Violation> fresh;
    {
      Span s(log, "incr.touching_scan");
      fresh = ValidateTouchingWithPlan(overlay_, plan_, rescan, opts_)
                  .violations;
    }
    if (!ap.cross_edges.empty()) {
      Span s(log, "incr.edge_seeded_scan");
      uint64_t checked = 0;
      std::vector<Violation> seeded = FindViolationsSeededByEdgesWithPlan(
          overlay_, plan_, ap.cross_edges, opts_, &checked);
      fresh.insert(fresh.end(), std::make_move_iterator(seeded.begin()),
                   std::make_move_iterator(seeded.end()));
    }
    {
      Span s(log, "incr.reconcile");
      SortViolationList(&fresh);
      fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
      std::vector<Violation> novel;
      std::set_difference(fresh.begin(), fresh.end(), report_.begin(),
                          report_.end(), std::back_inserter(novel),
                          ViolationLess);
      MergeViolations(&report_, std::move(novel));
    }
    if (cutoff_ > 0 && overlay_.DeltaWeight() >= cutoff_) Refreeze(log);
  }

 private:
  // What the validator's background thread does, done in line.
  void Refreeze(SpanLog* log) {
    std::shared_ptr<FrozenGraph> base;
    {
      Span s(log, "graph.refreeze");
      base = std::make_shared<FrozenGraph>(FrozenGraph::Freeze(overlay_));
    }
    {
      Span s(log, "io.checkpoint_save");
      Result<std::string> saved = SaveCheckpoint(*base, epoch_, dir_);
      ok_ &= saved.ok();
      std::error_code ec;
      if (saved.ok()) checkpoint_bytes_ += fs::file_size(saved.value(), ec);
    }
    overlay_ = OverlayView(std::move(base), overlay_.epoch() + 1);
  }

  Graph graph_;
  OverlayView overlay_;
  RulesetPlan plan_;
  ValidationOptions opts_;
  std::vector<Violation> report_;
  std::unique_ptr<WalWriter> wal_;
  size_t cutoff_;
  std::string dir_;
  uint64_t epoch_ = 0;
  uint64_t checkpoint_bytes_ = 0;
  bool ok_ = true;
};

double SumMs(const std::vector<double>& v) {
  double t = 0;
  for (double x : v) t += x;
  return t;
}

}  // namespace

Outcome RunIngest(const Options& o) {
  Outcome r;
  r.context["fsync"] = FsyncPolicyName(DurabilityOptions::Fsync::kEveryCommit);
  r.context["waves_per_episode"] = std::to_string(Params(o, 0).waves);
  const std::string dir = o.work_dir + "/ingest-" + std::to_string(o.seed);
  const std::string shadow_dir = dir + "-shadow";
  if (o.trace) ZeroAllLayerMetrics(&r);

  SetupTimer setup;  // each episode's set-up is one sample
  std::vector<double> commit_ms;
  SpanLog log;
  uint64_t episodes = RunFor(o.seconds, 3, [&](uint64_t episode) {
    const IngestParams p = Params(o, episode);
    Episode e = setup.Time([&] { return SeedEpisode(p, dir, &r); });
    if (!e.v) return;
    IncrementalValidator& v = *e.v;
    std::optional<Shadow> shadow;
    if (o.trace) shadow.emplace(e.cards.graph, v.sigma(), p, shadow_dir);
    std::mt19937_64 rng = EpisodeRng(o, episode);
    for (size_t w = 0; w < p.waves; ++w) {
      if (!o.trace) {
        int64_t t0 = NowNs();
        GraphDelta d = MakeRelease(v, p, e.cards, &rng);
        Result<GraphDelta::Applied> applied = v.Commit(d);
        commit_ms.push_back(NsToMs(NowNs() - t0));
        r.Check(applied.ok(), "commit rejected: " + applied.status().ToString());
        continue;
      }
      log.BeginOp();
      std::optional<GraphDelta> d;
      {
        Span s(&log, "op.make_delta");
        d.emplace(MakeRelease(v, p, e.cards, &rng));
      }
      bool ok;
      {
        Span s(&log, "op.commit");
        ok = v.Commit(*d).ok();
      }
      shadow->Commit(*d, &log);
      r.Check(ok && shadow->ok() && shadow->report() == v.report().violations,
              "shadow commit report differs from the validator's");
    }
    v.FinishRefreeze();
    r.Check(v.report().violations == v.RevalidateFull().violations,
            "live report differs from RevalidateFull()");
    if (episode == 0) {
      const IncrementalValidator::CommitStats& st = v.last_commit();
      r.deterministic["incr.matches_checked"] = st.total_matches_checked;
      r.deterministic["wal.bytes"] = v.wal()->stats().bytes;
      if (o.trace) {
        r.Set("incr.touched", static_cast<double>(st.total_touched), "count");
        r.Set("incr.retracted", static_cast<double>(st.total_retracted),
              "count");
        r.Set("incr.added", static_cast<double>(st.total_added), "count");
        r.Set("incr.matches_checked",
              static_cast<double>(st.total_matches_checked), "count");
        r.Set("incr.live_violations",
              static_cast<double>(v.report().violations.size()), "count");
        r.Set("wal.bytes", static_cast<double>(v.wal()->stats().bytes),
              "count");
        r.Set("wal.fsyncs", static_cast<double>(v.wal()->stats().fsyncs),
              "count");
        const double wal = static_cast<double>(shadow->wal_bytes());
        r.Set("io.write_amplification",
              wal > 0 ? (wal + static_cast<double>(shadow->checkpoint_bytes())) /
                            wal
                      : 0,
              "ratio");
      }
    }
    e.v.reset();
    ResetDir(dir);
    ResetDir(shadow_dir);
  });
  r.context["episodes"] = std::to_string(episodes);

  if (!o.trace) {
    r.Set("setup_s", setup.MedianSeconds(), "s");
    SetLatencyMetrics(&r, commit_ms);
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
    return r;
  }
  static const char* kStages[] = {
      "incr.delta_check", "wal.append",         "graph.mutable_apply",
      "graph.overlay_apply", "incr.touching_scan", "incr.edge_seeded_scan",
      "incr.reconcile"};
  double stage_total = 0;
  for (const char* stage : kStages) {
    std::vector<double> per_op = log.PerOpMs(stage);
    stage_total += SumMs(per_op);
    r.Set(std::string(stage) + "_ms", Median(per_op), "ms");
  }
  const double commit_total = SumMs(log.DurationsMs("op.commit"));
  const double share = commit_total > 0 ? stage_total / commit_total : 0;
  r.Set("incr.commit_unattributed_share", 1 - share, "ratio");
  r.Set("trace.coverage", share, "ratio");
  r.Set("graph.refreeze_ms", Median(log.DurationsMs("graph.refreeze")), "ms");
  r.Set("io.checkpoint_save_ms",
        Median(log.DurationsMs("io.checkpoint_save")), "ms");
  r.context["op_ms_p50_traced"] =
      std::to_string(Median(log.DurationsMs("op.commit")));
  WriteTrace(o, log, &r);
  return r;
}

Outcome RunRecover(const Options& o) {
  Outcome r;
  r.context["fsync"] = FsyncPolicyName(DurabilityOptions::Fsync::kEveryCommit);
  const std::string base = o.work_dir + "/recover-" + std::to_string(o.seed);
  const std::string dir = base + "-restart";
  const std::string scratch = base + "-setup";  // throwaway set-up repeats

  // Set-up: per instance, one committed episode, then the simulated
  // restart. Operations cycle through the instances.
  struct Prepared {
    std::string dir;
    std::vector<Violation> live;
    uint64_t epoch = 0;
    uint64_t checkpoints = 0;
  };
  auto prepare = [&](const std::string& at) {
    std::vector<Prepared> states;
    for (uint64_t i = 0; i < kRecoverInstances; ++i) {
      const IngestParams p = Params(o, i);
      Prepared state;
      state.dir = at + "-" + std::to_string(i);
      Episode e = SeedEpisode(p, state.dir, &r);
      if (!e.v) return states;
      std::mt19937_64 rng = EpisodeRng(o, i);
      for (size_t w = 0; w < p.waves; ++w) {
        if (!e.v->Commit(MakeRelease(*e.v, p, e.cards, &rng)).ok()) {
          r.Check(false, "set-up commit rejected");
        }
      }
      e.v->FinishRefreeze();
      state.live = e.v->report().violations;
      state.epoch = e.v->commit_epoch();
      state.checkpoints = e.v->checkpoints_written();
      states.push_back(std::move(state));
    }
    return states;
  };
  SetupTimer setup;
  const std::vector<Prepared> states = setup.Time([&] { return prepare(base); });
  for (const Prepared& s : states) {
    // Without a checkpoint the seeded base graph is not durable, so a
    // restart could not reproduce the live report.
    r.Check(s.checkpoints > 0, "set-up wrote no checkpoint");
    r.context["live_violations"] += std::to_string(s.live.size()) + " ";
  }
  if (states.size() != kRecoverInstances) return r;

  const IngestParams p = Params(o, 0);
  const std::vector<Ged> sigma = CardsGeds();
  auto fresh_copy = [&](const Prepared& s) {
    ResetDir(dir);
    std::error_code ec;
    fs::copy(s.dir, dir, fs::copy_options::recursive, ec);
  };
  auto check = [&](const Result<std::unique_ptr<IncrementalValidator>>& v,
                   const IncrementalValidator::RecoveryStats& rs,
                   const Prepared& s) {
    bool ok = v.ok() && rs.from_checkpoint &&
              v.value()->commit_epoch() == s.epoch &&
              v.value()->report().violations == s.live;
    r.Check(ok, v.ok() ? "recovered report differs from the live report"
                       : "recover failed: " + v.status().ToString());
  };
  auto cleanup = [&] {
    for (uint64_t i = 0; i < kRecoverInstances; ++i) {
      ResetDir(base + "-" + std::to_string(i));
      ResetDir(scratch + "-" + std::to_string(i));
    }
    ResetDir(dir);
  };

  if (!o.trace) {
    std::vector<double> ms;
    RunFor(o.seconds, o.tiny() ? 3 : 100, [&](uint64_t iter) {
      setup.RepeatEvery(iter, 40, [&] { return prepare(scratch); });
      const Prepared& s = states[iter % kRecoverInstances];
      fresh_copy(s);
      IncrementalValidator::RecoveryStats rs;
      int64_t t0 = NowNs();
      Result<std::unique_ptr<IncrementalValidator>> v =
          IncrementalValidator::Recover(sigma, DurableOptions(p, dir), &rs);
      ms.push_back(NsToMs(NowNs() - t0));
      check(v, rs, s);
    });
    SetLatencyMetrics(&r, ms);
    r.Set("setup_s", setup.MedianSeconds(), "s");
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
    cleanup();
    return r;
  }

  ZeroAllLayerMetrics(&r);
  SpanLog log;
  LayerProbe first;
  uint64_t replayed = 0;
  RunFor(o.seconds, o.tiny() ? 2 : 5, [&](uint64_t iter) {
    const Prepared& state = states[iter % kRecoverInstances];
    fresh_copy(state);
    log.BeginOp();
    IncrementalValidator::RecoveryStats rs;
    {
      Span s(&log, "op.recover");
      Result<std::unique_ptr<IncrementalValidator>> v =
          IncrementalValidator::Recover(sigma, DurableOptions(p, dir), &rs);
      s.End();
      check(v, rs, state);
    }
    // The same restart, call by call (read-only on the directory).
    std::vector<CheckpointInfo> ckpts = ListCheckpoints(dir);
    if (ckpts.empty()) return;
    Graph g;
    {
      Span s(&log, "io.checkpoint_load");
      Result<Checkpoint> loaded = LoadCheckpoint(dir + "/" + ckpts.back().name);
      if (loaded.ok()) g = std::move(loaded.value().graph);
    }
    uint64_t records = 0;
    {
      Span s(&log, "wal.replay");
      Result<WalReplayStats> rep = ReplayWal(
          dir, ckpts.back().epoch, [&g](uint64_t, const GraphDelta& d) {
            Result<GraphDelta::Applied> a = d.Apply(&g);
            return a.ok() ? Status::OK() : a.status();
          });
      if (rep.ok()) records = rep.value().records_replayed;
    }
    {
      Span s(&log, "recover.validate");
      IncrementalValidator rebuilt(g, sigma, ValidationOptions{});
      s.End();
      r.Check(rebuilt.report().violations == state.live,
              "replayed state's report differs from the live report");
    }
    LayerProbe probe = ProbeValidationLayers(g, sigma, &log);
    if (iter == 0) {
      replayed = records;
      first = std::move(probe);
    }
  });
  const double op = Median(log.DurationsMs("op.recover"));
  const double load = Median(log.DurationsMs("io.checkpoint_load"));
  const double replay = Median(log.DurationsMs("wal.replay"));
  const double validate = Median(log.DurationsMs("recover.validate"));
  SetValidationLayerMetrics(log, first, &r);
  r.Set("io.checkpoint_load_ms", load, "ms");
  r.Set("wal.replay_ms", replay, "ms");
  r.Set("recover.validate_ms", validate, "ms");
  r.Set("recover.wal_records_replayed", static_cast<double>(replayed), "count");
  r.Set("trace.coverage", op > 0 ? (load + replay + validate) / op : 0,
        "ratio");
  r.context["op_ms_p50_traced"] = std::to_string(op);
  WriteTrace(o, log, &r);
  cleanup();
  return r;
}

}  // namespace perfbench
