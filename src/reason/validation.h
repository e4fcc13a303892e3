// Validation G ⊨ Σ (paper §5.3).
//
// The basis of inconsistency detection, spam detection and entity checks:
// find violations of GEDs in a graph. coNP-complete in combined complexity
// (Theorem 6, NP-hard to refute already for one GFDx), but PTIME for
// patterns of bounded size k (§5.3 "Tractable cases") — which covers
// real-life patterns (98% of SPARQL patterns have ≤ 4 nodes / 5 edges).
//
// Validate() checks X → Y over the homomorphic matches of Σ's patterns.
// Σ is compiled into a shared plan (plan/plan.h): rules with isomorphic
// patterns are bucketed into one batched enumeration with per-rule
// condition callbacks, so a multi-rule Σ over few pattern shapes pays one
// match-space walk per shape instead of one per rule. Reports are checked
// against a naive, test-only reference validator (tests/reference/) that
// shares no matcher, plan or literal code with this engine. The paper's
// future-work item "parallel scalable algorithms" is implemented as a
// thread pool partitioning the candidate bindings of one pattern variable —
// the most selective one, by the label-index statistics of graph/.
//
// Every scan reads one of the two backends of graph/view.h. Validate on a
// mutable Graph compiles it once into an immutable FrozenGraph CSR snapshot
// (graph/frozen.h), and all workers scan its contiguous arrays; callers that
// validate one graph many times freeze it themselves and pass the snapshot.
// The incremental building blocks below scan the OverlayView
// (graph/overlay.h) IncrementalValidator serves commits through. Every path
// produces the same sorted report.

#ifndef GEDLIB_REASON_VALIDATION_H_
#define GEDLIB_REASON_VALIDATION_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "ged/ged.h"
#include "graph/graph.h"
#include "match/matcher.h"
#include "plan/plan.h"
#include "reason/policy.h"

namespace ged {

/// One report row: the binding h(x̄) of a violating match, in the rule's own
/// variable order (row[x] = h(x)). A value type with no per-row heap
/// allocation for patterns of up to kInlineCapacity variables — the
/// practical regime of §5.3 — whose ids are stored inside the object; a
/// wider row spills to one heap block of exactly size() ids. Rows are
/// immutable once built. Read one by index or as a std::span<const NodeId>
/// (IsValidMatch takes one); there is deliberately no conversion back to
/// Match, so no allocation can hide in reading a report.
class MatchRow {
 public:
  static constexpr size_t kInlineCapacity = 6;

  MatchRow() = default;
  MatchRow(const Match& h) : MatchRow(std::span<const NodeId>(h)) {}
  MatchRow(std::initializer_list<NodeId> ids)
      : MatchRow(std::span<const NodeId>(ids.begin(), ids.size())) {}
  MatchRow(const MatchRow& o) : MatchRow(std::span<const NodeId>(o)) {}
  MatchRow(MatchRow&& o) noexcept : store_(o.store_), size_(o.size_) {
    o.size_ = 0;
  }
  MatchRow& operator=(const MatchRow& o) {
    if (this != &o) {
      Release();
      Assign(o);
    }
    return *this;
  }
  MatchRow& operator=(MatchRow&& o) noexcept {
    if (this != &o) {
      Release();
      store_ = o.store_;
      size_ = o.size_;
      o.size_ = 0;
    }
    return *this;
  }
  ~MatchRow() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const NodeId* data() const { return spilled() ? store_.heap : store_.ids; }
  const NodeId* begin() const { return data(); }
  const NodeId* end() const { return data() + size_; }
  NodeId operator[](size_t i) const { return data()[i]; }

  friend bool operator==(const MatchRow& a, const MatchRow& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  /// Lexicographic, as on Match: a proper prefix sorts first.
  friend bool operator<(const MatchRow& a, const MatchRow& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  explicit MatchRow(std::span<const NodeId> ids) { Assign(ids); }

  bool spilled() const { return size_ > kInlineCapacity; }
  // Precondition: no heap block is held (fresh or just released). size_ is
  // set last, so a failed allocation leaves an empty row.
  void Assign(std::span<const NodeId> ids) {
    NodeId* dst = store_.ids;
    if (ids.size() > kInlineCapacity) {
      dst = store_.heap = new NodeId[ids.size()];
    }
    std::copy(ids.begin(), ids.end(), dst);
    size_ = static_cast<uint32_t>(ids.size());
  }
  void Release() {
    if (spilled()) delete[] store_.heap;
    size_ = 0;
  }

  union Store {
    NodeId ids[kInlineCapacity];
    NodeId* heap;
  } store_{};
  uint32_t size_ = 0;
};

/// A violating match: h ⊨ X but h ⊭ Y for sigma[ged_index].
struct Violation {
  size_t ged_index;
  MatchRow match;
  bool operator==(const Violation&) const = default;
};
static_assert(sizeof(Violation) <= 40,
              "a report row must stay within 40 bytes");

/// The strict weak order of violation reports — (ged_index, match). All
/// sorted-violation invariants (SortViolationList, MergeViolations,
/// set-difference reconciliation in incr/) share this single definition.
inline bool ViolationLess(const Violation& a, const Violation& b) {
  if (a.ged_index != b.ged_index) return a.ged_index < b.ged_index;
  return a.match < b.match;
}

/// Knobs for Validate().
struct ValidationOptions {
  /// Keep at most this many violations per GED (0 = all): the
  /// ViolationLess-smallest ones, deterministically — the same report for
  /// any num_threads and either evaluation path. The cap truncates the
  /// report, it does not bound the scan.
  uint64_t max_violations_per_ged = 0;
  /// Homomorphism (paper semantics) or subgraph isomorphism ([19,23]
  /// baseline).
  MatchSemantics semantics = MatchSemantics::kHomomorphism;
  /// Worker threads; 1 = serial. Results are identical and deterministic
  /// (violations are sorted, caps keep the smallest) regardless of thread
  /// count.
  unsigned num_threads = 1;
  /// Matcher toggles (for the ablation bench).
  bool degree_filter = true;
  bool smart_order = true;
  /// The execution policy (reason/policy.h): join strategy and SIMD kernel
  /// backend. Check it with ValidateExecutionPolicy to get InvalidArgument
  /// on inert combinations before work starts — Validate does not;
  /// IncrementalValidator::Create does. The join is the worst-case-optimal
  /// k-way intersection (kAuto) or the pick-smallest-list generator;
  /// reports are identical either way.
  ExecutionPolicy policy;
  /// Re-freeze cutoff (IncrementalValidator): once
  /// overlay's side index outweighs this many entries (OverlayView::
  /// DeltaWeight), a background thread compacts it into a fresh FrozenGraph
  /// base and the validator swaps to a new overlay epoch at the next commit
  /// boundary. 0 disables background re-freeze (the overlay grows unbounded).
  size_t overlay_refreeze_cutoff = 4096;
  /// Step budget per matcher scan (0 = unlimited): each enumeration task
  /// aborts after this many search-tree nodes, and the GEDs whose scans
  /// were truncated are listed in ValidationReport::aborted_geds. A
  /// truncated report may miss violations — this is a defense bound for
  /// adversarial patterns, not a sampling knob. IncrementalValidator forces
  /// it to 0, and the edge-seeded incremental scans ignore it (a truncated
  /// re-scan would break exact maintenance).
  uint64_t max_steps_per_scan = 0;
  /// Observability sinks (obs/obs.h): metrics registry, trace spans and the
  /// EXPLAIN profiler. Default-disabled; enabling must not change any
  /// report (pinned by tests/obs_test.cc).
  ObsOptions obs;
  /// Crash safety for the incremental validator (reason/policy.h): when
  /// `durability.dir` is set, every Commit appends the delta to a
  /// write-ahead log *before* the in-memory apply, background re-freezes
  /// piggyback binary checkpoints, and IncrementalValidator::Recover(dir)
  /// rebuilds graph + live report from checkpoint + WAL-suffix replay.
  /// Ignored by full (non-incremental) validation. Default-disabled.
  DurabilityOptions durability;
};

/// Validation outcome.
struct ValidationReport {
  /// True iff G ⊨ Σ.
  bool satisfied = true;
  /// All violations found (sorted by ged_index, then match).
  std::vector<Violation> violations;
  /// Total (match, rule) pairs inspected across all GEDs: a bucket of r
  /// rules counts each enumerated match r times, exactly as r per-GED scans
  /// would.
  uint64_t matches_checked = 0;
  /// GED indices (sorted, distinct) whose scan hit
  /// ValidationOptions::max_steps_per_scan — their violation lists may be
  /// incomplete. Empty when the budget is 0 or never reached.
  std::vector<size_t> aborted_geds;
};

/// Checks G ⊨ Σ, reporting violations. The graph is frozen once
/// (FrozenGraph::Freeze, one O(|V| + |E| log d) pass) and scanned through
/// the CSR snapshot.
ValidationReport Validate(const Graph& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options = {});
/// Checks a pre-frozen snapshot (the serving path: freeze once, validate
/// many times).
ValidationReport Validate(const FrozenGraph& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options = {});

/// Validate() against a pre-compiled plan of the same Σ (amortizes
/// compilation across repeated validations; incr/ holds one per validator).
ValidationReport ValidateWithPlan(const Graph& g, const RulesetPlan& plan,
                                  const ValidationOptions& options = {});
/// Pre-frozen + pre-compiled: the fully amortized serving configuration.
ValidationReport ValidateWithPlan(const FrozenGraph& g,
                                  const RulesetPlan& plan,
                                  const ValidationOptions& options = {});

/// Overlay overloads: scan a delta overlay (graph/overlay.h) directly — the
/// base is already CSR, so nothing is re-frozen here.
ValidationReport Validate(const OverlayView& g, const std::vector<Ged>& sigma,
                          const ValidationOptions& options = {});
ValidationReport ValidateWithPlan(const OverlayView& g,
                                  const RulesetPlan& plan,
                                  const ValidationOptions& options = {});

// ----- incremental building blocks (src/incr/ sits on these) ---------------
//
// Under append-only deltas (AddNode/AddEdge/SetAttr), matches never die —
// the old graph is a subgraph of the new one — and a match's X→Y status only
// changes if an attribute of a bound node changed. Every *new* match binds
// at least one delta-touched node. Violation maintenance is therefore exact:
// retract violations binding a touched node, re-scan only the touched region
// of the match space, merge.

/// SortViolationList's cutoff between std::sort and its radix sort: the
/// radix sort runs when its widest counting array has at most this many
/// counters per row to sort. Below that, clearing and prefix-summing the
/// counters costs more than the comparisons they save.
inline constexpr size_t kViolationRadixMaxCountersPerRow = 16;

/// Sorts by (ged_index, match) — the ValidationReport order invariant —
/// with an LSD radix sort over a uint32_t permutation of the rows. Column c
/// of a row keys as its id + 1, or as 0 when the row is shorter, so a
/// shorter row sorts first exactly as lexicographic order requires and
/// mixed arities need no special case. Keys are split into 16-bit digits
/// (one counting pass per column while every id is below 65535), last
/// column first; a final counting pass orders ged_index. The permutation
/// is then applied in place by walking its cycles, so no second copy of the
/// rows exists at any time. A list whose widest counting array would exceed
/// kViolationRadixMaxCountersPerRow counters per row keeps std::sort.
void SortViolationList(std::vector<Violation>* violations);

/// Truncates a sorted violation list to the `cap` ViolationLess-smallest
/// entries per GED (no-op when cap is 0), compacting in place. The
/// deterministic-cap primitive shared by every validation path.
void TruncateViolationsPerGed(std::vector<Violation>* violations,
                              uint64_t cap);

/// Removes every violation whose match binds a node in `touched` (sorted,
/// duplicate-free), preserving order; returns the number removed.
size_t EraseViolationsTouching(std::vector<Violation>* violations,
                               const std::vector<NodeId>& touched);

/// Merges sorted `fresh` into sorted `violations`, keeping the order
/// invariant. The two lists must be disjoint (guaranteed when `violations`
/// was filtered by EraseViolationsTouching and `fresh` comes from
/// ValidateTouchingWithPlan over the same touched set).
void MergeViolations(std::vector<Violation>* violations,
                     std::vector<Violation> fresh);

/// Validates only the matches that bind at least one node of `touched`
/// (sorted, duplicate-free) against a compiled plan of Σ: the report lists
/// exactly the violations among those matches, sorted. Work is partitioned
/// across options.num_threads by (bucket, pin variable, touched-candidate
/// chunk), reusing the parallel scheme of Validate(). Patterns with no
/// variables contribute nothing (their single empty match binds no node).
ValidationReport ValidateTouchingWithPlan(const OverlayView& g,
                                          const RulesetPlan& plan,
                                          const std::vector<NodeId>& touched,
                                          const ValidationOptions& options = {});

/// Violating matches that can map a pattern edge onto one of the `seeds`,
/// against a compiled plan of Σ: for each (bucket pattern, pattern edge
/// (u,ι,v)), one batched run restricts h(u) to the compatible seed sources
/// and h(v) to the compatible seed targets (ι ≼ seed label, endpoint labels
/// ≼-compatible). This covers every match an edge insert between
/// pre-existing nodes can create, slightly over-approximated: h(u)/h(v) may
/// pair endpoints of different seeds via a pre-existing edge, and parallel
/// edges are indistinguishable from the seed — so the result (sorted,
/// duplicate-free) may re-find matches that already existed, and callers
/// holding a maintained report reconcile by set-difference. `checked` is
/// incremented per (match, rule) inspected (before deduplication).
/// options.max_violations_per_ged is intentionally NOT honored here:
/// truncating the seeded scan would break the set-difference reconciliation
/// that keeps incremental maintenance exact.
std::vector<Violation> FindViolationsSeededByEdgesWithPlan(
    const OverlayView& g, const RulesetPlan& plan,
    const std::vector<EdgeTriple>& seeds, const ValidationOptions& options,
    uint64_t* checked);

}  // namespace ged

#endif  // GEDLIB_REASON_VALIDATION_H_
