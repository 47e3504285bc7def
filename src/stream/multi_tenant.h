#ifndef MQD_STREAM_MULTI_TENANT_H_
#define MQD_STREAM_MULTI_TENANT_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/coverage.h"
#include "core/instance.h"
#include "core/types.h"
#include "stream/factory.h"
#include "stream/stream_scan.h"
#include "stream/stream_solver.h"
#include "util/arena.h"
#include "util/result.h"
#include "util/status.h"

namespace mqd {

class ThreadPool;

/// Handle for one subscription in a MultiTenantStream. Ids are dense
/// and never reused within one engine; an unsubscribed or evicted id
/// stays invalid forever (restore mints a fresh id).
using TenantId = uint32_t;
inline constexpr TenantId kInvalidTenant = static_cast<TenantId>(-1);

/// A tenant's restricted view of the shared stream: the posts relevant
/// to its label subscription (labels intersected with the mask, label
/// ids kept) from its join point up to the engine's cursor, and nothing
/// past it. The engine appends arrivals as the stream advances, so a
/// representative reading `sub` sees only the posts delivered to it.
/// `sub` stores each post's global PostId (`global_id`) and reads its
/// value and labels from the global table. Post order — and therefore
/// tie order among equal values — is inherited from the global
/// value-sorted table, so local PostIds are monotone in global ones.
struct TenantView {
  AppendOnlyPostTable sub;
  /// The subscription, in global label ids.
  LabelMask mask = 0;
  /// Coverage restricted to the view: forwards Reach/MaxReach/
  /// IsUniform to the parent model for the global post, so every
  /// radius is the identical double the tenant would see running
  /// alone on the full model.
  std::unique_ptr<CoverageModel> model;

  PostId global_id(PostId local) const { return sub.source_id(local); }

  /// Appends every `mask` post with global id in [from, to).
  void AppendRange(const Instance& inst, PostId from, PostId to);
};

/// Builds the restricted view of `mask`-relevant posts with global ids
/// in [from_post, to_post); requires from_post <= to_post <= num_posts.
/// `model` and `inst` must outlive the returned view (its coverage
/// wrapper references both).
Result<TenantView> BuildTenantView(const Instance& inst,
                                   const CoverageModel& model,
                                   LabelMask mask, PostId from_post,
                                   PostId to_post);

/// Multi-tenant stream fan-out engine (DESIGN.md §14, §16): one replay
/// of the shared firehose serves every subscribed label-set profile,
/// and each tenant's emissions are bit-identical to what a private
/// single-tenant processor of the same algorithm would produce on the
/// tenant's sub-stream.
///
/// Work sharing has two tiers:
///
///  * Shared per-label tier (plain StreamScan, tenants subscribed
///    before the first arrival). StreamScan's per-label state is
///    independent across labels, so ONE full-universe scan engine is
///    the union of every tenant's engine; a tenant's emission sequence
///    is derived on demand from the engine's per-label fire log by
///    mask-filtering and first-occurrence dedup. Per-arrival cost is
///    O(s log |L|) regardless of tenant count.
///
///  * Cluster tier (Scan+/Greedy± — whose cross-label coupling makes
///    label states interact — and any mid-stream joiner). Tenants with
///    the same (mask, join point) share one representative processor
///    over the restricted TenantView. A join builds an empty view, in
///    O(|L|) whatever the stream's length. Each batch indexes its
///    arrivals by label once; the sweep then appends each cluster's
///    matches to its view (O(|mask| + matches) per 64 arrivals) and
///    delivers them. The representative's clock only advances when a
///    matching post arrives (or at Finish) — exact, because AdvanceTo
///    fires all pending deadlines in (deadline, label) order with
///    emission times taken from the deadlines themselves, not the call
///    instant.
///
/// Parallel sweep: per RunUntil batch the live clusters are
/// partitioned into deterministic fixed-grain shards
/// (parallel/sweep.h) and advanced on the borrowed ThreadPool.
/// Clusters are mutually independent and each is touched by exactly
/// one shard, so outputs are exact-equal to the serial sweep at every
/// thread count; per-shard delivery tallies are merged in shard
/// order. While a fault injector is armed the sweep degrades to the
/// serial order (fault firing is a pure function of the probe hit
/// index, which concurrency would scramble).
///
/// Allocation: greedy representatives bump-allocate their carried
/// windows from a per-cluster Arena (`arena_stats()` aggregates the
/// fleet) and shared-tier derivations borrow the thread's SolveScratch,
/// so steady-state fan-out allocates only when a view's id list or a
/// processor's emission log outgrows its capacity (amortized doubling).
///
/// Churn: Subscribe after the first arrival joins at the current
/// cursor (equal to a fresh tenant whose stream starts there);
/// Unsubscribe drops the tenant and frees its cluster at refcount 0.
/// EvictTenant serializes a tenant's state (PR 5's checksummed
/// snapshot format, tenant envelope + embedded processor checkpoint)
/// and RestoreTenant readmits it with exact catch-up.
///
/// Fault sites: "tenant.fanout" probes each per-cluster delivery —
/// a fire quarantines that cluster only (its tenants' queries return
/// the fault; every other tenant stays bit-identical). "tenant.shard"
/// probes each sweep shard before it runs — a fire quarantines every
/// cluster in that one shard (one-shard blast radius). "tenant.evict"
/// probes EvictTenant and leaves the tenant intact on fire.
///
/// Not thread-safe at the API surface; one engine per replay thread
/// (the engine parallelizes internally across the borrowed pool).
class MultiTenantStream {
 public:
  /// `kind` must be a replayable stream algorithm (kInstant is not
  /// supported: it has no carried state worth sharing). `inst` and
  /// `model` must outlive the engine.
  static Result<std::unique_ptr<MultiTenantStream>> Create(
      const Instance& inst, const CoverageModel& model, StreamKind kind,
      double tau);

  /// Borrows `pool` for the cluster sweep (not owned; must outlive the
  /// engine or be cleared first). Null or zero workers = serial sweep.
  /// Outputs are bit-identical at every setting.
  void SetThreadPool(ThreadPool* pool) { pool_ = pool; }

  /// Registers a tenant subscribed to `labels` (non-empty, within the
  /// instance's label universe) joining at the current cursor.
  Result<TenantId> Subscribe(LabelMask labels);

  /// Drops a tenant. Its id becomes permanently invalid; the cluster
  /// representative is destroyed when its last tenant leaves.
  Status Unsubscribe(TenantId tenant);

  /// Feeds global posts [cursor, end) through the engine in timestamp
  /// order. `end` must be in [cursor, num_posts].
  Status RunUntil(PostId end);
  /// Fires every remaining deadline (end of stream). Idempotent; no
  /// Subscribe/RunUntil/EvictTenant afterwards.
  void Finish();
  /// RunUntil(num_posts) + Finish.
  Status RunToEnd();

  /// The tenant's emission sequence so far, in emission order, as
  /// global PostIds — exactly what its private processor would hold.
  Result<std::vector<Emission>> TenantEmissions(TenantId tenant) const;
  /// TenantEmissions(tenant).size(), without building the list: O(1)
  /// for cluster tenants, one fire-log pass for shared-tier tenants.
  Result<size_t> TenantEmissionCount(TenantId tenant) const;
  /// The tenant's output Z as sorted global PostIds.
  Result<std::vector<PostId>> TenantCover(TenantId tenant) const;
  /// The tenant's subscription mask.
  Result<LabelMask> TenantLabels(TenantId tenant) const;

  /// Serializes the tenant's state to `os` (versioned, checksummed;
  /// embeds the representative's stream checkpoint for cluster-tier
  /// tenants, taken against the posts delivered so far) and
  /// unsubscribes it. Rejected after Finish and for
  /// quarantined tenants.
  Status EvictTenant(TenantId tenant, std::ostream& os);
  /// Readmits an evicted tenant: validates magic/checksum/version/
  /// algorithm/tau/instance fingerprint, rebuilds or re-attaches the
  /// representative, catches it up to the current cursor, and returns
  /// a fresh id. The snapshot must not be ahead of this engine's
  /// cursor.
  Result<TenantId> RestoreTenant(std::istream& is);

  // --- Introspection (also exported as mqd_tenant_* metrics). ---
  PostId cursor() const { return cursor_; }
  bool finished() const { return finished_; }
  StreamKind kind() const { return kind_; }
  double tau() const { return tau_; }
  size_t active_tenants() const { return active_tenants_; }
  size_t shared_tier_tenants() const { return shared_tier_tenants_; }
  /// Live cluster-tier representatives.
  size_t num_clusters() const { return live_clusters_; }
  uint64_t arrivals() const { return arrivals_; }
  /// Per-cluster deliveries (cluster tier).
  uint64_t fanout_deliveries() const { return fanout_deliveries_; }
  /// Arrivals absorbed once by the shared scan tier.
  uint64_t shared_tier_hits() const { return shared_tier_hits_; }
  /// Processor deliveries per arrival: (shared hits + cluster
  /// deliveries) / arrivals. A private-replay deployment would pay
  /// `active_tenants` here.
  double fanout_amplification() const;
  /// Fraction of delivery work absorbed by the shared tier.
  double shared_hit_rate() const;
  /// Cluster sweeps dispatched through the thread pool, and the
  /// shards those sweeps ran.
  uint64_t parallel_sweeps() const { return parallel_sweeps_; }
  uint64_t parallel_shards() const { return parallel_shards_; }
  /// Residual-corrected reads served — shared-tier derivations for a
  /// tenant narrower than the full-universe engine — and fire-log
  /// entries the mask filter dropped across them.
  uint64_t residual_corrections() const { return residual_corrections_; }
  uint64_t residual_filtered_fires() const {
    return residual_filtered_fires_;
  }
  /// Aggregate allocator stats over the per-cluster representative
  /// arenas (greedy kinds). Steady-state fan-out holds block_allocs
  /// flat — the zero-allocation regression checks watch this.
  Arena::Stats arena_stats() const;

 private:
  struct TenantRec {
    LabelMask mask = 0;
    PostId join_cursor = 0;
    uint32_t cluster = kNoCluster;  // kNoCluster => shared tier
    bool active = false;
  };

  struct Cluster {
    LabelMask mask = 0;  // every member's mask
    PostId join_cursor = 0;
    TenantView view;
    /// Carried-window storage for greedy representatives; null for
    /// scan kinds. Declared before the processor so the processor's
    /// pmr containers die first.
    std::unique_ptr<Arena> arena;
    std::unique_ptr<StreamProcessor> processor;  // after view: refs it
    PostId delivered = 0;  // view posts delivered to the processor
    uint32_t refcount = 0;
    Status health = Status::OK();  // !ok() => quarantined by a fault
  };

  static constexpr uint32_t kNoCluster = static_cast<uint32_t>(-1);
  /// Clusters per sweep shard. Fixed (never thread-count-dependent) so
  /// the shard structure — and tenant.shard blast radius — is stable.
  static constexpr size_t kSweepGrain = 2;

  MultiTenantStream(const Instance& inst, const CoverageModel& model,
                    StreamKind kind, double tau);

  Status ValidateMask(LabelMask mask) const;
  /// Finds or creates the representative for exactly (mask, join);
  /// bumps its refcount.
  Result<uint32_t> AttachCluster(LabelMask mask, PostId join);
  /// Builds a cluster shell (view of global ids [join, view_end) +
  /// processor) without registering it or delivering anything.
  Result<std::unique_ptr<Cluster>> BuildCluster(LabelMask mask, PostId join,
                                                PostId view_end);
  /// Registers a built cluster in the key map.
  uint32_t RegisterCluster(std::unique_ptr<Cluster> cluster);
  void DetachCluster(uint32_t index);
  /// Indexes arrivals [cursor_, end) by label into `arrival_bits_`.
  void IndexArrivals(PostId end);
  /// Appends the cluster's matches among the indexed arrivals to its
  /// view, in O(|mask| + matches) per 64 arrivals.
  void AppendArrivals(Cluster& cluster);
  /// Advances the representative through every view post not yet
  /// delivered; returns deliveries made. With `probe` each delivery
  /// hits the tenant.fanout site first (a fire quarantines the cluster
  /// and stops it).
  uint64_t DeliverPending(Cluster& cluster, bool probe);
  /// One batch sweep of all live clusters — sharded over the pool when
  /// profitable, serial (with fault probes) when the injector is armed.
  void SweepClusters();
  void EnsureSharedScan();
  /// InstanceFingerprint(inst_), computed on first use: the table never
  /// changes for the engine's lifetime.
  uint64_t GlobalFingerprint();
  /// A shared-tier tenant's emission sequence, appended to `out` when
  /// non-null; returns its length either way.
  size_t DeriveSharedEmissions(LabelMask mask,
                               std::vector<Emission>* out) const;
  /// NotFound unless `tenant` is subscribed.
  Status CheckActive(TenantId tenant) const;
  void Deactivate(TenantId tenant);

  const Instance& inst_;
  const CoverageModel& model_;
  StreamKind kind_;
  double tau_;
  ThreadPool* pool_ = nullptr;

  PostId cursor_ = 0;
  bool finished_ = false;
  std::optional<uint64_t> fingerprint_;

  std::vector<TenantRec> tenants_;
  size_t active_tenants_ = 0;
  size_t shared_tier_tenants_ = 0;

  /// Shared per-label tier (kind == kStreamScan only); fire log
  /// enabled. Created when the first epoch-0 scan tenant subscribes
  /// and kept running for later restores even if all of them leave.
  std::unique_ptr<StreamScanProcessor> shared_scan_;

  std::vector<std::unique_ptr<Cluster>> clusters_;  // tombstone = null
  size_t live_clusters_ = 0;
  std::map<std::pair<LabelMask, PostId>, uint32_t> cluster_index_;
  /// The current batch's arrivals by label: per 64-post chunk, one
  /// word per global label (bit i = the chunk's post i carries it).
  std::vector<uint64_t> arrival_bits_;

  /// Sweep scratch, reused across sweeps (allocation-free at steady
  /// state): live cluster ids in ascending id order, one delivery
  /// tally and one latency sample per shard.
  std::vector<uint32_t> live_list_;
  std::vector<uint64_t> shard_deliveries_;
  std::vector<double> shard_seconds_;

  uint64_t arrivals_ = 0;
  uint64_t fanout_deliveries_ = 0;
  uint64_t shared_tier_hits_ = 0;
  uint64_t parallel_sweeps_ = 0;
  uint64_t parallel_shards_ = 0;
  /// Derive-side counters mutate under const queries.
  mutable uint64_t residual_corrections_ = 0;
  mutable uint64_t residual_filtered_fires_ = 0;
  uint64_t flushed_arrivals_ = 0;
  uint64_t flushed_fanout_deliveries_ = 0;
  uint64_t flushed_shared_tier_hits_ = 0;
};

}  // namespace mqd

#endif  // MQD_STREAM_MULTI_TENANT_H_
