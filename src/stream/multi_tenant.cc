#include "stream/multi_tenant.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <span>
#include <sstream>
#include <string>

#include "core/solve_scratch.h"
#include "obs/stack_metrics.h"
#include "parallel/sweep.h"
#include "stream/checkpoint.h"
#include "stream/stream_greedy.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mqd {

namespace {

constexpr char kTenantMagic[8] = {'M', 'Q', 'D', 'T', 'N', 'T', '0', '1'};
// Version 2: a cluster tier's embedded checkpoint covers the posts
// delivered so far, [join, evict cursor), not the rest of the table.
constexpr uint32_t kTenantFormatVersion = 2;
constexpr uint8_t kTierShared = 0;
constexpr uint8_t kTierCluster = 1;

/// CoverageModel of a TenantView: every query is answered by the
/// parent model for the view post's global id, so the restricted run
/// computes with the identical doubles (and the same IsUniform
/// fast-path choice) as a run on the full model.
class RestrictedCoverage final : public CoverageModel {
 public:
  RestrictedCoverage(const Instance& parent_inst, const CoverageModel& parent)
      : parent_inst_(parent_inst), parent_(parent) {}

  DimValue Reach(const PostTable& view, PostId coverer,
                 LabelId a) const override {
    return parent_.Reach(parent_inst_, view.source_id(coverer), a);
  }
  DimValue MaxReach() const override { return parent_.MaxReach(); }
  bool IsUniform() const override { return parent_.IsUniform(); }

 private:
  const Instance& parent_inst_;
  const CoverageModel& parent_;
};

}  // namespace

void TenantView::AppendRange(const Instance& inst, PostId from, PostId to) {
  for (PostId p = from; p < to; ++p) {
    if ((inst.labels(p) & mask) != 0) sub.Append(p);
  }
}

Result<TenantView> BuildTenantView(const Instance& inst,
                                   const CoverageModel& model,
                                   LabelMask mask, PostId from_post,
                                   PostId to_post) {
  if (mask == 0) {
    return Status::InvalidArgument("tenant label mask is empty");
  }
  if (inst.num_labels() < kMaxLabels && (mask >> inst.num_labels()) != 0) {
    return Status::InvalidArgument(
        StrFormat("tenant mask uses labels outside the %d-label universe",
                  inst.num_labels()));
  }
  if (from_post > to_post || to_post > inst.num_posts()) {
    return Status::InvalidArgument(
        StrFormat("tenant view [%u, %u) outside [0, %zu]", from_post,
                  to_post, inst.num_posts()));
  }

  TenantView view;
  view.sub = AppendOnlyPostTable(inst, mask);
  view.mask = mask;
  view.model = std::make_unique<RestrictedCoverage>(inst, model);
  view.AppendRange(inst, from_post, to_post);
  return view;
}

MultiTenantStream::MultiTenantStream(const Instance& inst,
                                     const CoverageModel& model,
                                     StreamKind kind, double tau)
    : inst_(inst),
      model_(model),
      kind_(kind),
      tau_(tau) {}

Result<std::unique_ptr<MultiTenantStream>> MultiTenantStream::Create(
    const Instance& inst, const CoverageModel& model, StreamKind kind,
    double tau) {
  if (kind == StreamKind::kInstant) {
    return Status::InvalidArgument(
        "multi-tenant serving needs a replayable stream algorithm; "
        "Instant has no carried state to share");
  }
  if (!std::isfinite(tau) || tau < 0.0) {
    return Status::InvalidArgument(
        StrFormat("tau must be finite and non-negative, got %g", tau));
  }
  return std::unique_ptr<MultiTenantStream>(
      new MultiTenantStream(inst, model, kind, tau));
}

Status MultiTenantStream::ValidateMask(LabelMask mask) const {
  if (mask == 0) {
    return Status::InvalidArgument("tenant label mask is empty");
  }
  if (inst_.num_labels() < kMaxLabels &&
      (mask >> inst_.num_labels()) != 0) {
    return Status::InvalidArgument(
        StrFormat("tenant mask uses labels outside the %d-label universe",
                  inst_.num_labels()));
  }
  return Status::OK();
}

void MultiTenantStream::EnsureSharedScan() {
  if (shared_scan_) return;
  shared_scan_ = std::make_unique<StreamScanProcessor>(
      inst_, model_, tau_, /*cross_label_pruning=*/false);
  shared_scan_->EnableFireLog();
}

uint64_t MultiTenantStream::GlobalFingerprint() {
  if (!fingerprint_) fingerprint_ = InstanceFingerprint(inst_);
  return *fingerprint_;
}

Result<std::unique_ptr<MultiTenantStream::Cluster>>
MultiTenantStream::BuildCluster(LabelMask mask, PostId join,
                                PostId view_end) {
  auto cluster = std::make_unique<Cluster>();
  cluster->mask = mask;
  cluster->join_cursor = join;
  MQD_ASSIGN_OR_RETURN(cluster->view,
                       BuildTenantView(inst_, model_, mask, join, view_end));
  switch (kind_) {
    case StreamKind::kStreamGreedy:
    case StreamKind::kStreamGreedyPlus:
      // Greedy representative: carried windows on a per-cluster bump
      // arena, so steady-state sweeps stop touching malloc.
      cluster->arena = std::make_unique<Arena>();
      cluster->processor = std::make_unique<StreamGreedyProcessor>(
          cluster->view.sub, *cluster->view.model, tau_,
          kind_ == StreamKind::kStreamGreedyPlus, cluster->arena.get());
      break;
    default:
      cluster->processor = CreateStreamProcessor(
          kind_, cluster->view.sub, *cluster->view.model, tau_);
      break;
  }
  return cluster;
}

uint32_t MultiTenantStream::RegisterCluster(
    std::unique_ptr<Cluster> cluster) {
  const uint32_t index = static_cast<uint32_t>(clusters_.size());
  cluster_index_[{cluster->mask, cluster->join_cursor}] = index;
  clusters_.push_back(std::move(cluster));
  ++live_clusters_;
  obs::GetTenantMetrics().clusters->Set(static_cast<double>(live_clusters_));
  return index;
}

Result<uint32_t> MultiTenantStream::AttachCluster(LabelMask mask,
                                                  PostId join) {
  const auto it = cluster_index_.find({mask, join});
  if (it != cluster_index_.end()) {
    Cluster& cluster = *clusters_[it->second];
    if (!cluster.health.ok()) return cluster.health;
    ++cluster.refcount;
    return it->second;
  }
  // A new cluster joins at the cursor: its view starts empty.
  MQD_ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                       BuildCluster(mask, join, join));
  cluster->refcount = 1;
  return RegisterCluster(std::move(cluster));
}

void MultiTenantStream::DetachCluster(uint32_t index) {
  Cluster& cluster = *clusters_[index];
  MQD_DCHECK(cluster.refcount > 0);
  if (--cluster.refcount > 0) return;
  cluster_index_.erase({cluster.mask, cluster.join_cursor});
  clusters_[index].reset();
  --live_clusters_;
  obs::GetTenantMetrics().clusters->Set(static_cast<double>(live_clusters_));
}

Status MultiTenantStream::CheckActive(TenantId tenant) const {
  if (tenant >= tenants_.size() || !tenants_[tenant].active) {
    return Status::NotFound(
        StrFormat("tenant %u is not subscribed", tenant));
  }
  return Status::OK();
}

Result<TenantId> MultiTenantStream::Subscribe(LabelMask labels) {
  if (finished_) {
    return Status::FailedPrecondition(
        "cannot subscribe to a finished stream");
  }
  MQD_RETURN_NOT_OK(ValidateMask(labels));
  TenantRec rec;
  rec.mask = labels;
  rec.join_cursor = cursor_;
  rec.active = true;
  if (kind_ == StreamKind::kStreamScan && cursor_ == 0) {
    // Shared per-label tier: plain StreamScan's labels never interact,
    // so one full-universe engine serves every epoch-0 subscriber.
    EnsureSharedScan();
    ++shared_tier_tenants_;
  } else {
    MQD_ASSIGN_OR_RETURN(rec.cluster, AttachCluster(labels, cursor_));
  }
  tenants_.push_back(rec);
  ++active_tenants_;
  obs::GetTenantMetrics().active_tenants->Set(
      static_cast<double>(active_tenants_));
  return static_cast<TenantId>(tenants_.size() - 1);
}

void MultiTenantStream::Deactivate(TenantId tenant) {
  TenantRec& rec = tenants_[tenant];
  rec.active = false;
  --active_tenants_;
  if (rec.cluster == kNoCluster) {
    --shared_tier_tenants_;
  } else {
    DetachCluster(rec.cluster);
  }
  obs::GetTenantMetrics().active_tenants->Set(
      static_cast<double>(active_tenants_));
}

Status MultiTenantStream::Unsubscribe(TenantId tenant) {
  MQD_RETURN_NOT_OK(CheckActive(tenant));
  Deactivate(tenant);
  return Status::OK();
}

void MultiTenantStream::IndexArrivals(PostId end) {
  // One pass over the batch, which the shared tier (if any) has just
  // read: for each 64-post chunk, one word per label whose bit i marks
  // that the chunk's post i carries the label.
  const size_t labels = static_cast<size_t>(inst_.num_labels());
  arrival_bits_.assign((end - cursor_ + 63) / 64 * labels, 0);
  for (PostId p = cursor_; p < end; ++p) {
    const size_t i = p - cursor_;
    uint64_t* chunk = arrival_bits_.data() + i / 64 * labels;
    const uint64_t bit = uint64_t{1} << (i % 64);
    ForEachLabel(inst_.labels(p), [&](LabelId a) { chunk[a] |= bit; });
  }
}

void MultiTenantStream::AppendArrivals(Cluster& cluster) {
  // Per chunk, the union of the mask labels' words marks the cluster's
  // matches, each once however many of its labels it carries.
  const size_t labels = static_cast<size_t>(inst_.num_labels());
  for (size_t k = 0; k * labels < arrival_bits_.size(); ++k) {
    const uint64_t* chunk = arrival_bits_.data() + k * labels;
    uint64_t matches = 0;
    ForEachLabel(cluster.mask, [&](LabelId a) { matches |= chunk[a]; });
    const PostId base = cursor_ + static_cast<PostId>(k * 64);
    for (; matches != 0; matches &= matches - 1) {
      cluster.view.sub.Append(base + std::countr_zero(matches));
    }
  }
}

uint64_t MultiTenantStream::DeliverPending(Cluster& cluster, bool probe) {
  if (!cluster.health.ok()) return 0;  // quarantined: stops receiving
  const PostTable& sub = cluster.view.sub;
  uint64_t delivered = 0;
  for (; cluster.delivered < sub.num_posts(); ++cluster.delivered) {
    if (probe) {
      Status fault = FaultInjector::Global().MaybeInject("tenant.fanout");
      if (!fault.ok()) {
        // Quarantine this cluster only: its tenants' queries return
        // the fault; every other tenant's state is untouched.
        cluster.health = std::move(fault);
        obs::GetTenantMetrics().quarantines->Increment();
        break;
      }
    }
    cluster.processor->AdvanceTo(sub.value(cluster.delivered));
    cluster.processor->OnArrival(cluster.delivered);
    ++delivered;
  }
  return delivered;
}

void MultiTenantStream::SweepClusters() {
  live_list_.clear();
  for (uint32_t c = 0; c < static_cast<uint32_t>(clusters_.size()); ++c) {
    if (clusters_[c]) live_list_.push_back(c);
  }
  const size_t n = live_list_.size();
  if (n == 0) return;
  const size_t shards = NumSweepShards(n, kSweepGrain);
  shard_deliveries_.assign(shards, 0);
  shard_seconds_.assign(shards, 0.0);
  const obs::TenantMetrics& metrics = obs::GetTenantMetrics();
  FaultInjector& injector = FaultInjector::Global();
  if (injector.armed()) {
    // Injected fault firing is a pure function of (seed, site, hit
    // index), so probes must be issued in one deterministic order:
    // the sweep degrades to serial, shard by shard. A tenant.shard
    // fire quarantines every cluster in that one shard and the sweep
    // moves on — one-shard blast radius.
    for (size_t s = 0; s < shards; ++s) {
      const size_t begin = s * kSweepGrain;
      const size_t stop = std::min(n, begin + kSweepGrain);
      Status fault = injector.MaybeInject("tenant.shard");
      if (!fault.ok()) {
        for (size_t i = begin; i < stop; ++i) {
          Cluster& cluster = *clusters_[live_list_[i]];
          if (!cluster.health.ok()) continue;
          cluster.health = fault;
          metrics.quarantines->Increment();
        }
        continue;
      }
      for (size_t i = begin; i < stop; ++i) {
        Cluster& cluster = *clusters_[live_list_[i]];
        if (!cluster.health.ok()) continue;  // quarantined: stops growing
        AppendArrivals(cluster);
        shard_deliveries_[s] += DeliverPending(cluster, /*probe=*/true);
      }
    }
  } else {
    // Clusters are mutually independent and each belongs to exactly
    // one shard, so the sharded sweep is bit-identical to serial at
    // every thread count; tallies merge by shard index below.
    const bool parallel = RunShardedSweep(
        pool_, n, kSweepGrain, /*force_serial=*/false,
        [&](size_t shard, size_t begin, size_t stop) {
          Stopwatch sw;
          uint64_t delivered = 0;
          for (size_t i = begin; i < stop; ++i) {
            Cluster& cluster = *clusters_[live_list_[i]];
            if (!cluster.health.ok()) continue;  // quarantined
            AppendArrivals(cluster);
            delivered += DeliverPending(cluster, /*probe=*/false);
          }
          shard_deliveries_[shard] = delivered;
          shard_seconds_[shard] = sw.ElapsedSeconds();
        });
    if (parallel) {
      ++parallel_sweeps_;
      parallel_shards_ += shards;
      metrics.parallel_sweeps->Increment();
      metrics.parallel_shards->Increment(static_cast<double>(shards));
    }
    for (size_t s = 0; s < shards; ++s) {
      metrics.shard_seconds->Observe(shard_seconds_[s]);
    }
  }
  for (size_t s = 0; s < shards; ++s) {
    fanout_deliveries_ += shard_deliveries_[s];
  }
}

Status MultiTenantStream::RunUntil(PostId end) {
  if (end < cursor_ || end > inst_.num_posts()) {
    return Status::InvalidArgument(
        StrFormat("RunUntil(%u) outside [%u, %zu]", end, cursor_,
                  inst_.num_posts()));
  }
  if (end == cursor_) return Status::OK();
  if (finished_) {
    return Status::FailedPrecondition("stream already finished");
  }
  arrivals_ += end - cursor_;
  if (shared_scan_) {
    // The whole shared tier absorbs each arrival once, for every
    // subscribed scan tenant at once.
    for (PostId p = cursor_; p < end; ++p) {
      shared_scan_->AdvanceTo(inst_.value(p));
      shared_scan_->OnArrival(p);
    }
    shared_tier_hits_ += end - cursor_;
  }
  if (live_clusters_ != 0) {
    IndexArrivals(end);
    SweepClusters();
  }
  cursor_ = end;
  return Status::OK();
}

void MultiTenantStream::Finish() {
  if (finished_) return;
  if (shared_scan_) shared_scan_->Finish();
  for (const std::unique_ptr<Cluster>& cluster : clusters_) {
    if (cluster && cluster->health.ok()) cluster->processor->Finish();
  }
  finished_ = true;
  const obs::TenantMetrics& metrics = obs::GetTenantMetrics();
  metrics.arrivals->Increment(arrivals_ - flushed_arrivals_);
  metrics.fanout_deliveries->Increment(fanout_deliveries_ -
                                       flushed_fanout_deliveries_);
  metrics.shared_hits->Increment(shared_tier_hits_ -
                                 flushed_shared_tier_hits_);
  flushed_arrivals_ = arrivals_;
  flushed_fanout_deliveries_ = fanout_deliveries_;
  flushed_shared_tier_hits_ = shared_tier_hits_;
}

Status MultiTenantStream::RunToEnd() {
  MQD_RETURN_NOT_OK(RunUntil(static_cast<PostId>(inst_.num_posts())));
  Finish();
  return Status::OK();
}

size_t MultiTenantStream::DeriveSharedEmissions(
    LabelMask mask, std::vector<Emission>* out) const {
  // Filter the engine's per-label fire log to the tenant's labels and
  // drop repeat posts: exactly the Emit() sequence of a private
  // StreamScan over the tenant's sub-stream, because per-label state
  // is independent and fires happen in (deadline, label) order on
  // both sides. The seen bitset (one bit per table post) borrows the
  // thread's solve scratch, so repeated derivations are
  // allocation-free.
  SolveScratch::Session session(SolveScratch::ThreadLocal());
  std::span<uint64_t> seen =
      session.arena().AllocZeroedSpan<uint64_t>((inst_.num_posts() + 63) / 64);
  size_t count = 0;
  uint64_t filtered = 0;
  for (const StreamScanProcessor::LabelFire& fire :
       shared_scan_->fire_log()) {
    if (!MaskHas(mask, fire.label)) {
      ++filtered;
      continue;
    }
    uint64_t& word = seen[fire.post / 64];
    const uint64_t bit = uint64_t{1} << (fire.post % 64);
    if ((word & bit) != 0) continue;
    word |= bit;
    ++count;
    if (out != nullptr) out->push_back(Emission{fire.post, fire.time});
  }
  if (MaskCount(mask) < inst_.num_labels()) {
    // The engine carries labels the tenant does not: the mask filter
    // was a residual correction.
    ++residual_corrections_;
    residual_filtered_fires_ += filtered;
    const obs::TenantMetrics& metrics = obs::GetTenantMetrics();
    metrics.residual_corrections->Increment();
    if (filtered > 0) {
      metrics.residual_filtered->Increment(static_cast<double>(filtered));
    }
  }
  return count;
}

Result<std::vector<Emission>> MultiTenantStream::TenantEmissions(
    TenantId tenant) const {
  MQD_RETURN_NOT_OK(CheckActive(tenant));
  const TenantRec& rec = tenants_[tenant];
  std::vector<Emission> out;
  if (rec.cluster == kNoCluster) {
    DeriveSharedEmissions(rec.mask, &out);
    return out;
  }
  const Cluster& cluster = *clusters_[rec.cluster];
  if (!cluster.health.ok()) return cluster.health;
  out.reserve(cluster.processor->emissions().size());
  for (const Emission& e : cluster.processor->emissions()) {
    out.push_back(Emission{cluster.view.global_id(e.post), e.emit_time});
  }
  return out;
}

Result<size_t> MultiTenantStream::TenantEmissionCount(TenantId tenant) const {
  MQD_RETURN_NOT_OK(CheckActive(tenant));
  const TenantRec& rec = tenants_[tenant];
  if (rec.cluster == kNoCluster) {
    return DeriveSharedEmissions(rec.mask, /*out=*/nullptr);
  }
  const Cluster& cluster = *clusters_[rec.cluster];
  if (!cluster.health.ok()) return cluster.health;
  return cluster.processor->emissions().size();
}

Result<std::vector<PostId>> MultiTenantStream::TenantCover(
    TenantId tenant) const {
  MQD_ASSIGN_OR_RETURN(std::vector<Emission> emissions,
                       TenantEmissions(tenant));
  std::vector<PostId> cover;
  cover.reserve(emissions.size());
  for (const Emission& e : emissions) cover.push_back(e.post);
  std::sort(cover.begin(), cover.end());
  return cover;
}

Result<LabelMask> MultiTenantStream::TenantLabels(TenantId tenant) const {
  MQD_RETURN_NOT_OK(CheckActive(tenant));
  return tenants_[tenant].mask;
}

double MultiTenantStream::fanout_amplification() const {
  if (arrivals_ == 0) return 0.0;
  return static_cast<double>(shared_tier_hits_ + fanout_deliveries_) /
         static_cast<double>(arrivals_);
}

double MultiTenantStream::shared_hit_rate() const {
  const uint64_t total = shared_tier_hits_ + fanout_deliveries_;
  if (total == 0) return 0.0;
  return static_cast<double>(shared_tier_hits_) /
         static_cast<double>(total);
}

Arena::Stats MultiTenantStream::arena_stats() const {
  Arena::Stats total;
  for (const std::unique_ptr<Cluster>& cluster : clusters_) {
    if (cluster && cluster->arena) total += cluster->arena->stats();
  }
  return total;
}

Status MultiTenantStream::EvictTenant(TenantId tenant, std::ostream& os) {
  MQD_FAULT_POINT("tenant.evict");
  if (finished_) {
    return Status::FailedPrecondition(
        "cannot evict from a finished stream");
  }
  MQD_RETURN_NOT_OK(CheckActive(tenant));
  const TenantRec& rec = tenants_[tenant];

  SnapshotWriter body;
  body.U32(kTenantFormatVersion);
  body.U8(static_cast<uint8_t>(kind_));
  body.F64(tau_);
  body.U64(GlobalFingerprint());
  body.U64(rec.mask);
  body.U32(rec.join_cursor);
  body.U32(cursor_);
  if (rec.cluster == kNoCluster) {
    // Shared tier: derivation from the live fire log is position-
    // independent, so (mask, join=0) is the whole state.
    body.U8(kTierShared);
  } else {
    const Cluster& cluster = *clusters_[rec.cluster];
    if (!cluster.health.ok()) return cluster.health;
    body.U8(kTierCluster);
    std::ostringstream inner;
    // The view holds exactly the delivered posts, so the checkpoint
    // fingerprints [join, cursor) and its replay cursor is the view's
    // end.
    MQD_RETURN_NOT_OK(SaveStreamCheckpoint(
        *cluster.processor,
        static_cast<PostId>(cluster.view.sub.num_posts()), inner));
    body.Str(inner.str());
  }

  os.write(kTenantMagic, sizeof(kTenantMagic));
  os.write(body.bytes().data(),
           static_cast<std::streamsize>(body.bytes().size()));
  const uint64_t checksum = SnapshotChecksum(body.bytes());
  os.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!os.good()) {
    return Status::Internal("tenant snapshot write failed");
  }
  Deactivate(tenant);
  obs::GetTenantMetrics().evictions->Increment();
  return Status::OK();
}

Result<TenantId> MultiTenantStream::RestoreTenant(std::istream& is) {
  std::string blob(std::istreambuf_iterator<char>(is), {});
  if (blob.size() < sizeof(kTenantMagic) + sizeof(uint64_t)) {
    return Status::InvalidArgument("tenant snapshot truncated");
  }
  if (std::memcmp(blob.data(), kTenantMagic, sizeof(kTenantMagic)) != 0) {
    return Status::InvalidArgument("not an MQD tenant snapshot");
  }
  const std::string_view body(
      blob.data() + sizeof(kTenantMagic),
      blob.size() - sizeof(kTenantMagic) - sizeof(uint64_t));
  uint64_t recorded_checksum;
  std::memcpy(&recorded_checksum,
              blob.data() + blob.size() - sizeof(uint64_t),
              sizeof(uint64_t));
  if (SnapshotChecksum(body) != recorded_checksum) {
    return Status::InvalidArgument("tenant snapshot checksum mismatch");
  }

  SnapshotReader reader(body);
  const uint32_t version = reader.U32();
  if (!reader.failed() && version != kTenantFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported tenant snapshot version %u", version));
  }
  const uint8_t kind = reader.U8();
  const double tau = reader.F64();
  const uint64_t fingerprint = reader.U64();
  const LabelMask mask = reader.U64();
  const PostId join = reader.U32();
  const PostId evict_cursor = reader.U32();
  const uint8_t tier = reader.U8();
  MQD_RETURN_NOT_OK(reader.status());

  if (kind != static_cast<uint8_t>(kind_)) {
    return Status::FailedPrecondition(
        "tenant snapshot was taken under a different stream algorithm");
  }
  if (tau != tau_) {
    return Status::FailedPrecondition(
        StrFormat("tenant snapshot tau %g != engine tau %g", tau, tau_));
  }
  if (fingerprint != GlobalFingerprint()) {
    return Status::FailedPrecondition(
        "tenant snapshot was taken against a different instance");
  }
  MQD_RETURN_NOT_OK(ValidateMask(mask));
  if (join > evict_cursor || evict_cursor > cursor_) {
    return Status::FailedPrecondition(
        StrFormat("tenant snapshot cursor %u is ahead of the stream "
                  "(cursor %u)",
                  evict_cursor, cursor_));
  }

  TenantRec rec;
  rec.mask = mask;
  rec.join_cursor = join;
  rec.active = true;

  if (tier == kTierShared) {
    if (reader.remaining() != 0) {
      return Status::InvalidArgument(
          "tenant snapshot carries trailing bytes");
    }
    if (join != 0) {
      return Status::InvalidArgument(
          "shared-tier tenant snapshot with nonzero join cursor");
    }
    if (!shared_scan_) {
      if (cursor_ != 0) {
        return Status::FailedPrecondition(
            "engine has no shared scan tier covering the stream start");
      }
      EnsureSharedScan();
    }
    ++shared_tier_tenants_;
  } else if (tier == kTierCluster) {
    const std::string payload = reader.Str();
    MQD_RETURN_NOT_OK(reader.status());
    if (reader.remaining() != 0) {
      return Status::InvalidArgument(
          "tenant snapshot carries trailing bytes");
    }
    const auto it = cluster_index_.find({mask, join});
    if (it != cluster_index_.end()) {
      // A live representative with the same (mask, join) has replayed
      // the identical sub-stream deterministically: re-attach.
      Cluster& cluster = *clusters_[it->second];
      if (!cluster.health.ok()) return cluster.health;
      ++cluster.refcount;
      rec.cluster = it->second;
    } else {
      // Rebuild the view up to the evict point, which is what the
      // embedded checkpoint fingerprints and indexes into.
      MQD_ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                           BuildCluster(mask, join, evict_cursor));
      std::istringstream inner(payload);
      MQD_ASSIGN_OR_RETURN(
          const PostId restored_local,
          RestoreStreamCheckpoint(cluster->processor.get(),
                                  cluster->view.sub, inner));
      if (restored_local != cluster->view.sub.num_posts()) {
        return Status::InvalidArgument(
            "tenant snapshot replay cursor inconsistent with evict point");
      }
      // Catch up to the engine's cursor: deliver the sub-posts the
      // tenant missed while evicted, exactly as ResumeStream would.
      cluster->delivered = restored_local;
      cluster->view.AppendRange(inst_, evict_cursor, cursor_);
      DeliverPending(*cluster, /*probe=*/false);
      if (finished_) cluster->processor->Finish();
      cluster->refcount = 1;
      rec.cluster = RegisterCluster(std::move(cluster));
    }
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown tenant snapshot tier %u", tier));
  }

  tenants_.push_back(rec);
  ++active_tenants_;
  obs::GetTenantMetrics().active_tenants->Set(
      static_cast<double>(active_tenants_));
  obs::GetTenantMetrics().restores->Increment();
  return static_cast<TenantId>(tenants_.size() - 1);
}

}  // namespace mqd
