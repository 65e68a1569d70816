#include "fleet/solver_fleet.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/check.hpp"

namespace slu3d::service {

namespace {

/// SplitMix64 finalizer: decorrelates the fingerprint bits before the
/// modulo so patterns spread evenly over any shard count.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

struct SolverFleet::Member {
  std::uint64_t id = 0;
  double arrival = 0;
  bool coalesced = false;
  bool redirected = false;
  FleetRequest rq;
};

struct SolverFleet::Batch {
  std::uint64_t fp = 0;
  std::uint64_t ver = 0;
  std::shared_ptr<const CsrMatrix> A;
  double window_close = 0;
  std::vector<Member> members;
};

struct SolverFleet::Shard {
  std::unique_ptr<SolverService> svc;
  std::deque<Batch> queue;   ///< batches not yet dispatched (FIFO; window
                             ///< close times are monotone along the deque)
  std::size_t queued = 0;    ///< requests across queued batches
  double busy_until = 0;     ///< simulated time the shard frees up
  // Operator the shard's current numeric factors belong to, so repeat
  // batches with unchanged values activate instead of refactorizing.
  bool has_last = false;
  std::uint64_t last_fp = 0;
  std::uint64_t last_ver = 0;
};

SolverFleet::SolverFleet(const FleetOptions& options) : opt_(options) {
  SLU3D_CHECK(opt_.shards >= 1, "need at least one shard");
  SLU3D_CHECK(opt_.queue_depth >= 1, "queue depth must be positive");
  SLU3D_CHECK(opt_.coalesce_window >= 0, "coalesce window must be >= 0");
  shards_.reserve(static_cast<std::size_t>(opt_.shards));
  for (int i = 0; i < opt_.shards; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->svc = std::make_unique<SolverService>(opt_.service);
    shards_.push_back(std::move(sh));
  }
}

SolverFleet::~SolverFleet() = default;

const SolverService& SolverFleet::shard(int i) const {
  return *shards_[static_cast<std::size_t>(i)]->svc;
}

std::size_t SolverFleet::shard_queue_depth(int i) const {
  return shards_[static_cast<std::size_t>(i)]->queued;
}

ServiceStats SolverFleet::service_totals() const {
  ServiceStats t;
  for (const auto& sh : shards_) {
    const ServiceStats& s = sh->svc->stats();
    t.analyses += s.analyses;
    t.refactorizations += s.refactorizations;
    t.cache_hits += s.cache_hits;
    t.evictions += s.evictions;
    t.refactor_failures += s.refactor_failures;
    t.solve_requests += s.solve_requests;
    t.rhs_columns += s.rhs_columns;
    t.analysis_seconds += s.analysis_seconds;
    t.analysis_bytes += s.analysis_bytes;
    t.analysis_messages += s.analysis_messages;
  }
  return t;
}

int SolverFleet::hash_home(std::uint64_t fp) const {
  return static_cast<int>(mix64(fp) %
                          static_cast<std::uint64_t>(shards_.size()));
}

void SolverFleet::dispatch(Shard& shard, Batch&& batch, double start) {
  const int shard_idx = static_cast<int>(
      std::find_if(shards_.begin(), shards_.end(),
                   [&](const auto& s) { return s.get() == &shard; }) -
      shards_.begin());
  ++stats_.batches;
  double t = start;
  bool warm = false, refactored = false, failed = false;

  if (shard.has_last && shard.last_fp == batch.fp &&
      shard.last_ver == batch.ver && shard.svc->activate(batch.fp)) {
    // The shard's resident factors already ARE this operator snapshot:
    // serve the batch with zero factor work.
    warm = true;
    ++stats_.activations;
  } else {
    try {
      const FactorReport fr = shard.svc->factor(*batch.A);
      warm = fr.cache_hit;
      refactored = true;
      t += fr.factor_time;
      shard.has_last = true;
      shard.last_fp = batch.fp;
      shard.last_ver = batch.ver;
    } catch (const Error&) {
      failed = true;
      shard.has_last = false;
    }
  }

  const double factor_share =
      (t - start) / static_cast<double>(batch.members.size());
  if (failed) {
    for (const Member& m : batch.members) {
      FleetResponse r;
      r.id = m.id;
      r.tenant = m.rq.tenant;
      r.status = RequestStatus::Failed;
      r.shard = shard_idx;
      r.coalesced = m.coalesced;
      r.redirected = m.redirected;
      r.refactored = true;
      r.arrival = m.arrival;
      r.start = start;
      r.completion = t;
      done_.push_back(r);
      ++stats_.failed;
      TenantStats& ts = tenants_[m.rq.tenant];
      ++ts.failed;
      ts.sim_seconds += factor_share;
    }
    shard.busy_until = t;
    return;
  }

  std::vector<SolveRequest> reqs;
  reqs.reserve(batch.members.size());
  for (const Member& m : batch.members)
    reqs.push_back({m.rq.b, m.rq.x, m.rq.nrhs});
  const std::vector<SolveReport> reps = shard.svc->solve_stream(reqs);

  for (std::size_t i = 0; i < batch.members.size(); ++i) {
    const Member& m = batch.members[i];
    t += reps[i].solve_time;
    FleetResponse r;
    r.id = m.id;
    r.tenant = m.rq.tenant;
    r.status = RequestStatus::Done;
    r.shard = shard_idx;
    r.coalesced = m.coalesced;
    r.redirected = m.redirected;
    r.warm = warm;
    r.refactored = refactored;
    r.arrival = m.arrival;
    r.start = start;
    r.completion = t;
    r.solve = reps[i];
    done_.push_back(r);
    ++stats_.completed;
    TenantStats& ts = tenants_[m.rq.tenant];
    ts.rhs_columns += m.rq.nrhs;
    ts.sim_seconds += factor_share + reps[i].solve_time;
  }
  shard.busy_until = t;
}

void SolverFleet::advance(Shard& shard, double until) {
  while (!shard.queue.empty()) {
    Batch& front = shard.queue.front();
    const double start = std::max(shard.busy_until, front.window_close);
    if (start > until) break;
    Batch batch = std::move(front);
    shard.queue.pop_front();
    shard.queued -= batch.members.size();
    dispatch(shard, std::move(batch), start);
  }
}

void SolverFleet::shed(const FleetRequest& rq, std::uint64_t id,
                       double arrival) {
  FleetResponse r;
  r.id = id;
  r.tenant = rq.tenant;
  r.status = RequestStatus::Shed;
  r.arrival = arrival;
  r.start = arrival;
  r.completion = arrival;
  done_.push_back(r);
  ++stats_.shed;
  ++tenants_[rq.tenant].shed;
}

std::uint64_t SolverFleet::submit(const FleetRequest& request,
                                  double arrival) {
  SLU3D_CHECK(request.A != nullptr, "request carries no operator");
  SLU3D_CHECK(arrival >= clock_, "arrivals must be monotone in time");
  clock_ = arrival;
  for (auto& sh : shards_) advance(*sh, clock_);

  const std::uint64_t id = next_id_++;
  ++stats_.submitted;
  TenantStats& ts = tenants_[request.tenant];
  ++ts.requests;

  // Every shard keys patterns with the same fingerprint function.
  const std::uint64_t fp = shards_.front()->svc->fingerprint(*request.A);

  // 1. Coalesce: an open batch for this exact operator snapshot anywhere
  //    in the fleet absorbs the request (one solve_stream run serves all
  //    members; results stay bitwise identical to independent solves).
  for (auto& sh : shards_) {
    if (sh->queued >= opt_.queue_depth) continue;
    for (Batch& b : sh->queue) {
      if (b.fp == fp && b.ver == request.values_version &&
          arrival <= b.window_close) {
        b.members.push_back({id, arrival, true, false, request});
        ++sh->queued;
        ++stats_.coalesced;
        return id;
      }
    }
  }

  // 2. Route a new batch.
  int target;
  switch (opt_.routing) {
    case RoutingPolicy::RoundRobin:
      target = static_cast<int>(rr_next_++ %
                                static_cast<std::uint64_t>(shards_.size()));
      break;
    case RoutingPolicy::Hash:
      target = hash_home(fp);
      break;
    case RoutingPolicy::Affinity:
    default: {
      target = -1;
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (shards_[i]->svc->has_pattern(fp)) {
          // Prefer the least-loaded holder if the pattern is replicated.
          if (target < 0 ||
              shards_[i]->queued <
                  shards_[static_cast<std::size_t>(target)]->queued)
            target = static_cast<int>(i);
        }
      }
      if (target < 0) {
        target = hash_home(fp);
        break;
      }
      // Cache-warm migration: the affinity shard is drowning while another
      // sits cold — move the pattern's symbolic state (never the matrix or
      // factors) to the coldest shard and let the request follow it.
      if (opt_.migration_threshold > 0 && shards_.size() > 1) {
        Shard& holder = *shards_[static_cast<std::size_t>(target)];
        int coldest = 0;
        for (std::size_t i = 1; i < shards_.size(); ++i)
          if (shards_[i]->queued <
              shards_[static_cast<std::size_t>(coldest)]->queued)
            coldest = static_cast<int>(i);
        const bool fp_queued_on_holder = std::any_of(
            holder.queue.begin(), holder.queue.end(),
            [&](const Batch& b) { return b.fp == fp; });
        const double ratio =
            static_cast<double>(holder.queued + 1) /
            static_cast<double>(
                shards_[static_cast<std::size_t>(coldest)]->queued + 1);
        if (coldest != target && !fp_queued_on_holder &&
            ratio >= opt_.migration_threshold) {
          if (auto sym = holder.svc->extract_pattern(fp)) {
            stats_.migrated_bytes += sym->payload_bytes();
            shards_[static_cast<std::size_t>(coldest)]->svc->insert_pattern(
                std::move(*sym));
            ++stats_.migrations;
            if (holder.has_last && holder.last_fp == fp)
              holder.has_last = false;
            target = coldest;
          }
        }
      }
      break;
    }
  }

  // 3. Admission control: bounded queues with explicit backpressure.
  bool redirected = false;
  if (shards_[static_cast<std::size_t>(target)]->queued >= opt_.queue_depth) {
    int alt = 0;
    for (std::size_t i = 1; i < shards_.size(); ++i)
      if (shards_[i]->queued < shards_[static_cast<std::size_t>(alt)]->queued)
        alt = static_cast<int>(i);
    if (shards_[static_cast<std::size_t>(alt)]->queued >= opt_.queue_depth) {
      shed(request, id, arrival);
      return id;
    }
    redirected = alt != target;
    if (redirected) ++stats_.redirected;
    target = alt;
  }

  // 4. Open a new batch; it dispatches once its window closes and the
  //    shard frees up.
  Shard& sh = *shards_[static_cast<std::size_t>(target)];
  Batch b;
  b.fp = fp;
  b.ver = request.values_version;
  b.A = request.A;
  b.window_close = arrival + opt_.coalesce_window;
  b.members.push_back({id, arrival, false, redirected, request});
  sh.queue.push_back(std::move(b));
  ++sh.queued;
  return id;
}

std::vector<FleetResponse> SolverFleet::drain() {
  // The load generator stopped: close every open window at the last
  // arrival and flush all queues.
  for (auto& sh : shards_)
    for (Batch& b : sh->queue)
      b.window_close = std::min(b.window_close, clock_);
  for (auto& sh : shards_)
    advance(*sh, std::numeric_limits<double>::infinity());
  std::sort(done_.begin(), done_.end(),
            [](const FleetResponse& a, const FleetResponse& b) {
              return a.id < b.id;
            });
  return std::exchange(done_, {});
}

}  // namespace slu3d::service
