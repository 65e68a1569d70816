#include "simmpi/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <map>
#include <mutex>
#include <ranges>
#include <thread>
#include <tuple>

#include "support/check.hpp"

namespace slu3d::sim {

namespace detail {

namespace {
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Operation kinds occupy bits above the 32-bit user-tag space so a
// collective cannot match a point-to-point message that reuses the same
// user tag. User tags span the full non-negative int range, so the
// matching key is 64-bit internally.
enum class Op : int { P2P = 0, Coll = 1, Rma = 2 };
std::int64_t full_tag(Op op, int tag) {
  SLU3D_CHECK(tag >= 0, "tag out of range");
  return (static_cast<std::int64_t>(op) << 32) |
         static_cast<std::int64_t>(tag);
}

offset_t payload_bytes(std::size_t n_reals) {
  return static_cast<offset_t>(n_reals * sizeof(real_t));
}
}  // namespace

struct MsgKey {
  std::uint64_t comm_id;
  int src_world;
  std::int64_t tag;  ///< full (op-qualified) tag
  auto operator<=>(const MsgKey&) const = default;
};

struct Envelope {
  std::vector<real_t> payload;
  double arrival;
};

/// Cross-rank metadata of one RMA window. Created lazily (first member to
/// arrive, under the registry mutex) and identified by a uid every member
/// computes locally from (comm_id, tag, per-member creation count) — the
/// counts stay in lockstep because win_create is collective, so members
/// rendezvous on the same entry without serializing pointers. Each member
/// writes only its own extent slot; cross-rank reads are ordered by the
/// uncharged creation handshake.
struct WindowShared {
  std::uint64_t uid = 0;
  int p = 0;
  std::vector<std::size_t> extents;
};

class Context {
 public:
  Context(int n, const Platform& p)
      : platform(p),
        layout(p, n),
        model(p.machine),
        stats(static_cast<std::size_t>(n)),
        links(static_cast<std::size_t>(layout.num_links())) {
    for (int i = 0; i < n; ++i) mailboxes.push_back(std::make_unique<Mailbox>());
  }

  /// Matching queue for one (comm, src, tag) key. Arriving envelopes get
  /// ascending push sequence numbers; receives — blocking recv and posted
  /// irecv alike — draw ascending tickets from the same counter, and ticket
  /// t matches push t. That is exactly MPI's non-overtaking rule with
  /// blocking and non-blocking receives ordered by post time in one stream.
  struct Queue {
    std::map<std::uint64_t, Envelope> ready;  ///< push seq -> envelope
    std::uint64_t next_push = 0;
    std::uint64_t next_ticket = 0;
  };

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::map<MsgKey, Queue> queues;
  };

  /// Reserves the next matching slot of `key` at the destination (the
  /// posting half of a receive).
  std::uint64_t acquire_ticket(int dst_world, const MsgKey& key) {
    Mailbox& mb = *mailboxes[static_cast<std::size_t>(dst_world)];
    const std::lock_guard<std::mutex> lock(mb.mu);
    return mb.queues[key].next_ticket++;
  }

  void deliver(int dst_world, const MsgKey& key, Envelope env) {
    Mailbox& mb = *mailboxes[static_cast<std::size_t>(dst_world)];
    {
      const std::lock_guard<std::mutex> lock(mb.mu);
      Queue& q = mb.queues[key];
      q.ready.emplace(q.next_push++, std::move(env));
    }
    mb.cv.notify_all();
  }

  /// Reserves the next push slot of `key` at the destination *now*, for a
  /// delivery that will be executed later. An ibcast forwards to its tree
  /// children only when the parent payload is waited on, and two in-flight
  /// ibcasts on the same (root, tag) may be waited in either order — the
  /// slot reserved at post time keeps the downstream match in post order
  /// (MPI's non-overtaking rule), so equal-tag broadcasts never alias.
  std::uint64_t acquire_push_slot(int dst_world, const MsgKey& key) {
    Mailbox& mb = *mailboxes[static_cast<std::size_t>(dst_world)];
    const std::lock_guard<std::mutex> lock(mb.mu);
    return mb.queues[key].next_push++;
  }

  /// Second half of acquire_push_slot: lands the envelope in its slot.
  void deliver_at(int dst_world, const MsgKey& key, std::uint64_t slot,
                  Envelope env) {
    Mailbox& mb = *mailboxes[static_cast<std::size_t>(dst_world)];
    {
      const std::lock_guard<std::mutex> lock(mb.mu);
      mb.queues[key].ready.emplace(slot, std::move(env));
    }
    mb.cv.notify_all();
  }

  /// Blocks until the envelope matching `ticket` has been delivered.
  Envelope take_ticket(int dst_world, const MsgKey& key, std::uint64_t ticket) {
    Mailbox& mb = *mailboxes[static_cast<std::size_t>(dst_world)];
    std::unique_lock<std::mutex> lock(mb.mu);
    mb.cv.wait(lock, [&] {
      if (aborted.load(std::memory_order_relaxed)) return true;
      const auto it = mb.queues.find(key);
      return it != mb.queues.end() && it->second.ready.contains(ticket);
    });
    if (aborted.load(std::memory_order_relaxed))
      throw Error("simmpi: run aborted by a failing rank");
    return pop_ready(mb, key, ticket);
  }

  /// Rendezvous for win_create: every member computes `uid` locally and the
  /// first to arrive creates the shared struct.
  std::shared_ptr<WindowShared> window_shared(std::uint64_t uid, int p) {
    const std::lock_guard<std::mutex> lock(win_mu);
    auto& slot = windows[uid];
    if (!slot) {
      slot = std::make_shared<WindowShared>();
      slot->uid = uid;
      slot->p = p;
      slot->extents.resize(static_cast<std::size_t>(p), 0);
    }
    SLU3D_CHECK(slot->p == p, "win_create: uid collision across sizes");
    return slot;
  }

  /// Per-member window creation counter; advances in lockstep across the
  /// members of a communicator because creation is collective.
  std::uint64_t next_win_count(std::uint64_t comm_id, int tag, int member) {
    const std::lock_guard<std::mutex> lock(win_mu);
    return win_counts[{comm_id, tag, member}]++;
  }

  void abort_all() {
    aborted.store(true, std::memory_order_relaxed);
    for (auto& mb : mailboxes) {
      const std::lock_guard<std::mutex> lock(mb->mu);
      mb->cv.notify_all();
    }
  }

 private:
  /// Removes and returns the matched envelope; the queue itself is erased
  /// once drained AND free of outstanding tickets. RMA op-streams are kept
  /// alive even when quiescent: a Window mirrors the stream's ticket counter
  /// in its own expect/apply cursors, so resetting the queue to zero once it
  /// drains would desynchronise every later expect. Caller holds mb.mu.
  Envelope pop_ready(Mailbox& mb, const MsgKey& key, std::uint64_t ticket) {
    const auto it = mb.queues.find(key);
    const auto rit = it->second.ready.find(ticket);
    Envelope env = std::move(rit->second);
    it->second.ready.erase(rit);
    if (it->second.ready.empty() &&
        it->second.next_push == it->second.next_ticket &&
        (key.tag >> 32) != static_cast<std::int64_t>(Op::Rma))
      mb.queues.erase(it);
    return env;
  }

 public:

  Platform platform;
  PlatformLayout layout;
  MachineModel model;  ///< == platform.machine (compute + NIC constants)
  std::vector<RankStats> stats;
  std::vector<RankTrace> traces;  // sized only when tracing is enabled
  std::vector<std::unique_ptr<Mailbox>> mailboxes;

  /// Mutable run state of one platform link: the time until which it is
  /// occupied by previously injected transfers, plus lifetime usage.
  struct LinkState {
    double busy = 0.0;
    double queue_seconds = 0.0;
    offset_t bytes = 0;
    offset_t messages = 0;
  };
  /// Indexed by PlatformLayout link id. On the flat platform each link is
  /// one rank's wire, written only by the owning rank's thread (senders
  /// serialize their own transfers; LogGP's G applies at the injection
  /// side) — no lock needed. Hierarchical platforms share links between
  /// ranks, so charges there take link_mu and serialize FCFS in the
  /// wall-clock order rank threads reach the wire.
  std::vector<LinkState> links;
  std::mutex link_mu;

  /// THE charge site. Routes a transfer of `bytes` from `src_world` to
  /// `dst_world` starting no earlier than `ready` (the time the payload
  /// exists at the source: the sender's clock for blocking sends, the
  /// pre-overhead post clock for isend, the parent-completion bound for
  /// ibcast forwards), serializes it store-and-forward across every link
  /// on the route — each hop starts at max(progress so far, link busy) —
  /// and returns the arrival time at the destination. Queueing delay is
  /// attributed to the sender's RankStats::link_queue_seconds, to the
  /// per-link usage table, and (when tracing) to a LinkWait event naming
  /// the bottleneck link. On the flat platform the route is the single
  /// source wire and the arithmetic is bitwise-identical to the historical
  /// `max(ready, net_busy) + alpha + beta*bytes` clock.
  double charge_transfer(int src_world, int dst_world, offset_t bytes,
                         double ready) {
    thread_local std::vector<int> hops;
    layout.route(src_world, dst_world, hops);
    double t = ready;
    double queued = 0.0;
    double worst = 0.0;
    int bottleneck = -1;
    const auto charge_hop = [&](int id) {
      LinkState& ls = links[static_cast<std::size_t>(id)];
      const double wait = ls.busy - t;
      if (wait > 0.0) {
        queued += wait;
        if (wait > worst) {
          worst = wait;
          bottleneck = id;
        }
        t = ls.busy;
      }
      const PlatformLayout::Link& spec = layout.link(id);
      t = t + (spec.latency + spec.inv_bw * static_cast<double>(bytes));
      ls.busy = t;
      if (wait > 0.0) ls.queue_seconds += wait;
      ls.bytes += bytes;
      ls.messages += 1;
    };
    if (layout.flat()) {
      for (const int id : hops) charge_hop(id);
    } else {
      const std::lock_guard<std::mutex> lock(link_mu);
      for (const int id : hops) charge_hop(id);
    }
    if (queued > 0.0) {
      stats[static_cast<std::size_t>(src_world)].link_queue_seconds += queued;
      record(src_world, {TraceEvent::Kind::LinkWait, ready, ready + queued,
                         dst_world, bytes, ComputeKind::Other, bottleneck});
    }
    return t;
  }

  std::atomic<bool> aborted{false};
  /// RMA window registry: uid -> shared struct, plus the per-member
  /// creation counts the uids are derived from. Entries live until the
  /// Context does (windows are few and bounded per run).
  std::mutex win_mu;
  std::map<std::uint64_t, std::shared_ptr<WindowShared>> windows;
  std::map<std::tuple<std::uint64_t, int, int>, std::uint64_t> win_counts;

  void record(int world_rank, TraceEvent ev) {
    if (traces.empty()) return;
    traces[static_cast<std::size_t>(world_rank)].push_back(ev);
  }
};

/// Completion state of one outstanding non-blocking operation. Owned by the
/// posting rank and touched only from its thread; cross-thread handoff goes
/// through the mailbox queues.
struct RequestState {
  enum class Kind { Recv, Bcast };

  Context* ctx = nullptr;
  Kind kind = Kind::Recv;
  int me_world = 0;
  int peer_world = -1;  ///< source
  std::uint64_t comm_id = 0;
  std::int64_t ftag = 0;  ///< full (op-qualified) tag, for ibcast forwarding
  MsgKey key{};
  std::uint64_t ticket = 0;
  CommPlane plane = CommPlane::XY;
  double post_clock = 0.0;
  bool completed = false;
  std::vector<real_t> payload;    ///< irecv result, moved out by take()
  std::span<real_t> buf{};        ///< ibcast destination
  std::vector<int> child_worlds;  ///< ibcast subtree, fed on completion
  /// Push slots at each child, reserved at post time so a forward executed
  /// at wait time still matches downstream in post order (no equal-tag
  /// aliasing between in-flight broadcasts).
  std::vector<std::uint64_t> child_slots;

  RankStats& st() { return ctx->stats[static_cast<std::size_t>(me_world)]; }

  /// Injects a copy of `buf` towards each child. `fb` is the earliest time
  /// the payload exists on this rank: the post clock for a root, else
  /// max(post clock, parent completion) — NOT the current clock, so a wait
  /// performed long after the data arrived (async progress) does not delay
  /// the subtree's logical arrival. Only the per-message CPU overhead
  /// alpha is charged to this rank's clock.
  void forward_children(double fb) {
    if (child_worlds.empty()) return;
    auto& s = st();
    const offset_t bytes = payload_bytes(buf.size());
    for (std::size_t c = 0; c < child_worlds.size(); ++c) {
      const int dst = child_worlds[c];
      const double arrival = ctx->charge_transfer(me_world, dst, bytes, fb);
      const double t0 = s.clock;
      s.clock += ctx->model.alpha;
      ctx->record(me_world, {TraceEvent::Kind::Send, t0, s.clock, dst, bytes,
                             ComputeKind::Other, -1});
      s.add_sent(plane, bytes);
      ctx->deliver_at(dst, {comm_id, me_world, ftag}, child_slots[c],
                      {std::vector<real_t>(buf.begin(), buf.end()), arrival});
    }
  }

  /// Blocks for the match and finishes the operation. On completion the
  /// clock advances to max(local, sender completion) — the overlap
  /// credit: compute done since posting has hidden transfer time.
  void complete() {
    if (completed) return;
    Envelope env = ctx->take_ticket(me_world, key, ticket);
    auto& s = st();
    const offset_t bytes = payload_bytes(env.payload.size());
    const double t0 = s.clock;
    s.clock = std::max(s.clock, env.arrival);
    ctx->record(me_world, {TraceEvent::Kind::Wait, t0, s.clock, peer_world,
                           bytes, ComputeKind::Other, -1});
    s.wait_seconds += s.clock - t0;
    s.add_received(plane, bytes);
    if (kind == Kind::Bcast) {
      SLU3D_CHECK(env.payload.size() == buf.size(), "ibcast size mismatch");
      std::copy(env.payload.begin(), env.payload.end(), buf.begin());
      forward_children(std::max(post_clock, env.arrival));
    } else {
      payload = std::move(env.payload);
    }
    completed = true;
  }
};

}  // namespace detail

namespace {

using detail::Op;
using detail::payload_bytes;

}  // namespace

// ---- Request -------------------------------------------------------------

Request::Request() = default;
Request::Request(std::unique_ptr<detail::RequestState> st) : st_(std::move(st)) {}
Request::Request(Request&&) noexcept = default;
Request& Request::operator=(Request&&) noexcept = default;
Request::~Request() = default;

void Request::wait() {
  if (st_) st_->complete();
}

std::vector<real_t> Request::take() {
  SLU3D_CHECK(st_ != nullptr, "take: empty request");
  SLU3D_CHECK(st_->kind == detail::RequestState::Kind::Recv,
              "take: not a receive request");
  st_->complete();
  return std::move(st_->payload);
}

// ---- Comm basics ---------------------------------------------------------

int Comm::world_rank() const { return members_[static_cast<std::size_t>(rank_)]; }

const MachineModel& Comm::model() const { return ctx_->model; }

const Platform& Comm::platform() const { return ctx_->platform; }

RankStats& Comm::stats() {
  return ctx_->stats[static_cast<std::size_t>(world_rank())];
}

double Comm::clock() const {
  return ctx_->stats[static_cast<std::size_t>(world_rank())].clock;
}

void Comm::add_compute(offset_t flops, ComputeKind kind) {
  const double dt = ctx_->model.compute_time(flops);
  auto& st = stats();
  ctx_->record(world_rank(), {TraceEvent::Kind::Compute, st.clock,
                              st.clock + dt, -1, 0, kind, -1});
  st.clock += dt;
  st.compute_seconds[static_cast<std::size_t>(kind)] += dt;
  st.flops[static_cast<std::size_t>(kind)] += flops;
}

// ---- charged point-to-point helpers --------------------------------------

namespace {

/// Uncharged internal send/recv used by win_create's handshake; charged
/// ones below.
struct Wire {
  detail::Context* ctx;
  std::uint64_t comm_id;

  void send_free(int src_world, int dst_world, std::int64_t tag,
                 std::vector<real_t> payload) const {
    ctx->deliver(dst_world, {comm_id, src_world, tag},
                 {std::move(payload), /*arrival=*/0.0});
  }
  std::vector<real_t> recv_free(int dst_world, int src_world,
                                std::int64_t tag) const {
    const detail::MsgKey key{comm_id, src_world, tag};
    const std::uint64_t ticket = ctx->acquire_ticket(dst_world, key);
    return ctx->take_ticket(dst_world, key, ticket).payload;
  }
};

/// Blocking, charged send (store-and-forward): the sender is occupied
/// until the payload clears the route's last link, starting when each link
/// on the route frees up, and the payload reaches the receiver at that
/// same instant.
void send_charged(detail::Context* ctx, std::uint64_t comm_id, int me_world,
                  int dst_world, std::int64_t ft, std::vector<real_t> payload,
                  CommPlane plane) {
  auto& st = ctx->stats[static_cast<std::size_t>(me_world)];
  const offset_t bytes = payload_bytes(payload.size());
  const double t0 = st.clock;
  const double arrival =
      ctx->charge_transfer(me_world, dst_world, bytes, st.clock);
  st.clock = arrival;
  ctx->record(me_world, {TraceEvent::Kind::Send, t0, st.clock, dst_world, bytes,
                         ComputeKind::Other, -1});
  st.add_sent(plane, bytes);
  ctx->deliver(dst_world, {comm_id, me_world, ft}, {std::move(payload), arrival});
}

/// Blocking, charged receive through the shared ticket queue.
std::vector<real_t> recv_charged(detail::Context* ctx, std::uint64_t comm_id,
                                 int me_world, int src_world, std::int64_t ft,
                                 CommPlane plane) {
  const detail::MsgKey key{comm_id, src_world, ft};
  const std::uint64_t ticket = ctx->acquire_ticket(me_world, key);
  detail::Envelope env = ctx->take_ticket(me_world, key, ticket);
  auto& st = ctx->stats[static_cast<std::size_t>(me_world)];
  const double t0 = st.clock;
  st.clock = std::max(st.clock, env.arrival);
  ctx->record(me_world, {TraceEvent::Kind::Recv, t0, st.clock, src_world,
                         payload_bytes(env.payload.size()), ComputeKind::Other,
                         -1});
  st.wait_seconds += st.clock - t0;
  st.add_received(plane, payload_bytes(env.payload.size()));
  return env.payload;
}

}  // namespace

void Comm::send(int dst, int tag, std::span<const real_t> payload,
                CommPlane plane) {
  SLU3D_CHECK(dst >= 0 && dst < size(), "send: bad destination rank");
  SLU3D_CHECK(dst != rank_, "send: a rank may not message itself");
  send_charged(ctx_, comm_id_, world_rank(),
               members_[static_cast<std::size_t>(dst)],
               detail::full_tag(Op::P2P, tag),
               std::vector<real_t>(payload.begin(), payload.end()), plane);
}

std::vector<real_t> Comm::recv(int src, int tag, CommPlane plane) {
  SLU3D_CHECK(src >= 0 && src < size(), "recv: bad source rank");
  return recv_charged(ctx_, comm_id_, world_rank(),
                      members_[static_cast<std::size_t>(src)],
                      detail::full_tag(Op::P2P, tag), plane);
}

void Comm::isend(int dst, int tag, std::span<const real_t> payload,
                 CommPlane plane) {
  SLU3D_CHECK(dst >= 0 && dst < size(), "isend: bad destination rank");
  SLU3D_CHECK(dst != rank_, "isend: a rank may not message itself");
  const std::int64_t ft = detail::full_tag(Op::P2P, tag);
  const int me = world_rank();
  const int dst_world = members_[static_cast<std::size_t>(dst)];
  auto& st = stats();
  const offset_t bytes = payload_bytes(payload.size());
  // The CPU pays only the injection overhead; the transfer itself queues
  // on the route's links behind earlier outstanding sends. On an idle
  // route the arrival time is identical to the blocking send's.
  const double t0 = st.clock;
  st.clock += ctx_->model.alpha;
  const double arrival = ctx_->charge_transfer(me, dst_world, bytes, t0);
  ctx_->record(me, {TraceEvent::Kind::Send, t0, st.clock, dst_world, bytes,
                    ComputeKind::Other, -1});
  st.add_sent(plane, bytes);
  ctx_->deliver(dst_world, {comm_id_, me, ft},
                {std::vector<real_t>(payload.begin(), payload.end()), arrival});
}

Request Comm::irecv(int src, int tag, CommPlane plane) {
  SLU3D_CHECK(src >= 0 && src < size(), "irecv: bad source rank");
  const int me = world_rank();
  auto state = std::make_unique<detail::RequestState>();
  state->ctx = ctx_;
  state->kind = detail::RequestState::Kind::Recv;
  state->me_world = me;
  state->peer_world = members_[static_cast<std::size_t>(src)];
  state->key = {comm_id_, state->peer_world, detail::full_tag(Op::P2P, tag)};
  state->ticket = ctx_->acquire_ticket(me, state->key);
  state->plane = plane;
  state->post_clock = clock();
  return Request(std::move(state));
}

// ---- collectives ---------------------------------------------------------

namespace {

/// Charged collective-channel send/recv shared by the tree algorithms.
/// The send hands `payload` to the receiver's mailbox without a copy.
void coll_send(detail::Context* ctx, std::uint64_t comm_id,
               std::span<const int> members, int me_world, int dst, int tag,
               std::vector<real_t> payload, CommPlane plane) {
  send_charged(ctx, comm_id, me_world, members[static_cast<std::size_t>(dst)],
               detail::full_tag(Op::Coll, tag), std::move(payload), plane);
}

std::vector<real_t> coll_recv(detail::Context* ctx, std::uint64_t comm_id,
                              std::span<const int> members, int me_world,
                              int src, int tag, CommPlane plane) {
  return recv_charged(ctx, comm_id, me_world,
                      members[static_cast<std::size_t>(src)],
                      detail::full_tag(Op::Coll, tag), plane);
}

enum class RedOp { Sum, Max };

/// Binomial-tree element-wise reduction onto `root`: ceil(log2 p) rounds,
/// each rank sends exactly once (the root never), so the critical path is
/// ceil(log2 p) * (alpha + beta * bytes).
void reduce_tree(detail::Context* ctx, std::uint64_t comm_id,
                 std::span<const int> members, int rank, int root, int tag,
                 std::span<real_t> buf, CommPlane plane, RedOp op) {
  const int p = static_cast<int>(members.size());
  SLU3D_CHECK(root >= 0 && root < p, "reduce: bad root");
  const int me = members[static_cast<std::size_t>(rank)];
  const BinomialTree t = binomial_tree((rank - root + p) % p, p);
  for (const int c : std::views::reverse(t.children)) {
    const auto payload =
        coll_recv(ctx, comm_id, members, me, (c + root) % p, tag, plane);
    SLU3D_CHECK(payload.size() == buf.size(), "reduce size mismatch");
    for (std::size_t i = 0; i < buf.size(); ++i)
      buf[i] = op == RedOp::Sum ? buf[i] + payload[i]
                                : std::max(buf[i], payload[i]);
  }
  if (t.parent >= 0)
    coll_send(ctx, comm_id, members, me, (t.parent + root) % p, tag,
              std::vector<real_t>(buf.begin(), buf.end()), plane);
}

}  // namespace

BinomialTree binomial_tree(int pos, int size) {
  SLU3D_CHECK(pos >= 0 && pos < size, "binomial_tree: position out of range");
  BinomialTree t;
  const auto upos = static_cast<unsigned>(pos);
  const auto usize = static_cast<unsigned>(size);
  // The children hang below pos's lowest set bit, the root's below size.
  const unsigned low =
      pos == 0 ? std::bit_ceil(usize) : 1u << std::countr_zero(upos);
  if (pos != 0) t.parent = pos & (pos - 1);
  for (unsigned m = low >> 1; m > 0; m >>= 1)
    if (upos + m < usize)
      t.children.list[static_cast<std::size_t>(t.children.n++)] =
          static_cast<int>(upos + m);
  return t;
}

void Comm::bcast(int root, int tag, std::span<real_t> buf, CommPlane plane) {
  const int p = size();
  SLU3D_CHECK(root >= 0 && root < p, "bcast: bad root");
  const BinomialTree t = binomial_tree((rank_ - root + p) % p, p);
  if (t.parent >= 0) {
    const auto payload = coll_recv(ctx_, comm_id_, members_, world_rank(),
                                   (t.parent + root) % p, tag, plane);
    SLU3D_CHECK(payload.size() == buf.size(), "bcast size mismatch");
    std::copy(payload.begin(), payload.end(), buf.begin());
  }
  for (const int c : t.children)
    coll_send(ctx_, comm_id_, members_, world_rank(), (c + root) % p, tag,
              std::vector<real_t>(buf.begin(), buf.end()), plane);
}

Request Comm::ibcast(int root, int tag, std::span<real_t> buf, CommPlane plane) {
  const int p = size();
  SLU3D_CHECK(root >= 0 && root < p, "ibcast: bad root");
  const int me = world_rank();
  auto state = std::make_unique<detail::RequestState>();
  state->ctx = ctx_;
  state->kind = detail::RequestState::Kind::Bcast;
  state->me_world = me;
  state->comm_id = comm_id_;
  state->ftag = detail::full_tag(Op::Coll, tag);
  state->plane = plane;
  state->buf = buf;
  state->post_clock = clock();
  // Same binomial tree as bcast(), so per-rank message/byte counts match
  // the blocking form exactly.
  const BinomialTree t = binomial_tree((rank_ - root + p) % p, p);
  if (t.parent >= 0) {
    state->peer_world =
        members_[static_cast<std::size_t>((t.parent + root) % p)];
    state->key = {comm_id_, state->peer_world, state->ftag};
    state->ticket = ctx_->acquire_ticket(me, state->key);
  }
  // Reserve each child's matching slot now: forwards may execute at wait
  // time, out of post order across equal-tag broadcasts.
  for (const int c : t.children) {
    const int dst = members_[static_cast<std::size_t>((c + root) % p)];
    state->child_worlds.push_back(dst);
    state->child_slots.push_back(
        ctx_->acquire_push_slot(dst, {comm_id_, me, state->ftag}));
  }
  if (t.parent < 0) {
    state->forward_children(state->post_clock);
    state->completed = true;
  }
  return Request(std::move(state));
}

void Comm::reduce_sum(int root, int tag, std::span<real_t> buf, CommPlane plane) {
  reduce_tree(ctx_, comm_id_, members_, rank_, root, tag, buf, plane,
              RedOp::Sum);
}

void Comm::allreduce_sum(int tag, std::span<real_t> buf, CommPlane plane) {
  reduce_sum(0, tag, buf, plane);
  bcast(0, tag, buf, plane);
}

double Comm::allreduce_max(int tag, double value, CommPlane plane) {
  std::vector<real_t> v{value};
  reduce_tree(ctx_, comm_id_, members_, rank_, 0, tag, v, plane, RedOp::Max);
  bcast(0, tag, v, plane);
  return v[0];
}

std::vector<real_t> Comm::allgatherv(int tag, std::span<const real_t> mine,
                                     CommPlane plane) {
  const int p = size();
  // Bruck's algorithm. Before the round at distance d, this rank holds the
  // blocks of ranks rank, rank+1, ..., rank+d-1 (mod p) back to back in
  // `all`, with their lengths in `sizes`. It sends the first min(d, p-d)
  // of them to rank-d, prefixed by one header word per block holding its
  // length, and appends the same number of blocks received from rank+d.
  // ceil(log2 p) rounds, one send each, and every block crosses the wire
  // into each rank exactly once.
  std::vector<real_t> all(mine.begin(), mine.end());
  std::vector<std::size_t> sizes{mine.size()};
  for (int d = 1; d < p; d <<= 1) {
    const auto cnt = static_cast<std::size_t>(std::min(d, p - d));
    std::size_t len = 0;
    for (std::size_t i = 0; i < cnt; ++i) len += sizes[i];
    std::vector<real_t> out;
    out.reserve(cnt + len);
    for (std::size_t i = 0; i < cnt; ++i)
      out.push_back(static_cast<real_t>(sizes[i]));
    out.insert(out.end(), all.begin(),
               all.begin() + static_cast<std::ptrdiff_t>(len));
    coll_send(ctx_, comm_id_, members_, world_rank(), (rank_ - d + p) % p, tag,
              std::move(out), plane);
    const auto in = coll_recv(ctx_, comm_id_, members_, world_rank(),
                              (rank_ + d) % p, tag, plane);
    SLU3D_CHECK(in.size() >= cnt, "allgatherv: truncated header");
    std::size_t got = 0;
    for (std::size_t i = 0; i < cnt; ++i) {
      sizes.push_back(static_cast<std::size_t>(in[i]));
      got += sizes.back();
    }
    SLU3D_CHECK(in.size() == cnt + got, "allgatherv: block size mismatch");
    all.insert(all.end(), in.begin() + static_cast<std::ptrdiff_t>(cnt),
               in.end());
  }
  // Rotate rank 0's block, at position p - rank, to the front.
  std::size_t head = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>((p - rank_) % p); ++i)
    head += sizes[i];
  std::rotate(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(head),
              all.end());
  return all;
}

void Comm::barrier(int tag, CommPlane plane) {
  std::vector<real_t> empty;
  reduce_sum(0, tag, empty, plane);
  bcast(0, tag, empty, plane);
}

Comm Comm::sub(std::vector<int> ranks) const {
  // Every member derives the id alone: the parent's id mixed with the
  // members' world ranks in new-rank order.
  std::uint64_t id =
      detail::mix64(comm_id_ * std::uint64_t{0x9e3779b97f4a7c15});
  std::vector<char> listed(members_.size(), 0);
  int new_rank = -1;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    int& r = ranks[i];
    SLU3D_CHECK(r >= 0 && r < size(), "sub: rank out of range");
    SLU3D_CHECK(!listed[static_cast<std::size_t>(r)], "sub: rank listed twice");
    listed[static_cast<std::size_t>(r)] = 1;
    if (r == rank_) new_rank = static_cast<int>(i);
    r = members_[static_cast<std::size_t>(r)];
    id = detail::mix64(id ^ static_cast<std::uint64_t>(r));
  }
  SLU3D_CHECK(new_rank >= 0, "sub: caller not listed");
  return Comm(ctx_, id, std::move(ranks), new_rank);
}

// ---- one-sided windows -----------------------------------------------------

namespace {

/// All puts to one window share a single matching stream per origin: uid
/// as the communicator field, the origin as source, one reserved tag.
std::int64_t rma_op_tag() { return detail::full_tag(Op::Rma, 0); }

}  // namespace

Window Comm::win_create(int tag, std::span<real_t> local, CommPlane plane) {
  const int p = size();
  // Lockstep per-member creation count makes the uid computable locally and
  // identical across members without exchanging it.
  const std::uint64_t count = ctx_->next_win_count(comm_id_, tag, world_rank());
  const std::uint64_t uid = detail::mix64(
      detail::mix64(comm_id_ ^ (static_cast<std::uint64_t>(tag) << 32) ^
                    std::uint64_t{0xA11CE5}) +
      count * std::uint64_t{0x9e3779b97f4a7c15});
  auto sh = ctx_->window_shared(uid, p);
  sh->extents[static_cast<std::size_t>(rank_)] = local.size();
  // Uncharged handshake: gather-to-member-0 + replies. This orders every
  // member's slot writes before every member's return, so no operation can
  // race window creation.
  const Wire wire{ctx_, comm_id_};
  const std::int64_t hs = detail::full_tag(Op::Rma, tag);
  if (rank_ == 0) {
    for (int r = 1; r < p; ++r)
      wire.recv_free(world_rank(), members_[static_cast<std::size_t>(r)], hs);
    for (int r = 1; r < p; ++r)
      wire.send_free(world_rank(), members_[static_cast<std::size_t>(r)], hs,
                     {});
  } else if (p > 1) {
    wire.send_free(world_rank(), members_[0], hs, {});
    wire.recv_free(world_rank(), members_[0], hs);
  }
  Window w;
  w.ctx_ = ctx_;
  w.sh_ = std::move(sh);
  w.members_ = members_;
  w.rank_ = rank_;
  w.plane_ = plane;
  w.local_ = local;
  w.origin_.resize(static_cast<std::size_t>(p));
  return w;
}

std::size_t Window::extent(int target) const {
  SLU3D_CHECK(valid(), "extent: invalid window");
  SLU3D_CHECK(target >= 0 && target < size(), "extent: bad target");
  return sh_->extents[static_cast<std::size_t>(target)];
}

/// The envelope is one header word, the target element offset as a bit
/// pattern, then the data. Charged exactly like isend: alpha on the clock,
/// the transfer (data bytes only — the header word rides free) serialized
/// across the route to the target, bytes/messages booked as sent on the
/// plane.
void Window::put(int target, std::size_t offset, std::span<const real_t> data) {
  SLU3D_CHECK(valid(), "put: invalid window");
  SLU3D_CHECK(target >= 0 && target < size(), "put: bad target");
  SLU3D_CHECK(offset + data.size() <= extent(target), "put: out of range");
  std::vector<real_t> payload;
  payload.reserve(data.size() + 1);
  payload.push_back(std::bit_cast<real_t>(static_cast<std::uint64_t>(offset)));
  payload.insert(payload.end(), data.begin(), data.end());
  const offset_t data_bytes = payload_bytes(data.size());
  const int me = members_[static_cast<std::size_t>(rank_)];
  const int dst = members_[static_cast<std::size_t>(target)];
  auto& st = ctx_->stats[static_cast<std::size_t>(me)];
  const double t0 = st.clock;
  st.clock += ctx_->model.alpha;
  const double arrival = ctx_->charge_transfer(me, dst, data_bytes, t0);
  ctx_->record(me, {TraceEvent::Kind::Send, t0, st.clock, dst, data_bytes,
                    ComputeKind::Other, -1});
  st.add_sent(plane_, data_bytes);
  ctx_->deliver(dst, {sh_->uid, me, rma_op_tag()},
                {std::move(payload), arrival});
}

WindowDelivery Window::expect(int origin) {
  SLU3D_CHECK(valid(), "expect: invalid window");
  SLU3D_CHECK(origin >= 0 && origin < size(), "expect: bad origin");
  const detail::MsgKey key{sh_->uid,
                           members_[static_cast<std::size_t>(origin)],
                           rma_op_tag()};
  const std::uint64_t ticket =
      ctx_->acquire_ticket(members_[static_cast<std::size_t>(rank_)], key);
  auto& os = origin_[static_cast<std::size_t>(origin)];
  SLU3D_CHECK(ticket == os.next_expect,
              "expect: window matching stream out of sync");
  return WindowDelivery(this, origin, os.next_expect++);
}

/// Applies every not-yet-applied put from `origin` up to and including
/// `seq`, in post order — the non-overtaking guarantee: waiting
/// a later delivery first forces the earlier ones in before it.
void Window::apply_through(int origin, std::uint64_t seq) {
  auto& os = origin_[static_cast<std::size_t>(origin)];
  const detail::MsgKey key{sh_->uid,
                           members_[static_cast<std::size_t>(origin)],
                           rma_op_tag()};
  const int me = members_[static_cast<std::size_t>(rank_)];
  while (os.next_applied <= seq) {
    detail::Envelope env = ctx_->take_ticket(me, key, os.next_applied);
    apply_envelope(origin, std::move(env.payload), env.arrival);
    ++os.next_applied;
  }
}

/// Receiver-side completion of one landed put: charged like an irecv wait
/// (clock to max(local, arrival), wait credit, data bytes + one message
/// received on the plane), then the data is copied into the local window
/// memory.
void Window::apply_envelope(int origin, std::vector<real_t> payload,
                            double arrival) {
  SLU3D_CHECK(!payload.empty(), "put: truncated payload");
  const int me = members_[static_cast<std::size_t>(rank_)];
  auto& s = ctx_->stats[static_cast<std::size_t>(me)];
  const offset_t bytes = payload_bytes(payload.size() - 1);
  const double t0 = s.clock;
  s.clock = std::max(s.clock, arrival);
  ctx_->record(me, {TraceEvent::Kind::Wait, t0, s.clock,
                    members_[static_cast<std::size_t>(origin)], bytes,
                    ComputeKind::Other, -1});
  s.wait_seconds += s.clock - t0;
  s.add_received(plane_, bytes);
  const auto offset =
      static_cast<std::size_t>(std::bit_cast<std::uint64_t>(payload[0]));
  SLU3D_CHECK(offset + payload.size() - 1 <= local_.size(),
              "put: lands out of range");
  std::copy(payload.begin() + 1, payload.end(),
            local_.begin() + static_cast<std::ptrdiff_t>(offset));
}

void WindowDelivery::wait() {
  if (!win_) return;
  Window* w = win_;
  win_ = nullptr;
  w->apply_through(origin_, seq_);
}

double RunResult::max_clock() const {
  double best = 0;
  for (const auto& r : ranks) best = std::max(best, r.clock);
  return best;
}

const RankStats& RunResult::critical() const {
  SLU3D_CHECK(!ranks.empty(), "critical: no ranks");
  const RankStats* crit = &ranks.front();
  for (const auto& r : ranks)
    if (r.clock > crit->clock) crit = &r;
  return *crit;
}

offset_t RunResult::max_bytes_received(CommPlane plane) const {
  offset_t best = 0;
  for (const auto& r : ranks)
    best = std::max(best, r.bytes_received[static_cast<std::size_t>(plane)]);
  return best;
}

offset_t RunResult::total_bytes_sent(CommPlane plane) const {
  offset_t total = 0;
  for (const auto& r : ranks)
    total += r.bytes_sent[static_cast<std::size_t>(plane)];
  return total;
}

double RunResult::max_analysis_seconds() const {
  double best = 0;
  for (const auto& r : ranks) best = std::max(best, r.analysis_seconds);
  return best;
}

offset_t RunResult::max_analysis_bytes_received() const {
  offset_t best = 0;
  for (const auto& r : ranks)
    best = std::max(best, r.analysis_bytes_received);
  return best;
}

offset_t RunResult::total_analysis_messages_sent() const {
  offset_t total = 0;
  for (const auto& r : ranks) total += r.analysis_messages_sent;
  return total;
}

double RunResult::total_link_queue_seconds() const {
  double total = 0.0;
  for (const auto& l : links) total += l.queue_seconds;
  return total;
}

std::vector<std::string> RunResult::link_names() const {
  std::vector<std::string> names;
  names.reserve(links.size());
  for (const auto& l : links) names.push_back(l.name);
  return names;
}

struct RuntimeAccess {
  static Comm make_world(detail::Context* ctx, int n_ranks, int rank) {
    std::vector<int> members(static_cast<std::size_t>(n_ranks));
    for (int i = 0; i < n_ranks; ++i) members[static_cast<std::size_t>(i)] = i;
    return Comm(ctx, /*comm_id=*/1, std::move(members), rank);
  }
};

RunResult run_ranks(int n_ranks, const Platform& platform,
                    const std::function<void(Comm&)>& body,
                    const RunOptions& options) {
  SLU3D_CHECK(n_ranks > 0, "need at least one rank");
  detail::Context ctx(n_ranks, platform);
  if (options.trace) ctx.traces.resize(static_cast<std::size_t>(n_ranks));
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n_ranks));
  threads.reserve(static_cast<std::size_t>(n_ranks));
  for (int r = 0; r < n_ranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        Comm world = RuntimeAccess::make_world(&ctx, n_ranks, r);
        body(world);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        ctx.abort_all();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Prefer the root-cause error over the collateral "aborted by a failing
  // rank" ones the other ranks throw while unwinding.
  std::exception_ptr first, root_cause;
  for (auto& e : errors) {
    if (!e) continue;
    if (!first) first = e;
    if (root_cause) continue;
    try {
      std::rethrow_exception(e);
    } catch (const Error& err) {
      if (std::string_view(err.what()).find("aborted by a failing rank") ==
          std::string_view::npos)
        root_cause = e;
    } catch (...) {
      root_cause = e;
    }
  }
  if (root_cause) std::rethrow_exception(root_cause);
  if (first) std::rethrow_exception(first);
  RunResult result{std::move(ctx.stats), std::move(ctx.traces), {}};
  result.links.reserve(static_cast<std::size_t>(ctx.layout.num_links()));
  for (int i = 0; i < ctx.layout.num_links(); ++i) {
    const auto& ls = ctx.links[static_cast<std::size_t>(i)];
    result.links.push_back(
        {ctx.layout.link(i).name, ls.bytes, ls.messages, ls.queue_seconds});
  }
  return result;
}

RunResult run_ranks(int n_ranks, const MachineModel& model,
                    const std::function<void(Comm&)>& body,
                    const RunOptions& options) {
  return run_ranks(n_ranks, Platform::flat(model), body, options);
}

}  // namespace slu3d::sim
