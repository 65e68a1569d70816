// The message-passing runtime (the MPI substitute; see DESIGN.md).
//
// `run_ranks(P, model, body)` runs `body` once per rank, each on its own
// thread. Ranks communicate only through Comm: blocking typed send/recv
// plus log-depth collectives, with MPI point-to-point matching
// semantics (FIFO per (communicator, source, tag)), a buffered isend, and
// non-blocking irecv/ibcast returning a Request to wait on. Every
// broadcast and reduction walks one binomial tree (binomial_tree below).
//
// Every rank carries a LogGP-style logical clock: compute advances it by
// gamma*flops, and every transfer is charged through the Platform
// (platform.hpp) — routed over a link sequence and serialized
// store-and-forward against each link's busy clock. On the default flat
// platform the route is the sender's single wire, so a blocking message
// costs alpha + beta*bytes and a receive completes at max(local clock,
// sender's clock at send + message time) — the historical per-endpoint
// LogGP arithmetic, bitwise. Hierarchical platforms share uplinks between
// ranks so concurrent transfers genuinely contend; queueing is attributed
// per sender (link_queue_seconds), per link (RunResult::links), and as
// link-wait trace events. Non-blocking operations decouple the CPU clock
// from the network: an isend charges only the overhead alpha to the
// sender and deposits the payload with a completion timestamp computed
// from its route; the receiver's clock only advances to
// max(local, sender_completion) at wait(), so any compute performed
// between irecv/ibcast and wait genuinely hides transfer time. The
// maximum final clock across ranks is the simulated parallel runtime;
// per-rank byte counters split by plane reproduce the paper's
// W_fact / W_red and are identical between the blocking and non-blocking
// forms of the same communication pattern — and across platforms.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "simmpi/comm_stats.hpp"
#include "simmpi/machine_model.hpp"
#include "simmpi/platform.hpp"
#include "simmpi/trace.hpp"
#include "support/types.hpp"

namespace slu3d::sim {

/// A position's neighbours in the binomial tree over positions
/// 0..size-1 rooted at 0: the one tree every broadcast and reduction
/// walks, rotated to its root. Holds no heap memory.
struct BinomialTree {
  int parent = -1;  ///< pos with its lowest set bit cleared; -1 at the root
  /// pos + 2^k for each 2^k below pos's lowest set bit (below size at the
  /// root) with pos + 2^k < size, farthest first. Held by value, so
  /// `for (int c : binomial_tree(pos, size).children)` is safe.
  struct Children {
    std::array<int, 31> list{};
    int n = 0;
    const int* begin() const { return list.data(); }
    const int* end() const { return list.data() + n; }
  } children;
};

/// `pos`'s parent and children in the binomial tree over `size`
/// positions (0 <= pos < size).
BinomialTree binomial_tree(int pos, int size);

namespace detail {
class Context;          // shared mailboxes + stats, defined in runtime.cpp
struct RequestState;    // per-operation completion state, runtime.cpp
struct WindowShared;    // cross-rank window metadata, runtime.cpp
}

class Window;

/// Handle for an outstanding non-blocking operation. Default-constructed
/// requests are inert (valid() == false). A pending irecv/ibcast request
/// MUST eventually be completed with wait(): for ibcast, interior
/// tree ranks forward the payload to their children inside wait(), so a
/// dropped request starves the subtree (as dropping an active MPI request
/// would). Move-only.
class Request {
 public:
  Request();
  Request(Request&&) noexcept;
  Request& operator=(Request&&) noexcept;
  ~Request();

  bool valid() const { return st_ != nullptr; }
  /// Blocks until the operation completes. For receive-like requests the
  /// caller's clock advances to max(local, sender_completion) — time spent
  /// computing since the request was posted overlaps the transfer.
  void wait();
  /// wait(), then moves out the received payload (irecv requests only).
  std::vector<real_t> take();

 private:
  friend class Comm;
  explicit Request(std::unique_ptr<detail::RequestState> st);
  std::unique_ptr<detail::RequestState> st_;
};

/// A communicator: an ordered group of ranks with a private matching
/// context. Copyable; all copies refer to the same runtime context.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_.size()); }
  int world_rank() const;

  /// Blocking point-to-point send/recv of a real_t payload. `dst`/`src`
  /// are ranks within this communicator. Matching is FIFO per
  /// (communicator, src, tag); blocking and non-blocking operations on the
  /// same (communicator, src, tag) share one matching queue, ordered by
  /// call (post) order exactly as MPI orders them. A rank never messages
  /// itself: data it already holds is not a transfer, and the charge path
  /// would bill it alpha + beta*bytes like one, so send and isend throw
  /// slu3d::Error when `dst` is the calling rank.
  void send(int dst, int tag, std::span<const real_t> payload, CommPlane plane);
  std::vector<real_t> recv(int src, int tag, CommPlane plane);

  /// Non-blocking send: the payload is captured immediately (buffered, so
  /// there is nothing to wait on and no Request), the sender's clock
  /// advances only by the overhead alpha, and the transfer occupies the
  /// sender's network queue in the background. Completion timestamp:
  ///   max(sender clock at post, network free) + alpha + beta*bytes.
  void isend(int dst, int tag, std::span<const real_t> payload,
             CommPlane plane);
  /// Non-blocking receive: reserves the next matching slot of the
  /// (communicator, src, tag) queue at post time (MPI posting order);
  /// wait()/take() blocks for the matching message and advances the clock
  /// to max(local, sender_completion).
  Request irecv(int src, int tag, CommPlane plane);

  /// Binomial-tree broadcast of `buf` from `root` (buf must be presized on
  /// every rank; contents only matter on the root): receive from the
  /// parent, then send to the children, farthest first.
  void bcast(int root, int tag, std::span<real_t> buf, CommPlane plane);

  /// Non-blocking broadcast over the same binomial tree as bcast() (so
  /// per-rank byte counters are identical). The root forwards to its
  /// children at post time; an interior rank forwards inside wait(), but
  /// the forwarded completion timestamps are computed from
  /// max(its post clock, its parent's completion) — modelling an
  /// asynchronous progress engine — so a late wait() never delays the
  /// subtree's logical arrival, only its physical delivery. Every rank of
  /// the communicator must post the ibcast and eventually wait it; `buf`
  /// must stay valid until then (non-roots receive into it at wait()).
  Request ibcast(int root, int tag, std::span<real_t> buf, CommPlane plane);

  /// Binomial-tree element-wise sum-reduction onto `root`: fold in the
  /// children, nearest first, then send to the parent.
  void reduce_sum(int root, int tag, std::span<real_t> buf, CommPlane plane);

  /// Allreduce: binomial-tree reduction to rank 0 (sum, or max), then a
  /// binomial broadcast.
  void allreduce_sum(int tag, std::span<real_t> buf, CommPlane plane);
  double allreduce_max(int tag, double value, CommPlane plane);

  /// Variable-size allgather: every rank contributes `mine` and receives
  /// the concatenation in rank order. Bruck's algorithm: ceil(log2 P)
  /// rounds, one message per rank per round, each prefixed by one header
  /// word per block it carries (the block's length). Every rank receives
  /// each other rank's block exactly once.
  std::vector<real_t> allgatherv(int tag, std::span<const real_t> mine,
                                 CommPlane plane);

  void barrier(int tag, CommPlane plane);

  /// The communicator of the listed ranks of this one; new rank i is
  /// `ranks[i]`. Local: called by exactly the listed ranks, it exchanges
  /// no message and charges nothing. Its matching id is a pure function of
  /// this communicator's id and the members' world ranks, so every member
  /// derives the same id alone, and a child listing all of its parent's
  /// ranks still matches apart from the parent. Two calls with the same
  /// list on one communicator return the same group, matching context
  /// included. Throws slu3d::Error unless the caller is listed and every
  /// listed rank is in range and distinct.
  Comm sub(std::vector<int> ranks) const;

  /// Collective: exposes `local` as a one-sided RMA window over this
  /// communicator (MPI_Win_create). Every member must call with the same
  /// `tag`; `local` must outlive the Window. Repeated creations on the
  /// same (communicator, tag) are matched by call order, so successive
  /// windows never alias. The setup handshake itself is uncharged; all put
  /// traffic on the window is LogGP-charged on `plane`.
  Window win_create(int tag, std::span<real_t> local, CommPlane plane);

  /// Advance the logical clock by the model cost of `flops`.
  void add_compute(offset_t flops, ComputeKind kind);

  double clock() const;

  const MachineModel& model() const;
  /// The platform this run charges transfers against (flat unless the run
  /// was started with a hierarchical one).
  const Platform& platform() const;
  /// This rank's statistics (mutable live view).
  RankStats& stats();

 private:
  friend struct RuntimeAccess;
  Comm(detail::Context* ctx, std::uint64_t comm_id, std::vector<int> members,
       int rank)
      : ctx_(ctx), comm_id_(comm_id), members_(std::move(members)), rank_(rank) {}

  detail::Context* ctx_;
  std::uint64_t comm_id_;
  std::vector<int> members_;  ///< member world ranks, in rank order
  int rank_;                  ///< my rank within this communicator
};

/// Receipt for one expected put (see Window::expect). Waiting applies the
/// matched put — and every earlier unapplied put from the same origin
/// first, so puts from one origin always land in post order (the RMA
/// analogue of the equal-tag ibcast non-overtaking fix). Copyable and
/// inert when default-constructed; wait() after completion is a no-op.
/// The Window must outlive (and not relocate under) pending deliveries.
class WindowDelivery {
 public:
  WindowDelivery() = default;
  bool valid() const { return win_ != nullptr; }
  /// Blocks until the expected put (and all earlier ones from the same
  /// origin) has been applied to the local window memory, charging
  /// the receive like an irecv wait: clock to max(local, arrival), the
  /// data bytes (headers are free) and one message on the window's plane.
  void wait();

 private:
  friend class Window;
  WindowDelivery(Window* win, int origin, std::uint64_t seq)
      : win_(win), origin_(origin), seq_(seq) {}
  Window* win_ = nullptr;
  int origin_ = 0;
  std::uint64_t seq_ = 0;
};

/// A one-sided RMA window over a communicator (created collectively by
/// Comm::win_create). A put is charged exactly like isend: alpha on the
/// origin's clock, the transfer serialized on the origin's wire, and the
/// data bytes booked as sent on the window's plane. The receiver calls
/// expect(origin) once per put it knows is coming, and wait()s the
/// returned delivery at the point the data is needed. No engine uses
/// windows; perf_ledger's `simmpi.put_p64_us` row measures the host cost
/// of a put. Move-only.
class Window {
 public:
  Window() = default;
  Window(Window&&) noexcept = default;
  Window& operator=(Window&&) noexcept = default;

  bool valid() const { return sh_ != nullptr; }
  /// Number of ranks in the window's communicator.
  int size() const { return static_cast<int>(members_.size()); }
  /// My rank within the window's communicator.
  int rank() const { return rank_; }
  /// The local memory exposed by this rank.
  std::span<real_t> local() const { return local_; }
  /// The exposed extent of `target`'s window memory.
  std::size_t extent(int target) const;

  /// Copies `data` into target's window at element `offset`.
  void put(int target, std::size_t offset, std::span<const real_t> data);

  /// Registers the next incoming put from `origin` (in that origin's post
  /// order) and returns its delivery receipt. The matching is reserved at
  /// call time, exactly like an irecv posting.
  WindowDelivery expect(int origin);

 private:
  friend class Comm;
  friend class WindowDelivery;
  struct OriginSeq {
    std::uint64_t next_expect = 0;   ///< puts registered via expect()
    std::uint64_t next_applied = 0;  ///< puts applied to local memory
  };

  void apply_through(int origin, std::uint64_t seq);
  void apply_envelope(int origin, std::vector<real_t> payload, double arrival);

  detail::Context* ctx_ = nullptr;
  std::shared_ptr<detail::WindowShared> sh_;
  std::vector<int> members_;  ///< member world ranks, in rank order
  int rank_ = 0;              ///< my rank within the window's communicator
  CommPlane plane_ = CommPlane::XY;
  std::span<real_t> local_;
  std::vector<OriginSeq> origin_;
};

/// Lifetime usage of one platform link: what travelled over it and how
/// long transfers queued behind it. Index order matches the ids LinkWait
/// trace events carry.
struct LinkUsage {
  std::string name;
  offset_t bytes = 0;
  offset_t messages = 0;
  /// Total seconds transfers spent waiting for this link to free up.
  double queue_seconds = 0.0;
};

struct RunResult {
  std::vector<RankStats> ranks;
  /// Per-rank event timelines; empty unless tracing was enabled.
  std::vector<RankTrace> traces;
  /// Per-link usage over the whole run, in link-id order (the flat wire is
  /// one link per endpoint; hierarchical platforms add shared up/down
  /// pairs per node/switch group).
  std::vector<LinkUsage> links;

  double max_clock() const;
  /// The critical-path rank: the one with the largest final clock, the
  /// first one on a tie.
  const RankStats& critical() const;
  /// Max over ranks of bytes received in `plane` — each rank receives every
  /// block it needs exactly once, so this matches the paper's "per-process
  /// communication volume on the critical path" (Eq. 2 / Fig. 10).
  offset_t max_bytes_received(CommPlane plane) const;
  /// Sum over ranks of bytes sent in `plane`. Tree collectives make
  /// intermediate ranks forward payloads, so sent bytes overcount the
  /// algorithmic volume; max_bytes_received is the paper's W.
  offset_t total_bytes_sent(CommPlane plane) const;
  /// Analysis-phase aggregates (zero unless the run called
  /// analyze_in_sim): critical-path seconds, the paper's
  /// per-process received-volume metric restricted to the phase, and the
  /// total message count of the phase.
  double max_analysis_seconds() const;
  offset_t max_analysis_bytes_received() const;
  offset_t total_analysis_messages_sent() const;
  /// Total transfer-queueing time across all links (== the sum of every
  /// rank's link_queue_seconds); zero on an uncontended run.
  double total_link_queue_seconds() const;
  /// The link names in id order, for write_chrome_trace.
  std::vector<std::string> link_names() const;
};

struct RunOptions {
  /// Record a TraceEvent for every compute region, send, and receive.
  bool trace = false;
};

/// Runs `body(comm)` on `n_ranks` threads and returns per-rank statistics.
/// Any exception thrown by a rank is rethrown here (after all threads are
/// joined); remaining ranks blocked in recv are woken with an error.
///
/// Every transfer is charged through the platform: routed across the link
/// sequence `PlatformLayout::route(src, dst)` yields and serialized
/// store-and-forward against each link's busy clock. On the flat platform
/// the route is the sender's own wire and the arithmetic reproduces the
/// historical per-endpoint LogGP clock bitwise; byte/message counters are
/// platform-independent either way (the platform changes *when* messages
/// move, never *whether*). Hierarchical platforms share links between
/// ranks, so arrival times there depend on the wall-clock order in which
/// rank threads reach a contended link (FCFS) — counters stay exact, but
/// clocks are not bitwise-reproducible across runs.
RunResult run_ranks(int n_ranks, const Platform& platform,
                    const std::function<void(Comm&)>& body,
                    const RunOptions& options = {});

/// Convenience overload: runs on the flat one-link-per-endpoint platform
/// over `model` (the exact historical behaviour).
RunResult run_ranks(int n_ranks, const MachineModel& model,
                    const std::function<void(Comm&)>& body,
                    const RunOptions& options = {});

}  // namespace slu3d::sim
