// Per-rank accounting. Communication is split by plane exactly as the
// paper's Fig. 10 splits it: XY = messages inside a 2D process grid during
// factorization (W_fact), Z = ancestor-reduction messages along the third
// grid axis (W_red). Compute is split by kernel so Fig. 9's
// T_scu / T_comm decomposition can be reported.
#pragma once

#include <array>

#include "support/types.hpp"

namespace slu3d::sim {

enum class CommPlane : int { XY = 0, Z = 1 };
enum class ComputeKind : int { DiagFactor = 0, PanelSolve = 1, SchurUpdate = 2, Other = 3 };

inline constexpr int kNumPlanes = 2;
inline constexpr int kNumComputeKinds = 4;

struct RankStats {
  std::array<offset_t, kNumPlanes> bytes_sent{};
  std::array<offset_t, kNumPlanes> bytes_received{};
  std::array<offset_t, kNumPlanes> messages_sent{};
  std::array<offset_t, kNumPlanes> messages_received{};
  std::array<double, kNumComputeKinds> compute_seconds{};
  std::array<offset_t, kNumComputeKinds> flops{};
  double clock = 0.0;  ///< final logical time of the rank
  /// Clock advance spent blocked for message arrivals: the sum over all
  /// receives (blocking recv and Request::wait alike) of
  /// max(0, sender_completion - local clock). With non-blocking
  /// communication, transfer time hidden behind compute performed between
  /// post and wait never shows up here — so wait_seconds measures the
  /// *residual*, non-overlapped part of each transfer, not raw volume.
  double wait_seconds = 0.0;
  /// Time this rank's outgoing transfers spent queued behind busy links
  /// (its own wire on the flat platform; any shared uplink on hierarchical
  /// ones) before starting to serialize. Charged at injection, so it
  /// overlaps the sender's compute for non-blocking sends; the per-link
  /// split lives in RunResult::links, and traces attribute each stall to
  /// its bottleneck link via TraceEvent::Kind::LinkWait.
  double link_queue_seconds = 0.0;
  /// Analysis-phase split (the paper-pipeline's cold-start ordering +
  /// symbolic stage run in-sim; see src/analysis/). analyze_in_sim adds
  /// the clock advance, bytes received and messages sent on both planes
  /// between its entry and its exit, so W_analysis / msg_analysis report
  /// exactly the traffic of the analysis stage, separated from the numeric
  /// W_fact / W_red of the same run.
  double analysis_seconds = 0.0;
  offset_t analysis_bytes_received = 0;
  offset_t analysis_messages_sent = 0;

  /// The single bookkeeping funnel for sent bytes: every runtime charge
  /// site (blocking send, isend, ibcast forwarding, window put) goes
  /// through here.
  void add_sent(CommPlane plane, offset_t bytes) {
    bytes_sent[static_cast<std::size_t>(plane)] += bytes;
    messages_sent[static_cast<std::size_t>(plane)] += 1;
  }
  /// Same funnel for the receive side (blocking recv, request completion,
  /// window put delivery).
  void add_received(CommPlane plane, offset_t bytes) {
    bytes_received[static_cast<std::size_t>(plane)] += bytes;
    messages_received[static_cast<std::size_t>(plane)] += 1;
  }

  offset_t total_bytes_sent() const {
    return bytes_sent[0] + bytes_sent[1];
  }
  double total_compute_seconds() const {
    double t = 0;
    for (double c : compute_seconds) t += c;
    return t;
  }
  /// Non-overlapped communication + synchronization time (the paper's
  /// T_comm): whatever part of the rank's final clock is not compute.
  /// This already nets out overlap: a transfer fully hidden behind compute
  /// contributes nothing (its wait jump is 0), and sender-side isend calls
  /// contribute only the injection overhead alpha. It decomposes into
  /// wait_seconds (blocked on arrivals) plus send occupancy/overheads.
  double comm_seconds() const { return clock - total_compute_seconds(); }
};

}  // namespace slu3d::sim
