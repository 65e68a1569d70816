// The contention-aware platform layer: a declarative description of the
// simulated machine's network — links with individual latency, bandwidth,
// and (at run time) busy clocks, arranged in a node → switch → spine
// hierarchy — replacing the flat per-endpoint LogGP wire as the thing the
// runtime charges transfers against.
//
// A Platform is pure data: the compute model (MachineModel: alpha/beta for
// the per-rank NIC, gamma for flops) plus zero or more hierarchy levels.
// With no levels the platform is the *flat wire*: exactly one link per
// endpoint charged `alpha + beta * bytes` per message, which reproduces the
// historical `net_busy` clock bitwise. With levels, `PlatformLayout::route`
// yields the link sequence a (src, dst) transfer crosses — NIC up, the
// shared uplinks to the lowest common ancestor, and the mirror path down —
// and the runtime serializes the message across every link on that route
// (store-and-forward against each link's busy clock), so the z-axis
// reduction and the XY panel broadcasts genuinely contend for shared
// uplinks the way they do on real fat-tree fabrics.
//
// Platforms come from three places: `Platform::flat(model)` (programmatic),
// `Platform::preset(name)` for the named machines every bench driver's
// `--platform` flag accepts (edison | flat | fattree-2to1 | torus), and
// `Platform::parse/load` for a small text platform file (SimGrid-style
// what-if runs: describe the machine, don't extrapolate). See
// docs/SIMULATOR.md ("Platform descriptions") for the file format and the
// exact charging semantics.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "simmpi/machine_model.hpp"
#include "support/types.hpp"

namespace slu3d::sim {

/// One tier of the network hierarchy. `arity` groups of the tier below
/// (ranks, for the first level) share a single full-duplex link pair — one
/// up link and one down link, each with its own busy clock — towards the
/// tier above. Levels are ordered bottom-up; the top level's groups meet
/// at an uncharged spine.
struct PlatformLevel {
  std::string label = "node";  ///< names the links: "<label><group>.up"
  int arity = 4;               ///< groups of the tier below per link pair
  double latency = 0.0;        ///< seconds per message crossing one link
  double inv_bw = 0.0;         ///< seconds per byte across one link
};

/// Declarative machine description consumed by `run_ranks`.
struct Platform {
  std::string name = "flat";
  MachineModel machine;               ///< NIC alpha/beta + compute gamma
  std::vector<PlatformLevel> levels;  ///< empty = flat per-endpoint wire

  /// True when there is no hierarchy: one link per endpoint, the exact
  /// historical LogGP clock.
  bool flat_wire() const { return levels.empty(); }

  /// The trivial one-link-per-endpoint platform over `m` (the default).
  static Platform flat(const MachineModel& m = {});
  /// Named machine: "edison"/"flat" (the Edison-like flat default),
  /// "fattree-2to1" (4 ranks/node, 4 nodes/switch, uplinks 2:1
  /// oversubscribed at each level), "torus" (torus-like shared ring
  /// segments: full-NIC-rate links, no capacity scaling, latency growing
  /// with distance). Throws on unknown names.
  static Platform preset(std::string_view name);
  static std::vector<std::string> preset_names();
  /// Parses the platform-file text format (see docs/SIMULATOR.md):
  ///   name fattree-2to1
  ///   alpha 2.0e-6
  ///   beta  1.5e-10
  ///   gamma 6.0e-11
  ///   link node   arity=4 latency=5.0e-7 inv_bw=7.5e-11
  ///   link switch arity=4 latency=1.0e-6 inv_bw=3.75e-11
  /// `link` lines are ordered bottom-up; '#' starts a comment. `name`,
  /// `alpha`, `beta` and `gamma` take exactly one value; any other token
  /// on their line throws Error naming the line.
  static Platform parse(std::string_view text);
  /// `spec` is a preset name or a path to a platform file — the string the
  /// shared `--platform` bench flag accepts.
  static Platform load(const std::string& spec);

  /// One-line human-readable summary (flag echo in bench drivers).
  std::string describe() const;
  /// Throws Error on malformed descriptions (non-positive arity, negative
  /// latency/bandwidth, absurd level counts, arities whose product
  /// exceeds INT_MAX).
  void validate() const;
};

/// A Platform instantiated for a concrete rank count: the full link table
/// and the routing function. Immutable and shareable; the mutable per-link
/// busy clocks live in the runtime's per-run context.
class PlatformLayout {
 public:
  struct Link {
    std::string name;
    double latency = 0.0;
    double inv_bw = 0.0;
  };

  PlatformLayout(const Platform& platform, int n_ranks);

  bool flat() const { return flat_; }
  int n_ranks() const { return n_; }
  int num_links() const { return static_cast<int>(links_.size()); }
  const Link& link(int id) const { return links_[static_cast<std::size_t>(id)]; }

  /// Appends the link ids a src -> dst transfer crosses, in traversal
  /// order: NIC up, uplinks to the lowest common ancestor, downlinks to
  /// the destination, NIC down. The flat wire routes over the single
  /// source-endpoint link only (the historical LogGP charge).
  void route(int src, int dst, std::vector<int>& out) const;

 private:
  bool flat_ = true;
  int n_ = 0;
  std::vector<Link> links_;
  std::vector<int> stride_;      ///< ranks per group at each level
  std::vector<int> level_base_;  ///< first link id of each level
};

}  // namespace slu3d::sim
