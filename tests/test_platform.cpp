#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "simmpi/platform.hpp"
#include "simmpi/runtime.hpp"
#include "support/check.hpp"

namespace slu3d::sim {
namespace {

const MachineModel kModel{};  // defaults

std::vector<std::string> route_names(const PlatformLayout& layout, int src,
                                     int dst) {
  std::vector<int> ids;
  layout.route(src, dst, ids);
  std::vector<std::string> names;
  for (int id : ids) names.push_back(layout.link(id).name);
  return names;
}

const LinkUsage& usage(const RunResult& res, const std::string& name) {
  for (const LinkUsage& l : res.links)
    if (l.name == name) return l;
  ADD_FAILURE() << "no link named " << name;
  static const LinkUsage none{};
  return none;
}

// A two-node test fabric where the shared node uplink is the slow hop:
// alpha-only NICs (beta = 0) and a pure-latency node link, so every
// queueing delay below is an exact, hand-computable constant.
Platform two_node_platform() {
  Platform p;
  p.name = "two-node-test";
  p.machine.alpha = 1.0e-6;
  p.machine.beta = 0.0;
  p.levels.push_back({"node", 2, 5.0e-6, 0.0});
  return p;
}

TEST(Platform, FlatIsTheDefaultAndPresetsResolve) {
  EXPECT_TRUE(Platform{}.flat_wire());
  EXPECT_TRUE(Platform::flat().flat_wire());
  EXPECT_TRUE(Platform::preset("edison").flat_wire());
  EXPECT_TRUE(Platform::preset("flat").flat_wire());
  EXPECT_FALSE(Platform::preset("fattree-2to1").flat_wire());
  EXPECT_FALSE(Platform::preset("torus").flat_wire());
  EXPECT_THROW(Platform::preset("dragonfly"), Error);

  const auto names = Platform::preset_names();
  for (const char* expect : {"edison", "fattree-2to1", "torus"})
    EXPECT_NE(std::find(names.begin(), names.end(), expect), names.end())
        << expect;

  // The presets default to the paper's Edison-like machine constants.
  const Platform ft = Platform::preset("fattree-2to1");
  EXPECT_DOUBLE_EQ(ft.machine.alpha, kModel.alpha);
  EXPECT_DOUBLE_EQ(ft.machine.beta, kModel.beta);
  EXPECT_DOUBLE_EQ(ft.machine.gamma, kModel.gamma);
}

TEST(Platform, ParseReadsMachineConstantsAndLevels) {
  const Platform p = Platform::parse(
      "# test machine\n"
      "name tiny\n"
      "alpha 3.0e-6\n"
      "beta 2.0e-10   # trailing comment\n"
      "gamma 1.0e-11\n"
      "link node   arity=2 latency=5.0e-7 inv_bw=7.5e-11\n"
      "link switch arity=3 latency=1.0e-6 inv_bw=3.75e-11\n");
  EXPECT_EQ(p.name, "tiny");
  EXPECT_DOUBLE_EQ(p.machine.alpha, 3.0e-6);
  EXPECT_DOUBLE_EQ(p.machine.beta, 2.0e-10);
  EXPECT_DOUBLE_EQ(p.machine.gamma, 1.0e-11);
  ASSERT_EQ(p.levels.size(), 2u);
  EXPECT_EQ(p.levels[0].label, "node");
  EXPECT_EQ(p.levels[0].arity, 2);
  EXPECT_DOUBLE_EQ(p.levels[0].latency, 5.0e-7);
  EXPECT_DOUBLE_EQ(p.levels[0].inv_bw, 7.5e-11);
  EXPECT_EQ(p.levels[1].label, "switch");
  EXPECT_EQ(p.levels[1].arity, 3);
}

TEST(Platform, ParseRejectsMalformedDescriptions) {
  EXPECT_THROW(Platform::parse(""), Error);  // missing name
  EXPECT_THROW(Platform::parse("name x\nalpha nope\n"), Error);
  EXPECT_THROW(Platform::parse("name x\nfrobnicate 3\n"), Error);
  EXPECT_THROW(Platform::parse("name x\nlink n arity=1 latency=0 inv_bw=0\n"),
               Error);
  EXPECT_THROW(Platform::parse("name x\nlink n arity=2 latency=-1 inv_bw=0\n"),
               Error);
  EXPECT_THROW(Platform::parse("name x\nalpha -2e-6\n"), Error);
  // Surplus tokens after a directive's one value are rejected, not dropped.
  EXPECT_THROW(Platform::parse("name x\nalpha 3e-6 4e-6 junk\n"), Error);
  EXPECT_THROW(Platform::parse("name x y\n"), Error);
  // 65536 * 65536 passes INT_MAX: PlatformLayout's group stride would wrap.
  EXPECT_THROW(Platform::parse("name big\n"
                               "link a arity=65536 latency=0 inv_bw=0\n"
                               "link b arity=65536 latency=0 inv_bw=0\n"),
               Error);
  // A repeated directive, or a repeated attribute on one link line, would
  // silently replace the first: the error names the key and its line.
  const auto rejects_repeat = [](const std::string& text,
                                 const std::string& key, int line) {
    try {
      Platform::parse(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("repeated"), std::string::npos) << msg;
      EXPECT_NE(msg.find("'" + key + "'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("(line " + std::to_string(line) + ")"),
                std::string::npos)
          << msg;
    }
  };
  rejects_repeat("name x\nname y\n", "name", 2);
  rejects_repeat("name x\nalpha 1e-6\nalpha 2e-6\n", "alpha", 3);
  rejects_repeat("beta 1e-9\nname x\n# beta again\nbeta 2e-9\n", "beta", 4);
  rejects_repeat("name x\ngamma 1e-10\ngamma 1e-10\n", "gamma", 3);
  rejects_repeat("name x\nlink n arity=2 arity=4 latency=0 inv_bw=0\n",
                 "arity", 2);
  rejects_repeat("name x\nlink n arity=2 latency=0 latency=1e-6 inv_bw=0\n",
                 "latency", 2);
  rejects_repeat("name x\nlink n arity=2 latency=0 inv_bw=0 inv_bw=1e-9\n",
                 "inv_bw", 2);
  // One link line per level stays legal, as do both presets.
  EXPECT_EQ(Platform::parse("name x\n"
                            "link a arity=2 latency=0 inv_bw=0\n"
                            "link b arity=2 latency=0 inv_bw=0\n")
                .levels.size(),
            2u);
  EXPECT_NO_THROW(Platform::preset("fattree-2to1"));
  EXPECT_NO_THROW(Platform::preset("torus"));
}

TEST(Platform, LoadResolvesPresetNamesAndFiles) {
  const Platform ft = Platform::load("fattree-2to1");
  EXPECT_EQ(ft.name, "fattree-2to1");
  EXPECT_EQ(ft.levels.size(), Platform::preset("fattree-2to1").levels.size());

  const char* path = "platform_roundtrip_test.txt";
  {
    std::ofstream f(path);
    f << "name filetest\nalpha 4.0e-6\nlink node arity=2 latency=1e-6 "
         "inv_bw=0\n";
  }
  const Platform p = Platform::load(path);
  EXPECT_EQ(p.name, "filetest");
  EXPECT_DOUBLE_EQ(p.machine.alpha, 4.0e-6);
  ASSERT_EQ(p.levels.size(), 1u);
  EXPECT_EQ(p.levels[0].arity, 2);
  std::remove(path);

  EXPECT_THROW(Platform::load("no-such-preset-or-file"), Error);
}

TEST(Platform, FlatRouteIsTheSenderWire) {
  const PlatformLayout layout(Platform::flat(kModel), 4);
  EXPECT_TRUE(layout.flat());
  EXPECT_EQ(layout.num_links(), 4);
  std::vector<int> ids;
  layout.route(2, 0, ids);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 2);  // the *sender's* endpoint link
}

TEST(Platform, HierarchicalRoutesClimbToLowestCommonAncestor) {
  // fattree-2to1: 4 ranks per node, 4 nodes per switch. With 32 ranks that
  // is 8 nodes under 2 switches meeting at the spine.
  const PlatformLayout layout(Platform::preset("fattree-2to1"), 32);
  EXPECT_FALSE(layout.flat());
  // Same node: NIC up, peer NIC down — no shared links involved.
  EXPECT_EQ(route_names(layout, 0, 1),
            (std::vector<std::string>{"rank0.up", "rank1.down"}));
  // Same switch, different nodes: one shared uplink each way.
  EXPECT_EQ(route_names(layout, 0, 4),
            (std::vector<std::string>{"rank0.up", "node0.up", "node1.down",
                                      "rank4.down"}));
  // Different switches: full climb to the spine and back down.
  EXPECT_EQ(route_names(layout, 0, 16),
            (std::vector<std::string>{"rank0.up", "node0.up", "switch0.up",
                                      "switch1.down", "node4.down",
                                      "rank16.down"}));
  // Routes are directional: the reverse path uses the mirror links.
  EXPECT_EQ(route_names(layout, 4, 0),
            (std::vector<std::string>{"rank4.up", "node1.up", "node0.down",
                                      "rank0.down"}));
}

// The acceptance pin: the flat one-link-per-endpoint platform reproduces
// the historical per-endpoint LogGP clock *bitwise*. The expected values
// below are the exact alpha + beta*bytes arithmetic the old net_busy clock
// produced; EXPECT_EQ (not NEAR) on doubles demands bit equality.
TEST(PlatformRuntime, FlatPlatformReproducesLogGpClockBitwise) {
  const std::vector<real_t> payload(64, 1.0);
  const offset_t bytes = static_cast<offset_t>(payload.size() * sizeof(real_t));
  const double mt = kModel.message_time(bytes);
  const auto body = [&](Comm& world) {
    if (world.rank() == 0) {
      world.isend(1, 1, payload, CommPlane::XY);
      world.isend(2, 1, payload, CommPlane::Z);
    } else if (world.rank() == 1) {
      world.recv(0, 1, CommPlane::XY);
    } else {
      world.recv(0, 1, CommPlane::Z);
    }
  };
  const RunResult via_platform = run_ranks(3, Platform::flat(kModel), body);
  // The sender's CPU pays only the two injection overheads.
  EXPECT_EQ(via_platform.ranks[0].clock, 2 * kModel.alpha);
  // First receiver: exactly one transfer time.
  EXPECT_EQ(via_platform.ranks[1].clock, mt);
  // Second payload queues behind the first on the sender's single wire:
  // completion = max(ready, wire busy) + transfer = two transfer times.
  EXPECT_EQ(via_platform.ranks[2].clock, 2 * mt);
  EXPECT_EQ(via_platform.ranks[2].wait_seconds, 2 * mt);
  // The stall attribution sees the same queueing the clock always charged:
  // the second isend goes ready at its pre-overhead post time alpha but the
  // wire stays busy until mt.
  EXPECT_EQ(via_platform.ranks[0].link_queue_seconds, mt - kModel.alpha);
  EXPECT_EQ(via_platform.total_link_queue_seconds(), mt - kModel.alpha);

  // And the MachineModel convenience overload is the same platform:
  // identical clocks, waits, and counters, bit for bit.
  const RunResult via_model = run_ranks(3, kModel, body);
  ASSERT_EQ(via_model.ranks.size(), via_platform.ranks.size());
  for (std::size_t r = 0; r < via_model.ranks.size(); ++r) {
    const RankStats& a = via_model.ranks[r];
    const RankStats& b = via_platform.ranks[r];
    EXPECT_EQ(a.clock, b.clock) << r;
    EXPECT_EQ(a.wait_seconds, b.wait_seconds) << r;
    EXPECT_EQ(a.link_queue_seconds, b.link_queue_seconds) << r;
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << r;
    EXPECT_EQ(a.bytes_received, b.bytes_received) << r;
    EXPECT_EQ(a.messages_sent, b.messages_sent) << r;
    EXPECT_EQ(a.messages_received, b.messages_received) << r;
  }
}

TEST(PlatformRuntime, CountersAreInvariantAcrossPlatformsAndFatTreeIsSlower) {
  // The platform changes *when* messages move, never *whether*: per-rank
  // byte/message counters must be identical on any platform, while every
  // transfer crossing extra positive-latency hops makes clocks strictly
  // later on the fat tree.
  constexpr int kP = 8;
  const auto body = [&](Comm& world) {
    const int r = world.rank();
    const int n = world.size();
    std::vector<real_t> buf(32, static_cast<real_t>(r));
    world.isend((r + 1) % n, 1, buf, CommPlane::XY);
    world.isend((r + 3) % n, 2, buf, CommPlane::Z);
    world.recv((r + n - 1) % n, 1, CommPlane::XY);
    world.recv((r + n - 3) % n, 2, CommPlane::Z);
    std::vector<real_t> sum{static_cast<real_t>(r)};
    world.allreduce_sum(7, sum, CommPlane::XY);
  };
  const RunResult flat = run_ranks(kP, Platform::flat(kModel), body);
  const RunResult tree =
      run_ranks(kP, Platform::preset("fattree-2to1"), body);
  for (std::size_t r = 0; r < static_cast<std::size_t>(kP); ++r) {
    EXPECT_EQ(flat.ranks[r].bytes_sent, tree.ranks[r].bytes_sent) << r;
    EXPECT_EQ(flat.ranks[r].bytes_received, tree.ranks[r].bytes_received) << r;
    EXPECT_EQ(flat.ranks[r].messages_sent, tree.ranks[r].messages_sent) << r;
    EXPECT_EQ(flat.ranks[r].messages_received, tree.ranks[r].messages_received)
        << r;
  }
  EXPECT_GT(tree.max_clock(), flat.max_clock());
  // Link accounting conserves bytes: every message is charged on its NIC
  // up link exactly once, so summing NIC up-link bytes recovers the
  // per-rank sent totals.
  for (std::size_t r = 0; r < static_cast<std::size_t>(kP); ++r) {
    const LinkUsage& nic = usage(tree, "rank" + std::to_string(r) + ".up");
    EXPECT_EQ(nic.bytes, flat.ranks[r].total_bytes_sent()) << r;
  }
}

TEST(PlatformRuntime, SharedUplinkSerializesConcurrentTransfers) {
  // Ranks 0 and 1 (same node) each push one equal-size message to the other
  // node at logical time zero. Both payloads reach the shared node0.up link
  // at the same instant (after their private alpha-only NIC hop), so one of
  // them — whichever the FCFS wall-clock order favours — queues for exactly
  // one full link occupancy. The *aggregate* accounting is symmetric and
  // therefore deterministic even though the winner is not.
  const Platform p = two_node_platform();
  const double nic = p.machine.alpha;            // per-NIC-hop seconds
  const double up = p.levels[0].latency;         // per-node-link seconds
  const std::vector<real_t> payload(16, 2.0);
  const auto res = run_ranks(
      4, p,
      [&](Comm& world) {
        if (world.rank() == 0) {
          world.isend(2, 1, payload, CommPlane::XY);
        } else if (world.rank() == 1) {
          world.isend(3, 1, payload, CommPlane::XY);
        } else {
          world.recv(world.rank() - 2, 1, CommPlane::XY);
        }
      },
      RunOptions{/*trace=*/true});

  const LinkUsage& uplink = usage(res, "node0.up");
  EXPECT_EQ(uplink.messages, 2);
  EXPECT_EQ(uplink.bytes,
            static_cast<offset_t>(2 * payload.size() * sizeof(real_t)));
  // The loser waits one full occupancy of the uplink and nothing else: the
  // two payloads leave node0.up back to back, so they arrive at node1.down
  // exactly when it frees up and at distinct NIC down links.
  EXPECT_DOUBLE_EQ(uplink.queue_seconds, up);
  EXPECT_DOUBLE_EQ(res.total_link_queue_seconds(), up);
  EXPECT_DOUBLE_EQ(res.ranks[0].link_queue_seconds +
                       res.ranks[1].link_queue_seconds,
                   up);

  // Receiver clocks form a deterministic multiset: the winner's payload
  // crosses NIC up, node0.up, node1.down, NIC down; the loser lands one
  // uplink occupancy later.
  std::vector<double> arrivals{res.ranks[2].clock, res.ranks[3].clock};
  std::sort(arrivals.begin(), arrivals.end());
  EXPECT_DOUBLE_EQ(arrivals[0], 2 * nic + 2 * up);
  EXPECT_DOUBLE_EQ(arrivals[1], 2 * nic + 3 * up);

  // Exactly one LinkWait trace event, attributed to the congested uplink.
  int link_waits = 0;
  for (const RankTrace& trace : res.traces)
    for (const TraceEvent& ev : trace)
      if (ev.kind == TraceEvent::Kind::LinkWait) {
        ++link_waits;
        ASSERT_GE(ev.link, 0);
        EXPECT_EQ(res.link_names()[static_cast<std::size_t>(ev.link)],
                  "node0.up");
        EXPECT_DOUBLE_EQ(ev.t1 - ev.t0, up);
      }
  EXPECT_EQ(link_waits, 1);
}

TEST(PlatformRuntime, ManyToOneContentionGrowsWithFanIn) {
  // The fig12 divergence mechanism in miniature: on the flat platform a
  // many-to-one reduction pays each sender's private wire only, but on a
  // hierarchical platform the root's shared down-path serializes the
  // fan-in, so doubling the senders roughly doubles the queueing.
  const Platform p = two_node_platform();
  const auto fan_in = [&](int senders) {
    return run_ranks(4, p, [&, senders](Comm& world) {
      const std::vector<real_t> payload(16, 1.0);
      if (world.rank() >= 2 && world.rank() < 2 + senders) {
        world.isend(0, 1, payload, CommPlane::Z);
      } else if (world.rank() == 0) {
        for (int s = 0; s < senders; ++s) world.recv(2 + s, 1, CommPlane::Z);
      }
    });
  };
  const double q1 = fan_in(1).total_link_queue_seconds();
  EXPECT_DOUBLE_EQ(q1, 0.0);  // a single transfer never queues
  // Two node-1 senders reach the shared node1.up at the same instant; the
  // loser stalls one full uplink occupancy there, and because the uplink
  // is the slow hop the payloads stay spaced out downstream — the whole
  // contention bill lands on node1.up.
  const RunResult r2 = fan_in(2);
  EXPECT_DOUBLE_EQ(r2.total_link_queue_seconds(), p.levels[0].latency);
  EXPECT_DOUBLE_EQ(usage(r2, "node1.up").queue_seconds, p.levels[0].latency);
}

}  // namespace
}  // namespace slu3d::sim
