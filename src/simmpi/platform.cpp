#include "simmpi/platform.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "support/check.hpp"

namespace slu3d::sim {
namespace {

// Embedded preset descriptions, written in the same text format `parse`
// accepts from disk so the presets exercise the exact code path a user's
// platform file does. Numbers: the NIC keeps the historical Edison-like
// alpha/beta; the fat-tree shares one uplink pair among 4 ranks per node
// and 4 nodes per switch with 2:1 oversubscription at each level (link
// bandwidth = half the aggregate NIC demand below it); the torus-like
// preset models shared ring segments at full NIC rate but with latency
// growing with hop distance.
constexpr std::string_view kFattree2to1 =
    "# 2:1-oversubscribed two-level fat tree.\n"
    "name fattree-2to1\n"
    "alpha 2.0e-6\n"
    "beta 1.5e-10\n"
    "gamma 6.0e-11\n"
    "# 4 ranks per node; node uplink carries half the aggregate NIC rate.\n"
    "link node arity=4 latency=5.0e-7 inv_bw=7.5e-11\n"
    "# 4 nodes per leaf switch; spine uplink again 2:1 oversubscribed.\n"
    "link switch arity=4 latency=1.0e-6 inv_bw=3.75e-11\n";

constexpr std::string_view kTorus =
    "# Torus-like fabric: full-NIC-rate shared ring segments, latency\n"
    "# growing with hop distance instead of capacity scaling with height.\n"
    "name torus\n"
    "alpha 2.0e-6\n"
    "beta 1.5e-10\n"
    "gamma 6.0e-11\n"
    "link ring arity=4 latency=1.0e-6 inv_bw=1.5e-10\n"
    "link plane arity=4 latency=4.0e-6 inv_bw=1.5e-10\n";

double parse_double(std::string_view token, std::string_view what) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(std::string(token), &used);
  } catch (const std::exception&) {
    used = 0;
  }
  SLU3D_CHECK(used == token.size(), "platform: bad numeric value for " +
                                        std::string(what) + ": '" +
                                        std::string(token) + "'");
  return v;
}

int parse_int(std::string_view token, std::string_view what) {
  std::size_t used = 0;
  int v = 0;
  try {
    v = std::stoi(std::string(token), &used);
  } catch (const std::exception&) {
    used = 0;
  }
  SLU3D_CHECK(used == token.size(), "platform: bad integer value for " +
                                        std::string(what) + ": '" +
                                        std::string(token) + "'");
  return v;
}

}  // namespace

Platform Platform::flat(const MachineModel& m) {
  Platform p;
  p.name = "flat";
  p.machine = m;
  return p;
}

std::vector<std::string> Platform::preset_names() {
  return {"edison", "flat", "fattree-2to1", "torus"};
}

Platform Platform::preset(std::string_view name) {
  if (name == "edison" || name == "flat") {
    Platform p = flat(MachineModel{});
    p.name = std::string(name);
    return p;
  }
  if (name == "fattree-2to1") return parse(kFattree2to1);
  if (name == "torus") return parse(kTorus);
  std::string known;
  for (const auto& n : preset_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  SLU3D_CHECK(false, "unknown platform preset '" + std::string(name) +
                         "' (known: " + known + ")");
  return {};
}

Platform Platform::parse(std::string_view text) {
  Platform p;
  p.name.clear();
  std::istringstream in{std::string(text)};
  std::string line;
  int lineno = 0;
  // Each scalar directive may appear once: a second one would silently
  // replace the first. Repeated `link` lines are the levels, one each.
  std::set<std::string> seen;
  while (std::getline(in, line)) {
    ++lineno;
    if (auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // blank / comment-only line
    const std::string where = " (line " + std::to_string(lineno) + ")";
    // A directive with one value: the value, and nothing after it.
    auto single_value = [&] {
      std::string v, extra;
      SLU3D_CHECK(static_cast<bool>(ls >> v),
                  "platform: '" + key + "' needs a value" + where);
      SLU3D_CHECK(!(ls >> extra), "platform: unexpected '" + extra +
                                      "' after the value of '" + key + "'" +
                                      where);
      return v;
    };
    SLU3D_CHECK(key == "link" || seen.insert(key).second,
                "platform: repeated directive '" + key + "'" + where);
    if (key == "name") {
      p.name = single_value();
    } else if (key == "alpha" || key == "beta" || key == "gamma") {
      const double d = parse_double(single_value(), key);
      if (key == "alpha") p.machine.alpha = d;
      if (key == "beta") p.machine.beta = d;
      if (key == "gamma") p.machine.gamma = d;
    } else if (key == "link") {
      PlatformLevel lvl;
      SLU3D_CHECK(static_cast<bool>(ls >> lvl.label),
                  "platform: 'link' needs a label" + where);
      std::string kv;
      std::set<std::string> attrs;
      while (ls >> kv) {
        const auto eq = kv.find('=');
        SLU3D_CHECK(eq != std::string::npos,
                    "platform: link attribute '" + kv +
                        "' is not key=value" + where);
        const std::string k = kv.substr(0, eq);
        const std::string v = kv.substr(eq + 1);
        SLU3D_CHECK(attrs.insert(k).second,
                    "platform: repeated link attribute '" + k + "'" + where);
        if (k == "arity") {
          lvl.arity = parse_int(v, "arity");
        } else if (k == "latency") {
          lvl.latency = parse_double(v, "latency");
        } else if (k == "inv_bw") {
          lvl.inv_bw = parse_double(v, "inv_bw");
        } else {
          SLU3D_CHECK(false, "platform: unknown link attribute '" + k +
                                 "'" + where);
        }
      }
      p.levels.push_back(std::move(lvl));
    } else {
      SLU3D_CHECK(false, "platform: unknown directive '" + key + "'" + where);
    }
  }
  SLU3D_CHECK(!p.name.empty(), "platform: missing 'name' directive");
  p.validate();
  return p;
}

Platform Platform::load(const std::string& spec) {
  for (const auto& n : preset_names())
    if (spec == n) return preset(spec);
  std::ifstream in(spec);
  SLU3D_CHECK(in.good(), "platform: '" + spec +
                             "' is neither a preset nor a readable file");
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

std::string Platform::describe() const {
  std::ostringstream os;
  os << name << ": ";
  if (flat_wire()) {
    os << "flat per-endpoint wire";
  } else {
    os << levels.size() << "-level hierarchy (";
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (i) os << " -> ";
      os << levels[i].label << " x" << levels[i].arity;
    }
    os << ")";
  }
  os << ", alpha=" << machine.alpha << " beta=" << machine.beta
     << " gamma=" << machine.gamma;
  return os.str();
}

void Platform::validate() const {
  SLU3D_CHECK(machine.alpha >= 0.0 && machine.beta >= 0.0 &&
                  machine.gamma >= 0.0 &&
                  std::isfinite(machine.alpha) && std::isfinite(machine.beta) &&
                  std::isfinite(machine.gamma),
              "platform '" + name + "': machine constants must be finite and "
              "non-negative");
  SLU3D_CHECK(levels.size() <= 16,
              "platform '" + name + "': too many hierarchy levels");
  // PlatformLayout keeps each level's group size (the running product of
  // the arities) in an int.
  int stride = 1;
  for (const auto& lvl : levels) {
    SLU3D_CHECK(!lvl.label.empty(),
                "platform '" + name + "': link level needs a label");
    SLU3D_CHECK(lvl.arity >= 2, "platform '" + name + "': link '" + lvl.label +
                                    "' arity must be >= 2");
    SLU3D_CHECK(stride <= std::numeric_limits<int>::max() / lvl.arity,
                "platform '" + name + "': link '" + lvl.label +
                    "' makes the product of the arities exceed " +
                    std::to_string(std::numeric_limits<int>::max()));
    stride *= lvl.arity;
    SLU3D_CHECK(lvl.latency >= 0.0 && lvl.inv_bw >= 0.0 &&
                    std::isfinite(lvl.latency) && std::isfinite(lvl.inv_bw),
                "platform '" + name + "': link '" + lvl.label +
                    "' latency/inv_bw must be finite and non-negative");
  }
}

PlatformLayout::PlatformLayout(const Platform& platform, int n_ranks) {
  SLU3D_CHECK(n_ranks > 0, "PlatformLayout needs at least one rank");
  platform.validate();
  n_ = n_ranks;
  flat_ = platform.flat_wire();
  const MachineModel& m = platform.machine;
  if (flat_) {
    // The historical LogGP clock: one wire per endpoint, charged once per
    // message at the sender. Single-writer per rank, hence bitwise
    // deterministic regardless of thread scheduling.
    links_.reserve(static_cast<std::size_t>(n_));
    for (int r = 0; r < n_; ++r)
      links_.push_back(Link{"rank" + std::to_string(r) + ".wire", m.alpha,
                            m.beta});
    return;
  }
  // NIC links first: rank r owns links 2r (up) and 2r+1 (down), keeping the
  // per-endpoint alpha/beta charge as the first and last hop of every route.
  links_.reserve(static_cast<std::size_t>(2 * n_));
  for (int r = 0; r < n_; ++r) {
    links_.push_back(Link{"rank" + std::to_string(r) + ".up", m.alpha,
                          m.beta});
    links_.push_back(Link{"rank" + std::to_string(r) + ".down", m.alpha,
                          m.beta});
  }
  int stride = 1;
  for (const auto& lvl : platform.levels) {
    stride *= lvl.arity;
    stride_.push_back(stride);
    level_base_.push_back(static_cast<int>(links_.size()));
    const int groups = (n_ - 1) / stride + 1;
    for (int g = 0; g < groups; ++g) {
      links_.push_back(Link{lvl.label + std::to_string(g) + ".up",
                            lvl.latency, lvl.inv_bw});
      links_.push_back(Link{lvl.label + std::to_string(g) + ".down",
                            lvl.latency, lvl.inv_bw});
    }
  }
}

void PlatformLayout::route(int src, int dst, std::vector<int>& out) const {
  out.clear();
  if (flat_) {
    out.push_back(src);  // the sender's wire is the whole route
    return;
  }
  out.push_back(2 * src);  // NIC up
  // Climb until src and dst fall in the same group; the matching downward
  // hops mirror the upward ones. Ranks meeting above the top level cross
  // the top-level links and meet at the uncharged spine.
  const int depth = static_cast<int>(stride_.size());
  int meet = 0;
  while (meet < depth && src / stride_[static_cast<std::size_t>(meet)] !=
                             dst / stride_[static_cast<std::size_t>(meet)])
    ++meet;
  for (int l = 0; l < meet; ++l)
    out.push_back(level_base_[static_cast<std::size_t>(l)] +
                  2 * (src / stride_[static_cast<std::size_t>(l)]));
  for (int l = meet - 1; l >= 0; --l)
    out.push_back(level_base_[static_cast<std::size_t>(l)] +
                  2 * (dst / stride_[static_cast<std::size_t>(l)]) + 1);
  out.push_back(2 * dst + 1);  // NIC down
}

}  // namespace slu3d::sim
