// Linearizability check for per-key read/write register histories in which
// every write stores a unique value (Gibbons and Korach, "Testing Shared
// Memories", SIAM J. Comput. 1997). With unique values each read names
// the write it observed, and the check is polynomial:
//
//   - a read must observe a write that exists, and must not respond
//     before that write was invoked;
//   - a write and the reads of its value form a cluster. Let f be the
//     earliest response and s the latest invocation among them. If f < s
//     the cluster's zone [f, s] is forward, else [s, f] is backward;
//   - the history is linearizable iff no two forward zones overlap and
//     no backward zone lies inside a forward zone.
//
// Each key's register starts out holding the initial value (tag {0, 0}),
// written before every recorded op. Times are simulated; ties are broken
// by recording order, which the event loop keeps consistent with time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace hyperloop {

class RegisterHistory {
 public:
  /// A written value's identity: (client, op). {0, 0} is the initial
  /// value; no op may write it.
  using Tag = std::pair<uint64_t, uint64_t>;

  /// Records an op's invocation and returns its handle. A write names the
  /// value it stores; a read's value comes with its response.
  size_t invoke(uint64_t key, bool write, Tag value, sim::Time now) {
    ops_.push_back(Op{key, write, value, {now, ++seq_}, {}, false});
    return ops_.size() - 1;
  }

  /// Records the response of op `h`; `read_value` is what a read saw.
  void respond(size_t h, sim::Time now, Tag read_value = {}) {
    Op& op = ops_[h];
    op.resp = {now, ++seq_};
    op.done = true;
    if (!op.write) op.value = read_value;
  }

  size_t size() const { return ops_.size(); }

  /// Empty if every key's history is linearizable, else a description of
  /// the first violation found.
  std::string check() const {
    std::map<uint64_t, std::vector<const Op*>> by_key;
    for (const Op& op : ops_) {
      if (!op.done) return "an op never responded";
      by_key[op.key].push_back(&op);
    }
    for (const auto& [key, ops] : by_key) {
      std::string err = check_key(ops);
      if (!err.empty()) {
        std::ostringstream os;
        os << "key " << key << ": " << err;
        return os.str();
      }
    }
    return {};
  }

 private:
  /// (simulated time, recording order): unique, totally ordered.
  struct Stamp {
    sim::Time t = 0;
    uint64_t seq = 0;
    bool operator<(const Stamp& o) const {
      return std::tie(t, seq) < std::tie(o.t, o.seq);
    }
  };

  struct Op {
    uint64_t key = 0;
    bool write = false;
    Tag value;
    Stamp inv;
    Stamp resp;
    bool done = false;
  };

  struct Zone {
    Stamp lo, hi;
    Tag tag;
  };

  static std::string tag_str(const Tag& t) {
    std::ostringstream os;
    os << "(" << t.first << "," << t.second << ")";
    return os.str();
  }

  static std::string check_key(const std::vector<const Op*>& ops) {
    struct Cluster {
      Stamp f, s;    ///< earliest response, latest invocation
      Stamp w_inv;   ///< the write's invocation
    };
    // The initial value's write precedes everything.
    std::map<Tag, Cluster> clusters;
    clusters[Tag{}] = Cluster{};
    for (const Op* op : ops) {
      if (!op->write) continue;
      if (op->value == Tag{}) return "a write stores the initial value";
      if (!clusters.emplace(op->value, Cluster{op->resp, op->inv, op->inv})
               .second) {
        return "value " + tag_str(op->value) + " written twice";
      }
    }
    for (const Op* op : ops) {
      if (op->write) continue;
      auto it = clusters.find(op->value);
      if (it == clusters.end()) {
        return "a read returned " + tag_str(op->value) +
               ", which no op wrote";
      }
      Cluster& c = it->second;
      if (op->resp < c.w_inv) {
        return "a read of " + tag_str(op->value) +
               " responded before its write was invoked";
      }
      c.f = std::min(c.f, op->resp);
      c.s = std::max(c.s, op->inv);
    }

    std::vector<Zone> forward, backward;
    for (const auto& [tag, c] : clusters) {
      if (c.f < c.s) {
        forward.push_back({c.f, c.s, tag});
      } else {
        backward.push_back({c.s, c.f, tag});
      }
    }
    std::sort(forward.begin(), forward.end(),
              [](const Zone& a, const Zone& b) { return a.lo < b.lo; });
    for (size_t i = 1; i < forward.size(); ++i) {
      if (forward[i].lo < forward[i - 1].hi) {
        return "the forward zones of " + tag_str(forward[i - 1].tag) +
               " and " + tag_str(forward[i].tag) + " overlap";
      }
    }
    for (const Zone& b : backward) {
      for (const Zone& f : forward) {
        if (f.lo < b.lo && b.hi < f.hi) {
          return "the zone of " + tag_str(b.tag) +
                 " lies inside the forward zone of " + tag_str(f.tag) +
                 " (a read of " + tag_str(f.tag) +
                 " began after the write of " + tag_str(b.tag) + " ended)";
        }
      }
    }
    return {};
  }

  std::vector<Op> ops_;
  uint64_t seq_ = 0;
};

}  // namespace hyperloop
