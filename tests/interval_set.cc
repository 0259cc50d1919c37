#include "interval_set.h"

#include <algorithm>

namespace hyperloop::nvm {

void IntervalSet::insert(uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  // Find the first interval that could overlap or touch [begin, end).
  auto it = m_.upper_bound(begin);
  if (it != m_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) it = prev;  // touches/overlaps from the left
  }
  // Absorb all overlapping/touching intervals.
  while (it != m_.end() && it->first <= end) {
    begin = std::min(begin, it->first);
    end = std::max(end, it->second);
    total_ -= it->second - it->first;
    it = m_.erase(it);
  }
  m_.emplace(begin, end);
  total_ += end - begin;
}

void IntervalSet::erase(uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  auto it = m_.upper_bound(begin);
  if (it != m_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) it = prev;
  }
  while (it != m_.end() && it->first < end) {
    const uint64_t ib = it->first;
    const uint64_t ie = it->second;
    total_ -= ie - ib;
    it = m_.erase(it);
    if (ib < begin) {
      m_.emplace(ib, begin);
      total_ += begin - ib;
    }
    if (ie > end) {
      m_.emplace(end, ie);
      total_ += ie - end;
      break;
    }
  }
}

bool IntervalSet::covers(uint64_t begin, uint64_t end) const {
  if (begin >= end) return true;
  auto it = m_.upper_bound(begin);
  if (it == m_.begin()) return false;
  --it;
  return it->first <= begin && it->second >= end;
}

bool IntervalSet::intersects(uint64_t begin, uint64_t end) const {
  if (begin >= end) return false;
  auto it = m_.upper_bound(begin);
  if (it != m_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) return true;
  }
  return it != m_.end() && it->first < end;
}

std::vector<IntervalSet::Interval> IntervalSet::intervals() const {
  std::vector<Interval> out;
  out.reserve(m_.size());
  for (const auto& [b, e] : m_) out.push_back(Interval{b, e});
  return out;
}

}  // namespace hyperloop::nvm
