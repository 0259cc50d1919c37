#include "rdma/completion_queue.h"

namespace hyperloop::rdma {

void CompletionQueue::push(const Cqe& cqe) {
  ++completion_count_;
  if (capacity_ > 0) {
    if (queue_.size() >= capacity_) {
      queue_.pop_front();
      ++dropped_;
    }
    queue_.push_back(cqe);
  }
  if (watcher_) watcher_(completion_count_);
  // Last: the notify callback may destroy this CQ (a completion that
  // stops its group).
  if (armed_ && notify_) {
    armed_ = false;
    notify_();
  }
}

bool CompletionQueue::poll(Cqe* out) {
  if (queue_.empty()) return false;
  *out = queue_.front();
  queue_.pop_front();
  return true;
}

size_t CompletionQueue::poll_many(Cqe* out, size_t max) {
  size_t n = 0;
  while (n < max && poll(out + n)) ++n;
  return n;
}

}  // namespace hyperloop::rdma
