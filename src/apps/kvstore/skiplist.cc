#include "apps/kvstore/skiplist.h"

#include <cassert>

namespace hyperloop::apps {

struct SkipNode {
  uint64_t key = 0;
  std::vector<uint8_t> value;
  std::vector<SkipNode*> next;  // size == tower height
};

SkipList::SkipList(uint64_t seed)
    : head_(new SkipNode), rng_state_(seed | 1) {
  head_->next.assign(kMaxLevel, nullptr);
}

SkipList::~SkipList() {
  if (head_ == nullptr) return;
  clear();
  delete head_;
}

SkipList::SkipList(SkipList&& o) noexcept
    : head_(o.head_), level_(o.level_), size_(o.size_),
      rng_state_(o.rng_state_) {
  o.head_ = nullptr;
  o.size_ = 0;
}

void SkipList::clear() {
  SkipNode* n = head_->next[0];
  while (n != nullptr) {
    SkipNode* d = n;
    n = n->next[0];
    delete d;
  }
  head_->next.assign(kMaxLevel, nullptr);
  level_ = 1;
  size_ = 0;
}

int SkipList::random_level() {
  // Geometric with p = 1/4 (xorshift64).
  int lvl = 1;
  while (lvl < kMaxLevel) {
    rng_state_ ^= rng_state_ << 13;
    rng_state_ ^= rng_state_ >> 7;
    rng_state_ ^= rng_state_ << 17;
    if ((rng_state_ & 3) != 0) break;
    ++lvl;
  }
  return lvl;
}

bool SkipList::insert(uint64_t key, std::vector<uint8_t> value) {
  SkipNode* update[kMaxLevel];
  SkipNode* x = head_;
  for (int i = level_ - 1; i >= 0; --i) {
    while (x->next[static_cast<size_t>(i)] != nullptr &&
           x->next[static_cast<size_t>(i)]->key < key) {
      x = x->next[static_cast<size_t>(i)];
    }
    update[i] = x;
  }
  SkipNode* cand = x->next[0];
  if (cand != nullptr && cand->key == key) {
    cand->value = std::move(value);
    return false;
  }
  const int lvl = random_level();
  if (lvl > level_) {
    for (int i = level_; i < lvl; ++i) update[i] = head_;
    level_ = lvl;
  }
  auto* node = new SkipNode;
  node->key = key;
  node->value = std::move(value);
  node->next.assign(static_cast<size_t>(lvl), nullptr);
  for (int i = 0; i < lvl; ++i) {
    node->next[static_cast<size_t>(i)] =
        update[i]->next[static_cast<size_t>(i)];
    update[i]->next[static_cast<size_t>(i)] = node;
  }
  ++size_;
  return true;
}

const std::vector<uint8_t>* SkipList::find(uint64_t key) const {
  const SkipNode* x = head_;
  for (int i = level_ - 1; i >= 0; --i) {
    while (x->next[static_cast<size_t>(i)] != nullptr &&
           x->next[static_cast<size_t>(i)]->key < key) {
      x = x->next[static_cast<size_t>(i)];
    }
  }
  const SkipNode* cand = x->next[0];
  if (cand != nullptr && cand->key == key) return &cand->value;
  return nullptr;
}

uint64_t SkipList::Iterator::key() const { return node_->key; }

void SkipList::Iterator::next() { node_ = node_->next[0]; }

SkipList::Iterator SkipList::seek(uint64_t from) const {
  const SkipNode* x = head_;
  for (int i = level_ - 1; i >= 0; --i) {
    while (x->next[static_cast<size_t>(i)] != nullptr &&
           x->next[static_cast<size_t>(i)]->key < from) {
      x = x->next[static_cast<size_t>(i)];
    }
  }
  return Iterator(x->next[0]);
}

SkipList::Iterator SkipList::begin() const { return Iterator(head_->next[0]); }

}  // namespace hyperloop::apps
