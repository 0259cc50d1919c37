// A probabilistic skiplist memtable (the RocksDB/LevelDB in-memory
// structure). Keys are dense uint64 record ids; values are byte strings.
// Deterministic: tower heights come from a seeded xorshift, so memtable
// shape is reproducible run to run like everything else in the simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace hyperloop::apps {

class SkipList {
 public:
  static constexpr int kMaxLevel = 16;

  explicit SkipList(uint64_t seed = 0x5EED);
  ~SkipList();
  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;
  SkipList(SkipList&&) noexcept;

  /// Inserts or overwrites. Returns true if the key was new.
  bool insert(uint64_t key, std::vector<uint8_t> value);

  /// Returns the value or nullptr.
  const std::vector<uint8_t>* find(uint64_t key) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();

  /// Forward iteration from the first key >= `from`.
  class Iterator {
   public:
    bool valid() const { return node_ != nullptr; }
    uint64_t key() const;
    void next();

   private:
    friend class SkipList;
    explicit Iterator(const struct SkipNode* n) : node_(n) {}
    const struct SkipNode* node_;
  };
  Iterator seek(uint64_t from) const;
  Iterator begin() const;

 private:
  struct SkipNode* head_;
  int level_ = 1;
  size_t size_ = 0;
  uint64_t rng_state_;

  int random_level();
};

}  // namespace hyperloop::apps
