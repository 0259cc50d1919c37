// A ReplicationGroup that forwards every call to another group, for tests
// that watch or steer the primitives a layer issues: derive and override
// the calls to intercept. It counts the gCAS it forwards.
#pragma once

#include <cstdint>
#include <utility>

#include "core/group.h"

namespace hyperloop::core {

class ForwardingGroup : public ReplicationGroup {
 public:
  explicit ForwardingGroup(ReplicationGroup& inner) : inner_(inner) {}

  /// gCAS forwarded so far.
  uint64_t gcas_count() const { return gcas_count_; }

  size_t group_size() const override { return inner_.group_size(); }
  uint64_t region_size() const override { return inner_.region_size(); }
  void gwrite(uint64_t offset, uint32_t len, bool flush, Done done) override {
    inner_.gwrite(offset, len, flush, std::move(done));
  }
  void gwritev(const ExtentVec& extents, bool flush, Done done) override {
    inner_.gwritev(extents, flush, std::move(done));
  }
  void gmemcpy(uint64_t src, uint64_t dst, uint32_t len, bool flush,
               Done done) override {
    inner_.gmemcpy(src, dst, len, flush, std::move(done));
  }
  void gcas(uint64_t offset, uint64_t expected, uint64_t desired,
            ExecMap exec, CasDone done) override {
    ++gcas_count_;
    inner_.gcas(offset, expected, desired, exec, std::move(done));
  }
  void gflush(Done done) override { inner_.gflush(std::move(done)); }
  void stop() override {}
  void client_store(uint64_t offset, const void* src, uint32_t len) override {
    inner_.client_store(offset, src, len);
  }
  void client_load(uint64_t offset, void* dst, uint32_t len) const override {
    inner_.client_load(offset, dst, len);
  }
  void replica_load(size_t i, uint64_t offset, void* dst,
                    uint32_t len) const override {
    inner_.replica_load(i, offset, dst, len);
  }

 protected:
  ReplicationGroup& inner_;

 private:
  uint64_t gcas_count_ = 0;
};

}  // namespace hyperloop::core
