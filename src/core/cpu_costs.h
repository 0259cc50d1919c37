// Replica CPU costs of applying a command, shared by the CPU-forwarded
// baselines (NaiveRdmaGroup and TcpReplicationGroup).
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace hyperloop::core {

/// CPU memcpy of `bytes` (a gMEMCPY executed by the replica CPU).
inline sim::Duration cpu_copy_cost(uint64_t bytes) {
  return static_cast<sim::Duration>(0.15 * static_cast<double>(bytes));
}

/// Cache-line flush loop persisting `bytes`.
inline sim::Duration cpu_persist_cost(uint64_t bytes) {
  return sim::nsec(400) +
         static_cast<sim::Duration>(0.01 * static_cast<double>(bytes));
}

}  // namespace hyperloop::core
