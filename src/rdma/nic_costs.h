// NIC engine costs: the calibration anchor of the simulated RNIC
// (EXPERIMENTS.md "Calibration"). The replica CPU's costs for the
// CPU-forwarded baselines are in core/cpu_costs.h.
#pragma once

#include <cstddef>

#include "sim/time.h"

namespace hyperloop::rdma {

/// Engine occupancy per WQE (fetch + process + doorbell amortized).
inline constexpr sim::Duration kWqeCost = sim::nsec(200);
/// Fixed cost to receive/parse one inbound packet.
inline constexpr sim::Duration kRxBaseCost = sim::nsec(150);
/// Extra cost for an atomic execute.
inline constexpr sim::Duration kCasCost = sim::nsec(250);
/// Cost to consume a satisfied WAIT.
inline constexpr sim::Duration kWaitCost = sim::nsec(50);
/// Connection-context fetch from host memory when a QP's context is not
/// resident in the NIC's cache (Nic::Config::qp_cache_entries).
inline constexpr sim::Duration kQpCacheMissCost = sim::nsec(400);

/// Host DMA cost of `bytes` (gathers, scatters, local copies): 0.05 ns
/// per byte.
inline sim::Duration dma_cost(size_t bytes) {
  return static_cast<sim::Duration>(0.05 * static_cast<double>(bytes));
}

}  // namespace hyperloop::rdma
