#include "core/server.h"

namespace hyperloop::core {

Server::Server(sim::EventLoop& loop, rdma::Network& net, ServerConfig cfg)
    : cfg_(std::move(cfg)),
      loop_(loop),
      sched_(loop, cfg_.cpu),
      mem_(cfg_.mem_capacity),
      nvm_(mem_, cfg_.nvm_size),
      nic_(loop, net, mem_, &nvm_, cfg_.nic),
      tcp_(net, nic_.id(), sched_) {
  // Extra NICs share the machine's memory and NVM — they are additional
  // ports into the same region, one per shard in sharded deployments.
  for (uint32_t i = 1; i < cfg_.num_nics; ++i) {
    extra_nics_.push_back(
        std::make_unique<rdma::Nic>(loop, net, mem_, &nvm_, cfg_.nic));
  }
}

void Server::add_background_load(int tenants, sim::Rng rng,
                                 sim::BackgroundLoad::Config cfg) {
  cfg.tenants = tenants;
  auto load = std::make_unique<sim::BackgroundLoad>(loop_, sched_, cfg, rng);
  load->start();
  loads_.push_back(std::move(load));
}

Cluster::Cluster(Config cfg)
    : net_(loop_, cfg.network), rng_(cfg.seed) {
  for (int i = 0; i < cfg.num_servers; ++i) {
    ServerConfig sc = cfg.server;
    sc.name = sc.name + "-" + std::to_string(i);
    servers_.push_back(std::make_unique<Server>(loop_, net_, sc));
  }
}

Server& Cluster::add_server(ServerConfig cfg) {
  servers_.push_back(std::make_unique<Server>(loop_, net_, std::move(cfg)));
  return *servers_.back();
}

}  // namespace hyperloop::core
