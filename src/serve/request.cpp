#include "serve/request.hpp"

namespace parfft::serve {

core::SimConfig to_sim_config(const ClusterConfig& cluster,
                              const JobShape& shape) {
  core::SimConfig cfg;
  cfg.n = shape.n;
  cfg.nranks = cluster.nranks;
  cfg.machine = cluster.machine;
  cfg.device = cluster.device;
  cfg.gpu_aware = cluster.gpu_aware;
  cfg.flavor = cluster.flavor;
  cfg.options = shape.options;
  return cfg;
}

std::string shape_key(const ClusterConfig& cluster, const JobShape& shape) {
  const core::PlanOptions& o = shape.options;
  std::string k = std::to_string(shape.n[0]);
  k += "x";
  k += std::to_string(shape.n[1]);
  k += "x";
  k += std::to_string(shape.n[2]);
  k += "|r";
  k += std::to_string(cluster.nranks);
  k += "|d";
  k += std::to_string(static_cast<int>(o.decomp));
  k += "|";
  k += core::backend_name(o.backend);
  if (o.contiguous_fft) k += "|cf";
  if (o.shrink_to > 0) {
    k += "|s";
    k += std::to_string(o.shrink_to);
  }
  k += "|";
  k += cluster.machine.name;
  k += "/";
  k += cluster.device.fft_backend;
  if (!cluster.gpu_aware) k += "|staged";
  if (!o.overlap_batches) k += "|seq";
  if (cluster.flavor != net::MpiFlavor::SpectrumMPI)
    k += "|f" + std::to_string(static_cast<int>(cluster.flavor));
  return k;
}

}  // namespace parfft::serve
