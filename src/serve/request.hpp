#pragma once
/// \file request.hpp
/// Client-facing job types of the FFT service layer.
///
/// The serving engine (src/serve) multiplexes many concurrent client jobs
/// over one simulated machine in virtual time. A job asks for one 3-D
/// transform of a given JobShape; the server coalesces same-shape jobs
/// into batched Plan3D-style executions (core's batch + overlap pipeline)
/// and amortizes plan creation through a capacity-bounded plan cache.

#include <array>
#include <cstdint>
#include <string>

#include "core/simulate.hpp"
#include "core/stages.hpp"

namespace parfft::serve {

/// Geometry + plan options a class of jobs shares: the unit of plan
/// caching and shape batching. `options.batch` is a service-side decision
/// (the batcher sets it per dispatch) and is ignored on submission.
struct JobShape {
  std::array<int, 3> n{64, 64, 64};
  core::PlanOptions options;
};

/// The one simulated machine the service multiplexes jobs onto.
struct ClusterConfig {
  net::MachineSpec machine = net::summit();
  gpu::DeviceSpec device = gpu::v100();
  int nranks = 12;  ///< GPUs (1 MPI rank per GPU, the paper's placement)
  bool gpu_aware = true;
  net::MpiFlavor flavor = net::MpiFlavor::SpectrumMPI;
};

/// The core::Simulator configuration of `shape` on `cluster` (brick
/// input/output layouts; batch chosen per dispatch).
core::SimConfig to_sim_config(const ClusterConfig& cluster,
                              const JobShape& shape);

/// Canonical plan-cache key: geometry, the plan options that change the
/// stage pipeline or its pricer, and the machine identity (MPI flavor
/// included). Same key <=> one resident plan serves both jobs.
std::string shape_key(const ClusterConfig& cluster, const JobShape& shape);

/// One client job flowing through the server. Times are virtual seconds.
///
/// Under the fault layer a job may be submitted several times: `arrival`
/// is the current attempt's submission, `submitted` the first one (set by
/// the server on first admission; latency is measured from it, so retried
/// requests carry their full backoff history in the tail). `deadline` is
/// absolute (0 = none): completions after it count against goodput, and
/// a deadline-aware server may shed the request once it expires.
struct Request {
  std::uint64_t id = 0;
  int tenant = 0;
  int shape_id = 0;        ///< index into the server's shape catalog
  double arrival = 0;
  double dispatch = -1;    ///< when its batch started executing
  double completion = -1;  ///< when its batch finished
  double submitted = -1;   ///< first-attempt arrival (-1 until admitted)
  double deadline = 0;     ///< absolute completion deadline (0 = none)
  int attempt = 1;         ///< submission attempt, 1-based

  double latency() const {
    return completion - (submitted >= 0 ? submitted : arrival);
  }
  double queue_wait() const { return dispatch - arrival; }
  bool met_deadline() const { return deadline <= 0 || completion <= deadline; }
};

}  // namespace parfft::serve
