#pragma once
/// \file solver.hpp
/// Distributed KSPACE (PPPM-style) solver: the application substrate of the
/// paper's Fig. 12 (LAMMPS' long-range Coulomb solver). Charges are
/// deposited onto a distributed FFT mesh (nearest-grid-point assignment),
/// the Poisson/Ewald problem is solved spectrally with one forward and
/// three backward distributed FFTs per step (potential gradient), and
/// forces are interpolated back to the particles. The FFT backend is a
/// core::Plan3D, so every tuning option the paper studies (decomposition,
/// MPI exchange family, GPU awareness, reordering) applies directly to the
/// application.

#include <array>
#include <memory>
#include <vector>

#include "core/plan.hpp"
#include "core/real_plan.hpp"
#include "pppm/ewald.hpp"

namespace parfft::pppm {

struct SolverOptions {
  std::array<int, 3> grid{32, 32, 32};
  double box_len = 1.0;
  /// Ewald splitting parameter (1/length units).
  double alpha = 6.0;
  /// FFT tuning options (decomposition, backend, ...; Fig. 12 compares an
  /// fftMPI-like configuration against the tuned one).
  core::PlanOptions fft;
  /// Use the real-to-complex transform path (1 r2c + 3 c2r per step over
  /// the half spectrum), as LAMMPS' PPPM does; false runs everything
  /// through complex transforms. Both paths produce identical physics.
  bool real_transform = false;
};

struct StepResult {
  double energy = 0;         ///< reciprocal-space Coulomb energy (global)
  double kspace_time = 0;    ///< virtual seconds this rank spent in KSPACE
};

class KspaceSolver {
 public:
  /// Collective constructor; every rank of `comm` owns the minimum-surface
  /// brick of the mesh chosen for its rank (as LAMMPS bricks its domain).
  KspaceSolver(smpi::Comm& comm, const SolverOptions& opt);

  /// True if this rank owns `p` (its deposit cell lies in its brick).
  bool owns(const Particle& p) const;

  /// One KSPACE step over this rank's particles. `forces` (if non-null)
  /// receives one force vector per particle. Collective.
  StepResult step(const std::vector<Particle>& mine,
                  std::vector<std::array<double, 3>>* forces);

 private:
  std::array<idx_t, 3> cell_of(const Particle& p) const;

  smpi::Comm& comm_;
  SolverOptions opt_;
  core::Box3 box_;        ///< real-space brick
  core::Box3 spec_box_;   ///< spectrum brick (half space when real path)
  std::unique_ptr<core::Plan3D> cplan_;      ///< complex path
  std::unique_ptr<core::RealPlan3D> rplan_;  ///< real path
  std::vector<cplx> rho_;      ///< complex-path density / potential brick
  std::vector<double> rho_r_;  ///< real-path density brick
  std::vector<cplx> rhohat_;   ///< local spectrum brick
  std::vector<cplx> field_;    ///< scratch for one spectral field component
  std::vector<double> field_r_;  ///< real-path field at mesh points
};

}  // namespace parfft::pppm
