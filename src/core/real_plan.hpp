#pragma once
/// \file real_plan.hpp
/// Distributed real-to-complex 3-D transform (and its inverse), the
/// transform class LAMMPS' KSPACE and most application codes use for
/// real-valued fields. Pipeline (the standard r2c factorization, as in
/// heFFTe):
///
///   real bricks --reshape--> z-pencils (real)
///   local r2c along axis 2  ->  half spectrum of width n2/2 + 1
///   complex pipeline over the (n0, n1, n2/2+1) space for axes 1 and 0
///   --reshape--> caller's spectrum bricks
///
/// The first reshape moves real scalars (half the complex traffic -- the
/// bandwidth advantage of r2c); the rest reuses the complex machinery via
/// build_partial_stages.

#include <array>
#include <vector>

#include "core/plan.hpp"
#include "fft/real.hpp"

namespace parfft::core {

class RealPlan3D {
 public:
  /// Index space of the half spectrum for a real transform of dims n.
  static std::array<int, 3> spectrum_dims(const std::array<int, 3>& n) {
    return {n[0], n[1], n[2] / 2 + 1};
  }

  /// Collective constructor. `in_real` is this rank's brick of the real
  /// n-space; `out_spec` its brick of the (n0, n1, n2/2+1) spectrum
  /// space. The exchange family for the real stage follows opt.backend
  /// where the data path exists (Alltoall/Alltoallv); the datatype and
  /// P2P backends fall back to Alltoallv for that one stage. Batched real
  /// transforms are not supported (opt.batch must be 1).
  RealPlan3D(smpi::Comm& comm, const std::array<int, 3>& n,
             const Box3& in_real, const Box3& out_spec,
             const PlanOptions& opt);

  /// Forward transform: real brick -> half-spectrum brick (unnormalized).
  void forward(const double* in, cplx* out);

  /// Inverse transform: half-spectrum brick -> real brick. Unnormalized
  /// unless options.scaling == Scaling::Full (then backward(forward(x))
  /// == x).
  void backward(const cplx* in, double* out);

  const Box3& inbox() const { return in_real_; }
  const Box3& outbox() const { return out_spec_; }

  /// Combined virtual-time accounting: the real reshape + r2c stage plus
  /// both complex pipelines.
  KernelTimes kernels() const;

 private:
  void exchange_real(const ReshapePlan& rp, const double* in, double* out);

  smpi::Comm& comm_;
  std::array<int, 3> n_;
  std::array<int, 3> nc_;
  PlanOptions opt_;
  gpu::DeviceSpec dev_;
  Box3 in_real_, out_spec_;
  Box3 zreal_;   ///< this rank's z-pencil in the real space
  Box3 zspec_;   ///< this rank's z-pencil in the spectrum space
  ReshapePlan real_fwd_;  ///< in_real layout -> z-pencils (real scalars)
  ReshapePlan real_bwd_;  ///< z-pencils -> in_real layout
  Plan3D complex_fwd_;    ///< z-pencil half spectrum -> out_spec (axes 1,0)
  Plan3D complex_bwd_;    ///< out_spec -> z-pencil half spectrum (axes 0,1)
  dft::RealPlan1D line_;  ///< local r2c/c2r of length n2
  Trace trace_;           ///< real-stage accounting
  std::vector<double> rwork_;
  std::vector<cplx> cwork_;
};

}  // namespace parfft::core
