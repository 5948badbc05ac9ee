#pragma once
/// \file fft3d.hpp
/// High-level facade mirroring heFFTe's user API: construct from the
/// local input/output boxes, then call forward()/backward() on vectors,
/// with an explicit scale argument. Thin sugar over Plan3D/RealPlan3D for
/// application code that wants the familiar shape:
///
///   core::Fft3D fft(comm, n, inbox, outbox, options);
///   fft.forward(input, output);
///   fft.backward(output, roundtrip, core::Scale::Full);
///
/// (heFFTe: heffte::fft3d<backend::cufft> fft(inbox, outbox, comm);
///  fft.forward(input.data(), output.data(), heffte::scale::full);)

#include <array>
#include <memory>
#include <vector>

#include "core/plan.hpp"

namespace parfft::core {

/// Normalization applied by a single call (heFFTe's scale enum).
enum class Scale { None, Full, Symmetric };

class Fft3D {
 public:
  /// Collective constructor over `comm`.
  Fft3D(smpi::Comm& comm, const std::array<int, 3>& n, const Box3& inbox,
        const Box3& outbox, const PlanOptions& opt = {});

  /// Elements this rank holds before / after a forward transform, per
  /// batch element.
  idx_t size_inbox() const { return plan_.inbox().count(); }
  idx_t size_outbox() const { return plan_.outbox().count(); }

  /// Forward transform; `in.size()` must be batch * size_inbox().
  void forward(const std::vector<cplx>& in, std::vector<cplx>& out,
               Scale scale = Scale::None);

  /// Backward transform: consumes data in the *outbox* layout and
  /// produces the *inbox* layout, like heFFTe (a reversed pipeline is
  /// created on demand when the two layouts differ).
  void backward(const std::vector<cplx>& in, std::vector<cplx>& out,
                Scale scale = Scale::None);

  Plan3D& plan() { return plan_; }
  const Plan3D& plan() const { return plan_; }
  /// The pipeline backward() runs and charges its scale pass to: the
  /// reversed one when the layouts differ, else plan().
  Plan3D& backward_plan() { return bwd_ ? *bwd_ : plan_; }

 private:
  /// Scales `data` and charges the pass to `p`, the plan that produced it.
  void apply_scale(Plan3D& p, std::vector<cplx>& data, Scale scale);

  smpi::Comm& comm_;
  std::array<int, 3> n_;
  PlanOptions opt_;
  idx_t total_;
  Plan3D plan_;
  std::unique_ptr<Plan3D> bwd_;  ///< reversed pipeline (asymmetric layouts)
};

}  // namespace parfft::core
