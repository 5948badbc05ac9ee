#include "core/fft3d.hpp"

#include <cmath>

#include "common/error.hpp"

namespace parfft::core {

namespace {
PlanOptions strip_scaling(PlanOptions opt) {
  // Scaling is per call in this API (like heFFTe), not baked into the plan.
  opt.scaling = Scaling::None;
  return opt;
}
}  // namespace

Fft3D::Fft3D(smpi::Comm& comm, const std::array<int, 3>& n,
             const Box3& inbox, const Box3& outbox, const PlanOptions& opt)
    : comm_(comm), n_(n), opt_(strip_scaling(opt)),
      total_(static_cast<idx_t>(n[0]) * n[1] * n[2]),
      plan_(comm, n, inbox, outbox, opt_) {
  if (!(inbox == outbox)) {
    // heFFTe-style backward goes outbox -> inbox; build the reverse
    // pipeline eagerly (construction is collective, so it cannot be
    // deferred to the first backward() call of a subset of ranks).
    bwd_ = std::make_unique<Plan3D>(comm, n, outbox, inbox, opt_);
  }
}

void Fft3D::apply_scale(Plan3D& p, std::vector<cplx>& data, Scale scale) {
  if (scale == Scale::None) return;
  const double f = scale == Scale::Full
                       ? 1.0 / static_cast<double>(total_)
                       : 1.0 / std::sqrt(static_cast<double>(total_));
  for (auto& v : data) v *= f;
  charge(comm_, &p.trace(), obs::Category::Scale, "scale",
         gpu::pointwise_cost(comm_.options().device,
                             static_cast<double>(data.size()) * sizeof(cplx)));
}

void Fft3D::forward(const std::vector<cplx>& in, std::vector<cplx>& out,
                    Scale scale) {
  const auto batch = static_cast<idx_t>(plan_.stage_plan().options.batch);
  PARFFT_CHECK(static_cast<idx_t>(in.size()) == size_inbox() * batch,
               "input size does not match the inbox");
  out.resize(static_cast<std::size_t>(size_outbox() * batch));
  plan_.execute(in.data(), out.data(), dft::Direction::Forward);
  apply_scale(plan_, out, scale);
}

void Fft3D::backward(const std::vector<cplx>& in, std::vector<cplx>& out,
                     Scale scale) {
  Plan3D& p = backward_plan();
  const auto batch = static_cast<idx_t>(p.stage_plan().options.batch);
  PARFFT_CHECK(static_cast<idx_t>(in.size()) == size_outbox() * batch,
               "input size does not match the outbox");
  out.resize(static_cast<std::size_t>(size_inbox() * batch));
  p.execute(in.data(), out.data(), dft::Direction::Backward);
  apply_scale(p, out, scale);
}

}  // namespace parfft::core
