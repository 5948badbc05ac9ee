#include "core/real_plan.hpp"

#include "common/error.hpp"
#include "core/simulate.hpp"

namespace parfft::core {

namespace {

PlanOptions inner_options(PlanOptions opt) {
  opt.scaling = Scaling::None;  // normalization applied once, at the end
  return opt;
}

int compute_ranks_of(const PlanOptions& opt, int nranks) {
  return (opt.shrink_to > 0 && opt.shrink_to < nranks) ? opt.shrink_to
                                                       : nranks;
}

}  // namespace

RealPlan3D::RealPlan3D(smpi::Comm& comm, const std::array<int, 3>& n,
                       const Box3& in_real, const Box3& out_spec,
                       const PlanOptions& opt)
    : comm_(comm), n_(n), nc_(spectrum_dims(n)), opt_(opt),
      dev_(comm.options().device), in_real_(in_real), out_spec_(out_spec),
      zreal_(), zspec_(),
      real_fwd_(), real_bwd_(),
      complex_fwd_([&] {
        const int cr = compute_ranks_of(opt, comm.size());
        auto zspec_all = grid_boxes(nc_, pencil_grid(cr, 2), comm.size());
        auto out_all = allgather_boxes(comm, out_spec);
        const Box3 zspec_me =
            zspec_all[static_cast<std::size_t>(comm.rank())];
        return Plan3D(comm,
                      build_partial_stages(nc_, comm.size(),
                                           std::move(zspec_all),
                                           std::move(out_all), {1, 0},
                                           inner_options(opt)),
                      zspec_me, out_spec);
      }()),
      complex_bwd_([&] {
        const int cr = compute_ranks_of(opt, comm.size());
        auto zspec_all = grid_boxes(nc_, pencil_grid(cr, 2), comm.size());
        auto out_all = allgather_boxes(comm, out_spec);
        const Box3 zspec_me =
            zspec_all[static_cast<std::size_t>(comm.rank())];
        return Plan3D(comm,
                      build_partial_stages(nc_, comm.size(),
                                           std::move(out_all),
                                           std::move(zspec_all), {0, 1},
                                           inner_options(opt)),
                      out_spec, zspec_me);
      }()),
      line_(n[2]) {
  PARFFT_CHECK(opt.batch == 1,
               "batched real transforms are not supported; batch complex "
               "transforms instead");
  const int cr = compute_ranks_of(opt, comm.size());
  const auto zreal_all = grid_boxes(n_, pencil_grid(cr, 2), comm.size());
  const auto zspec_all = grid_boxes(nc_, pencil_grid(cr, 2), comm.size());
  zreal_ = zreal_all[static_cast<std::size_t>(comm.rank())];
  zspec_ = zspec_all[static_cast<std::size_t>(comm.rank())];
  auto in_all = allgather_boxes(comm, in_real);
  real_fwd_ = ReshapePlan::create(in_all, zreal_all);
  real_bwd_ = ReshapePlan::create(zreal_all, in_all);
  rwork_.resize(static_cast<std::size_t>(zreal_.count()));
  cwork_.resize(static_cast<std::size_t>(zspec_.count()));
}

void RealPlan3D::exchange_real(const ReshapePlan& rp, const double* in,
                               double* out) {
  // The real stage supports the collective data paths; P2P and datatype
  // backends fall back to Alltoallv here (heFFTe's r2c does the same:
  // the first reshape is always a packed exchange).
  const net::CollectiveAlg alg = opt_.backend == Backend::Alltoall
                                     ? net::CollectiveAlg::Alltoall
                                     : net::CollectiveAlg::Alltoallv;
  packed_reshape(comm_, rp, 1, in, out, alg, &trace_);
}

void RealPlan3D::forward(const double* in, cplx* out) {
  exchange_real(real_fwd_, in, rwork_.data());

  // Local r2c along the full axis 2 of the z-pencil.
  const idx_t lines = zreal_.size(0) * zreal_.size(1);
  const idx_t nc2 = zspec_.size(2);
  for (idx_t l = 0; l < lines; ++l)
    line_.r2c(rwork_.data() + l * n_[2], cwork_.data() + l * nc2);
  // An r2c costs roughly 60% of the complex transform of the same length.
  const double t = lines > 0
                       ? 0.6 * gpu::fft_cost(dev_, n_[2],
                                             static_cast<int>(lines), false)
                       : 0.0;
  charge(comm_, &trace_, obs::Category::Fft, "r2c", t);

  complex_fwd_.execute(cwork_.data(), out, dft::Direction::Forward);
}

void RealPlan3D::backward(const cplx* in, double* out) {
  complex_bwd_.execute(in, cwork_.data(), dft::Direction::Backward);

  const idx_t lines = zreal_.size(0) * zreal_.size(1);
  const idx_t nc2 = zspec_.size(2);
  for (idx_t l = 0; l < lines; ++l)
    line_.c2r(cwork_.data() + l * nc2, rwork_.data() + l * n_[2]);
  const double t = lines > 0
                       ? 0.6 * gpu::fft_cost(dev_, n_[2],
                                             static_cast<int>(lines), false)
                       : 0.0;
  charge(comm_, &trace_, obs::Category::Fft, "c2r", t);

  exchange_real(real_bwd_, rwork_.data(), out);

  if (opt_.scaling == Scaling::Full) {
    const double inv =
        1.0 / (static_cast<double>(n_[0]) * n_[1] * n_[2]);
    const idx_t cnt = in_real_.count();
    for (idx_t i = 0; i < cnt; ++i) out[i] *= inv;
    charge(comm_, &trace_, obs::Category::Scale, "scale",
           gpu::pointwise_cost(dev_,
                               static_cast<double>(cnt) * sizeof(double)));
  }
}

KernelTimes RealPlan3D::kernels() const {
  KernelTimes k = trace_.kernels();
  k += complex_fwd_.trace().kernels();
  k += complex_bwd_.trace().kernels();
  return k;
}

}  // namespace parfft::core
