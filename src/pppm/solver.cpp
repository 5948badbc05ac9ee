#include "pppm/solver.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/simulate.hpp"

namespace parfft::pppm {

namespace {
core::Box3 my_brick(smpi::Comm& comm, const std::array<int, 3>& grid) {
  const auto boxes = core::brick_layout(grid, comm.size());
  return boxes[static_cast<std::size_t>(comm.rank())];
}
}  // namespace

KspaceSolver::KspaceSolver(smpi::Comm& comm, const SolverOptions& opt)
    : comm_(comm), opt_(opt), box_(my_brick(comm, opt.grid)) {
  PARFFT_CHECK(opt_.grid[0] == opt_.grid[1] && opt_.grid[1] == opt_.grid[2],
               "the solver assumes a cubic mesh (like the paper's 512^3)");
  PARFFT_CHECK(opt_.box_len > 0 && opt_.alpha > 0, "bad box or alpha");
  PARFFT_CHECK(opt_.fft.batch == 1, "KSPACE transforms are not batched");
  if (opt_.real_transform) {
    // Half-spectrum space, brick-decomposed like the real mesh.
    const auto nc = core::RealPlan3D::spectrum_dims(opt_.grid);
    spec_box_ = core::brick_layout(nc, comm.size())[static_cast<std::size_t>(
        comm.rank())];
    rplan_ = std::make_unique<core::RealPlan3D>(comm, opt_.grid, box_,
                                                spec_box_, opt_.fft);
    rho_r_.resize(static_cast<std::size_t>(box_.count()));
    field_r_.resize(static_cast<std::size_t>(box_.count()));
  } else {
    spec_box_ = box_;
    cplan_ = std::make_unique<core::Plan3D>(comm, opt_.grid, box_, box_,
                                            opt_.fft);
    rho_.resize(static_cast<std::size_t>(box_.count()));
    field_.resize(static_cast<std::size_t>(spec_box_.count()));
  }
  rhohat_.resize(static_cast<std::size_t>(spec_box_.count()));
}

std::array<idx_t, 3> KspaceSolver::cell_of(const Particle& p) const {
  std::array<idx_t, 3> c{};
  for (int d = 0; d < 3; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    const int n = opt_.grid[sd];
    double x = p.r[sd] / opt_.box_len;   // fractional coordinate
    x -= std::floor(x);                  // periodic wrap to [0, 1)
    c[sd] = static_cast<idx_t>(x * n);
    if (c[sd] >= n) c[sd] = n - 1;       // guard x == 1 after roundoff
  }
  return c;
}

bool KspaceSolver::owns(const Particle& p) const {
  return box_.contains(cell_of(p));
}

StepResult KspaceSolver::step(const std::vector<Particle>& mine,
                              std::vector<std::array<double, 3>>* forces) {
  const double t0 = comm_.vtime();
  const gpu::DeviceSpec& dev = comm_.options().device;
  const double volume = std::pow(opt_.box_len, 3);
  const bool real_path = rplan_ != nullptr;

  // --- Charge deposition (nearest grid point; no ghost exchange needed
  // because every particle deposits into its own cell's node). -----------
  if (real_path) {
    std::fill(rho_r_.begin(), rho_r_.end(), 0.0);
  } else {
    std::fill(rho_.begin(), rho_.end(), cplx{});
  }
  for (const Particle& p : mine) {
    const auto c = cell_of(p);
    PARFFT_CHECK(box_.contains(c), "particle not owned by this rank");
    const auto off = static_cast<std::size_t>(box_.offset_of(c));
    if (real_path) {
      rho_r_[off] += p.q;
    } else {
      rho_[off] += p.q;
    }
  }
  comm_.advance(gpu::pointwise_cost(
      dev, static_cast<double>(mine.size()) * sizeof(Particle)));

  // --- Forward transform of the density. --------------------------------
  if (real_path) {
    rplan_->forward(rho_r_.data(), rhohat_.data());
  } else {
    cplan_->execute(rho_.data(), rhohat_.data(), dft::Direction::Forward);
  }

  // Per-k helpers over this rank's spectrum brick.
  const int n2 = opt_.grid[2];
  auto for_each_k = [&](auto&& fn) {
    idx_t i = 0;
    for (idx_t a = spec_box_.lo[0]; a <= spec_box_.hi[0]; ++a)
      for (idx_t b = spec_box_.lo[1]; b <= spec_box_.hi[1]; ++b)
        for (idx_t c = spec_box_.lo[2]; c <= spec_box_.hi[2]; ++c, ++i) {
          const double kx = mesh_wavenumber(a, opt_.grid[0], opt_.box_len);
          const double ky = mesh_wavenumber(b, opt_.grid[1], opt_.box_len);
          // In the real path, index c lives in the half spectrum but still
          // denotes mode c of the full axis (c <= n2/2, never wraps).
          const double kz = mesh_wavenumber(c, n2, opt_.box_len);
          // Hermitian weight: interior half-spectrum modes stand for a
          // conjugate pair; the c == 0 and c == n2/2 planes are their own
          // conjugates.
          const double w =
              !real_path ? 1.0 : ((c == 0 || 2 * c == n2) ? 1.0 : 2.0);
          fn(static_cast<std::size_t>(i), kx, ky, kz, w);
        }
  };

  // --- Green's-function multiply + energy accumulation. -----------------
  double energy = 0;
  for_each_k([&](std::size_t i, double kx, double ky, double kz, double w) {
    const double g = greens_function(kx * kx + ky * ky + kz * kz, opt_.alpha);
    energy += w * g * std::norm(rhohat_[i]);
  });
  energy /= 2.0 * volume;
  comm_.advance(gpu::pointwise_cost(
      dev, static_cast<double>(spec_box_.count()) * sizeof(cplx)));
  comm_.allreduce(&energy, 1, smpi::Op::Sum);

  // --- Force field: three backward transforms of -i k_d G rho_hat / V. --
  if (forces != nullptr) {
    forces->assign(mine.size(), {0, 0, 0});
    std::vector<cplx> spec_field(static_cast<std::size_t>(spec_box_.count()));
    for (int d = 0; d < 3; ++d) {
      // Rebuild with derivative (Nyquist-zeroed) wavenumbers per mode.
      {
        idx_t i = 0;
        for (idx_t a = spec_box_.lo[0]; a <= spec_box_.hi[0]; ++a)
          for (idx_t b = spec_box_.lo[1]; b <= spec_box_.hi[1]; ++b)
            for (idx_t c = spec_box_.lo[2]; c <= spec_box_.hi[2]; ++c, ++i) {
              const double kx = mesh_wavenumber(a, opt_.grid[0], opt_.box_len);
              const double ky = mesh_wavenumber(b, opt_.grid[1], opt_.box_len);
              const double kz = mesh_wavenumber(c, n2, opt_.box_len);
              const idx_t di = d == 0 ? a : (d == 1 ? b : c);
              const int dn = opt_.grid[static_cast<std::size_t>(d)];
              const double kd = mesh_wavenumber_deriv(di, dn, opt_.box_len);
              const double g = greens_function(kx * kx + ky * ky + kz * kz,
                                               opt_.alpha);
              spec_field[static_cast<std::size_t>(i)] =
                  cplx{0, -kd * g / volume} *
                  rhohat_[static_cast<std::size_t>(i)];
            }
      }
      comm_.advance(gpu::pointwise_cost(
          dev, static_cast<double>(spec_box_.count()) * sizeof(cplx)));
      const double* field_at = nullptr;
      if (real_path) {
        rplan_->backward(spec_field.data(), field_r_.data());
        field_at = field_r_.data();
      } else {
        field_.assign(spec_field.begin(), spec_field.end());
        cplan_->execute(field_.data(), field_.data(),
                        dft::Direction::Backward);
      }
      for (std::size_t pi = 0; pi < mine.size(); ++pi) {
        const auto off =
            static_cast<std::size_t>(box_.offset_of(cell_of(mine[pi])));
        const double e =
            real_path ? field_at[off] : field_[off].real();
        (*forces)[pi][static_cast<std::size_t>(d)] = mine[pi].q * e;
      }
    }
    comm_.advance(gpu::pointwise_cost(
        dev, static_cast<double>(mine.size()) * sizeof(Particle)));
  }

  StepResult res;
  res.energy = energy;
  res.kspace_time = comm_.vtime() - t0;
  return res;
}

}  // namespace parfft::pppm
