#include "fft/reference.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace parfft::dft {

std::vector<cplx> reference_dft(const std::vector<cplx>& x, Direction dir) {
  const int n = static_cast<int>(x.size());
  const double sign = dir == Direction::Forward ? -1.0 : 1.0;
  std::vector<cplx> out(x.size());
  for (int k = 0; k < n; ++k) {
    cplx acc{};
    for (int j = 0; j < n; ++j) {
      const double phase = sign * 2.0 * std::numbers::pi * k * j / n;
      acc += x[static_cast<std::size_t>(j)] *
             cplx(std::cos(phase), std::sin(phase));
    }
    out[static_cast<std::size_t>(k)] = acc;
  }
  return out;
}

std::vector<cplx> reference_dft3d(const std::vector<cplx>& x,
                                  const std::array<int, 3>& n,
                                  Direction dir) {
  const idx_t total = static_cast<idx_t>(n[0]) * n[1] * n[2];
  PARFFT_CHECK(static_cast<idx_t>(x.size()) == total,
               "input size does not match dims");
  std::vector<cplx> data = x;
  if (total == 0) return data;
  idx_t stride = 1;  // element stride of the current axis
  for (int axis = 2; axis >= 0; --axis) {
    const idx_t len = n[static_cast<std::size_t>(axis)];
    std::vector<cplx> line(static_cast<std::size_t>(len));
    for (idx_t l = 0; l < total / len; ++l) {
      const idx_t base = l / stride * stride * len + l % stride;
      for (idx_t j = 0; j < len; ++j)
        line[static_cast<std::size_t>(j)] = data[static_cast<std::size_t>(base + j * stride)];
      const std::vector<cplx> out = reference_dft(line, dir);
      for (idx_t j = 0; j < len; ++j)
        data[static_cast<std::size_t>(base + j * stride)] = out[static_cast<std::size_t>(j)];
    }
    stride *= len;
  }
  return data;
}

}  // namespace parfft::dft
