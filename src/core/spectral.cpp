#include "core/spectral.hpp"

#include "common/error.hpp"

namespace parfft::core {

void spectral_convolve(Fft3D& fft, const std::vector<cplx>& a,
                       const std::vector<cplx>& b, std::vector<cplx>& out) {
  std::vector<cplx> ahat, bhat;
  fft.forward(a, ahat);
  fft.forward(b, bhat);
  PARFFT_ASSERT(ahat.size() == bhat.size());
  for (std::size_t i = 0; i < ahat.size(); ++i) ahat[i] *= bhat[i];
  // One normalization of 1/N makes this the plain circular convolution.
  fft.backward(ahat, out, Scale::Full);
}

void apply_spectral_filter(
    Fft3D& fft, std::vector<cplx>& data,
    const std::function<cplx(idx_t, idx_t, idx_t)>& filter) {
  std::vector<cplx> hat;
  fft.forward(data, hat);
  const Box3& sbox = fft.plan().outbox();
  idx_t i = 0;
  for (idx_t a = sbox.lo[0]; a <= sbox.hi[0]; ++a)
    for (idx_t b = sbox.lo[1]; b <= sbox.hi[1]; ++b)
      for (idx_t c = sbox.lo[2]; c <= sbox.hi[2]; ++c, ++i)
        hat[static_cast<std::size_t>(i)] *= filter(a, b, c);
  fft.backward(hat, data, Scale::Full);
}

void distributed_reshape(smpi::Comm& comm, const Box3& from, const Box3& to,
                         const std::vector<cplx>& in, std::vector<cplx>& out,
                         Backend backend) {
  PARFFT_CHECK(static_cast<idx_t>(in.size()) == from.count(),
               "input does not match the source brick");
  PARFFT_CHECK(backend == Backend::Alltoall || backend == Backend::Alltoallv,
               "standalone reshape supports the collective backends");
  const auto from_all = allgather_boxes(comm, from);
  const auto to_all = allgather_boxes(comm, to);
  const ReshapePlan rp = ReshapePlan::create(from_all, to_all);
  out.resize(static_cast<std::size_t>(to.count()));
  packed_reshape(comm, rp, 1, in.data(), out.data(), to_alg(backend),
                 nullptr);
}

}  // namespace parfft::core
