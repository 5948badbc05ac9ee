#include "core/trace.hpp"

#include <utility>

namespace parfft::core {

void Trace::add(obs::Category cat, std::string name, double t) {
  calls_.push_back({std::move(name), t, cat});
}

void KernelTimes::add(obs::Category cat, double t) {
  switch (cat) {
    case obs::Category::Fft:
      fft += t;
      break;
    case obs::Category::Pack:
      pack += t;
      break;
    case obs::Category::Unpack:
      unpack += t;
      break;
    case obs::Category::Scale:
      scale += t;
      break;
    default:  // Exchange / Wait / Send / Collective: communication time
      comm += t;
      break;
  }
}

KernelTimes Trace::kernels() const {
  KernelTimes k;
  for (const CallRecord& c : calls_) k.add(c.cat, c.seconds);
  return k;
}

std::vector<CallRecord> Trace::comm_calls() const {
  std::vector<CallRecord> out;
  for (const CallRecord& c : calls_)
    if (c.cat == obs::Category::Exchange) out.push_back(c);
  return out;
}

std::vector<CallRecord> Trace::fft_calls() const {
  std::vector<CallRecord> out;
  for (const CallRecord& c : calls_)
    if (c.cat == obs::Category::Fft) out.push_back(c);
  return out;
}

}  // namespace parfft::core
