#include "obs/tracer.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"
#include "common/paranoid.hpp"

namespace parfft::obs {

const char* category_name(Category c) {
  switch (c) {
    case Category::Transform: return "transform";
    case Category::Reshape: return "reshape";
    case Category::Fft: return "fft";
    case Category::Pack: return "pack";
    case Category::Unpack: return "unpack";
    case Category::Exchange: return "exchange";
    case Category::Wait: return "wait";
    case Category::Scale: return "scale";
    case Category::Send: return "send";
    case Category::Collective: return "collective";
    case Category::Request: return "request";
    case Category::Fault: return "fault";
    case Category::Retry: return "retry";
    case Category::Alert: return "alert";
  }
  return "unknown";
}

Tracer::Tracer(int nranks) {
  PARFFT_CHECK(nranks >= 1, "tracer needs at least one rank");
  ranks_.resize(static_cast<std::size_t>(nranks));
}

Tracer::RankState& Tracer::state(int rank) {
  PARFFT_CHECK(rank >= 0 && rank < nranks(), "tracer rank out of range");
  return ranks_[static_cast<std::size_t>(rank)];
}

const Tracer::RankState& Tracer::state(int rank) const {
  PARFFT_CHECK(rank >= 0 && rank < nranks(), "tracer rank out of range");
  return ranks_[static_cast<std::size_t>(rank)];
}

void Tracer::begin(int rank, Category cat, std::string name, double t,
                   std::vector<SpanArg> args) {
  RankState& rs = state(rank);
  // Well-nested spans: a child opens no earlier than its parent.
  PARFFT_PARANOID_ASSERT(rs.open.empty() || t >= rs.open.back().begin);
  Span s;
  s.cat = cat;
  s.name = std::move(name);
  s.begin = t;
  s.depth = static_cast<int>(rs.open.size());
  s.args = std::move(args);
  rs.open.push_back(std::move(s));
}

void Tracer::end(int rank, double t) {
  RankState& rs = state(rank);
  PARFFT_CHECK(!rs.open.empty(), "tracer end() without a matching begin()");
  Span s = std::move(rs.open.back());
  rs.open.pop_back();
  PARFFT_CHECK(t >= s.begin, "span end precedes its begin");
  s.dur = t - s.begin;
  rs.done.push_back(std::move(s));
}

double Tracer::fit_children(int rank, double t) {
  RankState& rs = state(rank);
  PARFFT_CHECK(!rs.open.empty(), "tracer fit_children() without an open span");
  const double lo = rs.open.back().begin;
  // The open span's descendants are the closed spans deeper than it at
  // the tail of `done`.
  const int depth = static_cast<int>(rs.open.size());
  auto first = rs.done.end();
  while (first != rs.done.begin() && std::prev(first)->depth >= depth)
    --first;
  double shrink = 1;
  for (auto it = first; it != rs.done.end(); ++it)
    if (it->begin > lo && it->dur <= t - lo)
      shrink = std::min(shrink, (t - lo - it->dur) / (it->begin - lo));
  double last = t;
  for (auto it = first; it != rs.done.end(); ++it) {
    if (shrink < 1) it->begin = lo + (it->begin - lo) * shrink;
    if (it->dur > t - lo) last = std::max(last, it->end());
  }
  return last;
}

void Tracer::complete(int rank, Category cat, std::string name, double begin,
                      double dur, std::vector<SpanArg> args) {
  PARFFT_CHECK(dur >= 0, "span duration must be non-negative");
  RankState& rs = state(rank);
  // A completed span nested under an open one must start within it.
  PARFFT_PARANOID_ASSERT(rs.open.empty() ||
                         begin >= rs.open.back().begin - 1e-9);
  Span s;
  s.cat = cat;
  s.name = std::move(name);
  s.begin = begin;
  s.dur = dur;
  s.depth = static_cast<int>(rs.open.size());
  s.args = std::move(args);
  rs.done.push_back(std::move(s));
}

const std::vector<Span>& Tracer::spans(int rank) const {
  return state(rank).done;
}

int Tracer::open_spans(int rank) const {
  return static_cast<int>(state(rank).open.size());
}

double Tracer::total(int rank, Category cat) const {
  double t = 0;
  for (const Span& s : state(rank).done)
    if (s.cat == cat) t += s.dur;
  return t;
}

}  // namespace parfft::obs
