#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& [n, v] : items_)
    if (n == name) {
      v = {value, unit};
      return;
    }
  items_.push_back({name, {value, unit}});
}

int Tracer::begin(const std::string& name, const std::string& layer,
                  int parent) {
  spans_.push_back({name, layer, now_s(), 0, parent, 0});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur = now_s() - s.start;
  if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child += s.dur;
  return s.dur;
}

int Tracer::add(const std::string& name, const std::string& layer,
                double start, double dur, int parent) {
  spans_.push_back({name, layer, start, dur, parent, 0});
  if (parent >= 0) spans_[static_cast<std::size_t>(parent)].child += dur;
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_by_layer() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.layer] += self(s);
  return out;
}

double Tracer::root_total() const {
  double t = 0;
  for (const Span& s : spans_)
    if (s.parent < 0) t += s.dur;
  return t;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.dur);
  return out;
}

std::vector<double> Tracer::selves(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(self(s));
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  os << "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d,"
                  "\"self_us\":%.3f}}",
                  i ? ",\n" : "\n", s.name.c_str(), s.layer.c_str(),
                  (s.start - t0) * 1e6, s.dur * 1e6, s.parent,
                  self(s) * 1e6);
    os << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void Outcome::fail(const std::string& what) {
  ++failed;
  lines.push_back("CHECK FAILED: " + what);
}

bool Reference::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) return false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, k, h;
    if (ls >> w >> k >> h) ref_[w + " " + k] = h;
  }
  loaded_ = true;
  return true;
}

void Reference::check(const std::string& workload, Outcome& out) const {
  if (!loaded_) {
    out.note("model digests not compared (no reference for tiny sizes)");
    return;
  }
  auto mismatch = [&](const std::string& what) {
    ++out.mismatches;
    out.fail(what);
  };
  std::map<std::string, bool> produced;
  for (const auto& [key, hex] : out.digests) {
    produced[key] = true;
    const auto it = ref_.find(workload + " " + key);
    if (it == ref_.end())
      mismatch("virtual-time digest " + key + " = " + hex +
               " has no reference entry");
    else if (it->second != hex)
      mismatch("virtual-time digest " + key + " = " + hex + ", reference " +
               it->second);
  }
  const std::string prefix = workload + " ";
  for (const auto& [wkey, hex] : ref_)
    if (wkey.compare(0, prefix.size(), prefix) == 0 &&
        !produced.count(wkey.substr(prefix.size())))
      mismatch("reference digest " + wkey.substr(prefix.size()) +
               " was not produced");
  out.note("model digests compared with reference: " +
           std::to_string(out.digests.size()) + ", mismatches " +
           std::to_string(out.mismatches));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::vector<std::size_t> fastest_eighth(const std::vector<double>& durations) {
  std::vector<std::size_t> idx(durations.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return durations[a] < durations[b];
  });
  idx.resize(std::max<std::size_t>(1, (idx.size() + 7) / 8));
  return idx;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", prec, v);
  return buf;
}

bool Budget::another() const {
  if (durations_.empty()) return true;
  const double longest =
      *std::max_element(durations_.begin(), durations_.end());
  return elapsed() + longest <= seconds_;
}

std::string Budget::summary() const {
  if (durations_.empty()) return "0 rounds";
  return std::to_string(durations_.size()) + " rounds, " +
         fmt(*std::min_element(durations_.begin(), durations_.end())) + "/" +
         fmt(median(durations_)) + "/" +
         fmt(*std::max_element(durations_.begin(), durations_.end())) +
         " s each (min/median/max)";
}

}  // namespace perfbench
