#pragma once
/// \file workloads.hpp
/// The four benchmark workloads and the per-layer suite.
///
/// Every workload runs in rounds. A round is a fixed, seeded amount of
/// work, so its virtual-time outputs are a pure function of the seed and
/// can be digested; a run repeats rounds until its time budget is spent.
/// With a tracer, each primary call gets a span and the sub-calls it made
/// inside the library are replayed right after it as child spans.

#include <cstdint>

#include "harness.hpp"

namespace perfbench {

/// Wall time and count of the operations of one pass.
struct PassStats {
  double op_seconds = 0;  ///< wall time spent in operations
  std::uint64_t ops = 0;
};

/// Seed of every workload's reference round: one untimed round whose
/// virtual-time digest reference.txt pins, so every run is checked against
/// seed code whatever its --seed.
constexpr std::uint64_t kReferenceSeed = 1;

/// Runs one workload pass of about `seconds`. Untraced passes fill
/// out.end_to_end; every pass adds its checks to out.
PassStats run_scale_sweep(const Options& o, double seconds, Outcome& out,
                          Tracer* tracer);
PassStats run_serve_steady(const Options& o, double seconds, Outcome& out,
                           Tracer* tracer);
PassStats run_serve_churn(const Options& o, double seconds, Outcome& out,
                          Tracer* tracer);
PassStats run_fft_exec(const Options& o, double seconds, Outcome& out,
                       Tracer* tracer);

/// Reference rounds: one untimed round at kReferenceSeed (fft_exec: on
/// kReferenceRanks rank threads), digested into out.digests.
/// scale_sweep's sweep digest does not depend on the seed, so its passes
/// digest it directly and it has no reference round.
constexpr int kReferenceRanks = 4;
void reference_serve_steady(const Options& o, Outcome& out);
void reference_serve_churn(const Options& o, Outcome& out);
void reference_fft_exec(const Options& o, Outcome& out);

/// Per-layer suite: times the public calls of every layer on the inputs
/// its home workload feeds it, and fills out.per_layer. The same suite
/// runs in every traced run, so each per-layer metric has one definition.
void sweep_layer_suite(const Options& o, Outcome& out);
void serve_layer_suite(const Options& o, Outcome& out);
void fft_layer_suite(const Options& o, Outcome& out);

}  // namespace perfbench
