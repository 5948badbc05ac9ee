// GPU device-model tests: cost monotonicity, the strided-input spike the
// paper measures in Fig. 10, plan-cache behaviour, stream timelines and
// tagged buffers.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "gpusim/device.hpp"

namespace parfft::gpu {
namespace {

TEST(DeviceSpec, V100MatchesPublishedPeaks) {
  const DeviceSpec d = v100();
  EXPECT_EQ(d.vendor, Vendor::Nvidia);
  EXPECT_EQ(d.fft_backend, "cuFFT");
  EXPECT_DOUBLE_EQ(d.fp64_flops, 7.8e12);
}

TEST(DeviceSpec, Mi100UsesRocFFT) {
  const DeviceSpec d = mi100();
  EXPECT_EQ(d.vendor, Vendor::Amd);
  EXPECT_EQ(d.fft_backend, "rocFFT");
  EXPECT_GT(d.fp64_flops, v100().fp64_flops);
}

TEST(FftCost, GrowsWithBatch) {
  const DeviceSpec d = v100();
  EXPECT_LT(fft_cost(d, 512, 64, false), fft_cost(d, 512, 4096, false));
}

TEST(FftCost, StridedSpikesAboveContiguous) {
  // The Fig. 10 phenomenon: strided input is several times slower.
  const DeviceSpec d = v100();
  const double c = fft_cost(d, 512, 10922, false);
  const double s = fft_cost(d, 512, 10922, true);
  EXPECT_GT(s, 3.0 * c);
  EXPECT_LT(s, 10.0 * c);
}

TEST(FftCost, LaunchOverheadDominatesTinyTransforms) {
  const DeviceSpec d = v100();
  EXPECT_NEAR(fft_cost(d, 1, 1, false), d.kernel_launch, 1e-12);
  EXPECT_LT(fft_cost(d, 16, 1, false), 2.0 * d.kernel_launch);
}

TEST(FftCost, RejectsBadArgs) {
  EXPECT_THROW(fft_cost(v100(), 0, 1, false), Error);
  EXPECT_THROW(fft_cost(v100(), 8, 0, false), Error);
}

TEST(PackCost, LinearInBytesWhenCoalesced) {
  const DeviceSpec d = v100();
  const double t1 = pack_cost(d, 1e6, 4096) - d.kernel_launch;
  const double t2 = pack_cost(d, 2e6, 4096) - d.kernel_launch;
  EXPECT_NEAR(t2, 2 * t1, 1e-12);
}

TEST(PackCost, FineGrainedRunsArePenalized) {
  const DeviceSpec d = v100();
  EXPECT_GT(pack_cost(d, 1e6, 16), pack_cost(d, 1e6, 4096));
}

TEST(PackCost, ZeroBytesIsFree) {
  EXPECT_DOUBLE_EQ(pack_cost(v100(), 0, 16), 0.0);
}

TEST(PointwiseCost, ScalesWithBytes) {
  const DeviceSpec d = v100();
  EXPECT_LT(pointwise_cost(d, 1e5), pointwise_cost(d, 1e8));
  EXPECT_DOUBLE_EQ(pointwise_cost(d, 0), 0.0);
}

TEST(PlanCache, FirstCallPaysPlanSetup) {
  const DeviceSpec d = v100();
  PlanCache cache;
  const double first = cache.fft_call(d, 512, 64, false);
  const double second = cache.fft_call(d, 512, 64, false);
  EXPECT_NEAR(first - second, d.fft_plan_setup, 1e-12);
  EXPECT_EQ(cache.plans_created(), 1u);
}

TEST(PlanCache, DistinctLayoutsAreDistinctPlans) {
  const DeviceSpec d = v100();
  PlanCache cache;
  cache.fft_call(d, 512, 64, false);
  cache.fft_call(d, 512, 64, true);   // strided layout: new plan
  cache.fft_call(d, 256, 64, false);  // new length: new plan
  EXPECT_EQ(cache.plans_created(), 3u);
}

TEST(StreamTimeline, SerializesSubmissions) {
  StreamTimeline s;
  EXPECT_DOUBLE_EQ(s.submit(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(s.submit(0.0, 1.0), 2.0);   // waits for predecessor
  EXPECT_DOUBLE_EQ(s.submit(5.0, 1.0), 6.0);   // honours earliest start
  EXPECT_DOUBLE_EQ(s.ready(), 6.0);
}

TEST(StreamTimeline, TwoStreamsOverlap) {
  // The mechanism behind the paper's batched-transform speedup (Fig. 13):
  // compute on one stream overlaps communication on the other.
  StreamTimeline compute, comm;
  double comm_done = 0;
  for (int b = 0; b < 4; ++b) {
    const double c = compute.submit(0.0, 1.0);
    comm_done = comm.submit(c, 1.0);
  }
  // Pipelined: 1 (first compute) + 4 (comm) instead of 8 serialized.
  EXPECT_DOUBLE_EQ(comm_done, 5.0);
}

TEST(StreamTimeline, RejectsNegativeDuration) {
  StreamTimeline s;
  EXPECT_THROW(s.submit(0.0, -1.0), Error);
}

TEST(PlanCache, BoundedCapacityEvictsLeastRecentlyUsed) {
  const DeviceSpec d = v100();
  PlanCache cache(/*capacity=*/2);
  cache.fft_call(d, 128, 8, false);  // plan A
  cache.fft_call(d, 256, 8, false);  // plan B
  cache.fft_call(d, 128, 8, false);  // hit A -> recency [A, B]
  cache.fft_call(d, 512, 8, false);  // plan C evicts B (the LRU)
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.resident(), 2u);
  const double a = cache.fft_call(d, 128, 8, false);
  EXPECT_NEAR(a, fft_cost(d, 128, 8, false), 1e-15) << "A stayed resident";
  const double b = cache.fft_call(d, 256, 8, false);
  EXPECT_NEAR(b - fft_cost(d, 256, 8, false), d.fft_plan_setup, 1e-12)
      << "evicted layout re-pays the plan-setup spike on re-entry";
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.plans_created(), 4u);
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST(PlanCache, ZeroCapacityIsUnbounded) {
  const DeviceSpec d = v100();
  PlanCache cache(/*capacity=*/0);
  for (int len : {2, 4, 8, 16, 32, 64, 128, 256})
    cache.fft_call(d, len, 1, false);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.resident(), 8u);
  EXPECT_EQ(cache.capacity(), 0u);
}

}  // namespace
}  // namespace parfft::gpu
