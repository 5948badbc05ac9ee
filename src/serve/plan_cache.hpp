#pragma once
/// \file plan_cache.hpp
/// Service-level FFT plan cache.
///
/// Plan creation is the expensive, amortizable step of every FFT library
/// the paper touches: gpusim models cuFFT's first-call plan-setup spike
/// (Fig. 10), and a serving workload re-uses a handful of shapes across
/// millions of requests. This cache keeps resident core::Simulator
/// handles keyed on (geometry, PlanOptions, machine); a miss charges the
/// full first-transform spike, a hit costs nothing. Residency is bounded
/// -- real plans pin device work areas -- with LRU + cost-aware eviction:
/// among the least-recently-used tail, the cheapest-to-recreate plan goes
/// first, so an expensive big-transform plan survives a burst of cheap
/// one-off shapes.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace parfft::serve {

/// A resident plan: the reusable simulation handle of one shape. The
/// handle memoizes every pricing (per batch and nic scale), so its
/// memos live exactly as long as the resident plan.
class ServedPlan {
 public:
  ServedPlan(JobShape shape, const ClusterConfig& cluster)
      : shape_(shape), sim_(to_sim_config(cluster, shape)) {}

  const JobShape& shape() const { return shape_; }

  /// Virtual time of executing `batch` coalesced requests as one batched
  /// transform with warm device plans (core's batch + overlap pipeline).
  /// `nic_scale` < 1 reprices every exchange against a degraded fabric
  /// (FlowSim link state scaled; see FaultPlan::DegradeWindow). The
  /// simulator memoizes per (batch, scale) and is always restored to
  /// healthy links afterwards.
  double exec_time(int batch, double nic_scale = 1.0);

  /// One-time spike charged when the plan is created (cache miss): the
  /// device FFT plan setup of every stage layout, priced by gpusim.
  /// Memoized (eviction scans re-query it).
  double setup_time();

  /// Per-chunk delivery profile of a batched execution (healthy-fabric
  /// schedule; crash crediting uses its work *fractions*, which barely
  /// move under degradation).
  core::BatchProfile profile(int batch) { return sim_.batch_profile(batch); }

  core::Simulator& simulator() { return sim_; }

 private:
  JobShape shape_;
  core::Simulator sim_;
  double setup_ = -1;
};

/// Capacity-bounded plan cache with LRU + cost-aware eviction.
class PlanCache {
 public:
  /// `capacity` bounds resident plans (0 = unbounded). Eviction examines
  /// the `eviction_window` least-recently-used entries and removes the
  /// one with the smallest setup (re-creation) cost.
  explicit PlanCache(ClusterConfig cluster, std::size_t capacity = 16,
                     std::size_t eviction_window = 4);

  struct Lookup {
    ServedPlan* plan = nullptr;  ///< valid until the next acquire()
    bool hit = false;
    double setup_charge = 0;  ///< 0 on hit; plan-creation spike on miss
  };

  /// Finds or creates the resident plan for `shape`. A miss builds the
  /// stage pipeline and reports the setup spike the caller must charge to
  /// virtual time; either way the entry becomes most recently used.
  Lookup acquire(const JobShape& shape);

  /// Drops every resident plan: an executor crash loses all device state,
  /// so each re-entry after recovery re-pays its setup spike. Returns the
  /// number of entries removed. Counted in invalidations(), never in
  /// evictions() -- capacity pressure and crash loss are different
  /// signals (a hot cache with many invalidations wants better fault
  /// isolation, not more capacity).
  std::size_t invalidate_all();

  /// True when `shape`'s plan is resident. A pure probe: no counters
  /// move, no LRU motion -- the cluster router's shape-affinity
  /// placement uses it to find the shard whose cache is warm without
  /// perturbing that shard's hit accounting.
  bool warm(const JobShape& shape) const;

  /// Proactive warm-up for a shape this cache has not served yet: builds
  /// the plan and inserts it at the cold (LRU) end without charging setup
  /// time or counting a miss -- the rolling-drain handover (src/cluster)
  /// rebuilds a successor's warm set during the drain window, off the
  /// request path. Never evicts: returns false (and does nothing) when
  /// the shape is already resident or the cache is full, so a handover
  /// cannot push out plans the successor's own traffic keeps hot.
  bool preload(const JobShape& shape);

  /// Shapes currently resident, most recently used first: the warm list
  /// a draining shard hands its successor.
  std::vector<JobShape> resident_shapes() const;

  std::size_t resident() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Total acquire() calls; hits() + misses() == lookups() always.
  std::uint64_t lookups() const { return lookups_; }
  /// Capacity-pressure removals only (see invalidations()).
  std::uint64_t evictions() const { return evictions_; }
  /// Crash-forced removals via invalidate_all().
  std::uint64_t invalidations() const { return invalidations_; }
  /// Plans inserted by preload() (drain handovers), never counted as
  /// misses and never charged setup time.
  std::uint64_t preloads() const { return preloads_; }
  /// Total virtual seconds of plan setup charged by misses so far.
  double setup_charged() const { return setup_charged_; }

  /// Throws parfft::Error if the cache accounting identities are broken:
  /// size <= capacity, hits + misses == lookups, the LRU list and entry
  /// map agree, and every insertion (miss or preload) is accounted for
  /// as resident, evicted (capacity pressure) or invalidated (crash
  /// loss) -- eviction and invalidation are disjoint by construction and
  /// this identity proves no removal was double-counted. Run after every
  /// mutation under PARFFT_PARANOID; callable directly from tests in any
  /// build.
  void check_invariants() const;

 private:
  struct Entry {
    std::unique_ptr<ServedPlan> plan;
    std::list<std::string>::iterator lru_pos;
  };
  void evict_one();

  ClusterConfig cluster_;
  std::size_t capacity_;
  std::size_t window_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::map<std::string, Entry> entries_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0, invalidations_ = 0;
  std::uint64_t preloads_ = 0;
  double setup_charged_ = 0;
};

}  // namespace parfft::serve
