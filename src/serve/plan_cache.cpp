#include "serve/plan_cache.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/paranoid.hpp"

namespace parfft::serve {

double ServedPlan::exec_time(int batch, double nic_scale) {
  // `nic_scale` is a stored FaultPlan sentinel compared untouched, so
  // equality against healthy (1.0) is exact by construction.
  if (nic_scale != 1.0) sim_.set_nic_scale(nic_scale);  // parfft-lint: allow(float-eq)
  const double t = sim_.transform_time(batch);
  if (nic_scale != 1.0) sim_.set_nic_scale(1.0);  // parfft-lint: allow(float-eq)
  return t;
}

double ServedPlan::setup_time() {
  if (setup_ < 0) setup_ = sim_.plan_setup_time();
  return setup_;
}

PlanCache::PlanCache(ClusterConfig cluster, std::size_t capacity,
                     std::size_t eviction_window)
    : cluster_(std::move(cluster)), capacity_(capacity),
      window_(std::max<std::size_t>(1, eviction_window)) {}

PlanCache::Lookup PlanCache::acquire(const JobShape& shape) {
  ++lookups_;
  const std::string key = shape_key(cluster_, shape);
  if (auto it = entries_.find(key); it != entries_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    PARFFT_IF_PARANOID(check_invariants());
    return {it->second.plan.get(), /*hit=*/true, 0.0};
  }
  ++misses_;
  if (capacity_ > 0 && entries_.size() >= capacity_) evict_one();
  auto plan = std::make_unique<ServedPlan>(shape, cluster_);
  const double setup = plan->setup_time();
  setup_charged_ += setup;
  lru_.push_front(key);
  auto [it, inserted] =
      entries_.emplace(key, Entry{std::move(plan), lru_.begin()});
  PARFFT_ASSERT(inserted);
  PARFFT_IF_PARANOID(check_invariants());
  return {it->second.plan.get(), /*hit=*/false, setup};
}

bool PlanCache::warm(const JobShape& shape) const {
  return entries_.find(shape_key(cluster_, shape)) != entries_.end();
}

bool PlanCache::preload(const JobShape& shape) {
  const std::string key = shape_key(cluster_, shape);
  if (entries_.find(key) != entries_.end()) return false;
  if (capacity_ > 0 && entries_.size() >= capacity_) return false;
  auto plan = std::make_unique<ServedPlan>(shape, cluster_);
  // Cold (LRU) end: the successor's own traffic decides whether the
  // handed-over plan stays hot; the next real miss evicts preloads
  // before anything requests actually warmed.
  lru_.push_back(key);
  auto [it, inserted] =
      entries_.emplace(key, Entry{std::move(plan), std::prev(lru_.end())});
  PARFFT_ASSERT(inserted);
  ++preloads_;
  PARFFT_IF_PARANOID(check_invariants());
  return true;
}

std::vector<JobShape> PlanCache::resident_shapes() const {
  std::vector<JobShape> shapes;
  shapes.reserve(entries_.size());
  for (const std::string& key : lru_)
    shapes.push_back(entries_.find(key)->second.plan->shape());
  return shapes;
}

std::size_t PlanCache::invalidate_all() {
  const std::size_t n = entries_.size();
  entries_.clear();
  lru_.clear();
  invalidations_ += n;
  PARFFT_IF_PARANOID(check_invariants());
  return n;
}

void PlanCache::check_invariants() const {
  PARFFT_CHECK(entries_.size() == lru_.size(),
               "plan cache: LRU list and entry map diverged");
  PARFFT_CHECK(capacity_ == 0 || entries_.size() <= capacity_,
               "plan cache: resident plans exceed capacity");
  PARFFT_CHECK(hits_ + misses_ == lookups_,
               "plan cache: hits + misses != lookups");
  // Every miss or preload inserted exactly one plan; every removal was
  // either a capacity eviction or a crash invalidation (disjoint
  // classes). If a removal were ever double-counted, this conservation
  // identity breaks.
  PARFFT_CHECK(
      misses_ + preloads_ == entries_.size() + evictions_ + invalidations_,
      "plan cache: misses + preloads != resident + evictions + invalidations");
  for (const std::string& key : lru_)
    PARFFT_CHECK(entries_.count(key) == 1,
                 "plan cache: LRU key without a resident entry");
}

void PlanCache::evict_one() {
  PARFFT_ASSERT(!entries_.empty());
  // Cost-aware LRU: walk the `window_` least-recently-used keys and evict
  // the cheapest-to-recreate one, so a plan whose setup spike is large
  // outlives a run of cheap one-off shapes of equal staleness.
  auto victim = std::prev(lru_.end());
  double victim_setup =
      entries_.find(*victim)->second.plan->setup_time();
  auto it = victim;
  for (std::size_t i = 1; i < window_ && it != lru_.begin(); ++i) {
    --it;
    const double setup = entries_.find(*it)->second.plan->setup_time();
    if (setup < victim_setup) {
      victim = it;
      victim_setup = setup;
    }
  }
  entries_.erase(*victim);
  lru_.erase(victim);
  ++evictions_;
}

}  // namespace parfft::serve
