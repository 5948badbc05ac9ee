/// \file caller.cpp
/// Lint fixture (never compiled): a names-only tree. Its call keeps
/// fixture_called() alive, and its wall-clock read is not a finding,
/// because no rule checks a names tree.

#include <chrono>

#include "core/api.hpp"

double timed_call() {
  const auto t0 = std::chrono::steady_clock::now();
  fixture::fixture_called(1);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
