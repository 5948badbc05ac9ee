#pragma once
/// \file factorize.hpp
/// Radix factorization for the mixed-radix FFT engine.

#include <vector>

namespace parfft::dft {

/// One stage of the mixed-radix decomposition: radix `p`, with `m` = length
/// of each sub-transform at this stage (so p * m == remaining length).
struct Stage {
  int p, m;
};

/// Factorizes n into FFT stages, preferring radix 8, then 4, 2, 3, 5 and
/// increasing odd factors: every power of two goes to radix-8 stages and
/// at most one radix-4 or radix-2 stage. The product of all stage radices
/// equals n.
std::vector<Stage> fft_stages(int n);

/// Largest prime factor of n (n >= 1; returns 1 for n == 1).
int largest_prime_factor(int n);

/// Smallest power of two >= n.
int next_pow2(int n);

/// True if every prime factor of n is <= limit.
bool smooth(int n, int limit);

}  // namespace parfft::dft
