#include "fft/factorize.hpp"

#include "common/error.hpp"

namespace parfft::dft {

std::vector<Stage> fft_stages(int n) {
  PARFFT_CHECK(n >= 1, "transform length must be positive");
  std::vector<Stage> stages;
  auto take = [&](int p) {
    n /= p;
    stages.push_back({p, n});
  };
  for (int p : {8, 4, 2})
    while (n % p == 0) take(p);
  for (int p = 3; n > 1; p += 2) {
    if (p * p > n) p = n;  // remaining value is prime
    while (n % p == 0) take(p);
  }
  return stages;
}

int largest_prime_factor(int n) {
  PARFFT_CHECK(n >= 1, "argument must be positive");
  int best = 1;
  for (int p = 2; p * p <= n; p == 2 ? p = 3 : p += 2) {
    while (n % p == 0) {
      best = p > best ? p : best;
      n /= p;
    }
  }
  return n > 1 ? n : best;
}

int next_pow2(int n) {
  int v = 1;
  while (v < n) {
    PARFFT_CHECK(v <= (1 << 29), "size too large for next_pow2");
    v <<= 1;
  }
  return v;
}

bool smooth(int n, int limit) { return largest_prime_factor(n) <= limit; }

}  // namespace parfft::dft
