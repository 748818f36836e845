// Deterministic pseudo-random generation and the distributions used by the
// workload generators: uniform, zipfian (YCSB-style), and log-normal (the
// heavy-tailed tenant population for Fig. 6).

#ifndef FIRESTORE_COMMON_RANDOM_H_
#define FIRESTORE_COMMON_RANDOM_H_

#include <cstdint>
#include <random>
#include <string>

namespace firestore {

// A thin deterministic wrapper over std::mt19937_64. All randomness in the
// repository flows through explicitly-seeded Rng instances so that tests and
// benchmarks are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] (inclusive).
  int64_t Uniform(int64_t lo, int64_t hi);
  // Uniform double in [0, 1).
  double NextDouble();
  // Uniform 64-bit value.
  uint64_t NextUint64();
  // True with probability p.
  bool Bernoulli(double p);
  // Exponential with the given mean.
  double Exponential(double mean);
  // Log-normal: exp(N(mu, sigma)).
  double LogNormal(double mu, double sigma);
  // Random alphanumeric string of length n.
  std::string AlphaNumString(size_t n);

 private:
  std::mt19937_64 engine_;
};

// YCSB-style zipfian generator over [0, n). Uses the Gray et al. rejection
// method so that initialization is O(1) and generation is O(1).
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta = 0.99);

  uint64_t Next(Rng& rng);

  uint64_t n() const { return n_; }

 private:
  static double Zeta(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

}  // namespace firestore

#endif  // FIRESTORE_COMMON_RANDOM_H_
