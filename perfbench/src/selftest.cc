// Unit checks of the benchmark's own statistics: the exact-percentile
// routine against hand-computed inputs (including the "at least ten
// samples beyond the percentile" rule), the median and minimum, the
// sample log's thinning, the span self-time arithmetic, and the seeded
// generator's determinism. run.py --selftest runs this, then every
// workload at a tiny size.

#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "common.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

void CheckValue(std::optional<double> got, std::optional<double> want,
                const char* what) {
  const bool ok = got.has_value() == want.has_value() &&
                  (!got || std::fabs(*got - *want) < 1e-12);
  if (!ok) {
    std::printf("FAIL %s: got %s%g, want %s%g\n", what,
                got ? "" : "none ", got.value_or(0), want ? "" : "none ",
                want.value_or(0));
    ++failures;
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  using perfbench::ExactPercentile;
  // Nearest rank: p50 of 1..20 is rank ceil(10) = 10, with 10 beyond.
  CheckValue(ExactPercentile(OneTo(20), 5000), 10.0, "p50 of 1..20");
  // p50 of 1..19 is rank ceil(9.5) = 10, only 9 beyond: refused.
  CheckValue(ExactPercentile(OneTo(19), 5000), std::nullopt, "p50 of 1..19");
  // p95 needs n >= 200: rank 190 leaves exactly 10 beyond.
  CheckValue(ExactPercentile(OneTo(200), 9500), 190.0, "p95 of 1..200");
  CheckValue(ExactPercentile(OneTo(199), 9500), std::nullopt,
             "p95 of 1..199");
  // 0.95 * 201 = 190.95 -> rank 191, 10 beyond.
  CheckValue(ExactPercentile(OneTo(201), 9500), 191.0, "p95 of 1..201");
  // p99 needs n >= 1000.
  CheckValue(ExactPercentile(OneTo(1000), 9900), 990.0, "p99 of 1..1000");
  CheckValue(ExactPercentile(OneTo(999), 9900), std::nullopt,
             "p99 of 1..999");
  CheckValue(ExactPercentile(OneTo(1234), 9900), 1222.0, "p99 of 1..1234");
  // p20 of 1..50 is rank 10; p100 never has samples beyond it.
  CheckValue(ExactPercentile(OneTo(50), 2000), 10.0, "p20 of 1..50");
  CheckValue(ExactPercentile(OneTo(50), 10000), std::nullopt, "p100");
  CheckValue(ExactPercentile({}, 5000), std::nullopt, "empty");
  // Ties and unsorted input.
  CheckValue(ExactPercentile({3, 1, 2, 2, 2, 9, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
                              2, 2, 2, 2, 2, 2},
                             5000),
             2.0, "p50 with ties");

  Check(perfbench::Median({4, 1, 3}) == 3, "median odd");
  Check(perfbench::Median({4, 1, 3, 2}) == 2.5, "median even");
  Check(perfbench::Min({4, 1, 3}) == 1, "min");
  Check(perfbench::Min({}) == 0, "min of none");

  // Self time: a 100 ns parent with children covering 30 + 20 ns.
  std::vector<perfbench::Span> spans = {
      {1, 0, 1, "server", 0, 100},
      {2, 1, 1, "eval", 10, 40},
      {3, 1, 1, "io", 50, 70},
  };
  for (const auto& [name, seconds] : perfbench::SelfTimes(spans)) {
    const double ns = seconds * 1e9;
    if (name == "server") Check(std::fabs(ns - 50) < 1e-6, "server self");
    if (name == "eval") Check(std::fabs(ns - 30) < 1e-6, "eval self");
    if (name == "io") Check(std::fabs(ns - 20) < 1e-6, "io self");
  }

  // A full log keeps every other sample, then every fourth.
  perfbench::SampleLog<int> log(4);
  for (int i = 0; i < 10; ++i) log.Add(i);
  Check(std::vector<int>(log.begin(), log.end()) == std::vector<int>{0, 4, 8},
        "sample log thins evenly");

  perfbench::Rng a(42), b(42), c(43);
  const uint64_t a1 = a.Next();
  Check(a1 == b.Next(), "rng is seeded");
  Check(a1 != c.Next(), "rng depends on the seed");
  perfbench::Rng p1(7), p2(7);
  Check(perfbench::Permutation(100, &p1) == perfbench::Permutation(100, &p2),
        "permutation is seeded");

  std::printf("selftest: %s (%d failures)\n", failures == 0 ? "ok" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
