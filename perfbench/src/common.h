// Shared pieces of the recur benchmark driver: clocks, a portable seeded
// RNG, exact percentiles, the metric report, and the span tracer.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ra/database.h"
#include "ra/relation.h"
#include "util/symbol_table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// SplitMix64: a tiny generator whose output is fixed by the seed on every
/// platform and standard library (std:: distributions are not).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n);
  /// Uniform in [0, 1).
  double Unit();
  /// Power-law (Zipf-like) value in [0, n): rank r has weight ~ 1/(r+1)^s,
  /// sampled by inverting the continuous approximation.
  uint64_t Skewed(uint64_t n, double s);

 private:
  uint64_t state_;
};

/// A seeded permutation of [0, n): relabels node ids so every seed gives
/// different inputs of one fixed shape (same closure size, same cost).
std::vector<recur::ra::Value> Permutation(size_t n, Rng* rng);

/// Copies `rel` with every value v in [0, perm.size()) replaced by perm[v]
/// (values outside the range are kept), in a seeded shuffled row order.
recur::ra::Relation Relabel(const recur::ra::Relation& rel,
                            const std::vector<recur::ra::Value>& perm,
                            Rng* rng);

/// Nearest-rank percentile over every sample: the value at 1-based rank
/// ceil(n * per_10000 / 10000) of the sorted samples. Returns nullopt
/// unless at least ten samples lie strictly above that rank, so a p99
/// needs 1000 samples and a p95 needs 200. `per_10000` is the
/// percentile in hundredths of a percent (p95 = 9500), which keeps the rank
/// exact integer arithmetic.
std::optional<double> ExactPercentile(std::vector<double> samples,
                                      uint32_t per_10000);

/// A log of samples in a buffer of fixed capacity, written through when it
/// is built, so its resident size does not depend on how many samples a
/// run produces. When the buffer fills, the log keeps every other sample
/// and from then on records only every other Add (every fourth after the
/// next fill, and so on): the kept samples stay spread evenly over the run.
template <typename T>
class SampleLog {
 public:
  explicit SampleLog(size_t capacity) : buf_(capacity) {}

  void Clear() {
    size_ = 0;
    stride_ = 1;
    seen_ = 0;
  }

  void Add(const T& sample) {
    if (seen_++ % stride_ != 0) return;
    if (size_ == buf_.size()) {
      for (size_t i = 0; 2 * i < size_; ++i) buf_[i] = buf_[2 * i];
      size_ = (size_ + 1) / 2;
      stride_ *= 2;
      if ((seen_ - 1) % stride_ != 0) return;
    }
    buf_[size_++] = sample;
  }

  const T* begin() const { return buf_.data(); }
  const T* end() const { return buf_.data() + size_; }
  size_t size() const { return size_; }

 private:
  std::vector<T> buf_;
  size_t size_ = 0;
  uint64_t stride_ = 1;
  uint64_t seen_ = 0;
};

/// Median of a non-empty sample (mean of the two middle values for even n).
double Median(std::vector<double> samples);

double Mean(const std::vector<double>& samples);

/// Smallest of the samples; 0 when there are none.
double Min(const std::vector<double>& samples);

/// One traced interval: a call into a layer, made from the benchmark's own
/// code. `parent` is the id of the enclosing span (0 for a root); spans
/// share `request`, the id of their root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports: end-to-end metrics (untraced), per-layer
/// metrics (traced), the op counts, and the correctness verdict.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Workload size facts for the stamp line.
  std::vector<std::pair<std::string, double>> sizes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> mismatches;
  /// Spans of every thread, written out when the run ends.
  std::vector<Span> spans;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Mismatch(const std::string& what) { mismatches.push_back(what); }
  bool correct() const { return mismatches.empty(); }
};

/// An in-memory span buffer owned by one thread. Disabled tracers record
/// nothing and cost one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span inside the innermost open one.
  void Begin(const char* name);
  /// Closes the innermost open span and returns its duration in seconds.
  double End();

  /// Moves this tracer's spans into `out`.
  void DrainInto(std::vector<Span>* out);

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Times one call: always measures (the benchmark needs the number either
/// way) and also records a span when the tracer is enabled.
class Timed {
 public:
  Timed(Tracer* tracer, const char* name);
  /// Stops the clock (once) and returns elapsed seconds.
  double Stop();
  ~Timed() { Stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  double seconds_ = -1;
};

/// Self time per span name: each span's duration minus the part of it that
/// its direct children cover, summed per name, in seconds.
std::vector<std::pair<std::string, double>> SelfTimes(
    const std::vector<Span>& spans);

/// Nanoseconds on the steady clock since the process's first call.
int64_t NowNs();

/// True when both databases hold the same predicates (matched by name
/// through their own symbol tables) with the same rows. Row order is
/// ignored; `diff` names the first difference.
bool SameDatabase(const recur::ra::Database& a, const recur::SymbolTable& sa,
                  const recur::ra::Database& b, const recur::SymbolTable& sb,
                  std::string* diff);

/// Peak resident set size of this process in MiB (getrusage).
double PeakRssMb();

/// Number of online processors.
int NumProcs();

/// CPU time the hypervisor stole from this machine since boot, in seconds
/// (the "steal" column of /proc/stat); 0 where it is not available.
double StealSeconds();

/// Runs a fixed, benchmark-owned kernel (reachability by BFS over a fixed
/// random graph, with std::unordered_set) and returns its wall time. Its
/// cost does not depend on the library, so it measures only the host's
/// current speed.
double HostProbeSeconds();

/// JSON string literal for `s`.
std::string JsonString(const std::string& s);
/// JSON number with full precision.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
