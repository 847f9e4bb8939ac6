#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

using recur::ra::Relation;
using recur::ra::Value;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rng::Uniform(uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Skewed(uint64_t n, double s) {
  // Inverse CDF of the density (x+1)^-s on [0, n), s != 1.
  const double u = Unit();
  const double a = 1.0 - s;
  const double top = std::pow(static_cast<double>(n) + 1.0, a) - 1.0;
  const double x = std::pow(1.0 + u * top, 1.0 / a) - 1.0;
  const uint64_t r = static_cast<uint64_t>(x);
  return r < n ? r : n - 1;
}

std::vector<Value> Permutation(size_t n, Rng* rng) {
  std::vector<Value> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<Value>(i);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng->Uniform(i)]);
  }
  return perm;
}

Relation Relabel(const Relation& rel, const std::vector<Value>& perm,
                 Rng* rng) {
  std::vector<size_t> order(rel.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Uniform(i)]);
  }
  const auto n = static_cast<Value>(perm.size());
  Relation out(rel.arity());
  out.Reserve(rel.size());
  recur::ra::Tuple row(static_cast<size_t>(rel.arity()));
  for (size_t i : order) {
    recur::ra::TupleRef src = rel.rows()[i];
    for (int c = 0; c < rel.arity(); ++c) {
      const Value v = src[c];
      row[static_cast<size_t>(c)] = (v >= 0 && v < n) ? perm[v] : v;
    }
    out.Insert(row);
  }
  return out;
}

std::optional<double> ExactPercentile(std::vector<double> samples,
                                      uint32_t per_10000) {
  constexpr size_t kMinBeyond = 10;
  const size_t n = samples.size();
  if (n == 0 || per_10000 > 10000) return std::nullopt;
  // rank = ceil(n * p), in integers so p95 of 200 samples is rank 190.
  const uint64_t scaled = static_cast<uint64_t>(n) * per_10000;
  size_t rank = static_cast<size_t>((scaled + 9999) / 10000);
  if (rank == 0) rank = 1;
  if (n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n == 0) return 0;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double Min(const std::vector<double>& samples) {
  return samples.empty() ? 0
                         : *std::min_element(samples.begin(), samples.end());
}

int64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

void Tracer::Begin(const char* name) {
  if (!enabled_) return;
  // Span ids are unique across threads.
  static std::atomic<uint64_t> next_id{1};
  Span span;
  span.id = next_id.fetch_add(1, std::memory_order_relaxed);
  if (open_.empty()) {
    span.request = span.id;
  } else {
    span.parent = spans_[open_.back()].id;
    span.request = spans_[open_.back()].request;
  }
  span.name = name;
  span.start_ns = NowNs();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
}

double Tracer::End() {
  if (!enabled_ || open_.empty()) return 0;
  Span& span = spans_[open_.back()];
  open_.pop_back();
  span.end_ns = NowNs();
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

void Tracer::DrainInto(std::vector<Span>* out) {
  out->insert(out->end(), std::make_move_iterator(spans_.begin()),
              std::make_move_iterator(spans_.end()));
  spans_.clear();
  open_.clear();
}

Timed::Timed(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr) tracer_->Begin(name);
  start_ = Clock::now();
}

double Timed::Stop() {
  if (seconds_ < 0) {
    seconds_ = SecondsSince(start_);
    if (tracer_ != nullptr) tracer_->End();
  }
  return seconds_;
}

std::vector<std::pair<std::string, double>> SelfTimes(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<std::pair<std::string, double>> out;
  std::unordered_map<std::string, size_t> slot;
  for (const Span& s : spans) {
    const auto it = child_ns.find(s.id);
    const int64_t self =
        (s.end_ns - s.start_ns) - (it == child_ns.end() ? 0 : it->second);
    auto [pos, inserted] = slot.emplace(s.name, out.size());
    if (inserted) out.emplace_back(s.name, 0.0);
    out[pos->second].second += static_cast<double>(self) * 1e-9;
  }
  return out;
}

bool SameDatabase(const recur::ra::Database& a, const recur::SymbolTable& sa,
                  const recur::ra::Database& b, const recur::SymbolTable& sb,
                  std::string* diff) {
  auto non_empty = [](const recur::ra::Database& db) {
    size_t n = 0;
    for (const auto& [pred, rel] : db.relations()) n += rel->empty() ? 0 : 1;
    return n;
  };
  if (non_empty(a) != non_empty(b)) {
    *diff = "different numbers of non-empty relations";
    return false;
  }
  for (const auto& [pred, rel] : a.relations()) {
    if (rel->empty()) continue;
    const std::string& name = sa.NameOf(pred);
    const recur::SymbolId other = sb.Lookup(name);
    const Relation* peer = other == recur::kInvalidSymbol ? nullptr
                                                          : b.Find(other);
    if (peer == nullptr || peer->size() != rel->size() ||
        peer->arity() != rel->arity()) {
      *diff = "relation " + name + " differs in size";
      return false;
    }
    for (recur::ra::TupleRef row : rel->rows()) {
      if (!peer->Contains(row)) {
        *diff = "relation " + name + " differs in content";
        return false;
      }
    }
  }
  return true;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int NumProcs() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  const long ticks = sysconf(_SC_CLK_TCK);
  return n == 8 && ticks > 0 ? static_cast<double>(v[7]) / ticks : 0;
}

double HostProbeSeconds() {
  constexpr uint32_t kNodes = 2000;
  constexpr int kEdges = 2200;
  static const std::vector<std::vector<uint32_t>> succ = [] {
    std::vector<std::vector<uint32_t>> g(kNodes);
    Rng rng(0x9b05e);
    for (int i = 0; i < kEdges; ++i) {
      g[rng.Uniform(kNodes)].push_back(
          static_cast<uint32_t>(rng.Uniform(kNodes)));
    }
    return g;
  }();
  static volatile size_t sink = 0;
  const Clock::time_point start = Clock::now();
  std::unordered_set<uint32_t> seen;
  std::vector<uint32_t> stack;
  size_t total = 0;
  for (const std::vector<uint32_t>& out : succ) {
    seen.clear();
    stack.assign(out.begin(), out.end());
    while (!stack.empty()) {
      const uint32_t v = stack.back();
      stack.pop_back();
      if (!seen.insert(v).second) continue;
      stack.insert(stack.end(), succ[v].begin(), succ[v].end());
    }
    total += seen.size();
  }
  const double seconds = SecondsSince(start);
  sink = total;
  return seconds;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
