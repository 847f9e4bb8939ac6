// closure: from-scratch semi-naive fixpoints over a fixed set of programs,
// one pass at 1 engine thread and one at min(4, nproc) threads.
//
// Each input is a fixed shape (so every seed costs the same work) whose node
// ids and row order are relabelled by the seed. The shapes are the
// bench_parallel ones scaled down so one evaluation takes tens of
// milliseconds: a run then holds dozens of evaluations of every program,
// and its fastest one is not left to chance by a slow spell of the host.
// The expected tuple count of every program is recomputed by a reference
// evaluator written here, independent of the engine.

#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "datalog/parser.h"
#include "eval/seminaive.h"
#include "phases.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using recur::SymbolId;
using recur::ra::Relation;
using recur::ra::Value;

constexpr char kLinearTc[] =
    "P(X, Y) :- A(X, Y).\n"
    "P(X, Y) :- A(X, Z), P(Z, Y).\n";
constexpr char kNonLinearTc[] =
    "P(X, Y) :- A(X, Y).\n"
    "P(X, Y) :- P(X, Z), P(Z, Y).\n";
// The paper's s9 (class C): an independent multi-directional cycle.
constexpr char kS9[] =
    "P(X, Y, Z) :- E(X, Y, Z).\n"
    "P(X, Y, Z) :- A(X, Y), B(U, V), P(U, Z, V).\n";

/// One program's generated inputs and its reference result size.
struct Input {
  std::string name;
  const char* text = nullptr;
  std::vector<std::pair<std::string, Relation>> relations;
  size_t expected = 0;
};

/// One program ready to evaluate.
struct Case {
  std::string name;
  recur::SymbolTable symbols;
  recur::datalog::Program program;
  recur::ra::Database edb;
  SymbolId pred = recur::kInvalidSymbol;
  size_t expected = 0;
};

/// |transitive closure| of `edges` by BFS from every node.
size_t ReferenceClosureSize(const Relation& edges) {
  std::unordered_map<Value, std::vector<Value>> succ;
  for (recur::ra::TupleRef e : edges.rows()) succ[e[0]].push_back(e[1]);
  size_t total = 0;
  std::unordered_set<Value> seen;
  std::vector<Value> stack;
  for (const auto& [src, out] : succ) {
    seen.clear();
    stack.assign(out.begin(), out.end());
    while (!stack.empty()) {
      const Value v = stack.back();
      stack.pop_back();
      if (!seen.insert(v).second) continue;
      auto it = succ.find(v);
      if (it != succ.end()) {
        for (Value w : it->second) stack.push_back(w);
      }
    }
    total += seen.size();
  }
  return total;
}

/// |P| for s9: P = E ∪ A × Z, where Z is the least set holding every z of
/// an E row (u, z, v) with B(u, v), closed under adding y for each A(x, y)
/// that has B(x, z') for some z' already in Z.
size_t ReferenceS9Size(const Relation& a, const Relation& b,
                       const Relation& e) {
  auto key = [](Value x, Value y) {
    return (static_cast<uint64_t>(x) << 32) ^ static_cast<uint64_t>(y);
  };
  std::unordered_set<uint64_t> bset;
  std::unordered_map<Value, std::vector<Value>> b_by_u;
  for (recur::ra::TupleRef r : b.rows()) {
    bset.insert(key(r[0], r[1]));
    b_by_u[r[0]].push_back(r[1]);
  }
  std::unordered_set<Value> z;
  for (recur::ra::TupleRef r : e.rows()) {
    if (bset.count(key(r[0], r[2])) != 0) z.insert(r[1]);
  }
  for (bool grew = true; grew;) {
    grew = false;
    for (recur::ra::TupleRef r : a.rows()) {
      if (z.count(r[1]) != 0) continue;
      auto it = b_by_u.find(r[0]);
      if (it == b_by_u.end()) continue;
      for (Value zp : it->second) {
        if (z.count(zp) != 0) {
          z.insert(r[1]);
          grew = true;
          break;
        }
      }
    }
  }
  std::unordered_set<uint64_t> aset;
  for (recur::ra::TupleRef r : a.rows()) aset.insert(key(r[0], r[1]));
  size_t overlap = 0;
  for (recur::ra::TupleRef r : e.rows()) {
    if (aset.count(key(r[0], r[1])) != 0 && z.count(r[2]) != 0) ++overlap;
  }
  return e.size() + aset.size() * z.size() - overlap;
}

/// Counts accumulated over one pass (all cases) at one thread count.
struct PassStats {
  double wall_s = 0;
  /// Wall time of each program's evaluation, in case order.
  std::vector<double> case_s;
  /// Flat counters summed over cases (arena_bytes: the largest case).
  recur::eval::EvalStats stats;
  double eval_s = 0;
  double merge_s = 0;
  size_t derived = 0;
  size_t deduped = 0;
};

class ClosurePhase : public Phase {
 public:
  explicit ClosurePhase(const RunConfig& config) : config_(config) {}

  double Setup(Report* report) override {
    if (inputs_.empty()) GenerateInputs(report);
    // Timed: what the system does before the first fixpoint — parse each
    // program and load its EDB relations.
    const Clock::time_point start = Clock::now();
    cases_.clear();
    for (const Input& in : inputs_) {
      Case c;
      c.name = in.name;
      auto program = recur::datalog::ParseProgram(in.text, &c.symbols);
      if (!program.ok()) {
        report->Mismatch("closure " + in.name + ": " +
                         program.status().ToString());
        continue;
      }
      c.program = std::move(*program);
      c.pred = c.symbols.Intern("P");
      for (const auto& [name, rel] : in.relations) {
        auto slot = c.edb.GetOrCreate(c.symbols.Intern(name), rel.arity());
        if (slot.ok()) (*slot)->InsertAll(rel);
      }
      c.expected = in.expected;
      cases_.push_back(std::move(c));
    }
    return SecondsSince(start);
  }

  void Begin(Tracer* tracer) override {
    (void)tracer;
    serial_.clear();
    parallel_.clear();
    next_case_ = 0;
  }

  /// Evaluates one program at each thread count, in alternating order so
  /// drift hits both equally. A pass is complete once every program has
  /// run; stepping per program rather than per pass interleaves the
  /// closure work finely with the other phases.
  void Step(double slice_s, Tracer* tracer, Report* report) override {
    (void)slice_s;
    if (cases_.empty()) return;
    if (next_case_ == 0) {
      serial_.emplace_back();
      parallel_.emplace_back();
    }
    const Case& c = cases_[next_case_];
    const int par = std::max(1, std::min(4, config_.nproc));
    if ((serial_.size() + next_case_) % 2 == 0) {
      Evaluate(c, 1, tracer, report, &serial_.back());
      Evaluate(c, par, tracer, report, &parallel_.back());
    } else {
      Evaluate(c, par, tracer, report, &parallel_.back());
      Evaluate(c, 1, tracer, report, &serial_.back());
    }
    next_case_ = (next_case_ + 1) % cases_.size();
  }

  bool Enough(bool traced) const override {
    // Three complete passes per thread count for an untraced pass; two for
    // a traced one, whose per-layer counts repeat exactly.
    return CompletePasses() >= (traced ? 2u : 3u);
  }

  E2eValues End(Tracer* tracer, Report* report) override {
    const size_t complete = CompletePasses();
    const std::vector<PassStats> serial(serial_.begin(),
                                        serial_.begin() + complete);
    const std::vector<PassStats> parallel(parallel_.begin(),
                                          parallel_.begin() + complete);
    std::string line = "closure: " + std::to_string(complete) +
                       " passes; fastest evaluation (ms), 1 thread / N "
                       "threads:";
    for (size_t i = 0; complete > 0 && i < cases_.size(); ++i) {
      line += " " + cases_[i].name + " " +
              std::to_string(PerProgram(serial_, Min, i) * 1e3) + "/" +
              std::to_string(PerProgram(parallel_, Min, i) * 1e3);
    }
    std::fprintf(stderr, "%s\n", line.c_str());
    if (tracer == nullptr) {
      report->sizes.emplace_back("closure.passes_per_thread_count", complete);
    }
    E2eValues values;
    if (complete == 0) return values;
    // Per-program figures also use the evaluations of an unfinished pass.
    values["fixpoint_s"] = PerProgram(serial_, Min);
    values["fixpoint_par_s"] = PerProgram(parallel_, Min);
    if (tracer != nullptr) AddLayers(serial, parallel, values, report);
    return values;
  }

 private:
  /// Generates every case's relations and its reference count (untimed,
  /// once per run: the seed fixes them).
  void GenerateInputs(Report* report) {
    Rng rng(config_.seed * 0x100000001b3ull + 11);
    const bool tiny = config_.tiny;
    // Fixed shapes: the bench_parallel graph kinds (generator seeds 203 and
    // 202) at a smaller size, a sparser random graph for non-linear TC, and
    // skewed s9 relations.
    AddGraphInput("tc_random", kLinearTc,
                  recur::workload::Generator(203).RandomGraph(
                      tiny ? 400 : 2000, tiny ? 440 : 2200),
                  tiny ? 400 : 2000, &rng);
    AddGraphInput("tc_grid", kLinearTc,
                  recur::workload::Generator(202).Grid(tiny ? 10 : 28,
                                                       tiny ? 10 : 28),
                  tiny ? 100 : 784, &rng);
    AddGraphInput("nonlinear_tc", kNonLinearTc,
                  recur::workload::Generator(204).RandomGraph(
                      tiny ? 300 : 1500, tiny ? 300 : 1500),
                  tiny ? 300 : 1500, &rng);
    AddS9Input(tiny, &rng);
    for (const Input& in : inputs_) {
      size_t edb_rows = 0;
      for (const auto& [name, rel] : in.relations) edb_rows += rel.size();
      report->sizes.emplace_back("closure." + in.name + ".edb_rows",
                                 edb_rows);
      report->sizes.emplace_back("closure." + in.name + ".idb_rows",
                                 in.expected);
    }
  }

  void AddGraphInput(const char* name, const char* text, const Relation& shape,
                     size_t nodes, Rng* rng) {
    Input in;
    in.name = name;
    in.text = text;
    Relation edges = Relabel(shape, Permutation(nodes, rng), rng);
    in.expected = ReferenceClosureSize(edges);
    in.relations.emplace_back("A", std::move(edges));
    inputs_.push_back(std::move(in));
  }

  void AddS9Input(bool tiny, Rng* rng) {
    // Shape from a fixed stream; skewed key columns (hub keys).
    const uint64_t domain = tiny ? 60 : 200;
    Rng shape(209);
    Relation a(2), b(2), e(3);
    const size_t a_rows = tiny ? 80 : 300;
    const size_t b_rows = tiny ? 60 : 200;
    const size_t e_rows = tiny ? 60 : 400;
    while (a.size() < a_rows) {
      a.Insert({static_cast<Value>(shape.Skewed(domain, 1.4)),
                static_cast<Value>(shape.Uniform(domain))});
    }
    while (b.size() < b_rows) {
      b.Insert({static_cast<Value>(shape.Skewed(domain, 1.4)),
                static_cast<Value>(shape.Skewed(domain, 1.2))});
    }
    while (e.size() < e_rows) {
      e.Insert({static_cast<Value>(shape.Skewed(domain, 1.2)),
                static_cast<Value>(shape.Uniform(domain)),
                static_cast<Value>(shape.Skewed(domain, 1.2))});
    }
    const std::vector<Value> perm = Permutation(domain, rng);
    Input in;
    in.name = "s9_skewed";
    in.text = kS9;
    Relation ra = Relabel(a, perm, rng);
    Relation rb = Relabel(b, perm, rng);
    Relation re = Relabel(e, perm, rng);
    in.expected = ReferenceS9Size(ra, rb, re);
    in.relations.emplace_back("A", std::move(ra));
    in.relations.emplace_back("B", std::move(rb));
    in.relations.emplace_back("E", std::move(re));
    inputs_.push_back(std::move(in));
  }

  /// Passes in serial_ and parallel_ that hold every program.
  size_t CompletePasses() const {
    return serial_.size() - (next_case_ == 0 ? 0 : 1);
  }

  /// Evaluates `c` at `threads` engine threads, checks its tuple count,
  /// and adds its time and counters to `pass`.
  void Evaluate(const Case& c, int threads, Tracer* tracer, Report* report,
                PassStats* pass) {
    recur::eval::FixpointOptions options;
    options.num_threads = threads;
    options.collect_stats = tracer != nullptr;
    recur::eval::EvalStats stats;
    ++report->attempted;
    Timed call(tracer, threads == 1 ? "eval.seminaive_serial"
                                    : "eval.seminaive_parallel");
    auto idb = recur::eval::SemiNaiveEvaluate(c.program, c.edb, options,
                                              &stats);
    const double seconds = call.Stop();
    pass->case_s.push_back(seconds);
    pass->wall_s += seconds;
    if (!idb.ok()) {
      ++report->failed;
      report->Mismatch("closure " + c.name + ": " + idb.status().ToString());
      return;
    }
    auto it = idb->find(c.pred);
    const size_t got = it == idb->end() ? 0 : it->second.size();
    if (got != c.expected) {
      report->Mismatch("closure " + c.name + " at " +
                       std::to_string(threads) + " threads: " +
                       std::to_string(got) + " tuples, expected " +
                       std::to_string(c.expected));
    }
    for (const recur::eval::RoundStats& r : stats.rounds) {
      pass->eval_s += r.eval_seconds;
      pass->merge_s += r.merge_seconds;
      pass->derived += r.tuples_derived;
      pass->deduped += r.tuples_deduped;
    }
    pass->stats.Accumulate(stats);
  }

  /// One pass over the closure set, built per program: the sum over
  /// programs of `stat` over each program's evaluation times in `passes`
  /// (the first pass is complete; the last may not be). Host contention
  /// (slow memory spells for a lone thread, stolen CPU time for the
  /// parallel engine) only ever slows an evaluation down, so both passes
  /// take each program's fastest evaluation (Min); taking it per program
  /// keeps one spell from spoiling a whole pass.
  /// With `only`, the figure of that one program.
  template <typename Stat>
  static double PerProgram(const std::vector<PassStats>& passes, Stat stat,
                           std::optional<size_t> only = std::nullopt) {
    double total = 0;
    for (size_t i = 0; i < passes.front().case_s.size(); ++i) {
      if (only && i != *only) continue;
      std::vector<double> times;
      for (const PassStats& p : passes) {
        if (i < p.case_s.size()) times.push_back(p.case_s[i]);
      }
      total += stat(times);
    }
    return total;
  }

  static void AddLayers(const std::vector<PassStats>& serial,
                        const std::vector<PassStats>& parallel,
                        const E2eValues& values, Report* report) {
    auto median_of = [](const std::vector<PassStats>& passes, auto field) {
      std::vector<double> v;
      for (const PassStats& p : passes) v.push_back(field(p));
      return Median(v);
    };
    const PassStats& first = serial.front();
    report->Layer("eval.fixpoint.iterations", first.stats.iterations,
                  "count");
    report->Layer("eval.fixpoint.eval_s",
                  median_of(serial, [](const PassStats& p) { return p.eval_s; }),
                  "s");
    report->Layer(
        "eval.fixpoint.merge_s",
        median_of(serial, [](const PassStats& p) { return p.merge_s; }), "s");
    report->Layer("eval.fixpoint.other_s",
                  median_of(serial,
                            [](const PassStats& p) {
                              return p.wall_s - p.eval_s - p.merge_s;
                            }),
                  "s");
    report->Layer(
        "eval.fixpoint.par_eval_s",
        median_of(parallel, [](const PassStats& p) { return p.eval_s; }), "s");
    report->Layer(
        "eval.fixpoint.par_merge_s",
        median_of(parallel, [](const PassStats& p) { return p.merge_s; }),
        "s");
    report->Layer("eval.fixpoint.par_other_s",
                  median_of(parallel,
                            [](const PassStats& p) {
                              return p.wall_s - p.eval_s - p.merge_s;
                            }),
                  "s");
    report->Layer("eval.fixpoint.par_speedup",
                  values.at("fixpoint_s") / values.at("fixpoint_par_s"), "x");
    report->Layer("ra.dedup.new_ratio",
                  first.derived == 0
                      ? 0.0
                      : static_cast<double>(first.derived - first.deduped) /
                            static_cast<double>(first.derived),
                  "ratio");
    report->Layer("ra.index_rebuilds", first.stats.index_rebuilds, "count");
    report->Layer("plan.join_probes", first.stats.join_probes, "count");
    report->Layer("plan.batches", first.stats.batches, "count");
    report->Layer("plan.rows_per_batch",
                  first.stats.batches == 0
                      ? 0.0
                      : static_cast<double>(first.stats.tuples_considered) /
                            static_cast<double>(first.stats.batches),
                  "rows");
    report->Layer("plan.bloom_skip_ratio",
                  first.stats.bloom_probes == 0
                      ? 0.0
                      : static_cast<double>(first.stats.bloom_skips) /
                            static_cast<double>(first.stats.bloom_probes),
                  "ratio");
    report->Layer("eval.fixpoint.arena_bytes", first.stats.arena_bytes, "B");
  }

  const RunConfig config_;
  std::vector<Input> inputs_;
  std::vector<Case> cases_;
  std::vector<PassStats> serial_, parallel_;
  /// The program the next Step evaluates.
  size_t next_case_ = 0;
};

}  // namespace

std::unique_ptr<Phase> MakeClosurePhase(const RunConfig& config) {
  return std::make_unique<ClosurePhase>(config);
}

}  // namespace perfbench
