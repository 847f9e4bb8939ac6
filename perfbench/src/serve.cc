// serve: one shared, admission-enabled, durable server::Database under a
// closed loop of callers that each wait for their reply — one reader
// issuing point queries over every dispatch route, and two writers
// submitting small insert and delete batches (no deadlines, so nothing is
// shed). The WAL runs with FsyncPolicy::kSnapshot.
//
// The traced pass also replays the pass's write batches one at a time
// through the public calls the server composes (ApplyDeltasToEdb,
// MaintainDeltas, EncodeWalRecord, AppendLog::Append) to split write
// latency into layers.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <thread>

#include "classify/program_analysis.h"
#include "datalog/linear_rule.h"
#include "datalog/parser.h"
#include "eval/seminaive.h"
#include "phases.h"
#include "server/database.h"
#include "transform/bounded_expand.h"
#include "transform/stable_form.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using recur::SymbolId;
using recur::ra::Relation;
using recur::ra::Value;
using recur::server::RouteKind;

// The server_test program shape: one IDB predicate per dispatch route.
//   Tc   - A1, strongly stable         -> iterate-selection
//   Bnd  - class D, bounded (rank 2)   -> bounded-inline
//   Wild - non-linear recursion        -> resident-filter
//   View - non-recursive, reads Tc     -> bounded-inline over the IDB
constexpr char kServeProgram[] =
    "Tc(X, Y) :- E(X, Y).\n"
    "Tc(X, Y) :- A(X, Z), Tc(Z, Y).\n"
    "Bnd(X, Y, Z, U) :- E4(X, Y, Z, U).\n"
    "Bnd(X, Y, Z, U) :- A(X, Y), B(Y1, U), C(Z1, U1), Bnd(Z, Y1, Z1, U1).\n"
    "Wild(X, Y) :- E(X, Y).\n"
    "Wild(X, Y) :- Wild(X, Z), Wild(Z, Y).\n"
    "View(X) :- Tc(X, Y), Goal(Y).\n";

constexpr int kQueryPreds = 4;
constexpr const char* kQueryPredNames[kQueryPreds] = {"Tc", "Bnd", "Wild",
                                                      "View"};
constexpr int kQueryPredArity[kQueryPreds] = {2, 4, 2, 1};
/// The reader's cycle of predicates (indexes into kQueryPredNames): half
/// iterate-selection (Tc), a quarter resident filter (Wild), an eighth each
/// bounded-inline (Bnd, View). Resident-filter answers are the fastest and
/// bounded-inline ones the slowest, so the median query falls inside the
/// iterate-selection cluster; with equal shares it would sit on the edge
/// between two clusters and jump with any small shift of the mix.
constexpr int kQueryCycle[] = {0, 2, 0, 1, 0, 2, 0, 3};
constexpr int kQueryCycleLength = sizeof(kQueryCycle) / sizeof(int);
/// Every kSampleEvery-th query is kept for the final check; coprime to the
/// cycle length, so the samples cover every predicate.
constexpr uint64_t kSampleEvery = 61;

/// Tuples per write batch.
constexpr int kBatchTuples = 2;
/// A slice counts for the medians once it holds kMinQueries queries and
/// kMinWrites writes of each kind; a pass runs until kMinSlices slices
/// count. The pooled tails then have more than enough samples: p99 needs
/// 1000 and p95 needs 200 (ten beyond).
constexpr size_t kMinQueries = 1000;
constexpr size_t kMinWrites = 200;
constexpr size_t kMinSlices = 3;
/// Capacity of the latency logs. A 50-second serve run answers about 1.2M
/// queries and 30k writes of each kind; a pass beyond capacity keeps an
/// even subset (see SampleLog).
constexpr size_t kQueryLogCapacity = 1 << 20;
constexpr size_t kWriteLogCapacity = 1 << 16;

struct WriteOp {
  bool insert = true;
  recur::eval::EdbDeltas deltas;
  double latency_s = 0;
  int64_t done_ns = 0;
};

/// One latency sample of a served op, kept to 8 bytes in a fixed log.
struct OpSample {
  float latency_us = 0;
  uint16_t slice = 0;
  uint8_t route = 0;  // the answering RouteKind; queries only
};
static_assert(sizeof(OpSample) == 8);

/// The edges of E one writer owns. A writer alternates deleting random
/// present edges it owns and inserting those same edges again, so the graph
/// never strays more than one batch per writer from the seeded one: the
/// resident state, and with it the cost of a write, stays the same through
/// a run and across seeds. Owners are disjoint, so the final EDB does not
/// depend on how the two writers interleave.
struct WriterEdges {
  std::vector<std::pair<Value, Value>> present;
  /// What the writer's last delete batch took out.
  std::vector<std::pair<Value, Value>> removed;
};

class ServePhase : public Phase {
 public:
  explicit ServePhase(const RunConfig& config)
      : config_(config),
        writers_(std::clamp(config.nproc - 2, 1, 2)),
        queries_(kQueryLogCapacity),
        inserts_(kWriteLogCapacity),
        deletes_(kWriteLogCapacity) {}

  ~ServePhase() override {
    db_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  double Setup(Report* report) override {
    if (relations_.empty()) Generate(report);
    db_.reset();
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
    dir_ = config_.work_dir + "/serve-" + std::to_string(setups_++);

    const Clock::time_point start = Clock::now();
    symbols_ = std::make_unique<recur::SymbolTable>();
    Timed parse(nullptr, "datalog.parse");
    auto program = recur::datalog::ParseProgram(kServeProgram, symbols_.get());
    parse_s_.push_back(parse.Stop());
    if (!program.ok()) {
      report->Mismatch("serve parse: " + program.status().ToString());
      return SecondsSince(start);
    }
    recur::ra::Database edb;
    for (const auto& [name, rel] : relations_) {
      auto slot = edb.GetOrCreate(symbols_->Intern(name), rel.arity());
      if (slot.ok()) (*slot)->InsertAll(rel);
    }
    recur::server::ServerOptions options;
    options.durability.dir = dir_;
    options.durability.program_text = kServeProgram;
    options.durability.fsync = recur::server::FsyncPolicy::kSnapshot;
    Timed create(nullptr, "server.create");
    auto db = recur::server::Database::Create(*program, std::move(edb),
                                              symbols_.get(), options);
    create_s_.push_back(create.Stop());
    if (!db.ok()) {
      report->Mismatch("serve create: " + db.status().ToString());
      return SecondsSince(start);
    }
    db_ = std::move(*db);
    db_->EnableAdmission();
    const double seconds = SecondsSince(start);

    // Untimed decomposition of what Create did before bootstrapping: the
    // program analysis and the per-predicate route transforms.
    DecomposeRouting(*program);
    e_pred_ = symbols_->Lookup("E");
    for (int i = 0; i < kQueryPreds; ++i) {
      query_preds_[i] = symbols_->Lookup(kQueryPredNames[i]);
      const recur::server::Route* route = db_->FindRoute(query_preds_[i]);
      expected_route_[i] =
          route == nullptr ? RouteKind::kResidentFilter : route->kind;
    }
    ResetWriterEdges();
    return seconds;
  }

  void ReportSetupLayers(Report* report) override {
    report->Layer("datalog.parse_ms", Median(parse_s_) * 1e3, "ms");
    report->Layer("classify.analyze_ms", Median(analyze_s_) * 1e3, "ms");
    report->Layer("transform.route_build_ms", Median(route_s_) * 1e3, "ms");
    report->Layer("server.create_ms", Median(create_s_) * 1e3, "ms");
  }

  void Begin(Tracer* tracer) override {
    (void)tracer;
    if (db_ == nullptr) return;
    start_state_.emplace(db_->snapshot());
    admission_before_ = db_->overload_stats();
    cache_before_ = db_->plan_cache_stats();
    queries_.Clear();
    inserts_.Clear();
    deletes_.Clear();
    replay_.clear();
    slices_ = 0;
    full_slices_ = 0;
    queries_total_ = inserts_total_ = deletes_total_ = 0;
    rows_total_ = 0;
    fallbacks_ = 0;
    slice_s_.clear();
    slice_ops_.clear();
  }

  /// Runs the closed loop for `slice_s`: the writers on their own threads,
  /// the reader on this one.
  void Step(double slice_s, Tracer* tracer, Report* report) override {
    if (db_ == nullptr) return;
    const bool traced = tracer != nullptr;
    const uint64_t step = steps_++;
    const size_t slice = slices_++;
    std::atomic<bool> stop{false};
    std::vector<std::vector<WriteOp>> write_log(writers_);
    std::vector<std::vector<Span>> writer_spans(writers_);
    std::atomic<uint64_t> write_failures{0};
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (int w = 0; w < writers_; ++w) {
      threads.emplace_back([&, w] {
        Tracer local(traced);
        Rng rng(config_.seed * 7919 + 100 * step + static_cast<uint64_t>(w));
        while (!stop.load(std::memory_order_relaxed)) {
          WriteOp op;
          op.insert = !writer_edges_[w].removed.empty();
          op.deltas = op.insert ? PickInserts(w) : PickDeletes(w, &rng);
          recur::eval::EdbDeltas payload = op.deltas;
          Timed call(&local, op.insert ? "server.submit_insert"
                                       : "server.submit_delete");
          recur::Status status = db_->Submit(std::move(payload));
          op.latency_s = call.Stop();
          op.done_ns = NowNs();
          if (!status.ok()) {
            // No deadline is set, so nothing may be shed or fail.
            write_failures.fetch_add(1);
            continue;
          }
          if (!traced) op.deltas.clear();  // only the replay needs them
          write_log[w].push_back(std::move(op));
        }
        local.DrainInto(&writer_spans[w]);
      });
    }

    Rng qrng(config_.seed * 104729 + 7 + step);
    size_t queries = 0;
    uint64_t query_failures = 0;
    std::string query_error;
    for (uint64_t n = 0; SecondsSince(start) < slice_s; ++n) {
      const int which = kQueryCycle[n % kQueryCycleLength];
      recur::eval::Query q = MakeQuery(which, &qrng);
      Timed call(tracer, "server.query");
      auto result = db_->Query(q);
      OpSample op;
      op.latency_us = static_cast<float>(call.Stop() * 1e6);
      if (!result.ok()) {
        ++query_failures;
        query_error = result.status().ToString();
        continue;
      }
      op.route = static_cast<uint8_t>(result->route);
      op.slice = static_cast<uint16_t>(slice);
      rows_total_ += static_cast<double>(result->rows.size());
      fallbacks_ += result->route != expected_route_[which] ? 1 : 0;
      if (n % kSampleEvery == 0 && samples_.size() < 256) {
        samples_.push_back(q);
      }
      queries_.Add(op);
      ++queries;
    }
    stop.store(true);
    for (std::thread& t : threads) t.join();
    slice_s_.push_back(SecondsSince(start));

    size_t writes = 0, inserts = 0;
    for (auto& log : write_log) {
      writes += log.size();
      for (WriteOp& op : log) {
        inserts += op.insert ? 1 : 0;
        OpSample sample;
        sample.latency_us = static_cast<float>(op.latency_s * 1e6);
        sample.slice = static_cast<uint16_t>(slice);
        (op.insert ? inserts_ : deletes_).Add(sample);
        if (traced) replay_.push_back(std::move(op));
      }
    }
    if (queries >= kMinQueries && inserts >= kMinWrites &&
        writes - inserts >= kMinWrites) {
      ++full_slices_;
    }
    queries_total_ += queries;
    inserts_total_ += inserts;
    deletes_total_ += writes - inserts;
    slice_ops_.push_back(static_cast<double>(queries + writes));
    for (auto& spans : writer_spans) {
      report->spans.insert(report->spans.end(), spans.begin(), spans.end());
    }
    report->attempted +=
        queries + writes + write_failures.load() + query_failures;
    report->failed += query_failures + write_failures.load();
    if (query_failures > 0) {
      report->Mismatch("serve: " + std::to_string(query_failures) +
                       " queries failed: " + query_error);
    }
    if (write_failures.load() > 0) {
      report->Mismatch("serve: " + std::to_string(write_failures.load()) +
                       " Submit calls failed or were shed");
    }
  }

  bool Enough(bool traced) const override {
    (void)traced;
    return full_slices_ >= kMinSlices;
  }

  E2eValues End(Tracer* tracer, Report* report) override {
    E2eValues values;
    if (db_ == nullptr) return values;
    std::sort(replay_.begin(), replay_.end(),
              [](const WriteOp& a, const WriteOp& b) {
                return a.done_ns < b.done_ns;
              });
    // Exact percentiles. Medians and throughput come from the best slice:
    // the host has fast and slow spells, and the best slice is the one they
    // disturbed least. Tails pool the samples of every slice: which queries
    // and writes fall in the top percent of one slice is too much a matter
    // of chance, so the best slice's tail moved by up to 40% between runs
    // (see the README). A slice too small for a median does not count.
    std::vector<std::vector<double>> q_us(slices_), ins_us(slices_),
        del_us(slices_);
    for (const OpSample& op : queries_) q_us[op.slice].push_back(op.latency_us);
    for (const OpSample& op : inserts_) {
      ins_us[op.slice].push_back(op.latency_us);
    }
    for (const OpSample& op : deletes_) {
      del_us[op.slice].push_back(op.latency_us);
    }
    auto put = [&](const char* name, std::optional<double> value) {
      if (!value) {
        report->Mismatch(std::string("serve: too few samples for ") + name);
      }
      values[name] = value.value_or(0);
    };
    auto best_slice = [&](const char* name,
                          const std::vector<std::vector<double>>& by_slice,
                          size_t min_samples, uint32_t per_10000) {
      std::optional<double> lowest;
      for (const std::vector<double>& v : by_slice) {
        if (v.size() < min_samples) continue;
        const std::optional<double> p = ExactPercentile(v, per_10000);
        if (p && (!lowest || *p < *lowest)) lowest = p;
      }
      put(name, lowest);
    };
    auto pooled = [&](const char* name,
                      const std::vector<std::vector<double>>& by_slice,
                      uint32_t per_10000) {
      std::vector<double> all;
      for (const std::vector<double>& v : by_slice) {
        all.insert(all.end(), v.begin(), v.end());
      }
      put(name, ExactPercentile(std::move(all), per_10000));
    };
    best_slice("query_p50_us", q_us, kMinQueries, 5000);
    pooled("query_p99_us", q_us, 9900);
    best_slice("insert_p50_us", ins_us, kMinWrites, 5000);
    pooled("insert_p95_us", ins_us, 9500);
    best_slice("delete_p50_us", del_us, kMinWrites, 5000);
    pooled("delete_p95_us", del_us, 9500);
    double ops_per_s = 0;
    for (size_t i = 0; i < slices_; ++i) {
      ops_per_s = std::max(ops_per_s, slice_ops_[i] / slice_s_[i]);
    }
    values["serve_ops_per_s"] = ops_per_s;
    if (!sized_) {
      const recur::server::Database::Snapshot snap = db_->snapshot();
      report->sizes.emplace_back("serve.slices_per_pass", slices_);
      report->sizes.emplace_back("serve.queries_per_pass", queries_total_);
      report->sizes.emplace_back("serve.writes_per_pass",
                                 inserts_total_ + deletes_total_);
      report->sizes.emplace_back(
          "serve.resident_tuples",
          snap.edb().TotalTuples() + snap.idb().TotalTuples());
      report->sizes.emplace_back(
          "serve.resident_bytes",
          snap.edb().TotalArenaBytes() + snap.idb().TotalArenaBytes());
      sized_ = true;
    }

    if (tracer != nullptr) {
      AddQueryLayers(report);
      AddWriteLayers(admission_before_, cache_before_, report);
      Replay(*start_state_, replay_, tracer, report);
    }
    start_state_.reset();
    return values;
  }

  void Verify(Report* report) override {
    if (db_ == nullptr) return;
    const recur::server::Database::Snapshot snap = db_->snapshot();
    auto idb = recur::eval::SemiNaiveEvaluate(db_->program(), snap.edb());
    if (!idb.ok()) {
      report->Mismatch("serve recompute: " + idb.status().ToString());
      return;
    }
    recur::ra::Database expected;
    for (auto& [pred, rel] : *idb) {
      auto slot = expected.GetOrCreate(pred, rel.arity());
      if (slot.ok()) **slot = std::move(rel);
    }
    std::string diff;
    if (!SameDatabase(snap.idb(), *symbols_, expected, *symbols_, &diff)) {
      report->Mismatch("serve: resident IDB differs from recomputation: " +
                       diff);
    }
    for (const recur::eval::Query& q : samples_) {
      auto got = db_->Query(q);
      const Relation* full = expected.Find(q.pred);
      Relation empty(q.arity());
      auto want = q.Filter(full != nullptr ? *full : empty);
      if (!got.ok() || !want.ok() || got->rows.size() != want->size()) {
        report->Mismatch("serve: sampled " +
                         symbols_->NameOf(q.pred) +
                         " query differs from recomputation");
        continue;
      }
      for (recur::ra::TupleRef row : want->rows()) {
        if (!got->rows.Contains(row)) {
          report->Mismatch("serve: sampled " + symbols_->NameOf(q.pred) +
                           " query misses a row");
          break;
        }
      }
    }
  }

 private:
  /// The seeded EDB: fixed shapes (server_test's, scaled so the resident
  /// state stays well inside L2) with node ids relabelled by the seed.
  void Generate(Report* report) {
    const bool tiny = config_.tiny;
    const int n = tiny ? 60 : 400;   // E domain
    const int na = tiny ? 16 : 40;   // A/B/C/E4 domain
    recur::workload::Generator shape(301);
    Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + 31);
    const std::vector<Value> perm = Permutation(static_cast<size_t>(n), &rng);
    auto add = [&](const char* name, const Relation& rel) {
      relations_.emplace_back(name, Relabel(rel, perm, &rng));
    };
    // Mean out-degree 0.6: far enough below the giant-component threshold
    // that a delete's cone, and so its cost, has a light tail.
    add("E", shape.RandomGraph(n, n * 3 / 5));
    add("A", shape.RandomGraph(na, na * 3 / 2));
    add("B", shape.RandomGraph(na, na * 3 / 2));
    add("C", shape.RandomGraph(na, na * 3 / 2));
    add("E4", shape.RandomRows(4, na, na * 2));
    Relation goal(1);
    for (Value v = 0; v < 6; ++v) goal.Insert({v * 7 % n});
    add("Goal", goal);
    e_domain_ = n;
    for (const auto& [name, rel] : relations_) {
      if (name == "A") {
        for (recur::ra::TupleRef row : rel.rows()) a_keys_.push_back(row[0]);
      }
      report->sizes.emplace_back("serve.edb." + name, rel.size());
    }
  }

  void DecomposeRouting(const recur::datalog::Program& program) {
    Timed analyze(nullptr, "classify.analyze");
    auto analysis = recur::classify::AnalyzeProgram(program);
    analyze_s_.push_back(analyze.Stop());
    if (!analysis.ok()) return;
    // The transforms intern synthetic symbols; run them on a copy so the
    // server's table is untouched.
    recur::SymbolTable scratch = *symbols_;
    Timed routes(nullptr, "transform.route_build");
    for (const recur::classify::PredicateReport& r : analysis->predicates) {
      if (!r.classification || !r.recursive_rule || r.exits.empty()) continue;
      auto formula = recur::datalog::LinearRecursiveRule::Create(
          *r.recursive_rule);
      if (!formula.ok()) continue;
      const recur::classify::Classification& cls = *r.classification;
      if (cls.bounded && r.exits.size() == 1) {
        (void)recur::transform::ExpandBounded(*formula, cls, r.exits[0],
                                              &scratch);
      } else if (cls.strongly_stable || cls.transformable_to_stable) {
        (void)recur::transform::ToStableForm(*formula, cls, r.exits[0],
                                             &scratch);
      }
    }
    route_s_.push_back(routes.Stop());
  }

  void ResetWriterEdges() {
    writer_edges_.assign(writers_, WriterEdges());
    const Relation* e = db_->snapshot().edb().Find(e_pred_);
    if (e == nullptr) return;
    for (recur::ra::TupleRef row : e->rows()) {
      writer_edges_[Owner(row[0], row[1])].present.emplace_back(row[0],
                                                                row[1]);
    }
  }

  int Owner(Value u, Value v) const {
    return static_cast<int>(static_cast<uint64_t>(u + v) %
                            static_cast<uint64_t>(writers_));
  }

  /// Re-inserts the edges the writer's last delete batch took out.
  recur::eval::EdbDeltas PickInserts(int w) {
    WriterEdges& edges = writer_edges_[w];
    recur::eval::EdbDelta delta(2);
    for (const auto& [u, v] : edges.removed) {
      delta.inserts.Insert({u, v});
      edges.present.emplace_back(u, v);
    }
    edges.removed.clear();
    recur::eval::EdbDeltas deltas;
    deltas.emplace(e_pred_, std::move(delta));
    return deltas;
  }

  recur::eval::EdbDeltas PickDeletes(int w, Rng* rng) {
    WriterEdges& edges = writer_edges_[w];
    recur::eval::EdbDelta delta(2);
    for (int i = 0; i < kBatchTuples && !edges.present.empty(); ++i) {
      const size_t at = rng->Uniform(edges.present.size());
      const auto [u, v] = edges.present[at];
      edges.present[at] = edges.present.back();
      edges.present.pop_back();
      edges.removed.emplace_back(u, v);
      delta.deletes.Insert({u, v});
    }
    recur::eval::EdbDeltas deltas;
    deltas.emplace(e_pred_, std::move(delta));
    return deltas;
  }

  recur::eval::Query MakeQuery(int which, Rng* rng) const {
    recur::eval::Query q;
    q.pred = query_preds_[which];
    q.bindings.assign(kQueryPredArity[which], std::nullopt);
    const bool a_key = which == 1 || which == 3;  // Bnd and View
    q.bindings[0] = a_key ? a_keys_[rng->Uniform(a_keys_.size())]
                          : static_cast<Value>(rng->Uniform(e_domain_));
    return q;
  }

  void AddQueryLayers(Report* report) {
    std::vector<double> bounded, stable, resident;
    for (const OpSample& op : queries_) {
      const double us = op.latency_us;
      switch (static_cast<RouteKind>(op.route)) {
        case RouteKind::kBoundedInline: bounded.push_back(us); break;
        case RouteKind::kIterateSelection: stable.push_back(us); break;
        case RouteKind::kResidentFilter: resident.push_back(us); break;
      }
    }
    report->Layer("server.query.bounded_p50_us", Median(bounded), "us");
    report->Layer("server.query.stable_p50_us", Median(stable), "us");
    report->Layer("server.query.resident_p50_us", Median(resident), "us");
    report->Layer("server.query.rows_per_query",
                  queries_total_ == 0 ? 0 : rows_total_ / queries_total_,
                  "rows");
    report->Layer("server.query.stable_iterations", StableLevels(), "count");
    report->Layer("server.query.fallbacks", static_cast<double>(fallbacks_),
                  "count");
  }

  /// Mean Henschen–Naqvi levels per iterate-selection query: the sampled
  /// queries on iterate-selection predicates, re-answered through the
  /// route's evaluator (QueryResult::stats does not carry the levels).
  double StableLevels() const {
    const recur::server::Database::Snapshot snap = db_->snapshot();
    double levels = 0, n = 0;
    for (const recur::eval::Query& q : samples_) {
      const recur::server::Route* route = db_->FindRoute(q.pred);
      if (route == nullptr || route->stable == nullptr) continue;
      recur::eval::CompiledEvalStats stats;
      if (route->stable->Answer(q, snap.edb(), {}, &stats).ok()) {
        levels += stats.levels;
        n += 1;
      }
    }
    return n == 0 ? 0 : levels / n;
  }

  void AddWriteLayers(
      const recur::server::ServerStats& before,
      const recur::eval::plan::PlanCache::CacheStats& cache_before,
      Report* report) {
    const recur::server::ServerStats after = db_->overload_stats();
    const double groups = static_cast<double>(after.groups - before.groups);
    report->Layer("admission.batches_per_group",
                  groups == 0 ? 0
                              : static_cast<double>(after.committed_batches -
                                                    before.committed_batches) /
                                    groups,
                  "batches");
    report->Layer("admission.queue_high_water",
                  static_cast<double>(after.queue_high_water), "batches");
    report->Layer("admission.sheds",
                  static_cast<double>(after.sheds - before.sheds), "count");
    const auto cache = db_->plan_cache_stats();
    const double hits = static_cast<double>(cache.hits - cache_before.hits);
    const double misses =
        static_cast<double>(cache.misses - cache_before.misses);
    report->Layer("plan.cache_hit_ratio",
                  hits + misses == 0 ? 0 : hits / (hits + misses), "ratio");
    report->Layer("plan.cache_invalidations",
                  static_cast<double>(cache.invalidations -
                                      cache_before.invalidations),
                  "count");
    report->Layer("server.idb_tuples",
                  static_cast<double>(db_->snapshot().idb().TotalTuples()),
                  "tuples");
  }

  /// Replays `writes` one batch at a time from `start`, timing each layer
  /// call the server's write path makes, and checks the replayed IDB
  /// matches the server's.
  void Replay(const recur::server::Database::Snapshot& start,
              const std::vector<WriteOp>& writes, Tracer* tracer,
              Report* report) {
    recur::ra::Database edb = start.edb();
    recur::ra::Database idb = start.idb();
    uint64_t epoch = start.epoch();
    recur::eval::plan::PlanCache cache;
    const std::string wal_path = dir_ + "/replay.log";
    auto wal = recur::util::io::AppendLog::Open(wal_path, 0);
    if (!wal.ok()) {
      report->Mismatch("serve replay: " + wal.status().ToString());
      return;
    }
    std::vector<double> apply_us, pass_us, encode_us, append_us, other_us;
    std::vector<double> ins_probes, del_probes, del_iters;
    for (const WriteOp& op : writes) {
      recur::ra::Database next_edb = edb;  // fork, as the server does
      recur::ra::Database next_idb = idb;
      Timed apply(tracer, "eval.apply_edb");
      recur::Status st = recur::eval::ApplyDeltasToEdb(op.deltas, &next_edb);
      const double a = apply.Stop();
      recur::eval::MaintenanceOptions options;
      options.plan_cache = &cache;
      recur::eval::EvalStats stats;
      Timed pass(tracer, "eval.maintain");
      if (st.ok()) {
        st = recur::eval::MaintainDeltas(db_->program(), edb, next_edb,
                                         op.deltas, &next_idb, options,
                                         &stats);
      }
      const double p = pass.Stop();
      Timed encode(tracer, "durability.wal_encode");
      auto payload = recur::server::EncodeWalRecord(++epoch, op.deltas,
                                                    *symbols_);
      const double e = encode.Stop();
      Timed append(tracer, "io.wal_append");
      if (st.ok() && payload.ok()) st = wal->Append(*payload, false);
      const double w = append.Stop();
      if (!st.ok() || !payload.ok()) {
        report->Mismatch("serve replay: " + st.ToString());
        return;
      }
      edb = std::move(next_edb);
      idb = std::move(next_idb);
      apply_us.push_back(a * 1e6);
      pass_us.push_back(p * 1e6);
      encode_us.push_back(e * 1e6);
      append_us.push_back(w * 1e6);
      other_us.push_back((op.latency_s - a - p - e - w) * 1e6);
      if (op.insert) {
        ins_probes.push_back(static_cast<double>(stats.join_probes));
      } else {
        del_probes.push_back(static_cast<double>(stats.join_probes));
        del_iters.push_back(stats.iterations);
      }
    }
    std::error_code ec;
    std::filesystem::remove(wal_path, ec);

    std::string diff;
    const recur::server::Database::Snapshot now = db_->snapshot();
    if (!SameDatabase(idb, *symbols_, now.idb(), *symbols_, &diff) ||
        !SameDatabase(edb, *symbols_, now.edb(), *symbols_, &diff)) {
      report->Mismatch("serve replay differs from the server: " + diff);
    }
    recur::eval::EvalStats recompute;
    (void)recur::eval::SemiNaiveEvaluate(db_->program(), edb, {}, &recompute);

    report->Layer("eval.maintain.apply_edb_us", Median(apply_us), "us");
    report->Layer("eval.maintain.pass_us", Median(pass_us), "us");
    report->Layer("durability.wal_encode_us", Median(encode_us), "us");
    report->Layer("io.wal_append_us", Median(append_us), "us");
    report->Layer("server.write_other_us", Median(other_us), "us");
    report->Layer("eval.maintain.insert_probes_per_batch", Mean(ins_probes),
                  "count");
    report->Layer("eval.maintain.delete_probes_per_batch", Mean(del_probes),
                  "count");
    report->Layer("eval.maintain.delete_iterations_per_batch",
                  Mean(del_iters), "count");
    report->Layer("eval.maintain.delete_vs_recompute_probes",
                  recompute.join_probes == 0
                      ? 0
                      : Mean(del_probes) /
                            static_cast<double>(recompute.join_probes),
                  "ratio");
  }

  const RunConfig config_;
  const int writers_;
  std::vector<std::pair<std::string, Relation>> relations_;
  std::vector<Value> a_keys_;
  uint64_t e_domain_ = 1;

  std::string dir_;
  int setups_ = 0;
  uint64_t steps_ = 0;
  bool sized_ = false;
  std::unique_ptr<recur::SymbolTable> symbols_;
  std::unique_ptr<recur::server::Database> db_;
  SymbolId e_pred_ = recur::kInvalidSymbol;
  SymbolId query_preds_[kQueryPreds] = {};
  RouteKind expected_route_[kQueryPreds] = {};
  std::vector<WriterEdges> writer_edges_;
  std::vector<recur::eval::Query> samples_;
  std::vector<double> parse_s_, analyze_s_, route_s_, create_s_;

  // The current measuring pass.
  std::optional<recur::server::Database::Snapshot> start_state_;
  recur::server::ServerStats admission_before_;
  recur::eval::plan::PlanCache::CacheStats cache_before_;
  /// Latency samples; their buffers are allocated once, with the phase.
  SampleLog<OpSample> queries_, inserts_, deletes_;
  /// Every write of a traced pass, for the layer-by-layer replay.
  std::vector<WriteOp> replay_;
  /// Slices run, how many count for every median, and the pass's op counts.
  size_t slices_ = 0;
  size_t full_slices_ = 0;
  size_t queries_total_ = 0, inserts_total_ = 0, deletes_total_ = 0;
  double rows_total_ = 0;
  size_t fallbacks_ = 0;
  /// Served seconds and completed ops of each slice.
  std::vector<double> slice_s_, slice_ops_;
};

}  // namespace

std::unique_ptr<Phase> MakeServePhase(const RunConfig& config) {
  return std::make_unique<ServePhase>(config);
}

}  // namespace perfbench
