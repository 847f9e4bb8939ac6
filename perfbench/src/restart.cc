// restart: a durable server with a multi-MB resident state, run as
// repeated crash cycles. Each cycle applies K write batches, runs
// SaveSnapshot, applies K more, drops the process-local server (a crash:
// nothing is flushed or closed cleanly beyond what the WAL already holds),
// and calls OpenOrRecover, which loads the snapshot and replays K WAL
// records. Recovery is from a process crash with a warm OS page cache, not
// a read from the device.
//
// The traced pass also calls the layers OpenOrRecover and SaveSnapshot
// compose (EncodeSnapshot, WriteContainerFile, ReadContainerFile,
// DecodeSnapshot, ScanLog, WAL replay through MaintainDeltas) on the same
// files, to split the two end-to-end times into layers.

#include <deque>
#include <filesystem>

#include "datalog/parser.h"
#include "phases.h"
#include "server/database.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using recur::ra::Relation;
using recur::ra::Value;

// P is the large, read-mostly derived state; the write batches touch only
// F, so a batch maintains the small Q and leaves P's relations shared.
constexpr char kRestartProgram[] =
    "P(X, Y) :- E(X, Y).\n"
    "P(X, Y) :- E(X, Z), P(Z, Y).\n"
    "Q(X, Y) :- F(X, Y).\n"
    "Q(X, Y) :- F(X, Z), Q(Z, Y).\n";

/// Write batches per half cycle (K).
constexpr int kBatchesPerHalf = 8;
constexpr int kMinCycles = 5;
/// Fresh node ids for the write batches start here, far above the graph.
constexpr Value kFreshBase = 1 << 30;

recur::server::ServerOptions Options(const std::string& dir) {
  recur::server::ServerOptions options;
  options.durability.dir = dir;
  options.durability.program_text = kRestartProgram;
  options.durability.fsync = recur::server::FsyncPolicy::kSnapshot;
  return options;
}

class RestartPhase : public Phase {
 public:
  explicit RestartPhase(const RunConfig& config) : config_(config) {}

  ~RestartPhase() override {
    db_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  double Setup(Report* report) override {
    if (edges_.empty()) Generate(report);
    db_.reset();
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
    dir_ = config_.work_dir + "/restart-" + std::to_string(setups_++);
    fresh_.clear();
    next_fresh_ = kFreshBase;

    const Clock::time_point start = Clock::now();
    symbols_ = std::make_unique<recur::SymbolTable>();
    auto program =
        recur::datalog::ParseProgram(kRestartProgram, symbols_.get());
    if (!program.ok()) {
      report->Mismatch("restart parse: " + program.status().ToString());
      return SecondsSince(start);
    }
    recur::ra::Database edb;
    auto slot = edb.GetOrCreate(symbols_->Intern("E"), 2);
    if (slot.ok()) (*slot)->InsertAll(edges_);
    (void)edb.GetOrCreate(symbols_->Intern("F"), 2);
    Timed create(nullptr, "server.create");
    auto db = recur::server::Database::Create(*program, std::move(edb),
                                              symbols_.get(), Options(dir_));
    create_s_.push_back(create.Stop());
    if (!db.ok()) {
      report->Mismatch("restart create: " + db.status().ToString());
      return SecondsSince(start);
    }
    db_ = std::move(*db);
    return SecondsSince(start);
  }

  void ReportSetupLayers(Report* report) override {
    report->Layer("server.restart_create_ms", Median(create_s_) * 1e3, "ms");
  }

  void Begin(Tracer* tracer) override {
    (void)tracer;
    samples_ = Samples();
  }

  /// One crash cycle.
  void Step(double slice_s, Tracer* tracer, Report* report) override {
    (void)slice_s;
    if (db_ == nullptr) return;
    const bool traced = tracer != nullptr;
    Timed whole(tracer, "restart.cycle");
    if (!ApplyBatches(report)) return;
    if (traced) TraceSnapshotLayers(tracer, report);
    ++report->attempted;
    Timed save(tracer, "server.save_snapshot");
    recur::Status saved = db_->SaveSnapshot();
    samples_.snapshot_ms.push_back(save.Stop() * 1e3);
    if (!saved.ok()) {
      ++report->failed;
      report->Mismatch("restart snapshot: " + saved.ToString());
      return;
    }
    if (!ApplyBatches(report)) return;
    std::error_code ec;
    const double wal_bytes = static_cast<double>(std::filesystem::file_size(
        dir_ + "/" + recur::server::kWalFileName, ec));
    samples_.wal_bytes_per_batch.push_back(wal_bytes / kBatchesPerHalf);

    // Crash: drop the server; keep its last state to compare against.
    const recur::server::Database::Snapshot before = db_->snapshot();
    std::unique_ptr<recur::SymbolTable> old_symbols = std::move(symbols_);
    db_.reset();
    if (traced) TraceRecoveryLayers(tracer, report);
    symbols_ = std::make_unique<recur::SymbolTable>();
    recur::server::RecoveryInfo info;
    ++report->attempted;
    Timed open(tracer, "server.open_or_recover");
    auto db = recur::server::Database::OpenOrRecover(
        dir_, kRestartProgram, symbols_.get(), Options(dir_), &info);
    samples_.restart_ms.push_back(open.Stop() * 1e3);
    if (!db.ok()) {
      ++report->failed;
      report->Mismatch("restart recover: " + db.status().ToString());
      return;
    }
    db_ = std::move(*db);
    if (!info.warm_start || info.data_loss ||
        info.replayed_batches != static_cast<size_t>(kBatchesPerHalf)) {
      report->Mismatch("restart: recovery was not a clean warm start (" +
                       info.detail + ")");
    }
    samples_.replayed += static_cast<double>(info.replayed_batches);
    samples_.iterations += info.stats.iterations;
    const recur::server::Database::Snapshot after = db_->snapshot();
    std::string diff;
    if (!SameDatabase(before.edb(), *old_symbols, after.edb(), *symbols_,
                      &diff) ||
        !SameDatabase(before.idb(), *old_symbols, after.idb(), *symbols_,
                      &diff)) {
      report->Mismatch("restart: recovered state differs: " + diff);
    }
  }

  bool Enough(bool traced) const override {
    (void)traced;
    return samples_.restart_ms.size() >= static_cast<size_t>(kMinCycles);
  }

  E2eValues End(Tracer* tracer, Report* report) override {
    E2eValues values;
    if (samples_.restart_ms.empty()) return values;
    const Samples& s = samples_;
    if (tracer == nullptr) {
      report->sizes.emplace_back("restart.cycles_per_pass",
                                 s.restart_ms.size());
    }
    // The fastest cycle, as host contention only ever slows one down.
    values["snapshot_ms"] = Min(s.snapshot_ms);
    values["restart_ms"] = Min(s.restart_ms);
    values["snapshot_bytes_per_edb_byte"] = SnapshotBytesPerEdbByte();
    if (tracer != nullptr) {
      const double cycles = static_cast<double>(s.restart_ms.size());
      report->Layer("durability.encode_ms", Median(s.encode_ms), "ms");
      report->Layer("io.container_write_ms", Median(s.write_ms), "ms");
      report->Layer("io.container_read_ms", Median(s.read_ms), "ms");
      report->Layer("durability.decode_ms", Median(s.decode_ms), "ms");
      report->Layer("io.wal_scan_ms", Median(s.scan_ms), "ms");
      report->Layer("eval.maintain.replay_ms", Median(s.replay_ms), "ms");
      report->Layer("recovery.replayed_batches", s.replayed / cycles,
                    "batches");
      report->Layer("recovery.iterations", s.iterations / cycles, "count");
      report->Layer("durability.snapshot_bytes", s.snapshot_bytes, "B");
      report->Layer("durability.wal_bytes_per_batch",
                    Median(s.wal_bytes_per_batch), "B");
    }
    return values;
  }

 private:
  /// The resident state: transitive closure over a fixed random graph
  /// (a few MB of IDB) whose node ids the seed relabels.
  void Generate(Report* report) {
    const int n = config_.tiny ? 300 : 3000;
    const Relation shape = recur::workload::Generator(401).RandomGraph(
        n, config_.tiny ? 330 : 3300);
    Rng rng(config_.seed * 0xd1342543de82ef95ull + 5);
    edges_ = Relabel(shape, Permutation(static_cast<size_t>(n), &rng), &rng);
    report->sizes.emplace_back("restart.edb_rows", edges_.size());
    report->sizes.emplace_back("restart.batches_per_half", kBatchesPerHalf);
  }

  /// Applies K batches to F. Each inserts a two-edge path between fresh
  /// nodes and, once enough exist, deletes the two oldest fresh edges, so
  /// the resident state stays the same size cycle after cycle.
  bool ApplyBatches(Report* report) {
    const recur::SymbolId f = symbols_->Lookup("F");
    for (int i = 0; i < kBatchesPerHalf; ++i) {
      recur::eval::EdbDelta delta(2);
      const Value a = next_fresh_, b = a + 1, c = a + 2;
      next_fresh_ += 3;
      delta.inserts.Insert({a, b});
      delta.inserts.Insert({b, c});
      fresh_.push_back({a, b});
      fresh_.push_back({b, c});
      while (fresh_.size() > 4 * kBatchesPerHalf) {
        delta.deletes.Insert({fresh_.front().first, fresh_.front().second});
        fresh_.pop_front();
      }
      recur::eval::EdbDeltas deltas;
      deltas.emplace(f, std::move(delta));
      ++report->attempted;
      recur::Status status = db_->Apply(deltas);
      if (!status.ok()) {
        ++report->failed;
        report->Mismatch("restart write: " + status.ToString());
        return false;
      }
    }
    return true;
  }

  /// Times the two calls SaveSnapshot makes on the current state, writing
  /// to a side file.
  void TraceSnapshotLayers(Tracer* tracer, Report* report) {
    const recur::server::Database::Snapshot snap = db_->snapshot();
    recur::server::SnapshotImage image;
    image.program_text = kRestartProgram;
    image.epoch = snap.epoch();
    image.edb = snap.edb();
    image.idb = snap.idb();
    Timed encode(tracer, "durability.encode_snapshot");
    auto payload = recur::server::EncodeSnapshot(image, *symbols_);
    samples_.encode_ms.push_back(encode.Stop() * 1e3);
    if (!payload.ok()) {
      report->Mismatch("restart encode: " + payload.status().ToString());
      return;
    }
    const std::string side = config_.work_dir + "/restart-side.snap";
    Timed write(tracer, "io.container_write");
    recur::Status st =
        recur::util::io::WriteContainerFile(side, *payload, /*sync=*/true);
    samples_.write_ms.push_back(write.Stop() * 1e3);
    if (!st.ok()) report->Mismatch("restart container write: " + st.ToString());
    std::error_code ec;
    std::filesystem::remove(side, ec);
  }

  /// Times the calls OpenOrRecover makes, on the crashed server's files,
  /// with a scratch symbol table.
  void TraceRecoveryLayers(Tracer* tracer, Report* report) {
    auto files = recur::server::ListSnapshotFiles(dir_);
    if (!files.ok() || files->empty()) {
      report->Mismatch("restart: no snapshot to trace");
      return;
    }
    Timed read(tracer, "io.container_read");
    auto payload = recur::util::io::ReadContainerFile(files->front().second);
    samples_.read_ms.push_back(read.Stop() * 1e3);
    if (!payload.ok()) {
      report->Mismatch("restart read: " + payload.status().ToString());
      return;
    }
    std::error_code ec;
    samples_.snapshot_bytes = static_cast<double>(
        std::filesystem::file_size(files->front().second, ec));
    recur::SymbolTable scratch;
    Timed decode(tracer, "durability.decode_snapshot");
    auto image = recur::server::DecodeSnapshot(*payload, &scratch);
    samples_.decode_ms.push_back(decode.Stop() * 1e3);
    if (!image.ok()) {
      report->Mismatch("restart decode: " + image.status().ToString());
      return;
    }
    Timed scan(tracer, "io.wal_scan");
    auto log = recur::util::io::ScanLog(dir_ + "/" +
                                        recur::server::kWalFileName);
    samples_.scan_ms.push_back(scan.Stop() * 1e3);
    auto program = recur::datalog::ParseProgram(kRestartProgram, &scratch);
    if (!log.ok() || !program.ok()) {
      report->Mismatch("restart scan failed");
      return;
    }
    recur::eval::plan::PlanCache cache;
    Timed replay(tracer, "eval.maintain.replay");
    for (const std::string& bytes : log->records) {
      auto record = recur::server::DecodeWalRecord(bytes, &scratch);
      if (!record.ok()) break;
      if (record->epoch <= image->epoch) continue;
      recur::ra::Database next_edb = image->edb;
      recur::ra::Database next_idb = image->idb;
      recur::Status st =
          recur::eval::ApplyDeltasToEdb(record->deltas, &next_edb);
      recur::eval::MaintenanceOptions options;
      options.plan_cache = &cache;
      if (st.ok()) {
        st = recur::eval::MaintainDeltas(*program, image->edb, next_edb,
                                         record->deltas, &next_idb, options);
      }
      if (!st.ok()) {
        report->Mismatch("restart replay: " + st.ToString());
        break;
      }
      image->edb = std::move(next_edb);
      image->idb = std::move(next_idb);
    }
    samples_.replay_ms.push_back(replay.Stop() * 1e3);
  }

  /// Newest snapshot file bytes per EDB byte (rows x arity x sizeof(Value)).
  double SnapshotBytesPerEdbByte() const {
    auto files = recur::server::ListSnapshotFiles(dir_);
    if (!files.ok() || files->empty() || db_ == nullptr) return 0;
    std::error_code ec;
    const double bytes = static_cast<double>(
        std::filesystem::file_size(files->front().second, ec));
    double edb_bytes = 0;
    // The snapshot holds the state as of its epoch; the EDB's size is
    // constant once F's fresh-edge window is full.
    for (const auto& [pred, rel] : db_->snapshot().edb().relations()) {
      edb_bytes += static_cast<double>(rel->size()) * rel->arity() *
                   sizeof(Value);
    }
    return edb_bytes == 0 ? 0 : bytes / edb_bytes;
  }

  const RunConfig config_;
  Relation edges_;
  std::string dir_;
  int setups_ = 0;
  std::deque<std::pair<Value, Value>> fresh_;
  Value next_fresh_ = kFreshBase;
  std::vector<double> create_s_;

  /// What the current measuring pass collected.
  struct Samples {
    std::vector<double> snapshot_ms, restart_ms, wal_bytes_per_batch;
    std::vector<double> encode_ms, write_ms, read_ms, decode_ms, scan_ms,
        replay_ms;
    double replayed = 0, iterations = 0, snapshot_bytes = 0;
  };
  Samples samples_;

  std::unique_ptr<recur::SymbolTable> symbols_;
  std::unique_ptr<recur::server::Database> db_;
};

}  // namespace

std::unique_ptr<Phase> MakeRestartPhase(const RunConfig& config) {
  return std::make_unique<RestartPhase>(config);
}

}  // namespace perfbench
