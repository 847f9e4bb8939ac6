// The three measured phases of a benchmark run. Every run executes all
// three (each workload reports every end-to-end metric); the workload
// decides which phase gets the larger share of the measuring time.
#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  int nproc = 1;
  /// Scratch directory for durable servers and replay logs; inside the
  /// checkout, removed when the run ends.
  std::string work_dir;
  /// Self-test scale: every input shrinks so a whole run takes seconds.
  bool tiny = false;
};

/// End-to-end values one measuring pass produced, by metric name. A traced
/// pass's values minus an untraced pass's values is the tracing overhead.
using E2eValues = std::map<std::string, double>;

/// One phase. Setup builds its inputs (timed, repeatable). A measuring
/// pass is Begin, then Steps — each one unit of work (one program's
/// fixpoint at both thread counts, a slice of served traffic, a crash
/// cycle) — then End, which
/// turns the pass's samples into end-to-end values. The driver interleaves
/// the Steps of all phases so host noise spreads over every metric. With a
/// tracer, End also adds the phase's per-layer metrics to `report`. Op
/// counts and correctness failures go to `report` either way.
class Phase {
 public:
  virtual ~Phase() = default;
  /// Rebuilds the phase's inputs from the seed; returns elapsed seconds.
  virtual double Setup(Report* report) = 0;
  /// Adds setup-derived per-layer metrics (medians across Setup calls).
  virtual void ReportSetupLayers(Report* report) { (void)report; }
  virtual void Begin(Tracer* tracer) = 0;
  /// One unit of work; `slice_s` bounds steps that run for a time.
  virtual void Step(double slice_s, Tracer* tracer, Report* report) = 0;
  /// True once the pass holds enough samples for every value it reports.
  virtual bool Enough(bool traced) const = 0;
  virtual E2eValues End(Tracer* tracer, Report* report) = 0;
  /// Checks the final state against recomputation (run once, untimed).
  virtual void Verify(Report* report) { (void)report; }
};

std::unique_ptr<Phase> MakeClosurePhase(const RunConfig& config);
std::unique_ptr<Phase> MakeServePhase(const RunConfig& config);
std::unique_ptr<Phase> MakeRestartPhase(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
