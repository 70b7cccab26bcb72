// Aggregation of batch results into a stable JSON/CSV schema.
//
// Jobs group by Job::cell_key() (instance label + tester + epsilon +
// mode markers); within a cell the instance and trial indices enumerate
// repetitions. Every aggregate field is a deterministic function of the
// job list and the simulated results (verdicts, rounds, messages, graph
// sizes) -- wall-clock lives in a separate timing report -- so the
// rendered aggregate JSON is bit-identical across batch --threads values
// (pinned by scenario_batch_test.cc).
//
// Quantiles are nearest-rank with midpoint rounding up over the sorted
// per-cell values: index(q) = floor(q * (count - 1) + 1/2) computed in
// integer arithmetic (quarters: (k*(count-1) + 2) / 4 for k = 0..4).
//
// Failed jobs (JobResult::failed) and timed-out jobs (JobResult::
// timed_out, the max_rounds guard) contribute to no cell; callers surface
// BatchResult::failed_jobs / timed_out_jobs (rendered as "failed_jobs" /
// "timed_out_jobs" when nonzero). A cancelled batch renders "partial":
// true plus "completed_jobs" so a truncated document can never pass for a
// finished sweep.
//
// Streaming: StreamingAggregator consumes (job, result) pairs in
// job-index order -- the engine's streaming sink order -- holding per-job
// values only for cells still accumulating. A cell is finalized the
// moment its last job arrives and (in first-seen cell order) handed to
// the cell sink, which renders one cpt_batch_aggregate_stream_v1 JSONL
// line; because expansion emits each cell's jobs contiguously, at most
// one cell is open at a time (two when a manifest repeats a cell key).
// The finalized cells are byte-identical to aggregate_cells() on a fully
// retained BatchResult -- aggregate_cells() IS this class fed in a loop.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "scenario/engine.h"

namespace cpt::scenario {

struct QuantileSummary {
  std::uint64_t min = 0, p25 = 0, p50 = 0, p75 = 0, max = 0;
};

QuantileSummary summarize(std::vector<std::uint64_t> values);

struct CellAggregate {
  std::string key;              // Job::cell_key()
  std::string scenario;         // instance label (family+params+perturb)
  std::string tester;
  double epsilon = 0.1;
  bool adaptive = false;
  bool randomized = false;
  std::uint32_t jobs = 0;       // instances x trials (failed jobs excluded)
  std::uint32_t instances = 0;  // distinct graphs
  std::uint32_t accepts = 0;
  std::uint32_t rejects = 0;
  double detection_rate = 0;    // rejects / jobs
  NodeId n_min = 0, n_max = 0;  // across the cell's instances
  EdgeId m_min = 0, m_max = 0;
  QuantileSummary rounds;
  QuantileSummary messages;
  // Summed job wall time. NOT rendered into the aggregate document (it is
  // schedule-dependent); render_timing_json reports it.
  double wall_seconds = 0;
};

class StreamingAggregator {
 public:
  // `jobs` is the full expanded job list: per-cell job counts are
  // precomputed from it so a cell finalizes exactly when its last job is
  // consumed.
  explicit StreamingAggregator(const std::vector<Job>& jobs);

  // Invoked once per completed cell, in first-seen (expansion) order.
  using CellSink = std::function<void(const CellAggregate&)>;
  void set_cell_sink(CellSink sink) { cell_sink_ = std::move(sink); }

  // Feed every (job, result) pair in job-index order. Safe to call from
  // the engine's streaming sink (already serialized).
  void consume(const Job& job, const JobResult& result);

  // Call after the last consume: defensively finalizes and flushes any
  // cell still open (can only happen if the constructor's job list and
  // the consumed stream diverge -- they must come from the same
  // expansion) so the sink always sees every cell. Returns the cells.
  const std::vector<CellAggregate>& finish();

  // The finalized cells in first-seen order (identical to
  // aggregate_cells()).
  const std::vector<CellAggregate>& cells() const { return cells_; }

  std::uint32_t consumed_jobs() const { return consumed_jobs_; }
  std::uint32_t failed_jobs() const { return failed_jobs_; }
  std::uint32_t timed_out_jobs() const { return timed_out_jobs_; }
  // High-water mark of cells holding live per-job value buffers.
  std::size_t peak_open_cells() const { return peak_open_cells_; }

 private:
  struct Accum {
    std::vector<std::uint64_t> rounds, messages;
    std::unordered_set<std::uint64_t> instance_hashes;
    bool open = false;   // accumulating (holds per-job buffers)
    bool done = false;   // finalized (buffers dropped, ready to flush)
  };

  void finalize(std::size_t index);

  std::unordered_map<std::string, std::uint32_t> expected_;  // key -> jobs
  std::unordered_map<std::string, std::uint32_t> consumed_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<CellAggregate> cells_;
  std::vector<Accum> accums_;
  std::size_t next_flush_ = 0;  // first-seen order flush cursor
  std::size_t open_cells_ = 0;
  std::size_t peak_open_cells_ = 0;
  std::uint32_t consumed_jobs_ = 0;
  std::uint32_t failed_jobs_ = 0;
  std::uint32_t timed_out_jobs_ = 0;
  CellSink cell_sink_;
};

// First-seen cell order (deterministic: expansion order). Requires a
// batch with retained results (non-streaming run_batch).
std::vector<CellAggregate> aggregate_cells(const BatchResult& batch);

// The aggregate document. Schema documented in bench/README.md.
std::string render_aggregate_json(const Manifest& manifest,
                                  const BatchResult& batch,
                                  const std::vector<CellAggregate>& cells);

// One header line + one row per cell.
std::string render_aggregate_csv(const std::vector<CellAggregate>& cells);

// Wall-clock report (nondeterministic by nature; kept separate from the
// aggregate document). When `metrics` is non-null its registry snapshot
// is embedded under a "metrics" key (same body as the cpt_metrics_v1
// document cpt_batch --metrics writes). When `cache` is non-null its
// counters are reported under a "result_cache" key.
std::string render_timing_json(const Manifest& manifest,
                               const BatchResult& batch,
                               const std::vector<CellAggregate>& cells,
                               const util::MetricsRegistry* metrics = nullptr,
                               const ResultCache* cache = nullptr);

// ---- Streamed aggregate (JSONL, schema cpt_batch_aggregate_stream_v1) ----
// One header line, one line per finalized cell (same fields as the
// aggregate document's cells, in the same order), one footer line with the
// batch totals. Deterministic: bit-identical at every --threads value.
// Each returned string is one line including the trailing newline.
std::string render_stream_header(const Manifest& manifest, std::size_t jobs);
std::string render_stream_cell(const CellAggregate& cell);
std::string render_stream_footer(const BatchResult& batch, std::size_t cells);

}  // namespace cpt::scenario
