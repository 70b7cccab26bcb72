// Acceptance pin for the scenario engine: the shipped batch_sweep
// manifest expands to >= 200 simulations across >= 6 graph families, and
// the aggregate JSON is bit-identical between 1-thread and 4-thread batch
// runs. Also sanity-checks the aggregated semantics (one-sidedness on
// planar cells, detection on far cells), and pins the engine's Stage I
// sharing against unshared run_job calls.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/aggregate.h"
#include "scenario/engine.h"
#include "scenario/faultinject.h"
#include "scenario/manifest.h"
#include "scenario/registry.h"

namespace cpt::scenario {
namespace {

#ifndef CPT_MANIFEST_DIR
#error "CPT_MANIFEST_DIR must point at bench/manifests"
#endif

TEST(ScenarioBatch, SweepManifestCoversTheAcceptanceMatrix) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(load_manifest_file(CPT_MANIFEST_DIR "/batch_sweep.json", &m,
                                 &err))
      << err;
  const std::vector<Job> jobs = expand_manifest(m);
  EXPECT_GE(jobs.size(), 200u);
  std::set<std::string> families;
  for (const Job& job : jobs) families.insert(job.instance.family);
  EXPECT_GE(families.size(), 6u) << "families covered: " << families.size();
}

// ISSUE 5 acceptance: the streamed aggregate (per-cell JSONL flushed as
// each sweep cell completes, per-job results never retained) is
// bit-identical to the in-memory aggregate on batch_sweep.json at
// --threads 1 and 4, with per-job result storage bounded by the reorder
// window + one open sweep cell.
TEST(ScenarioBatch, StreamedAggregateBitIdenticalToInMemory) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(load_manifest_file(CPT_MANIFEST_DIR "/batch_sweep.json", &m,
                                 &err))
      << err;
  const std::vector<Job> jobs = expand_manifest(m);

  struct StreamRun {
    std::string jsonl;
    std::string aggregate_json;
    std::size_t peak_pending = 0;
    std::size_t peak_open_cells = 0;
    std::size_t cells = 0;
  };
  const auto run_streamed = [&](unsigned threads) {
    StreamRun out;
    StreamingAggregator agg(jobs);
    out.jsonl = render_stream_header(m, jobs.size());
    agg.set_cell_sink([&](const CellAggregate& cell) {
      out.jsonl += render_stream_cell(cell);
    });
    BatchOptions opt;
    opt.threads = threads;
    StreamStats stats;
    const BatchResult batch = run_batch(
        m, opt,
        [&](const Job& job, const JobResult& result) {
          agg.consume(job, result);
        },
        &stats);
    EXPECT_TRUE(batch.results.empty());
    out.jsonl += render_stream_footer(batch, agg.finish().size());
    out.aggregate_json = render_aggregate_json(m, batch, agg.cells());
    out.peak_pending = stats.peak_pending_results;
    out.peak_open_cells = agg.peak_open_cells();
    out.cells = agg.cells().size();
    return out;
  };

  const StreamRun t1 = run_streamed(1);
  const StreamRun t4 = run_streamed(4);
  EXPECT_EQ(t1.jsonl, t4.jsonl);
  EXPECT_EQ(t1.aggregate_json, t4.aggregate_json);

  // In-memory reference: identical document.
  BatchOptions opt;
  opt.threads = 1;
  const BatchResult retained = run_batch(m, opt);
  EXPECT_EQ(render_aggregate_json(m, retained, aggregate_cells(retained)),
            t1.aggregate_json);

  // Bounded residency: expansion emits each cell's jobs contiguously, so
  // at most one cell buffers per-job values at a time, and the engine's
  // reorder window is O(batch threads) -- while the sweep itself is 200+
  // jobs over dozens of cells.
  EXPECT_GE(t4.cells, 25u);
  EXPECT_EQ(t1.peak_open_cells, 1u);
  EXPECT_LE(t4.peak_open_cells, 2u);
  EXPECT_LE(t1.peak_pending, 1u);
  EXPECT_LE(t4.peak_pending, 4u * 4u + 4u);
  // The streamed JSONL carries one line per cell plus header and footer.
  std::size_t lines = 0;
  for (const char c : t1.jsonl) lines += c == '\n';
  EXPECT_EQ(lines, t1.cells + 2);
}

TEST(ScenarioBatch, AggregateJsonBitIdenticalAcrossThreads) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(load_manifest_file(CPT_MANIFEST_DIR "/batch_sweep.json", &m,
                                 &err))
      << err;

  BatchOptions serial;
  serial.threads = 1;
  const BatchResult a = run_batch(m, serial);
  BatchOptions parallel;
  parallel.threads = 4;
  const BatchResult b = run_batch(m, parallel);

  ASSERT_GE(a.jobs.size(), 200u);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_EQ(b.threads_used, 4u);

  const std::vector<CellAggregate> cells_a = aggregate_cells(a);
  const std::vector<CellAggregate> cells_b = aggregate_cells(b);
  const std::string json_a = render_aggregate_json(m, a, cells_a);
  const std::string json_b = render_aggregate_json(m, b, cells_b);
  EXPECT_EQ(json_a, json_b);
  EXPECT_EQ(render_aggregate_csv(cells_a), render_aggregate_csv(cells_b));

  // Semantics: one-sidedness means planar-family planarity cells never
  // reject; the far families in the sweep must detect.
  for (const CellAggregate& cell : cells_a) {
    if (cell.tester != "planarity") continue;
    const bool planar_family =
        cell.scenario.rfind("grid(", 0) == 0 ||
        cell.scenario.rfind("triangulated_grid(", 0) == 0 ||
        cell.scenario.rfind("apollonian(", 0) == 0 ||
        (cell.scenario.rfind("random_planar(", 0) == 0 &&
         cell.scenario.find('+') == std::string::npos) ||
        cell.scenario.rfind("random_tree(", 0) == 0;
    if (planar_family && cell.scenario.find('+') == std::string::npos) {
      EXPECT_EQ(cell.rejects, 0u) << "one-sidedness violated: " << cell.key;
    }
    if (cell.scenario.rfind("k5_blobs(", 0) == 0 ||
        cell.scenario.find("+k33_blobs(") != std::string::npos) {
      EXPECT_EQ(cell.rejects, cell.jobs) << "missed detection: " << cell.key;
    }
  }
}

// Strict parsing of the core-allocation policy names: exact matches only,
// with round-trip through the canonical name.
TEST(ScenarioBatch, SimThreadsPolicyParsesStrictly) {
  const struct {
    const char* name;
    SimThreadsPolicy policy;
  } kNames[] = {
      {"manifest", SimThreadsPolicy::kManifest},
      {"serial-jobs-wide", SimThreadsPolicy::kSerialJobsWide},
      {"threaded-jobs-narrow", SimThreadsPolicy::kThreadedJobsNarrow},
      {"auto", SimThreadsPolicy::kAuto},
  };
  for (const auto& c : kNames) {
    SimThreadsPolicy got = SimThreadsPolicy::kManifest;
    EXPECT_TRUE(parse_sim_threads_policy(c.name, &got)) << c.name;
    EXPECT_EQ(got, c.policy) << c.name;
    EXPECT_STREQ(sim_threads_policy_name(c.policy), c.name);
  }
  for (const char* bad :
       {"", "Manifest", "serial", "serial-jobs-wide ", " auto", "auto\n",
        "threaded", "wide", "0", "serial_jobs_wide"}) {
    SimThreadsPolicy got = SimThreadsPolicy::kAuto;
    EXPECT_FALSE(parse_sim_threads_policy(bad, &got))
        << "accepted \"" << bad << '"';
    EXPECT_EQ(got, SimThreadsPolicy::kAuto) << "output clobbered on reject";
  }
}

// Every core-allocation policy must yield the same aggregate bytes as the
// serial manifest-policy run: policies only move wall clock, never results.
TEST(ScenarioBatch, AggregateJsonBitIdenticalAcrossPolicies) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(load_manifest_file(CPT_MANIFEST_DIR "/batch_sweep.json", &m,
                                 &err))
      << err;

  BatchOptions serial;
  serial.threads = 1;
  const BatchResult ref = run_batch(m, serial);
  const std::string ref_json =
      render_aggregate_json(m, ref, aggregate_cells(ref));
  EXPECT_EQ(ref.sim_threads_policy, SimThreadsPolicy::kManifest);

  for (const SimThreadsPolicy policy :
       {SimThreadsPolicy::kSerialJobsWide, SimThreadsPolicy::kThreadedJobsNarrow,
        SimThreadsPolicy::kAuto}) {
    SCOPED_TRACE(sim_threads_policy_name(policy));
    BatchOptions opt;
    opt.threads = 4;
    opt.sim_threads_policy = policy;
    const BatchResult b = run_batch(m, opt);
    ASSERT_EQ(b.jobs.size(), ref.jobs.size());
    EXPECT_EQ(render_aggregate_json(m, b, aggregate_cells(b)), ref_json);
    if (policy == SimThreadsPolicy::kAuto) {
      // batch_sweep has >= 200 jobs, far more than 4 cores: auto must
      // resolve to serial-jobs-wide and use the full batch width.
      EXPECT_EQ(b.sim_threads_policy, SimThreadsPolicy::kSerialJobsWide);
      EXPECT_EQ(b.threads_used, 4u);
    } else {
      EXPECT_EQ(b.sim_threads_policy, policy);
    }
  }
}

// ---- Stage I sharing ------------------------------------------------------

// Every cell kind the sharing rule distinguishes: planarity (alpha pinned
// to 3, so the alpha = 2 cell's planarity jobs join the first group),
// cycle_free/bipartite/stage1_partition at the manifest alpha, randomized
// testers and random_partition (never shared), round budgets (never
// shared; the 50-round one times out), an adaptive far instance, and a
// single-job group that runs inline. Groups: random_tree at alpha 3 (10
// jobs), at alpha 2 (4), k5_blobs adaptive (2).
constexpr char kSharingManifest[] = R"({
  "name": "sharing_mix", "base_seed": 5,
  "defaults": {"trials": 2, "epsilon": 0.2},
  "cells": [
    {"scenario": "random_tree", "params": {"n": 60},
     "tester": ["planarity", "cycle_free", "bipartite", "stage1_partition"]},
    {"scenario": "random_tree", "params": {"n": 60}, "alpha": 2,
     "tester": ["planarity", "cycle_free", "stage1_partition"]},
    {"scenario": "grid", "params": {"rows": 6, "cols": 6},
     "tester": ["cycle_free", "bipartite"], "randomized": true},
    {"scenario": "grid", "params": {"rows": 6, "cols": 6},
     "tester": ["planarity", "stage1_partition"], "max_rounds": 50},
    {"scenario": "grid", "params": {"rows": 6, "cols": 6},
     "tester": "planarity", "max_rounds": 10000000},
    {"scenario": "grid", "params": {"rows": 6, "cols": 6},
     "tester": "random_partition"},
    {"scenario": "k5_blobs", "params": {"backbone_n": 30, "blobs": 3},
     "tester": ["planarity", "cycle_free"], "trials": 1, "adaptive": true},
    {"scenario": "grid", "params": {"rows": 5, "cols": 5}, "trials": 1}
  ]})";

void expect_same_result(const JobResult& a, const JobResult& b,
                        const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.num_parts, b.num_parts);
  EXPECT_EQ(a.cut_edges, b.cut_edges);
  EXPECT_EQ(a.max_part_ecc, b.max_part_ecc);
  EXPECT_EQ(a.max_tree_depth, b.max_tree_depth);
  EXPECT_EQ(a.stage1_phases, b.stage1_phases);
  EXPECT_EQ(a.stage1_phases_total, b.stage1_phases_total);
  EXPECT_EQ(a.trials_per_phase, b.trials_per_phase);
  ASSERT_EQ(a.phase_stats.size(), b.phase_stats.size());
  for (std::size_t p = 0; p < a.phase_stats.size(); ++p) {
    const PhaseStats& x = a.phase_stats[p];
    const PhaseStats& y = b.phase_stats[p];
    EXPECT_EQ(x.cut_before, y.cut_before);
    EXPECT_EQ(x.cut_after, y.cut_after);
    EXPECT_EQ(x.parts_before, y.parts_before);
    EXPECT_EQ(x.parts_after, y.parts_after);
    EXPECT_EQ(x.cv_iterations, y.cv_iterations);
    EXPECT_EQ(x.marked_tree_height, y.marked_tree_height);
    EXPECT_EQ(x.rounds, y.rounds);
  }
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.retries, b.retries);
}

// The unshared reference: a direct run_job per job on a freshly built
// graph, no pooled state, no sharing.
std::vector<JobResult> direct_results(const std::vector<Job>& jobs) {
  std::vector<JobResult> out;
  for (const Job& job : jobs) {
    out.push_back(run_job(job, build_instance(job.instance)));
  }
  return out;
}

// Retained and streaming run_batch, at 1 and 4 threads, must return every
// JobResult of the unshared reference, and report the expected sharing.
void expect_sharing_matches_direct(const Manifest& m, std::uint32_t runs,
                                   std::uint32_t shared_jobs) {
  const std::vector<JobResult> expect = direct_results(expand_manifest(m));
  for (const unsigned threads : {1u, 4u}) {
    BatchOptions opt;
    opt.threads = threads;
    const BatchResult retained = run_batch(m, opt);
    ASSERT_EQ(retained.results.size(), expect.size());
    EXPECT_EQ(retained.stage1_runs, runs);
    EXPECT_EQ(retained.stage1_shared_jobs, shared_jobs);
    for (std::size_t j = 0; j < expect.size(); ++j) {
      expect_same_result(retained.results[j], expect[j],
                         "retained t" + std::to_string(threads) + " job " +
                             std::to_string(j));
    }
    std::vector<JobResult> streamed;
    const BatchResult batch =
        run_batch(m, opt, [&](const Job&, const JobResult& r) {
          streamed.push_back(r);
        });
    EXPECT_EQ(batch.stage1_runs, runs);
    EXPECT_EQ(batch.stage1_shared_jobs, shared_jobs);
    ASSERT_EQ(streamed.size(), expect.size());
    for (std::size_t j = 0; j < expect.size(); ++j) {
      expect_same_result(streamed[j], expect[j],
                         "streamed t" + std::to_string(threads) + " job " +
                             std::to_string(j));
    }
  }
}

TEST(Stage1Sharing, CiSmokeMatchesUnsharedRunJob) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(load_manifest_file(CPT_MANIFEST_DIR "/ci_smoke.json", &m, &err))
      << err;
  // 6 instances x {planarity, cycle_free} x 2 trials: one Stage I each.
  expect_sharing_matches_direct(m, 6, 24);
}

TEST(Stage1Sharing, MixedTestersMatchUnsharedRunJob) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(parse_manifest(kSharingManifest, &m, &err)) << err;
  const std::vector<Job> jobs = expand_manifest(m);
  // The 50-round budget really is exceeded (the timed-out path is covered).
  bool any_timed_out = false;
  for (const JobResult& r : direct_results(jobs)) any_timed_out |= r.timed_out;
  EXPECT_TRUE(any_timed_out);
  expect_sharing_matches_direct(m, 3, 16);
}

TEST(Stage1Sharing, KeyFollowsTheTestersStage1Options) {
  Job job;
  job.alpha = 2;
  job.epsilon = 0.3;
  job.adaptive = true;
  job.pipelined = false;
  job.tester = TesterKind::kPlanarity;
  EXPECT_EQ(stage1_options(job).alpha, 3u);  // planarity ignores job.alpha
  EXPECT_EQ(stage1_options(job).epsilon, 0.3);
  EXPECT_TRUE(stage1_options(job).adaptive);
  EXPECT_FALSE(stage1_options(job).pipelined_streams);
  EXPECT_TRUE(stage1_shareable(job));
  for (const TesterKind t : {TesterKind::kCycleFree, TesterKind::kBipartite,
                             TesterKind::kStage1Partition}) {
    job.tester = t;
    EXPECT_EQ(stage1_options(job).alpha, 2u) << tester_name(t);
    EXPECT_TRUE(stage1_shareable(job)) << tester_name(t);
  }
  job.tester = TesterKind::kRandomPartition;
  EXPECT_FALSE(stage1_shareable(job));
  job.tester = TesterKind::kCycleFree;
  job.randomized = true;
  EXPECT_FALSE(stage1_shareable(job));
  job.randomized = false;
  job.max_rounds = 1000;
  EXPECT_FALSE(stage1_shareable(job));
}

// Installs a fault plan for the scope (the plan is process-global).
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const std::string& spec) {
    auto plan = std::make_shared<FaultPlan>();
    std::string err;
    EXPECT_TRUE(FaultPlan::parse(spec, plan.get(), &err)) << err;
    install_fault_plan(std::move(plan));
  }
  ~ScopedFaultPlan() { install_fault_plan(nullptr); }
};

// A fault in one job that replays a shared Stage I touches that job
// alone: a one-shot fault is retried (same result, retries = 1), one that
// keeps firing fails the job after max_retries re-runs; its group's other
// jobs and the sharing counts are unaffected.
TEST(Stage1Sharing, FaultInADependentJobStaysWithThatJob) {
  Manifest m;
  std::string err;
  ASSERT_TRUE(load_manifest_file(CPT_MANIFEST_DIR "/ci_smoke.json", &m, &err))
      << err;
  const std::vector<JobResult> expect = direct_results(expand_manifest(m));
  constexpr std::uint32_t kFaulty = 5;  // a non-first job of its group
  for (const bool persistent : {false, true}) {
    SCOPED_TRACE(persistent ? "persistent" : "transient");
    ScopedFaultPlan plan(std::string("throw@run_job:key=") +
                         std::to_string(kFaulty) +
                         (persistent ? ":times=100" : ""));
    BatchOptions opt;
    opt.threads = 4;
    opt.retry_backoff_ms = 0;
    const BatchResult batch = run_batch(m, opt);
    EXPECT_EQ(batch.stage1_runs, 6u);
    EXPECT_EQ(batch.stage1_shared_jobs, 24u);
    EXPECT_EQ(batch.failed_jobs, persistent ? 1u : 0u);
    EXPECT_EQ(batch.retried_jobs, 1u);
    for (std::size_t j = 0; j < expect.size(); ++j) {
      if (j != kFaulty) {
        expect_same_result(batch.results[j], expect[j],
                           "job " + std::to_string(j));
        continue;
      }
      EXPECT_EQ(batch.results[j].failed, persistent);
      EXPECT_EQ(batch.results[j].retries, persistent ? opt.max_retries : 1u);
      if (!persistent) {
        JobResult retried = expect[j];
        retried.retries = 1;
        expect_same_result(batch.results[j], retried, "retried job");
      }
    }
  }
}

}  // namespace
}  // namespace cpt::scenario
