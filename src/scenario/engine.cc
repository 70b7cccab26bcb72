#include "scenario/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "apps/bipartite.h"
#include "apps/cycle_free.h"
#include "congest/network.h"
#include "congest/simulator.h"
#include "core/tester.h"
#include "partition/random_partition.h"
#include "scenario/faultinject.h"
#include "scenario/registry.h"
#include "scenario/result_cache.h"
#include "util/contracts.h"
#include "util/parallel.h"

namespace cpt::scenario {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool is_transient_error(const std::string& message) {
  return message.find("transient") != std::string::npos ||
         message.find("bad_alloc") != std::string::npos;
}

const char* sim_threads_policy_name(SimThreadsPolicy policy) {
  switch (policy) {
    case SimThreadsPolicy::kManifest:
      return "manifest";
    case SimThreadsPolicy::kSerialJobsWide:
      return "serial-jobs-wide";
    case SimThreadsPolicy::kThreadedJobsNarrow:
      return "threaded-jobs-narrow";
    case SimThreadsPolicy::kAuto:
      return "auto";
  }
  return "manifest";
}

bool parse_sim_threads_policy(const std::string& name, SimThreadsPolicy* out) {
  if (name == "manifest") {
    *out = SimThreadsPolicy::kManifest;
  } else if (name == "serial-jobs-wide") {
    *out = SimThreadsPolicy::kSerialJobsWide;
  } else if (name == "threaded-jobs-narrow") {
    *out = SimThreadsPolicy::kThreadedJobsNarrow;
  } else if (name == "auto") {
    *out = SimThreadsPolicy::kAuto;
  } else {
    return false;
  }
  return true;
}

Stage1Options stage1_options(const Job& job) {
  Stage1Options opt;
  opt.epsilon = job.epsilon;
  // The planarity tester always runs Stage I at its default alpha = 3
  // (planar graphs have arboricity <= 3); the manifest's alpha reaches
  // only the minor-free testers and the bare partition.
  if (job.tester != TesterKind::kPlanarity) opt.alpha = job.alpha;
  opt.adaptive = job.adaptive;
  opt.pipelined_streams = job.pipelined;
  return opt;
}

bool stage1_shareable(const Job& job) {
  if (job.max_rounds != 0) return false;
  switch (job.tester) {
    case TesterKind::kPlanarity:
    case TesterKind::kStage1Partition:
      return true;
    case TesterKind::kCycleFree:
    case TesterKind::kBipartite:
      return !job.randomized;
    case TesterKind::kRandomPartition:
      return false;
  }
  return false;
}

JobResult run_job(const Job& job, const Graph& g, RunState* state,
                  util::TraceBuffer* trace,
                  const SharedStage1* shared_stage1) {
  CPT_EXPECTS(shared_stage1 == nullptr || stage1_shareable(job));
  JobResult r;
  r.n = g.num_nodes();
  r.m = g.num_edges();
  congest::SimMemory* const mem =
      state != nullptr ? &state->sim_memory : nullptr;
  Stage1Scratch* const scratch = state != nullptr ? &state->stage1 : nullptr;
  if (!util::kTraceCompiled) trace = nullptr;
  std::size_t job_span = 0;
  if (trace != nullptr) job_span = trace->begin_span("job");
  const double t0 = now_seconds();
  try {
    fault_point(FaultSite::kRunJob, job.job_index);
    switch (job.tester) {
      case TesterKind::kPlanarity: {
        TesterOptions opt;
        opt.epsilon = job.epsilon;
        opt.seed = job.tester_seed;
        opt.num_threads = job.sim_threads;
        opt.max_rounds = job.max_rounds;
        opt.sim_memory = mem;
        opt.stage1 = stage1_options(job);
        opt.stage1.scratch = scratch;
        opt.stage1.shared = shared_stage1;
        opt.trace = trace;
        const TesterResult tr = test_planarity(g, opt);
        r.verdict = tr.verdict;
        r.rounds = tr.ledger.total_rounds();
        r.messages = tr.ledger.total_messages();
        r.num_parts = tr.partition.num_parts;
        r.cut_edges = tr.partition.cut_edges;
        r.max_part_ecc = tr.partition.max_part_ecc;
        r.max_tree_depth = tr.partition.max_tree_depth;
        r.stage1_phases = tr.stage1_phases_emulated;
        r.stage1_phases_total = tr.stage1_phases_total;
        break;
      }
      case TesterKind::kCycleFree:
      case TesterKind::kBipartite: {
        // minor_free_partition rebuilds exactly these Stage I options.
        const Stage1Options s1 = stage1_options(job);
        MinorFreeOptions opt;
        opt.epsilon = s1.epsilon;
        opt.alpha = s1.alpha;
        opt.randomized = job.randomized;
        opt.delta = job.delta;
        opt.seed = job.tester_seed;
        opt.adaptive_phases = s1.adaptive;
        opt.pipelined_streams = s1.pipelined_streams;
        opt.num_threads = job.sim_threads;
        opt.max_rounds = job.max_rounds;
        opt.sim_memory = mem;
        opt.scratch = scratch;
        opt.shared_stage1 = shared_stage1;
        opt.trace = trace;
        const AppResult ar = job.tester == TesterKind::kCycleFree
                                 ? test_cycle_freeness(g, opt)
                                 : test_bipartiteness(g, opt);
        r.verdict = ar.verdict;
        r.rounds = ar.ledger.total_rounds();
        r.messages = ar.ledger.total_messages();
        r.num_parts = ar.partition.num_parts;
        r.cut_edges = ar.partition.cut_edges;
        r.max_part_ecc = ar.partition.max_part_ecc;
        r.max_tree_depth = ar.partition.max_tree_depth;
        break;
      }
      case TesterKind::kStage1Partition: {
        congest::Network net(g);
        congest::SimOptions sopt;
        sopt.num_threads = job.sim_threads;
        sopt.max_rounds = job.max_rounds;
        sopt.memory = mem;
        sopt.trace = trace;
        congest::Simulator sim(net, sopt);
        congest::RoundLedger ledger;
        ledger.set_trace(trace);
        Stage1Options opt = stage1_options(job);
        opt.scratch = scratch;
        opt.shared = shared_stage1;
        const Stage1Result sr = run_stage1(sim, g, opt, ledger);
        r.verdict = sr.rejected ? Verdict::kReject : Verdict::kAccept;
        r.rounds = ledger.total_rounds();
        r.messages = ledger.total_messages();
        r.stage1_phases = sr.phases_emulated;
        r.stage1_phases_total = sr.phases_total;
        r.phase_stats = sr.phase_stats;
        const PartitionStats st = measure_partition(g, sr.forest);
        r.num_parts = st.num_parts;
        r.cut_edges = st.cut_edges;
        r.max_part_ecc = st.max_part_ecc;
        r.max_tree_depth = st.max_tree_depth;
        break;
      }
      case TesterKind::kRandomPartition: {
        congest::Network net(g);
        congest::SimOptions sopt;
        sopt.num_threads = job.sim_threads;
        sopt.max_rounds = job.max_rounds;
        sopt.memory = mem;
        sopt.trace = trace;
        congest::Simulator sim(net, sopt);
        congest::RoundLedger ledger;
        ledger.set_trace(trace);
        RandomPartitionOptions opt;
        opt.epsilon = job.epsilon;
        opt.delta = job.delta;
        opt.alpha = job.alpha;
        opt.adaptive = job.adaptive;
        opt.seed = job.tester_seed;
        opt.scratch = scratch;
        const RandomPartitionResult rr =
            run_random_partition(sim, g, opt, ledger);
        r.verdict = Verdict::kAccept;  // Theorem 4 has no reject path
        r.rounds = ledger.total_rounds();
        r.messages = ledger.total_messages();
        r.stage1_phases = rr.phases_emulated;
        r.stage1_phases_total = rr.phases_total;
        r.trials_per_phase = rr.trials_per_phase;
        r.phase_stats = rr.phase_stats;
        const PartitionStats st = measure_partition(g, rr.forest);
        r.num_parts = st.num_parts;
        r.cut_edges = st.cut_edges;
        r.max_part_ecc = st.max_part_ecc;
        r.max_tree_depth = st.max_tree_depth;
        break;
      }
    }
  } catch (const congest::RoundBudgetExceeded& e) {
    // A refused job, not a failed one: deterministic (same instance, same
    // budget, same round count), so never retried, and counted apart from
    // failures so callers can render it distinctly.
    r = JobResult{};
    r.n = g.num_nodes();
    r.m = g.num_edges();
    r.timed_out = true;
    r.error = e.what();
  } catch (const std::exception& e) {
    r = JobResult{};
    r.n = g.num_nodes();
    r.m = g.num_edges();
    r.failed = true;
    r.error = e.what();
  }
  r.wall_seconds = now_seconds() - t0;
  if (trace != nullptr) {
    util::TraceArgs args;
    args.add_hex("instance", job.instance.hash())
        .add("tester", tester_name(job.tester))
        .add("epsilon", job.epsilon)
        .add("verdict", r.timed_out  ? "timed_out"
                        : r.failed   ? "failed"
                        : r.verdict == Verdict::kReject ? "reject"
                                                        : "accept")
        .add("rounds", r.rounds)
        .add("messages", r.messages)
        .add("n", static_cast<std::uint64_t>(r.n))
        .add("m", static_cast<std::uint64_t>(r.m));
    if (!r.error.empty()) args.add("error", r.error);
    trace->end_span(job_span, std::move(args));
  }
  return r;
}

namespace {

// Bounded retry around run_job: transient failures (is_transient_error)
// re-run up to max_retries times with linear backoff; the returned
// result's `retries` counts the re-runs it took. Deterministic failures
// and timeouts return immediately -- re-running them cannot change the
// outcome.
JobResult run_job_retrying(const Job& job, const Graph& g,
                           const BatchOptions& options, RunState* state,
                           util::TraceBuffer* trace,
                           const SharedStage1* shared_stage1) {
  JobResult r = run_job(job, g, state, trace, shared_stage1);
  std::uint32_t attempts = 0;
  while (r.failed && is_transient_error(r.error) &&
         attempts < options.max_retries) {
    ++attempts;
    if (options.progress != nullptr) {
      options.progress->retries.fetch_add(1, std::memory_order_relaxed);
    }
    if (util::kTraceCompiled && trace != nullptr) {
      trace->instant("job/retry", util::TraceArgs()
                                      .add("attempt", attempts)
                                      .add("error", r.error));
    }
    if (options.retry_backoff_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.retry_backoff_ms * attempts));
    }
    r = run_job(job, g, state, trace, shared_stage1);
    r.retries = attempts;
  }
  return r;
}

// Materializes one instance into `*out`: corpus hit (mmap for v3), else a
// streaming generator straight into the store (then a mapped load-back),
// else build_instance (+ save). Returns true if the graph came off disk.
bool materialize_instance(const CorpusStore& store,
                          const ScenarioInstance& instance, bool cacheable,
                          Graph* out, bool* corrupt_file) {
  fault_point(FaultSite::kMaterialize, instance.hash());
  CorpusStore::LoadStatus status = CorpusStore::LoadStatus::kMiss;
  if (cacheable) {
    status = store.load(instance.hash(), out);
  }
  if (status == CorpusStore::LoadStatus::kHit) return true;
  *corrupt_file = status == CorpusStore::LoadStatus::kCorrupt;
  if (cacheable && store.enabled()) {
    // Families with a streaming edge generator never build a heap-resident
    // graph on a miss: the stream writes the v3 file directly and the
    // instance is served by mapping that file -- same bytes either way
    // (save_stream is pinned byte-identical to save(build_instance(...))).
    if (const auto stream = make_edge_stream(instance)) {
      if (store.save_stream(instance.hash(), *stream) &&
          store.load(instance.hash(), out) ==
              CorpusStore::LoadStatus::kHit) {
        return false;  // generated this run (streamed), not a disk hit
      }
    }
  }
  *out = build_instance(instance);
  if (cacheable) store.save(instance.hash(), *out);
  return false;
}

// Runs the Stage I of `job` exactly as its tester would (same options,
// a simulator of its own) and keeps the result with the ledger totals that
// every job sharing it replays (Stage1Options::shared).
SharedStage1 run_shared_stage1(const Job& job, const Graph& g,
                               unsigned sim_threads, RunState* state,
                               util::TraceBuffer* trace) {
  congest::Network net(g);
  congest::SimOptions sopt;
  sopt.num_threads = sim_threads;
  sopt.memory = &state->sim_memory;
  sopt.trace = trace;
  congest::Simulator sim(net, sopt);
  congest::RoundLedger ledger;
  ledger.set_trace(trace);
  Stage1Options opt = stage1_options(job);
  opt.scratch = &state->stage1;
  SharedStage1 out;
  out.result = run_stage1(sim, g, opt, ledger);
  out.rounds = ledger.total_rounds();
  out.messages = ledger.total_messages();
  return out;
}

std::string stage1_track_label(const ScenarioInstance& instance,
                               const Stage1Options& opt) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " eps=%.17g alpha=%u", opt.epsilon,
                static_cast<unsigned>(opt.alpha));
  std::string label = "stage1 " + instance.label_with_seed() + buf;
  if (opt.adaptive) label += " adaptive";
  if (!opt.pipelined_streams) label += " unpipelined";
  return label;
}

// Runs a pool phase under a `span_name` span on the batch track when
// tracing. During the pool run nothing else writes track 0 (workers write
// their own tracks), so the span bracketing is safe.
template <typename Fn>
void run_phase(util::TraceBuffer* batch_track, WorkerPool& pool,
               const char* span_name, Fn&& fn,
               util::TraceArgs args = util::TraceArgs()) {
  if (batch_track == nullptr) {
    pool.run(fn);
    return;
  }
  const std::uint64_t start = batch_track->now_ns();
  pool.run(fn);
  batch_track->complete_span(span_name, start, std::move(args));
}

BatchResult run_batch_impl(const Manifest& manifest,
                           const BatchOptions& options, const ResultSink* sink,
                           StreamStats* stats) {
  BatchResult out;
  const double t0 = now_seconds();
  out.jobs = expand_manifest(manifest);
  util::TraceSession* const trace =
      util::kTraceCompiled ? options.trace : nullptr;
  if (options.progress != nullptr) {
    options.progress->jobs_total.store(out.jobs.size(),
                                       std::memory_order_relaxed);
  }

  // Resolve the core split. `cores` is the resolved --threads value (a
  // shared external pool's width when one is donated); `batch_workers`
  // of them claim jobs concurrently and `sim_override`
  // (0 = keep the manifest's per-job value) is forced into every executed
  // job's sim_threads. kAuto resolves from the manifest alone -- job count
  // vs cores and the largest instance's advertised size -- so the choice
  // (like everything downstream of it) is schedule-deterministic.
  const unsigned cores = options.pool != nullptr
                             ? options.pool->num_workers()
                             : congest::resolve_sim_threads(options.threads);
  SimThreadsPolicy policy = options.sim_threads_policy;
  if (policy == SimThreadsPolicy::kAuto) {
    std::int64_t max_n = 0;
    for (const Job& job : out.jobs) {
      std::int64_t n = job.instance.params.get_int("n", 0);
      if (n == 0) {
        n = job.instance.params.get_int("rows", 0) *
            job.instance.params.get_int("cols", 0);
      }
      max_n = std::max(max_n, n);
    }
    // Enough jobs to fill the cores -> cross-sim parallelism wins (no
    // intra-sim overhead at all); fewer, large jobs -> put the cores
    // inside the simulator, where a big instance can actually use them.
    policy = (out.jobs.size() >= cores || max_n < 4096)
                 ? SimThreadsPolicy::kSerialJobsWide
                 : SimThreadsPolicy::kThreadedJobsNarrow;
  }
  unsigned batch_workers = cores;
  unsigned sim_override = 0;
  switch (policy) {
    case SimThreadsPolicy::kManifest:
    case SimThreadsPolicy::kAuto:  // resolved above; unreachable
      break;
    case SimThreadsPolicy::kSerialJobsWide:
      sim_override = 1;
      break;
    case SimThreadsPolicy::kThreadedJobsNarrow:
      batch_workers = 1;
      sim_override = cores;
      break;
  }
  out.sim_threads_policy = policy;
  out.threads_used = batch_workers;

  // Track 0 carries the batch phase spans. The resolved worker counts are
  // --threads dependent, so they go to runtime metrics, keeping the trace
  // stream byte-identical at every --threads value.
  util::TraceBuffer* const batch_track =
      trace != nullptr ? trace->make_track(0, "batch") : nullptr;
  if (batch_track != nullptr) {
    batch_track->instant("batch/start",
                         util::TraceArgs().add(
                             "jobs", static_cast<std::uint64_t>(out.jobs.size())));
    trace->metrics().set_gauge("rt/batch/workers",
                               static_cast<double>(batch_workers));
  }

  // Identity rendering, cache lookups and materialization are parallel
  // under every policy (no simulator runs yet), so the pool spans all
  // cores; only the Stage I sharing and execute phases narrow to
  // batch_workers. A donated external pool (cpt_serve) is reused as-is;
  // otherwise the batch owns one for the call.
  std::optional<WorkerPool> owned_pool;
  if (options.pool == nullptr) owned_pool.emplace(cores);
  WorkerPool& pool = options.pool != nullptr ? *options.pool : *owned_pool;

  const auto cancelled = [&] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  // Every job's instance hash and cell_key, rendered once for the whole
  // batch: the slot map, the result cache's loads and stores, and the job
  // track labels all read them from here.
  std::vector<JobIdentity> ids(out.jobs.size());
  {
    std::atomic<std::uint32_t> cursor{0};
    pool.run([&](unsigned) {
      while (true) {
        const std::uint32_t j = cursor.fetch_add(1, std::memory_order_relaxed);
        if (j >= out.jobs.size()) return;
        ids[j] = out.jobs[j].identity();
      }
    });
  }

  // Unique instances (by hash), in first-job order, and the job -> slot map.
  struct Slot {
    ScenarioInstance instance;
    Graph graph;
    bool ready = false;  // materialized without error
    bool from_disk = false;
    bool corrupt_file = false;
    std::string error;  // materialization failure: all its jobs fail
  };
  std::vector<Slot> slots;
  std::vector<std::uint32_t> job_slot(out.jobs.size());
  {
    std::unordered_map<std::uint64_t, std::uint32_t> by_hash;
    for (std::size_t j = 0; j < out.jobs.size(); ++j) {
      auto [it, fresh] = by_hash.emplace(
          ids[j].instance_hash, static_cast<std::uint32_t>(slots.size()));
      if (fresh) {
        slots.push_back(
            {out.jobs[j].instance, Graph{}, false, false, false, {}});
      }
      job_slot[j] = it->second;
    }
  }
  out.corpus.unique_instances = slots.size();

  const CorpusStore store(options.corpus_dir);
  const auto resumed_job = [&](std::uint32_t j) {
    return options.completed != nullptr &&
           options.completed->count(j) != 0;
  };

  // Phase 0: consult the persistent result cache. Lookups are in-memory
  // index probes plus a parse, parallel across the pool; the hit set is a
  // pure function of the cache index and the job list, never the
  // schedule.
  ResultCache* const cache =
      options.result_cache != nullptr && options.result_cache->enabled()
          ? options.result_cache
          : nullptr;
  std::vector<JobResult> cache_results;
  std::vector<char> cache_hit;
  if (cache != nullptr) {
    cache_results.resize(out.jobs.size());
    cache_hit.assign(out.jobs.size(), 0);
    std::atomic<std::uint32_t> cursor{0};
    pool.run([&](unsigned) {
      while (!cancelled()) {
        const std::uint32_t j =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (j >= out.jobs.size()) return;
        if (resumed_job(j)) continue;  // journal replay wins; no I/O
        JobResult r;
        if (cache->load(out.jobs[j], ids[j], &r) ==
            ResultCache::LoadStatus::kHit) {
          cache_results[j] = std::move(r);
          cache_hit[j] = 1;
        }
      }
    });
  }
  const auto cache_hit_job = [&](std::uint32_t j) {
    return !cache_hit.empty() && cache_hit[j] != 0;
  };

  // Instances whose every job is already served (resume map or result
  // cache) never need their graph: skip materialization entirely, the
  // big win of a warm cache. The skip set derives from phase 0, so it is
  // schedule-deterministic like everything else.
  std::vector<char> slot_needed(slots.size(),
                                options.completed == nullptr &&
                                        cache == nullptr
                                    ? 1
                                    : 0);
  if (options.completed != nullptr || cache != nullptr) {
    for (std::size_t j = 0; j < out.jobs.size(); ++j) {
      if (!resumed_job(static_cast<std::uint32_t>(j)) &&
          !cache_hit_job(static_cast<std::uint32_t>(j))) {
        slot_needed[job_slot[j]] = 1;
      }
    }
  }

  // Phase 1: materialize every needed unique instance (corpus load or
  // generate), embarrassingly parallel, one slot per instance. Generation
  // failures are captured per slot -- worker callables must not throw.
  // Transient failures (memory spikes, injected io faults) get the same
  // bounded retry as job execution; a corrupt corpus file is not an error
  // at all (kCorrupt regenerates).
  std::atomic<std::uint32_t> materialize_retries{0};
  {
    std::atomic<std::uint32_t> cursor{0};
    auto materialize = [&](unsigned) {
      while (!cancelled()) {
        const std::uint32_t i =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= slots.size()) return;
        if (slot_needed[i] == 0) {
          if (trace != nullptr) {
            trace
                ->make_track(1 + i,
                             "instance " + slots[i].instance.label_with_seed())
                ->instant("corpus/skipped");
          }
          continue;
        }
        Slot& slot = slots[i];
        util::TraceBuffer* slot_track = nullptr;
        std::size_t slot_span = 0;
        if (trace != nullptr) {
          slot_track = trace->make_track(
              1 + i, "instance " + slot.instance.label_with_seed());
          slot_span = slot_track->begin_span("materialize");
        }
        // The "file" family's identity is a path, not content: a cached
        // copy would silently survive edits to the edge-list file, so it
        // never touches the disk corpus (loading it is already cheap).
        const bool cacheable = slot.instance.family != "file";
        for (std::uint32_t attempt = 0;; ++attempt) {
          try {
            slot.error.clear();
            slot.from_disk = materialize_instance(
                store, slot.instance, cacheable, &slot.graph,
                &slot.corrupt_file);
          } catch (const std::exception& e) {
            slot.error = e.what();
          }
          slot.ready = slot.error.empty();
          if (slot.ready || !is_transient_error(slot.error) ||
              attempt >= options.max_retries) {
            break;
          }
          materialize_retries.fetch_add(1, std::memory_order_relaxed);
          if (options.progress != nullptr) {
            options.progress->retries.fetch_add(1, std::memory_order_relaxed);
          }
          if (slot_track != nullptr) {
            slot_track->instant("corpus/retry", util::TraceArgs()
                                                    .add("attempt", attempt + 1)
                                                    .add("error", slot.error));
          }
          if (options.retry_backoff_ms > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                options.retry_backoff_ms * (attempt + 1)));
          }
        }
        if (options.progress != nullptr) {
          auto& counter = slot.from_disk && slot.error.empty()
                              ? options.progress->corpus_hits
                              : options.progress->corpus_generated;
          counter.fetch_add(1, std::memory_order_relaxed);
        }
        if (slot_track != nullptr) {
          if (slot.corrupt_file) slot_track->instant("corpus/corrupt");
          util::TraceArgs args;
          args.add_hex("hash", slot.instance.hash());
          if (!slot.error.empty()) {
            slot_track->instant("corpus/failed");
            args.add("status", "failed").add("error", slot.error);
          } else {
            slot_track->instant(slot.from_disk ? "corpus/hit"
                                               : "corpus/generated");
            args.add("status", slot.from_disk ? "hit" : "generated")
                .add("n", static_cast<std::uint64_t>(slot.graph.num_nodes()))
                .add("m", static_cast<std::uint64_t>(slot.graph.num_edges()));
          }
          slot_track->end_span(slot_span, std::move(args));
        }
      }
    };
    run_phase(batch_track, pool, "batch/materialize", materialize,
              util::TraceArgs().add(
                  "unique_instances",
                  static_cast<std::uint64_t>(slots.size())));
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slot_needed[i] == 0) {
      ++out.corpus.skipped;
      continue;
    }
    if (slots[i].from_disk) {
      ++out.corpus.disk_hits;
    } else {
      ++out.corpus.generated;
    }
    if (slots[i].corrupt_file) ++out.corpus.corrupt_files;
  }
  // Materialization re-runs count toward the degradation totals (no
  // retried_jobs tick: that counter is per job, not per instance).
  out.total_retries += materialize_retries.load(std::memory_order_relaxed);

  // One pooled RunState per batch worker, reused across every Stage I run
  // and job that worker claims (never shared concurrently: worker w
  // touches states[w] only). Allocation reuse only -- results stay
  // schedule-independent.
  std::vector<RunState> states(cores);

  // Phase 1b: Stage I sharing. Stage I is deterministic -- its partition,
  // verdict and cost are functions of the graph and stage1_options(job)
  // alone; the tester seed feeds Stage II only -- so every trial and every
  // deterministic tester of an instance repeats one Stage I run. Jobs
  // still to execute are grouped by (slot, Stage I options); each group of
  // two or more runs its Stage I once here, and its jobs replay the result
  // (run_stage1's stage1/shared pass) with bit-identical results. A group
  // of one simulates its Stage I inside its job. Groups, their order and
  // their track ids derive from the job list and phases 0 and 1 alone, so
  // they are schedule-deterministic. A group whose run throws is simply
  // not shared: its jobs simulate Stage I themselves, with the usual
  // per-job failure and retry handling.
  struct SharedGroup {
    std::uint32_t owner = 0;  // first job of the group
    std::uint32_t jobs = 0;
    SharedStage1 run;
    bool ok = false;
  };
  constexpr std::uint32_t kNoGroup = ~std::uint32_t{0};
  std::vector<SharedGroup> groups;
  std::vector<std::uint32_t> job_group(out.jobs.size(), kNoGroup);
  {
    using Key = std::tuple<std::uint32_t, double, std::uint32_t, std::uint32_t,
                           std::uint32_t, bool, bool>;
    std::map<Key, std::vector<std::uint32_t>> by_key;  // key -> its jobs
    for (std::uint32_t j = 0; j < out.jobs.size(); ++j) {
      const Job& job = out.jobs[j];
      if (!stage1_shareable(job) || resumed_job(j) || cache_hit_job(j) ||
          !slots[job_slot[j]].ready) {
        continue;
      }
      const Stage1Options s1 = stage1_options(job);
      by_key[Key{job_slot[j], s1.epsilon, s1.alpha, s1.phase_override,
                 s1.peel_super_rounds, s1.adaptive, s1.pipelined_streams}]
          .push_back(j);
    }
    // Groups in key order (slot first, and slots are in first-job order).
    for (const auto& [key, jobs] : by_key) {
      if (jobs.size() < 2) continue;
      for (const std::uint32_t j : jobs) {
        job_group[j] = static_cast<std::uint32_t>(groups.size());
      }
      groups.push_back({jobs.front(), static_cast<std::uint32_t>(jobs.size()),
                        SharedStage1{}, false});
    }
  }
  if (!groups.empty()) {
    std::atomic<std::uint32_t> cursor{0};
    auto share = [&](unsigned w) {
      if (w >= batch_workers) return;  // the execute phase's core split
      while (!cancelled()) {
        const std::uint32_t k = cursor.fetch_add(1, std::memory_order_relaxed);
        if (k >= groups.size()) return;
        SharedGroup& group = groups[k];
        const Job& owner = out.jobs[group.owner];
        const Slot& slot = slots[job_slot[group.owner]];
        // Shared-run tracks follow the job tracks in id space.
        util::TraceBuffer* track = nullptr;
        std::size_t span = 0;
        if (trace != nullptr) {
          track = trace->make_track(
              1 + slots.size() + out.jobs.size() + k,
              stage1_track_label(slot.instance, stage1_options(owner)));
          span = track->begin_span("shared_stage1");
        }
        std::string error;
        try {
          group.run = run_shared_stage1(
              owner, slot.graph,
              sim_override != 0 ? sim_override : owner.sim_threads,
              &states[w], track);
          group.ok = true;
        } catch (const std::exception& e) {
          error = e.what();
        }
        if (track != nullptr) {
          util::TraceArgs args;
          args.add("jobs", group.jobs);
          if (group.ok) {
            args.add("rounds", group.run.rounds)
                .add("messages", group.run.messages);
          } else {
            args.add("error", error);
          }
          track->end_span(span, std::move(args));
        }
      }
    };
    run_phase(batch_track, pool, "batch/stage1", share,
              util::TraceArgs().add("groups", static_cast<std::uint64_t>(
                                                  groups.size())));
    for (const SharedGroup& group : groups) {
      if (!group.ok) continue;
      ++out.stage1_runs;
      out.stage1_shared_jobs += group.jobs;
    }
  }
  // Per-worker busy nanoseconds (time inside produce), sampled only when
  // tracing; flushed to an rt/ histogram after the pool joins.
  std::vector<std::uint64_t> busy_ns(cores, 0);
  const auto shared_stage1 = [&](std::uint32_t j) -> const SharedStage1* {
    const std::uint32_t k = job_group[j];
    return k != kNoGroup && groups[k].ok ? &groups[k].run : nullptr;
  };

  // Phase 2: run the jobs. Claiming order is racy; result placement is by
  // job slot, so the result array is schedule-independent.
  const auto cached_result = [&](std::uint32_t j) -> const JobResult* {
    if (options.completed == nullptr) return nullptr;
    const auto it = options.completed->find(j);
    return it == options.completed->end() ? nullptr : &it->second;
  };
  // One job's outcome: the resume cache, the result cache (phase 0), a
  // materialization failure propagated to every dependent job, or an
  // actual run (with retry).
  const auto produce = [&](std::uint32_t j, bool* resumed, bool* from_cache,
                           RunState* state) -> JobResult {
    // Job tracks follow the instance tracks in id space; the label is a
    // pure function of the expansion, so the layout is schedule-invariant.
    util::TraceBuffer* job_track = nullptr;
    if (trace != nullptr) {
      job_track = trace->make_track(
          1 + slots.size() + j,
          "job " + std::to_string(j) + " " + ids[j].cell_key + " i" +
              std::to_string(out.jobs[j].instance_index) + " t" +
              std::to_string(out.jobs[j].trial));
    }
    *resumed = false;
    *from_cache = false;
    if (const JobResult* cached = cached_result(j)) {
      *resumed = true;
      if (job_track != nullptr) job_track->instant("job/resumed");
      return *cached;
    }
    if (cache_hit_job(j)) {
      *from_cache = true;
      if (job_track != nullptr) job_track->instant("job/cache_hit");
      return cache_results[j];
    }
    const Slot& slot = slots[job_slot[j]];
    if (!slot.error.empty()) {
      JobResult r;
      r.failed = true;
      r.error = slot.error;
      if (job_track != nullptr) {
        job_track->instant("job/slot_error",
                           util::TraceArgs().add("error", slot.error));
      }
      return r;
    }
    if (sim_override != 0) {
      Job job = out.jobs[j];
      job.sim_threads = sim_override;
      return run_job_retrying(job, slot.graph, options, state, job_track,
                              shared_stage1(j));
    }
    return run_job_retrying(out.jobs[j], slot.graph, options, state,
                            job_track, shared_stage1(j));
  };
  const auto mark_done = [&] {
    if (options.progress != nullptr) {
      options.progress->jobs_done.fetch_add(1, std::memory_order_relaxed);
    }
  };
  const auto flush_busy = [&] {
    if (trace == nullptr) return;
    for (unsigned w = 0; w < batch_workers; ++w) {
      trace->metrics().record("rt/batch/worker_busy_ns", busy_ns[w]);
    }
  };
  const auto tally = [&](const JobResult& r, bool resumed, bool from_cache) {
    if (r.timed_out) {
      ++out.timed_out_jobs;
    } else if (r.failed) {
      ++out.failed_jobs;
    }
    if (r.retries > 0) {
      ++out.retried_jobs;
      out.total_retries += r.retries;
    }
    if (resumed) ++out.resumed_jobs;
    if (from_cache) ++out.cache_hit_jobs;
  };
  // Freshly executed results populate the cache on retire (hits and
  // journal-replayed results are already there or equivalent; failures are
  // rejected by store()). A store failure only costs the next run a
  // re-execution, so it is not an error.
  const auto publish = [&](std::uint32_t j, const JobResult& r, bool resumed,
                           bool from_cache) {
    if (cache != nullptr && !resumed && !from_cache && !r.failed) {
      cache->store(out.jobs[j], ids[j], r);
    }
  };
  if (sink == nullptr) {
    out.results.resize(out.jobs.size());
    // Per-index flags, each written by the one worker that claimed the
    // index and read only after the pool joins -- no atomics needed.
    std::vector<char> executed(out.jobs.size(), 0);
    std::vector<char> resumed_flags(out.jobs.size(), 0);
    std::vector<char> cache_flags(out.jobs.size(), 0);
    std::atomic<std::uint32_t> cursor{0};
    auto execute = [&](unsigned w) {
      if (w >= batch_workers) return;  // narrow policies idle extra cores
      while (!cancelled()) {
        const std::uint32_t j =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (j >= out.jobs.size()) return;
        bool resumed = false;
        bool from_cache = false;
        const std::uint64_t b0 =
            trace != nullptr ? util::trace_now_ns() : 0;
        out.results[j] = produce(j, &resumed, &from_cache, &states[w]);
        if (trace != nullptr) busy_ns[w] += util::trace_now_ns() - b0;
        publish(j, out.results[j], resumed, from_cache);
        resumed_flags[j] = resumed ? 1 : 0;
        cache_flags[j] = from_cache ? 1 : 0;
        executed[j] = 1;
        mark_done();
      }
    };
    run_phase(batch_track, pool, "batch/execute", execute);
    flush_busy();
    for (std::size_t j = 0; j < out.results.size(); ++j) {
      if (executed[j] == 0) {
        // Cancelled before this job ran: a default JobResult would count
        // as an accept, so mark it failed -- partial retained batches must
        // never aggregate silently.
        out.results[j] = JobResult{};
        out.results[j].failed = true;
        out.results[j].error = "cancelled before execution";
        out.cancelled = true;
      } else {
        ++out.completed_jobs;
      }
      tally(out.results[j], resumed_flags[j] != 0, cache_flags[j] != 0);
    }
  } else {
    // Streaming: completed results park in `pending` until every earlier
    // job has retired, so the sink sees expansion order. A worker about to
    // run a job far ahead of the retirement frontier waits instead --
    // `pending` (the only per-job result storage) stays O(workers).
    //
    // Cancellation drains: workers stop claiming, claimed-but-waiting jobs
    // are abandoned (their index never lands in `pending`, so the frontier
    // simply stops there), in-flight jobs finish and retire if contiguous.
    // Every job below the final frontier went through the sink exactly
    // once -- the journal written from the sink resumes from there.
    std::atomic<std::uint32_t> cursor{0};
    std::mutex mu;
    std::condition_variable cv;
    struct Pending {
      JobResult result;
      bool resumed;
      bool from_cache;
    };
    std::unordered_map<std::uint32_t, Pending> pending;
    std::uint32_t next_retire = 0;
    std::size_t peak_pending = 0;
    const std::uint32_t window = 4 * batch_workers + 4;
    auto execute = [&](unsigned w) {
      if (w >= batch_workers) return;  // narrow policies idle extra cores
      while (!cancelled()) {
        const std::uint32_t j =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (j >= out.jobs.size()) return;
        {
          // The worker owning the retirement frontier (j == next_retire)
          // never waits, so the frontier always advances. The wait polls
          // the cancel flag (signal handlers cannot notify a condition
          // variable), abandoning the claimed job on cancellation.
          std::unique_lock<std::mutex> lock(mu);
          while (j >= next_retire + window) {
            if (cancelled()) return;
            cv.wait_for(lock, std::chrono::milliseconds(20));
          }
        }
        bool resumed = false;
        bool from_cache = false;
        const std::uint64_t b0 =
            trace != nullptr ? util::trace_now_ns() : 0;
        JobResult r = produce(j, &resumed, &from_cache, &states[w]);
        if (trace != nullptr) busy_ns[w] += util::trace_now_ns() - b0;
        // Cache publish happens outside the retirement lock (it is file
        // I/O) and before the result is surfaced: by the time the sink
        // journals a fresh result its cache entry is written -- it survives
        // a process crash -- though not yet durable against a power cut
        // until the next group commit or the flush below.
        publish(j, r, resumed, from_cache);
        mark_done();
        {
          std::lock_guard<std::mutex> lock(mu);
          pending.emplace(j, Pending{std::move(r), resumed, from_cache});
          peak_pending = std::max(peak_pending, pending.size());
          while (true) {
            const auto it = pending.find(next_retire);
            if (it == pending.end()) break;
            tally(it->second.result, it->second.resumed,
                  it->second.from_cache);
            (*sink)(out.jobs[next_retire], it->second.result);
            pending.erase(it);
            ++next_retire;
          }
        }
        cv.notify_all();
      }
    };
    run_phase(batch_track, pool, "batch/execute", execute);
    flush_busy();
    out.completed_jobs = next_retire;
    out.cancelled = next_retire < out.jobs.size();
    if (stats != nullptr) stats->peak_pending_results = peak_pending;
    if (trace != nullptr) {
      trace->metrics().max_gauge("rt/batch/stream_window_peak",
                                 static_cast<double>(peak_pending));
    }
  }

  // The unsynced tail of this batch's cache stores becomes durable here,
  // once per batch (and so once per cpt_serve request) rather than once
  // per entry.
  if (cache != nullptr) cache->flush();

  out.wall_seconds = now_seconds() - t0;
  if (trace != nullptr) {
    // Deterministic batch counters: pure functions of the manifest, the
    // corpus state and the fault plan -- never of the schedule.
    util::MetricsRegistry& m = trace->metrics();
    m.add_counter("batch/jobs", out.jobs.size());
    m.add_counter("batch/completed_jobs", out.completed_jobs);
    m.add_counter("batch/failed_jobs", out.failed_jobs);
    m.add_counter("batch/timed_out_jobs", out.timed_out_jobs);
    m.add_counter("batch/resumed_jobs", out.resumed_jobs);
    m.add_counter("batch/retried_jobs", out.retried_jobs);
    m.add_counter("batch/total_retries", out.total_retries);
    m.add_counter("batch/cache_hit_jobs", out.cache_hit_jobs);
    m.add_counter("batch/stage1_runs", out.stage1_runs);
    m.add_counter("batch/stage1_shared_jobs", out.stage1_shared_jobs);
    m.add_counter("corpus/unique_instances", out.corpus.unique_instances);
    m.add_counter("corpus/disk_hits", out.corpus.disk_hits);
    m.add_counter("corpus/generated", out.corpus.generated);
    m.add_counter("corpus/corrupt_files", out.corpus.corrupt_files);
    m.add_counter("corpus/skipped", out.corpus.skipped);
  }
  return out;
}

}  // namespace

BatchResult run_batch(const Manifest& manifest, const BatchOptions& options) {
  return run_batch_impl(manifest, options, nullptr, nullptr);
}

BatchResult run_batch(const Manifest& manifest, const BatchOptions& options,
                      const ResultSink& sink, StreamStats* stats) {
  return run_batch_impl(manifest, options, &sink, stats);
}

MaterializeResult materialize_manifest(const Manifest& manifest,
                                       const BatchOptions& options) {
  MaterializeResult out;
  const double t0 = now_seconds();
  const std::vector<Job> jobs = expand_manifest(manifest);
  // Unique instances by hash, first-job order (mirrors run_batch's dedup).
  std::vector<ScenarioInstance> instances;
  {
    std::unordered_map<std::uint64_t, std::uint32_t> by_hash;
    for (const Job& job : jobs) {
      if (by_hash
              .emplace(job.instance.hash(),
                       static_cast<std::uint32_t>(instances.size()))
              .second) {
        instances.push_back(job.instance);
      }
    }
  }
  out.corpus.unique_instances = instances.size();

  const CorpusStore store(options.corpus_dir);
  const unsigned workers = congest::resolve_sim_threads(options.threads);
  WorkerPool pool(workers);
  std::mutex mu;  // guards the result counters/errors only
  std::atomic<std::uint32_t> cursor{0};
  auto work = [&](unsigned) {
    while (true) {
      const std::uint32_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= instances.size()) return;
      const ScenarioInstance& instance = instances[i];
      const bool cacheable = instance.family != "file";
      std::string error;
      bool from_disk = false;
      bool corrupt = false;
      for (std::uint32_t attempt = 0;; ++attempt) {
        try {
          error.clear();
          // The graph dies at scope exit: materialize-only never keeps an
          // instance resident, so peak RSS is one instance (and streamed
          // families never build one at all).
          Graph g;
          from_disk =
              materialize_instance(store, instance, cacheable, &g, &corrupt);
        } catch (const std::exception& e) {
          error = e.what();
        }
        if (error.empty() || !is_transient_error(error) ||
            attempt >= options.max_retries) {
          break;
        }
        if (options.retry_backoff_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              options.retry_backoff_ms * (attempt + 1)));
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      if (!error.empty()) {
        ++out.failed_instances;
        out.errors.push_back(instance.label_with_seed() + ": " + error);
      } else if (from_disk) {
        ++out.corpus.disk_hits;
      } else {
        ++out.corpus.generated;
      }
      if (corrupt) ++out.corpus.corrupt_files;
    }
  };
  pool.run(work);
  out.wall_seconds = now_seconds() - t0;
  return out;
}

}  // namespace cpt::scenario
