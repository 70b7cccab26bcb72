// perfbench_layers: the benchmark's traced run. It runs one workload in
// process and times the calls into each layer's public functions from
// the outside, so nothing inside src/ is instrumented for it:
//
//   manifest   load_manifest_file + expand_manifest
//   registry   build_instance, make_edge_stream
//   corpus     CorpusStore::save / save_stream / load
//   cache      ResultCache::load / store
//   engine     run_job (per job), run_batch (traced and untraced)
//   partition  run_stage1 and core: run_stage2, composed on one
//              congest::Simulator as test_planarity composes them
//   planar     lr_planar_embedding on every planarity instance
//   apps       test_cycle_freeness, test_bipartiteness
//   aggregate  aggregate_cells + render_aggregate_json
//
// The Stage I pass splits (conv/bcast/hop/peel) and the engine's worker
// busy time come from a run_batch with a util::TraceSession attached,
// read back through scenario/trace_analysis. Every composed result is
// checked against run_job, every LR-planar instance must be accepted, and
// the in-process aggregate is written out so the caller can compare it
// byte for byte with cpt_batch's.
//
//   perfbench_layers MANIFEST --corpus=DIR [--cache=DIR] --work=DIR
//                    [--threads=N] [--cold] --aggregate-out=FILE
//   perfbench_layers --provenance
//
// The congest metrics are run_job's round and message totals, over its
// time. With --cold the given corpus/cache directories start empty and
// every run_batch gets fresh ones under --work; otherwise all passes use
// the given directories as they are. Prints one JSON object: the layer
// metrics plus check counts. Exit 0 unless the arguments are unusable.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "apps/bipartite.h"
#include "apps/cycle_free.h"
#include "bench/bench_json.h"
#include "congest/network.h"
#include "congest/simulator.h"
#include "core/stage2.h"
#include "partition/partition.h"
#include "planar/lr_planarity.h"
#include "scenario/aggregate.h"
#include "scenario/corpus.h"
#include "scenario/engine.h"
#include "scenario/json.h"
#include "scenario/manifest.h"
#include "scenario/registry.h"
#include "scenario/result_cache.h"
#include "scenario/trace_analysis.h"
#include "util/trace.h"

using namespace cpt;
using namespace cpt::scenario;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Nearest-rank quantile of a sample set (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::error_code ec;
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

struct Args {
  std::string manifest, corpus, cache, work, aggregate_out;
  unsigned threads = 1;
  bool cold = false;
};

// Metrics in print order, plus the check tally.
struct Report {
  std::vector<std::pair<std::string, double>> metrics;
  std::uint64_t checks = 0;
  std::uint64_t failed_checks = 0;
  std::vector<std::string> errors;

  void set(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void check(bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++failed_checks;
    if (errors.size() < 8) errors.push_back(what);
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out;
}

// Stage I + Stage II on one simulator, exactly as test_planarity composes
// them (same options run_job passes). Returns false on a mismatch with
// run_job's result.
struct StageTimes {
  double stage1_s = 0, stage2_s = 0;
  std::uint64_t stage2_rounds = 0, phases_emulated = 0;
};

bool composed_planarity(const Job& job, const Graph& g, const JobResult& ref,
                        RunState& state, StageTimes& times) {
  congest::Network net(g);
  congest::SimOptions sim_opt;
  sim_opt.num_threads = job.sim_threads;
  sim_opt.max_rounds = job.max_rounds;
  sim_opt.memory = &state.sim_memory;
  congest::Simulator sim(net, sim_opt);
  congest::RoundLedger ledger;

  Stage1Options s1;
  s1.epsilon = job.epsilon;
  s1.adaptive = job.adaptive;
  s1.pipelined_streams = job.pipelined;
  s1.scratch = &state.stage1;
  auto t0 = Clock::now();
  const Stage1Result stage1 = run_stage1(sim, g, s1, ledger);
  times.stage1_s += since(t0);
  times.phases_emulated += stage1.phases_emulated;
  Verdict verdict = Verdict::kReject;
  if (!stage1.rejected) {
    Stage2Options s2;
    s2.epsilon = job.epsilon;
    s2.seed = job.tester_seed;
    const std::uint64_t before = ledger.total_rounds();
    t0 = Clock::now();
    const Stage2Result stage2 = run_stage2(sim, g, stage1.forest, s2, ledger);
    times.stage2_s += since(t0);
    times.stage2_rounds += ledger.total_rounds() - before;
    verdict = stage2.verdict;
  }
  return verdict == ref.verdict && ledger.total_rounds() == ref.rounds &&
         ledger.total_messages() == ref.messages;
}

MinorFreeOptions app_options(const Job& job, RunState& state) {
  MinorFreeOptions opt;
  opt.epsilon = job.epsilon;
  opt.alpha = job.alpha;
  opt.randomized = job.randomized;
  opt.delta = job.delta;
  opt.seed = job.tester_seed;
  opt.adaptive_phases = job.adaptive;
  opt.pipelined_streams = job.pipelined;
  opt.num_threads = job.sim_threads;
  opt.max_rounds = job.max_rounds;
  opt.sim_memory = &state.sim_memory;
  opt.scratch = &state.stage1;
  return opt;
}

// Direct pass: the engine's steps, one layer call at a time, serially.
// Fills `results` (slot j <-> jobs[j]).
void direct_pass(const std::vector<Job>& jobs, const std::string& corpus_dir,
                 const std::string& cache_dir, std::vector<JobResult>& results,
                 Report& rep) {
  const CorpusStore store(corpus_dir);
  std::optional<ResultCache> cache;
  if (!cache_dir.empty()) cache.emplace(cache_dir);

  std::vector<double> load_us, store_us, job_ms;
  std::vector<bool> served(jobs.size(), false);
  std::uint64_t cache_hits = 0, cache_misses = 0;
  for (std::size_t j = 0; j < jobs.size() && cache; ++j) {
    const auto t0 = Clock::now();
    const auto status = cache->load(jobs[j], &results[j]);
    load_us.push_back(since(t0) * 1e6);
    served[j] = status == ResultCache::LoadStatus::kHit;
    ++(served[j] ? cache_hits : cache_misses);
  }

  // Materialize the instances the unserved jobs need, as the engine does:
  // corpus hit, else a streaming generator into the store, else build+save.
  double generate_s = 0, save_s = 0, load_s = 0;
  std::uint64_t generated = 0, corpus_hits = 0;
  std::unordered_map<std::uint64_t, Graph> graphs;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const ScenarioInstance& inst = jobs[j].instance;
    const std::uint64_t h = inst.hash();
    if (served[j] || graphs.count(h) != 0) continue;
    Graph g;
    auto t0 = Clock::now();
    auto status = store.load(h, &g);
    load_s += since(t0);
    if (status == CorpusStore::LoadStatus::kHit) {
      ++corpus_hits;
    } else {
      ++generated;
      t0 = Clock::now();
      const auto stream = make_edge_stream(inst);
      generate_s += since(t0);
      bool saved = false;
      if (stream) {
        t0 = Clock::now();
        saved = store.save_stream(h, *stream);
        save_s += since(t0);
        t0 = Clock::now();
        status = store.load(h, &g);
        load_s += since(t0);
        saved = saved && status == CorpusStore::LoadStatus::kHit;
      }
      if (!saved) {
        t0 = Clock::now();
        g = build_instance(inst);
        generate_s += since(t0);
        t0 = Clock::now();
        saved = store.save(h, g);
        save_s += since(t0);
      }
      rep.check(saved, "corpus save failed for " + inst.label());
    }
    graphs.emplace(h, std::move(g));
  }

  // Execute, cross-check each job against its layers, store.
  RunState state;
  StageTimes stages;
  double sim_s = 0, cycle_free_s = 0, bipartite_s = 0, lr_s = 0;
  std::uint64_t rounds = 0, messages = 0, stores = 0;
  std::unordered_map<std::uint64_t, bool> lr_planar;  // by instance hash
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (served[j]) continue;
    const Job& job = jobs[j];
    const std::uint64_t h = job.instance.hash();
    const Graph& g = graphs.at(h);
    auto t0 = Clock::now();
    results[j] = run_job(job, g, &state);
    const double dt = since(t0);
    const JobResult& r = results[j];
    job_ms.push_back(dt * 1e3);
    sim_s += dt;
    rounds += r.rounds;
    messages += r.messages;
    const std::string label = job.instance.label_with_seed() + " " +
                              tester_name(job.tester);
    rep.check(!r.failed && !r.timed_out,
              "run_job failed: " + label + ": " + r.error);
    try {
      switch (job.tester) {
        case TesterKind::kPlanarity: {
          rep.check(composed_planarity(job, g, r, state, stages),
                    "stage1+stage2 differ from run_job: " + label);
          auto it = lr_planar.find(h);
          if (it == lr_planar.end()) {
            t0 = Clock::now();
            const bool planar = lr_planar_embedding(g).has_value();
            lr_s += since(t0);
            it = lr_planar.emplace(h, planar).first;
          }
          rep.check(!it->second || r.verdict == Verdict::kAccept,
                    "one-sided error: LR-planar instance rejected: " + label);
          break;
        }
        case TesterKind::kCycleFree:
        case TesterKind::kBipartite: {
          const bool cf = job.tester == TesterKind::kCycleFree;
          t0 = Clock::now();
          const MinorFreeOptions opt = app_options(job, state);
          const AppResult ar = cf ? test_cycle_freeness(g, opt)
                                  : test_bipartiteness(g, opt);
          (cf ? cycle_free_s : bipartite_s) += since(t0);
          rep.check(ar.verdict == r.verdict &&
                        ar.ledger.total_rounds() == r.rounds &&
                        ar.ledger.total_messages() == r.messages,
                    "app tester differs from run_job: " + label);
          break;
        }
        default:
          break;
      }
    } catch (const std::exception& e) {
      rep.check(false, "layer call threw: " + label + ": " + e.what());
    }
    if (cache && !r.failed) {
      t0 = Clock::now();
      const bool ok = cache->store(job, r);
      store_us.push_back(since(t0) * 1e6);
      stores += ok ? 1 : 0;
      rep.check(ok, "result cache store failed: " + label);
    }
  }

  // Both congest rates share one denominator: the run_job time.
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  rep.set("congest.rounds", count(rounds));
  rep.set("congest.messages", count(messages));
  rep.set("congest.us_per_round", rounds > 0 ? sim_s * 1e6 / count(rounds) : 0);
  rep.set("congest.msgs_per_s", sim_s > 0 ? count(messages) / sim_s : 0);
  rep.set("partition.stage1_s", stages.stage1_s);
  rep.set("partition.phases_emulated", count(stages.phases_emulated));
  rep.set("core.stage2_s", stages.stage2_s);
  rep.set("core.stage2_rounds", count(stages.stage2_rounds));
  rep.set("planar.lr_embed_s", lr_s);
  rep.set("apps.cycle_free_s", cycle_free_s);
  rep.set("apps.bipartite_s", bipartite_s);
  rep.set("registry.generate_s", generate_s);
  rep.set("registry.instances", count(generated));
  rep.set("corpus.save_s", save_s);
  rep.set("corpus.load_s", load_s);
  rep.set("corpus.bytes", count(dir_bytes(corpus_dir)));
  rep.set("corpus.hits", count(corpus_hits));
  rep.set("result_cache.store_us_p50", quantile(store_us, 0.5));
  rep.set("result_cache.store_us_p99", quantile(store_us, 0.99));
  rep.set("result_cache.stores", count(stores));
  rep.set("result_cache.load_us_p50", quantile(load_us, 0.5));
  rep.set("result_cache.load_us_p99", quantile(load_us, 0.99));
  rep.set("result_cache.hits", count(cache_hits));
  rep.set("result_cache.misses", count(cache_misses));
  rep.set("result_cache.bytes", cache ? count(dir_bytes(cache_dir)) : 0);
  rep.set("engine.job_p50_ms", quantile(job_ms, 0.5));
  rep.set("engine.job_p99_ms", quantile(job_ms, 0.99));
}

struct BatchRun {
  double wall_s = 0;
  std::string aggregate;
  BatchResult batch;
  StreamStats stream;
};

// One streaming run_batch, the way a caller aggregates it.
BatchRun engine_run(const Manifest& manifest, const std::vector<Job>& jobs,
                    const Args& args, const std::string& corpus_dir,
                    const std::string& cache_dir, util::TraceSession* session) {
  std::optional<ResultCache> cache;
  if (!cache_dir.empty()) cache.emplace(cache_dir);
  BatchOptions options;
  options.threads = args.threads;
  options.corpus_dir = corpus_dir;
  options.result_cache = cache ? &*cache : nullptr;
  options.trace = session;
  StreamingAggregator agg(jobs);
  BatchRun run;
  const auto t0 = Clock::now();
  run.batch = run_batch(
      manifest, options,
      [&](const Job& j, const JobResult& r) { agg.consume(j, r); },
      &run.stream);
  run.aggregate = render_aggregate_json(manifest, run.batch, agg.finish());
  run.wall_s = since(t0);
  return run;
}

// Number at obj[key] (0 when obj is null or the member is absent).
double member(const JsonValue* obj, std::string_view key) {
  const JsonValue* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->as_double() : 0;
}

const JsonValue* object(const JsonValue* obj, std::string_view key) {
  return obj != nullptr ? obj->find(key) : nullptr;
}

// Engine and Stage I splits from a traced run_batch, plus the tracing
// overhead against untraced runs of the same state.
void engine_pass(const Manifest& manifest, const std::vector<Job>& jobs,
                 const Args& args, const std::string& reference, Report& rep) {
  int fresh = 0;
  const auto dir_for = [&](const std::string& base) {
    if (base.empty() || !args.cold) return base;
    return args.work + "/" + std::filesystem::path(base).filename().string() +
           "-engine" + std::to_string(fresh);
  };
  std::vector<double> traced, untraced;
  std::unique_ptr<util::TraceSession> session;
  BatchRun first_traced;
  // Untraced/traced pairs, alternating which runs first: at least 3, then
  // more until 10 s have passed (at most 25), since one E1 request alone
  // swings by about 13%.
  const auto start = Clock::now();
  for (int pair = 0; pair < 25 && (pair < 3 || since(start) < 10.0); ++pair) {
    for (const int side : {0, 1}) {
      const bool with_trace = (pair + side) % 2 == 1;  // alternate order
      ++fresh;
      auto s = std::make_unique<util::TraceSession>();
      BatchRun run =
          engine_run(manifest, jobs, args, dir_for(args.corpus),
                     dir_for(args.cache), with_trace ? s.get() : nullptr);
      rep.check(run.batch.failed_jobs == 0 && run.aggregate == reference,
                "run_batch aggregate differs from the direct pass");
      (with_trace ? traced : untraced).push_back(run.wall_s);
      if (with_trace && !session) {
        session = std::move(s);
        first_traced = std::move(run);
      }
    }
  }

  // Stage I pass spans and the execute phase, through trace_analysis.
  const std::string trace_path = args.work + "/engine_trace.jsonl";
  {
    std::ofstream out(trace_path, std::ios::binary);
    out << session->render_jsonl(manifest.name);
  }
  TraceFile trace;
  std::string error;
  rep.check(load_trace_file(trace_path, &trace, &error),
            "trace unreadable: " + error);
  // Pass names are stage1/<step>/{conv,bcast,hop} (also servemask-conv,
  // servemask-bcast) and stage1/peel-*.
  double conv = 0, bcast = 0, hop = 0, peel = 0, execute = 0;
  for (const TraceEventRec& e : trace.events) {
    if (e.kind != "span") continue;
    const double s = static_cast<double>(e.dur_ns) * 1e-9;
    const std::string& name = e.name;
    if (name == "batch/execute") execute += s;
    if (!name.starts_with("stage1/")) continue;
    if (name.starts_with("stage1/peel-")) {
      peel += s;
    } else if (name.ends_with("conv")) {
      conv += s;
    } else if (name.ends_with("bcast")) {
      bcast += s;
    } else if (name.ends_with("/hop")) {
      hop += s;
    }
  }
  rep.set("partition.conv_s", conv);
  rep.set("partition.bcast_s", bcast);
  rep.set("partition.hop_s", hop);
  rep.set("partition.peel_s", peel);

  JsonValue metrics;
  rep.check(JsonValue::parse(session->metrics().render_object(0), &metrics,
                             &error),
            "metrics snapshot unreadable: " + error);
  const JsonValue* runtime = object(&metrics, "runtime");
  const double busy_s =
      member(object(object(runtime, "histograms"), "rt/batch/worker_busy_ns"),
             "sum") * 1e-9;
  const double workers =
      member(object(runtime, "gauges"), "rt/batch/workers");
  // Busy = time workers spent inside jobs; overhead = the traced batch's
  // wall time not covered by the mean worker's busy time.
  rep.set("engine.worker_busy_frac",
          workers > 0 && execute > 0 ? busy_s / (workers * execute) : 0);
  rep.set("engine.overhead_s",
          workers > 0 ? first_traced.wall_s - busy_s / workers : 0);
  rep.set("engine.peak_pending",
          static_cast<double>(first_traced.stream.peak_pending_results));
  rep.set("trace.overhead_frac",
          quantile(traced, 0.5) / quantile(untraced, 0.5) - 1);
}

int provenance() {
  bench::BenchJson out("perfbench");
  bench::add_provenance(out);
  std::fputs(out.to_string().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (a == "--provenance") return provenance();
    if (a == "--cold") {
      args.cold = true;
    } else if (const char* v = value("--corpus=")) {
      args.corpus = v;
    } else if (const char* v = value("--cache=")) {
      args.cache = v;
    } else if (const char* v = value("--work=")) {
      args.work = v;
    } else if (const char* v = value("--threads=")) {
      args.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value("--aggregate-out=")) {
      args.aggregate_out = v;
    } else if (a.rfind("--", 0) != 0 && args.manifest.empty()) {
      args.manifest = a;
    } else {
      std::fprintf(stderr, "perfbench_layers: unknown argument %s\n",
                   a.c_str());
      return 2;
    }
  }
  if (args.manifest.empty() || args.corpus.empty() || args.work.empty() ||
      args.aggregate_out.empty() || args.threads == 0) {
    std::fprintf(stderr,
                 "usage: perfbench_layers MANIFEST --corpus=DIR [--cache=DIR] "
                 "--work=DIR [--threads=N] [--cold] --aggregate-out=FILE\n");
    return 2;
  }

  Report rep;
  // Manifest layer: repeated, since one load is about a millisecond.
  Manifest manifest;
  std::vector<Job> jobs;
  std::vector<double> expand_ms;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = Clock::now();
    std::string error;
    Manifest m;
    if (!load_manifest_file(args.manifest, &m, &error)) {
      std::fprintf(stderr, "perfbench_layers: %s\n", error.c_str());
      return 2;
    }
    jobs = expand_manifest(m);
    expand_ms.push_back(since(t0) * 1e3);
    manifest = std::move(m);
  }
  rep.set("manifest.load_expand_ms", quantile(expand_ms, 0.5));

  std::vector<JobResult> results(jobs.size());
  direct_pass(jobs, args.corpus, args.cache, results, rep);

  // Aggregate layer over the direct pass's results.
  BatchResult direct;
  direct.jobs = jobs;
  direct.results = results;
  std::unordered_set<std::uint64_t> unique;
  for (const Job& j : jobs) unique.insert(j.instance.hash());
  direct.corpus.unique_instances = unique.size();
  for (const JobResult& r : results) direct.failed_jobs += r.failed ? 1 : 0;
  std::string aggregate;
  std::vector<double> render_ms;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = Clock::now();
    aggregate =
        render_aggregate_json(manifest, direct, aggregate_cells(direct));
    render_ms.push_back(since(t0) * 1e3);
  }
  rep.set("aggregate.render_ms", quantile(render_ms, 0.5));
  {
    std::ofstream out(args.aggregate_out, std::ios::binary);
    out << aggregate;
    rep.check(static_cast<bool>(out), "cannot write " + args.aggregate_out);
  }

  engine_pass(manifest, jobs, args, aggregate, rep);

  std::printf("{\"jobs\": %zu, \"checks\": %llu, \"failed_checks\": %llu, "
              "\"errors\": [",
              jobs.size(), static_cast<unsigned long long>(rep.checks),
              static_cast<unsigned long long>(rep.failed_checks));
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                json_escape(rep.errors[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                rep.metrics[i].first.c_str(), rep.metrics[i].second);
  }
  std::printf("}}\n");
  return 0;
}
