// Service + result-cache suite: content-address round-trip through the
// persistent result cache and its segment layout (an instance serving its
// own stores, torn tails dropped at open, corrupt lines reported and
// shadowed by a re-store, the entry cap at flush and at open, legacy
// entry files removed, forked writers' union seen by a fresh open with
// dead writers' segments compacted), engine-level cache hits pinned
// byte-identical to fresh execution at --threads 1 and 4 (with fully
// cached instances never materialized) and a mid-segment bit flip costing
// exactly one re-execution, thread- and process-concurrent cache
// hammering, and an end-to-end daemon exercise over a real Unix-domain
// socket: protocol errors, priority ordering, repeat sweeps served 100%
// from cache, and the cpt_batch thin client reproducing the serverless
// aggregate bytes.
#include <dirent.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/aggregate.h"
#include "scenario/engine.h"
#include "scenario/journal.h"
#include "scenario/json.h"
#include "scenario/manifest.h"
#include "scenario/result_cache.h"
#include "scenario/service.h"

namespace cpt::scenario {
namespace {

std::string temp_dir() {
  std::string t = testing::TempDir() + "cpt_serve_XXXXXX";
  EXPECT_NE(mkdtemp(t.data()), nullptr);
  return t;
}

constexpr const char* kManifest = R"({
  "name": "serve_suite",
  "base_seed": 11,
  "defaults": {"trials": 2, "epsilon": 0.15,
               "tester": ["planarity", "cycle_free"]},
  "cells": [
    {"scenario": "grid", "params": {"rows": [8, 10], "cols": 9}},
    {"scenario": "cycle", "params": {"n": 40},
     "perturb": {"kind": "k33_blobs", "count": 2},
     "tester": "planarity", "instances": 2}
  ]
})";

Manifest suite_manifest() {
  Manifest m;
  std::string err;
  EXPECT_TRUE(parse_manifest(kManifest, &m, &err)) << err;
  return m;
}

std::string aggregate_of(const Manifest& m, const BatchResult& batch) {
  return render_aggregate_json(m, batch, aggregate_cells(batch));
}

std::size_t count_entries(const std::string& dir, const char* infix) {
  std::size_t count = 0;
  if (DIR* d = opendir(dir.c_str())) {
    while (const dirent* entry = readdir(d)) {
      if (std::strstr(entry->d_name, infix) != nullptr) ++count;
    }
    closedir(d);
  }
  return count;
}

// The cache's segment files (seg.*.cps, not temps), sorted by name.
std::vector<std::string> segment_files(const std::string& dir) {
  std::vector<std::string> out;
  if (DIR* d = opendir(dir.c_str())) {
    while (const dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".cps") == 0) {
        out.push_back(dir + "/" + name);
      }
    }
    closedir(d);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Flips one bit inside the record of line `line_no` (past its key prefix,
// so the line stays filed under its key) and restores the segment's
// mtime: bit rot does not touch timestamps.
void flip_byte_in_line(const std::string& path, std::size_t line_no) {
  struct stat st {};
  ASSERT_EQ(stat(path.c_str(), &st), 0);
  std::string text;
  ASSERT_TRUE(read_text_file(path, &text));
  std::size_t pos = 0;
  for (std::size_t i = 0; i < line_no; ++i) {
    pos = text.find('\n', pos);
    ASSERT_NE(pos, std::string::npos);
    ++pos;
  }
  const std::size_t target = pos + 17 + 40;  // 16-hex key, space, record
  ASSERT_LT(target, text.find('\n', pos));
  text[target] = static_cast<char>(text[target] ^ 0x01);
  ASSERT_TRUE(write_text_file(path, text));
  const timespec times[2] = {st.st_atim, st.st_mtim};
  ASSERT_EQ(utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

// Runs `body` in a forked child that exits without destructors (like a
// killed writer: nothing is flushed); returns its exit status.
template <typename Body>
int run_child(Body body) {
  const pid_t pid = fork();
  if (pid == 0) _exit(body() ? 0 : 1);
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
    return -1;
  }
  return WEXITSTATUS(status);
}

// ---- ResultCache unit behavior -------------------------------------------

TEST(ResultCache, RoundTripsResultsByContentAddress) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  ResultCache cache(dir + "/cache");

  JobResult r;
  r.verdict = Verdict::kReject;
  r.n = 90;
  r.m = 160;
  r.rounds = 12;
  r.messages = 3456;
  r.num_parts = 4;
  r.cut_edges = 7;
  ASSERT_TRUE(cache.store(jobs[0], r));

  JobResult loaded;
  ASSERT_EQ(cache.load(jobs[0], &loaded), ResultCache::LoadStatus::kHit);
  // Byte-level equivalence via the canonical record rendering: everything
  // the journal round-trips, the cache round-trips.
  EXPECT_EQ(render_journal_record(jobs[0], loaded),
            render_journal_record(jobs[0], r));

  // Other jobs miss -- the key folds cell_key, instance hash and seed.
  EXPECT_EQ(cache.load(jobs[1], &loaded), ResultCache::LoadStatus::kMiss);

  EXPECT_GE(cache.counters().hits.load(), 1u);
  EXPECT_GE(cache.counters().misses.load(), 1u);
  EXPECT_EQ(cache.counters().stores.load(), 1u);
}

TEST(ResultCache, FailedResultsAreNeverStoredTimedOutAre) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  ResultCache cache(dir);

  JobResult failed;
  failed.failed = true;
  failed.error = "transient something";
  EXPECT_FALSE(cache.store(jobs[0], failed));
  JobResult probe;
  EXPECT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kMiss);

  // A round-budget refusal is deterministic, so caching it is sound.
  JobResult timed_out;
  timed_out.timed_out = true;
  timed_out.error = "round budget exceeded";
  EXPECT_TRUE(cache.store(jobs[0], timed_out));
  ASSERT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kHit);
  EXPECT_TRUE(probe.timed_out);
  EXPECT_FALSE(probe.failed);
}

// Serves its own stores without a reopen (cpt_serve's second request
// depends on this), on a directory that did not exist at open.
TEST(ResultCache, InstanceServesItsOwnStores) {
  const std::string dir = temp_dir() + "/not_yet";
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  ResultCache cache(dir);
  JobResult r;
  r.verdict = Verdict::kAccept;
  for (const Job& job : jobs) {
    r.rounds = job.job_index + 1;
    ASSERT_TRUE(cache.store(job, r));
  }
  JobResult probe;
  for (const Job& job : jobs) {
    ASSERT_EQ(cache.load(job, &probe), ResultCache::LoadStatus::kHit);
    EXPECT_EQ(probe.rounds, job.job_index + 1u);
  }
  EXPECT_EQ(cache.counters().hits.load(), jobs.size());
  EXPECT_EQ(segment_files(dir).size(), 1u);  // one instance, one segment
}

TEST(ResultCache, CorruptLineIsReportedAndShadowedByARestore) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  JobResult r;
  r.verdict = Verdict::kAccept;
  r.rounds = 5;
  {
    ResultCache cache(dir);
    ASSERT_TRUE(cache.store(jobs[0], r));
  }
  const std::vector<std::string> segments = segment_files(dir);
  ASSERT_EQ(segments.size(), 1u);
  flip_byte_in_line(segments[0], 0);

  // The checksum no longer validates: kCorrupt, counted, and the bad line
  // stays on disk until a re-store shadows it.
  JobResult probe;
  {
    ResultCache cache(dir);
    EXPECT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kCorrupt);
    EXPECT_EQ(cache.counters().corrupt.load(), 1u);
    ASSERT_TRUE(cache.store(jobs[0], r));
    EXPECT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kHit);
  }
  // A fresh open reads the later, good line.
  ResultCache reopened(dir);
  EXPECT_EQ(reopened.load(jobs[0], &probe), ResultCache::LoadStatus::kHit);
  EXPECT_EQ(reopened.counters().corrupt.load(), 0u);
}

TEST(ResultCache, TornTailIsDroppedAtOpen) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  ASSERT_GE(jobs.size(), 4u);
  JobResult r;
  r.verdict = Verdict::kReject;
  {
    ResultCache cache(dir + "/cache");
    for (std::size_t j = 0; j < 3; ++j) ASSERT_TRUE(cache.store(jobs[j], r));
    // The fourth entry's line, rendered in a side cache.
    ResultCache side(dir + "/side");
    ASSERT_TRUE(side.store(jobs[3], r));
  }
  const std::vector<std::string> main_segments = segment_files(dir + "/cache");
  const std::vector<std::string> side_segments = segment_files(dir + "/side");
  ASSERT_EQ(main_segments.size(), 1u);
  ASSERT_EQ(side_segments.size(), 1u);
  std::string line;
  ASSERT_TRUE(read_text_file(side_segments[0], &line));
  // A crash mid-append: half of the fourth line, no newline.
  std::FILE* f = std::fopen(main_segments[0].c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite(line.data(), 1, line.size() / 2, f);
  std::fclose(f);

  ResultCache cache(dir + "/cache");
  JobResult probe;
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(cache.load(jobs[j], &probe), ResultCache::LoadStatus::kHit) << j;
  }
  EXPECT_EQ(cache.load(jobs[3], &probe), ResultCache::LoadStatus::kMiss);
  EXPECT_EQ(cache.counters().corrupt.load(), 0u);
}

// The cap is enforced when a batch ends (flush) and when a cache opens,
// not after every store: an instance overshoots it until it flushes.
TEST(ResultCache, CapHoldsAfterFlushKeepingTheNewest) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  ASSERT_GE(jobs.size(), 8u);
  ResultCache cache(dir, /*max_entries=*/4);
  JobResult r;
  r.verdict = Verdict::kAccept;
  for (std::size_t j = 0; j < 8; ++j) ASSERT_TRUE(cache.store(jobs[j], r));
  JobResult probe;
  EXPECT_EQ(cache.load(jobs[0], &probe), ResultCache::LoadStatus::kHit);
  EXPECT_EQ(cache.counters().evictions.load(), 0u);

  ASSERT_TRUE(cache.flush());
  EXPECT_EQ(cache.counters().evictions.load(), 4u);
  EXPECT_EQ(cache.counters().compactions.load(), 1u);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_EQ(cache.load(jobs[j], &probe), j < 4
                                               ? ResultCache::LoadStatus::kMiss
                                               : ResultCache::LoadStatus::kHit)
        << j;
  }
  // On disk too: one compacted segment holding exactly the newest four.
  EXPECT_EQ(segment_files(dir).size(), 1u);
  ResultCache reopened(dir);
  std::size_t hits = 0;
  for (std::size_t j = 0; j < 8; ++j) {
    hits += reopened.load(jobs[j], &probe) == ResultCache::LoadStatus::kHit;
  }
  EXPECT_EQ(hits, 4u);
  EXPECT_EQ(reopened.load(jobs[7], &probe), ResultCache::LoadStatus::kHit);
}

TEST(ResultCache, CapIsEnforcedAtOpenOverADeadWritersSegment) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  ASSERT_GE(jobs.size(), 8u);
  JobResult r;
  r.verdict = Verdict::kAccept;
  ASSERT_EQ(run_child([&] {
              ResultCache uncapped(dir);
              for (std::size_t j = 0; j < 8; ++j) {
                if (!uncapped.store(jobs[j], r)) return false;
              }
              return true;
            }),
            0);
  ResultCache cache(dir, /*max_entries=*/4);
  EXPECT_EQ(cache.counters().evictions.load(), 4u);
  EXPECT_EQ(cache.counters().compactions.load(), 1u);
  JobResult probe;
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_EQ(cache.load(jobs[j], &probe), j < 4
                                               ? ResultCache::LoadStatus::kMiss
                                               : ResultCache::LoadStatus::kHit)
        << j;
  }
  EXPECT_EQ(segment_files(dir).size(), 1u);
}

TEST(ResultCache, LegacyEntryFilesAndOrphanTempsAreRemovedAtOpen) {
  const std::string dir = temp_dir();
  for (const char* name :
       {"0123456789abcdef.cpr", "0123456789abcdef.cpr.tmp",
        "0123456789abcdef.cpr.tmp.999999999.0",
        "seg.999999999.0.cps.tmp.999999999.1", "0123456789abcdef.cpg"}) {
    ASSERT_TRUE(write_text_file(dir + "/" + name, "x\n"));
  }
  ResultCache cache(dir);
  EXPECT_EQ(count_entries(dir, ".cpr"), 0u);
  EXPECT_EQ(count_entries(dir, ".cps"), 0u);
  EXPECT_EQ(count_entries(dir, ".cpg"), 1u);  // the corpus is not ours
}

// ---- Engine integration: hits, byte-identity, skip-materialize -----------

TEST(Engine, CacheHitsReproduceAggregateBytesAtEveryThreadCount) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::size_t num_jobs = expand_manifest(m).size();

  // Serverless, uncached baseline.
  BatchOptions plain;
  plain.threads = 1;
  const std::string baseline = aggregate_of(m, run_batch(m, plain));

  // Cold populate at threads 1.
  ResultCache cache(dir + "/cache");
  BatchOptions opt;
  opt.threads = 1;
  opt.result_cache = &cache;
  const BatchResult cold = run_batch(m, opt);
  EXPECT_EQ(cold.cache_hit_jobs, 0u);
  EXPECT_EQ(aggregate_of(m, cold), baseline);

  // Warm runs at threads 1 and 4: zero execution, zero materialization,
  // byte-identical aggregate.
  for (const unsigned threads : {1u, 4u}) {
    ResultCache warm_cache(dir + "/cache");
    BatchOptions warm_opt;
    warm_opt.threads = threads;
    warm_opt.result_cache = &warm_cache;
    const BatchResult warm = run_batch(m, warm_opt);
    EXPECT_EQ(warm.cache_hit_jobs, num_jobs) << threads;
    EXPECT_EQ(warm.corpus.skipped, warm.corpus.unique_instances) << threads;
    EXPECT_EQ(warm.corpus.generated, 0u) << threads;
    EXPECT_EQ(warm.corpus.disk_hits, 0u) << threads;
    EXPECT_EQ(aggregate_of(m, warm), baseline) << threads;
    EXPECT_EQ(warm_cache.counters().hits.load(), num_jobs) << threads;
  }

  // Streaming mode hits the same cache and emits the same cells.
  ResultCache stream_cache(dir + "/cache");
  BatchOptions stream_opt;
  stream_opt.threads = 4;
  stream_opt.result_cache = &stream_cache;
  StreamingAggregator agg(expand_manifest(m));
  const BatchResult streamed =
      run_batch(m, stream_opt, [&](const Job& job, const JobResult& result) {
        agg.consume(job, result);
      });
  EXPECT_EQ(streamed.cache_hit_jobs, num_jobs);
  EXPECT_EQ(render_aggregate_json(m, streamed, agg.finish()), baseline);
}

// A bit flip in the middle of a segment costs exactly that job: it loads
// kCorrupt and re-executes, every other job still hits, and the rerun's
// fresh line shadows the bad one for the next open.
TEST(Engine, CorruptCacheEntryIsReExecutedAndHealed) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::size_t num_jobs = expand_manifest(m).size();

  ResultCache cache(dir);
  BatchOptions opt;
  opt.threads = 2;
  opt.result_cache = &cache;
  const std::string baseline = aggregate_of(m, run_batch(m, opt));
  const std::vector<std::string> segments = segment_files(dir);
  ASSERT_EQ(segments.size(), 1u);
  flip_byte_in_line(segments[0], num_jobs / 2);

  ResultCache healed(dir);
  BatchOptions warm;
  warm.threads = 2;
  warm.result_cache = &healed;
  const BatchResult batch = run_batch(m, warm);
  EXPECT_EQ(healed.counters().corrupt.load(), 1u);
  EXPECT_EQ(healed.counters().hits.load(), num_jobs - 1);
  EXPECT_EQ(batch.cache_hit_jobs, num_jobs - 1);
  EXPECT_EQ(healed.counters().stores.load(), 1u);
  EXPECT_EQ(aggregate_of(m, batch), baseline);

  ResultCache rerun(dir);
  BatchOptions again;
  again.threads = 2;
  again.result_cache = &rerun;
  const BatchResult healed_batch = run_batch(m, again);
  EXPECT_EQ(healed_batch.cache_hit_jobs, num_jobs);
  EXPECT_EQ(rerun.counters().corrupt.load(), 0u);
  EXPECT_EQ(aggregate_of(m, healed_batch), baseline);
}

// ---- Concurrency: threads and processes ----------------------------------

TEST(ResultCache, ConcurrentThreadReadersAndWritersStaySafe) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  ResultCache cache(dir);
  JobResult canonical;
  canonical.verdict = Verdict::kReject;
  canonical.rounds = 17;
  canonical.messages = 999;

  std::atomic<bool> bad{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      JobResult probe;
      for (int round = 0; round < 40; ++round) {
        const Job& job = jobs[(t + round) % jobs.size()];
        if (t % 2 == 0) {
          if (!cache.store(job, canonical)) bad.store(true);
        } else {
          const auto status = cache.load(job, &probe);
          if (status == ResultCache::LoadStatus::kCorrupt) bad.store(true);
          if (status == ResultCache::LoadStatus::kHit &&
              render_journal_record(job, probe) !=
                  render_journal_record(job, canonical)) {
            bad.store(true);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(segment_files(dir).size(), 1u);  // every thread, one segment
}

TEST(ResultCache, ConcurrentProcessWritersNeverPublishTornEntries) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  JobResult canonical;
  canonical.verdict = Verdict::kAccept;
  canonical.rounds = 23;
  canonical.messages = 4242;

  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    ResultCache mine(dir);
    for (int round = 0; round < 30; ++round) {
      for (const Job& job : jobs) {
        if (!mine.store(job, canonical)) _exit(1);
      }
    }
    _exit(0);
  }
  ResultCache cache(dir);
  JobResult probe;
  for (int round = 0; round < 30; ++round) {
    for (const Job& job : jobs) {
      ASSERT_TRUE(cache.store(job, canonical));
      const auto status = cache.load(job, &probe);
      ASSERT_NE(status, ResultCache::LoadStatus::kCorrupt);
      if (status == ResultCache::LoadStatus::kHit) {
        ASSERT_EQ(render_journal_record(job, probe),
                  render_journal_record(job, canonical));
      }
    }
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(segment_files(dir).size(), 2u);  // one per writer process
  // Post-quiesce, every entry is a hit with the canonical bytes, both in
  // the surviving writer and in a fresh open.
  ResultCache fresh(dir);
  for (const ResultCache* reader : {&cache, &fresh}) {
    for (const Job& job : jobs) {
      ASSERT_EQ(reader->load(job, &probe), ResultCache::LoadStatus::kHit);
      EXPECT_EQ(render_journal_record(job, probe),
                render_journal_record(job, canonical));
    }
  }
}

// Forked writers that exit without flushing (their lines are written,
// not yet synced): a fresh open sees the union of their stores, never a
// corrupt line. More than kMaxDeadSegments dead writers' segments are
// compacted into one on that open, and the result reads back the same.
TEST(ResultCache, ForkedWritersUnionIsSeenByAFreshOpen) {
  const std::string dir = temp_dir();
  const Manifest m = suite_manifest();
  const std::vector<Job> jobs = expand_manifest(m);
  constexpr std::size_t kWriters = ResultCache::kMaxDeadSegments + 2;
  std::vector<pid_t> pids;
  for (std::size_t w = 0; w < kWriters; ++w) {
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      ResultCache mine(dir);
      JobResult r;
      r.verdict = Verdict::kAccept;
      for (std::size_t j = w; j < jobs.size(); j += kWriters) {
        r.rounds = jobs[j].job_index + 7;
        if (!mine.store(jobs[j], r)) _exit(1);
      }
      r.rounds = jobs[0].job_index + 7;  // every writer also stores job 0
      _exit(mine.store(jobs[0], r) ? 0 : 1);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }
  ASSERT_EQ(segment_files(dir).size(), kWriters);

  JobResult probe;
  {
    ResultCache cache(dir);
    EXPECT_EQ(cache.counters().compactions.load(), 1u);
    EXPECT_EQ(segment_files(dir).size(), 1u);
    for (const Job& job : jobs) {
      ASSERT_EQ(cache.load(job, &probe), ResultCache::LoadStatus::kHit);
      EXPECT_EQ(probe.rounds, job.job_index + 7u);
    }
    EXPECT_EQ(cache.counters().corrupt.load(), 0u);
  }
  ResultCache reopened(dir);
  EXPECT_EQ(reopened.counters().compactions.load(), 0u);
  for (const Job& job : jobs) {
    ASSERT_EQ(reopened.load(job, &probe), ResultCache::LoadStatus::kHit);
    EXPECT_EQ(probe.rounds, job.job_index + 7u);
  }
}

// ---- The daemon over a real socket ---------------------------------------

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool recv_line(int fd, std::string* buf, std::string* line) {
  while (true) {
    const std::size_t pos = buf->find('\n');
    if (pos != std::string::npos) {
      line->assign(*buf, 0, pos);
      buf->erase(0, pos + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buf->append(chunk, static_cast<std::size_t>(n));
  }
}

// Runs Service::serve() on a thread and guarantees the join even when an
// ASSERT unwinds the test early (an unjoined std::thread terminates the
// whole binary). request_stop() after serve() already returned is a
// harmless no-op signal.
struct ServerThread {
  Service& service;
  std::thread thread;
  explicit ServerThread(Service& s) : service(s), thread([&s] { s.serve(); }) {}
  ~ServerThread() { stop(); }
  void stop() {
    if (thread.joinable()) {
      service.request_stop();
      thread.join();
    }
  }
  void join() { thread.join(); }
};

int connect_to(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EXPECT_LT(path.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << strerror(errno);
  return fd;
}

// Reads lines until the "done" object arrives; returns it. Stream lines
// are appended to *stream_lines when non-null.
JsonValue read_until_done(int fd, std::string* buf,
                          std::vector<std::string>* stream_lines) {
  std::string line;
  while (recv_line(fd, buf, &line)) {
    JsonValue msg;
    std::string err;
    EXPECT_TRUE(JsonValue::parse(line, &msg, &err)) << line;
    if (msg.find("done") != nullptr) return msg;
    if (const JsonValue* ok = msg.find("ok")) {
      EXPECT_TRUE(ok->as_bool()) << line;
      continue;
    }
    if (stream_lines != nullptr) stream_lines->push_back(line);
  }
  ADD_FAILURE() << "connection closed before the done line";
  return JsonValue{};
}

TEST(Service, ServesRunsAndRepeatSweepsComeEntirelyFromCache) {
  const std::string dir = temp_dir();
  ServiceOptions so;
  so.socket_path = dir + "/cpt.sock";
  so.corpus_dir = dir + "/corpus";
  so.cache_dir = dir + "/cache";
  so.threads = 2;
  Service service(std::move(so));
  std::string err;
  ASSERT_TRUE(service.start(&err)) << err;
  ServerThread server(service);

  const Manifest m = suite_manifest();
  const std::size_t num_jobs = expand_manifest(m).size();
  BatchOptions plain;
  plain.threads = 1;
  const std::string baseline = aggregate_of(m, run_batch(m, plain));

  const int fd = connect_to(dir + "/cpt.sock");
  std::string buf;

  // Protocol basics: ping, unknown op, bad manifest.
  ASSERT_TRUE(send_all(fd, "{\"op\": \"ping\"}\n"));
  std::string line;
  ASSERT_TRUE(recv_line(fd, &buf, &line));
  EXPECT_NE(line.find("\"pong\": true"), std::string::npos) << line;
  ASSERT_TRUE(send_all(fd, "{\"op\": \"nonsense\"}\n"));
  ASSERT_TRUE(recv_line(fd, &buf, &line));
  EXPECT_NE(line.find("\"ok\": false"), std::string::npos) << line;
  ASSERT_TRUE(send_all(fd, "{\"op\": \"run\", \"manifest_text\": \"{\"}\n"));
  ASSERT_TRUE(recv_line(fd, &buf, &line));
  EXPECT_NE(line.find("\"ok\": false"), std::string::npos) << line;

  const auto run_request = [&](std::int64_t priority) {
    std::string req = "{\"op\": \"run\", \"manifest_text\": ";
    json_append_escaped(req, kManifest);
    req += ", \"priority\": " + json_render_int(priority) + "}\n";
    ASSERT_TRUE(send_all(fd, req));
  };

  // Cold run: executed, byte-identical to the serverless baseline.
  run_request(0);
  std::vector<std::string> stream_lines;
  JsonValue done = read_until_done(fd, &buf, &stream_lines);
  ASSERT_TRUE(done.is_object());
  EXPECT_EQ(done.find("exit_code")->as_int64(), 0);
  EXPECT_EQ(done.find("cache_hit_jobs")->as_int64(), 0);
  ASSERT_NE(done.find("aggregate"), nullptr);
  EXPECT_EQ(done.find("aggregate")->as_string(), baseline);
  // Header + one line per cell + footer.
  EXPECT_GE(stream_lines.size(), 3u);
  EXPECT_NE(stream_lines.front().find("cpt_batch_aggregate_stream_v1"),
            std::string::npos);

  // Warm run: zero jobs simulated, same bytes.
  run_request(0);
  done = read_until_done(fd, &buf, nullptr);
  ASSERT_TRUE(done.is_object());
  EXPECT_EQ(done.find("cache_hit_jobs")->as_int64(),
            static_cast<std::int64_t>(num_jobs));
  EXPECT_EQ(done.find("aggregate")->as_string(), baseline);

  // Metrics snapshot carries the serve/ counters.
  ASSERT_TRUE(send_all(fd, "{\"op\": \"metrics\"}\n"));
  ASSERT_TRUE(recv_line(fd, &buf, &line));
  JsonValue metrics_msg;
  ASSERT_TRUE(JsonValue::parse(line, &metrics_msg, &err)) << line;
  ASSERT_NE(metrics_msg.find("metrics"), nullptr);
  const std::string snapshot = metrics_msg.find("metrics")->as_string();
  EXPECT_NE(snapshot.find("serve/runs"), std::string::npos);
  EXPECT_NE(snapshot.find("serve/cache_hits"), std::string::npos);
  EXPECT_NE(snapshot.find("serve/cache_syncs"), std::string::npos);
  // Every cache counter is exported from the first snapshot on, zeros
  // included: a clean run reads 0, not "missing".
  JsonValue snapshot_doc;
  ASSERT_TRUE(JsonValue::parse(snapshot, &snapshot_doc, &err)) << snapshot;
  const JsonValue* metrics_obj = snapshot_doc.find("metrics");
  const JsonValue* counters =
      metrics_obj != nullptr ? metrics_obj->find("counters") : nullptr;
  ASSERT_NE(counters, nullptr) << snapshot;
  for (const char* name : {"serve/cache_corrupt", "serve/cache_evictions",
                           "serve/cache_compactions"}) {
    const JsonValue* v = counters->find(name);
    ASSERT_NE(v, nullptr) << name << " not exported:\n" << snapshot;
    EXPECT_EQ(v->as_int64(), 0) << name;
  }

  ASSERT_TRUE(send_all(fd, "{\"op\": \"shutdown\"}\n"));
  server.join();
  ::close(fd);
  // The socket file is gone after a clean shutdown.
  EXPECT_NE(::access((dir + "/cpt.sock").c_str(), F_OK), 0);
}

TEST(Service, HigherPriorityRequestsRunFirst) {
  const std::string dir = temp_dir();
  ServiceOptions so;
  so.socket_path = dir + "/cpt.sock";
  so.cache_dir = dir + "/cache";
  so.threads = 2;
  Service service(std::move(so));
  std::string err;
  ASSERT_TRUE(service.start(&err)) << err;
  ServerThread server(service);

  const int fd = connect_to(dir + "/cpt.sock");
  std::string buf;
  // A deliberately heavy first request pins the executor; once its stream
  // header arrives we *know* it is running, so the priority-1 and
  // priority-9 requests sent next are both queued when the executor picks
  // again -- and it must take the priority-9 one despite its later
  // arrival. request_ids are assigned in arrival order (0, 1, 2); done
  // lines surface in execution order.
  constexpr const char* kSlowManifest = R"({
    "name": "slow",
    "base_seed": 19,
    "defaults": {"trials": 8, "epsilon": 0.15, "tester": "planarity"},
    "cells": [
      {"scenario": "gnp", "params": {"n": 400, "avg_degree": 8}},
      {"scenario": "toroidal_grid", "params": {"rows": 16, "cols": 16}}
    ]
  })";
  const auto run_request = [&](const char* manifest, std::int64_t priority) {
    std::string req = "{\"op\": \"run\", \"manifest_text\": ";
    json_append_escaped(req, manifest);
    req += ", \"priority\": " + json_render_int(priority) + "}\n";
    ASSERT_TRUE(send_all(fd, req));
  };
  run_request(kSlowManifest, 0);
  std::string line;
  bool started = false;
  while (!started && recv_line(fd, &buf, &line)) {
    started = line.find("cpt_batch_aggregate_stream_v1") != std::string::npos;
  }
  ASSERT_TRUE(started);
  std::string batch2;
  for (const std::int64_t priority : {1, 9}) {
    batch2 += "{\"op\": \"run\", \"manifest_text\": ";
    json_append_escaped(batch2, kManifest);
    batch2 += ", \"priority\": " + json_render_int(priority) + "}\n";
  }
  ASSERT_TRUE(send_all(fd, batch2));
  std::vector<std::int64_t> done_order;
  while (done_order.size() < 3) {
    const JsonValue done = read_until_done(fd, &buf, nullptr);
    ASSERT_TRUE(done.is_object());
    done_order.push_back(done.find("request_id")->as_int64());
  }
  EXPECT_EQ(done_order[0], 0);  // already running when 1 and 2 arrived
  EXPECT_EQ(done_order[1], 2);  // priority 9 jumps the queue
  EXPECT_EQ(done_order[2], 1);

  server.stop();
  ::close(fd);
}

#ifdef CPT_BATCH_BIN

int run_command(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(status)) << cmd;
  return WEXITSTATUS(status);
}

TEST(Service, ThinClientReproducesServerlessBytes) {
  const std::string dir = temp_dir();
  const std::string sock = dir + "/cpt.sock";
  const std::string manifest_path = dir + "/m.json";
  {
    std::FILE* f = std::fopen(manifest_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(kManifest, f);
    std::fclose(f);
  }
  ServiceOptions so;
  so.socket_path = sock;
  so.cache_dir = dir + "/cache";
  so.threads = 2;
  Service service(std::move(so));
  std::string err;
  ASSERT_TRUE(service.start(&err)) << err;
  ServerThread server(service);

  // Serverless baseline through the real binary at two thread counts.
  const std::string base_cmd =
      std::string(CPT_BATCH_BIN) + " run " + manifest_path + " --quiet";
  ASSERT_EQ(run_command(base_cmd + " --threads=1 --out=" + dir + "/t1.json"),
            0);
  ASSERT_EQ(run_command(base_cmd + " --threads=4 --out=" + dir + "/t4.json"),
            0);
  std::string t1, t4;
  ASSERT_TRUE(read_text_file(dir + "/t1.json", &t1));
  ASSERT_TRUE(read_text_file(dir + "/t4.json", &t4));
  EXPECT_EQ(t1, t4);

  // Thin client, twice: the second run reports 100% cache hits, and both
  // produce the exact serverless bytes.
  for (int round = 0; round < 2; ++round) {
    const std::string out = dir + "/served" + std::to_string(round) + ".json";
    const std::string log = dir + "/served" + std::to_string(round) + ".log";
    ASSERT_EQ(run_command(base_cmd + " --server=" + sock + " --out=" + out +
                          " > " + log),
              0);
  }
  std::string served0, served1;
  ASSERT_TRUE(read_text_file(dir + "/served0.json", &served0));
  ASSERT_TRUE(read_text_file(dir + "/served1.json", &served1));
  EXPECT_EQ(served0, t1);
  EXPECT_EQ(served1, t1);

  // Local-execution flags contradict --server: usage error, not silence.
  EXPECT_EQ(run_command(base_cmd + " --server=" + sock +
                        " --threads=4 2>/dev/null"),
            2);
  EXPECT_EQ(run_command(base_cmd + " --server=" + sock +
                        " --journal=" + dir + "/j 2>/dev/null"),
            2);

  server.stop();

  // The client summary line CI greps for: second run 100% cached. The
  // first run ran under --quiet too, so assert on the second run's file.
  // (--quiet suppresses the line; re-check via a non-quiet run.)
  const std::string sock2 = dir + "/cpt2.sock";
  ServiceOptions so2;
  so2.socket_path = sock2;
  so2.cache_dir = dir + "/cache";
  so2.threads = 2;
  Service service2(std::move(so2));
  ASSERT_TRUE(service2.start(&err)) << err;
  ServerThread server2(service2);
  const std::string log = dir + "/loud.log";
  ASSERT_EQ(run_command(std::string(CPT_BATCH_BIN) + " run " + manifest_path +
                        " --server=" + sock2 + " > " + log),
            0);
  std::string loud;
  ASSERT_TRUE(read_text_file(log, &loud));
  const Manifest m = suite_manifest();
  const std::size_t num_jobs = expand_manifest(m).size();
  const std::string expect_prefix =
      "# serve: " + std::to_string(num_jobs) + " of " +
      std::to_string(num_jobs) + " jobs from result cache";
  EXPECT_NE(loud.find(expect_prefix), std::string::npos) << loud;
  server2.stop();
}

#endif  // CPT_BATCH_BIN

}  // namespace
}  // namespace cpt::scenario
