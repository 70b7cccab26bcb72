// Persistent content-addressed result cache (cpt_serve's reason repeated
// sweeps cost nothing), living next to the corpus store: append-only
// segment files of checksummed JobResult lines, keyed by the job's
// content address.
//
// Key derivation reuses the journal fingerprint's FNV-1a-64 chain over
// exactly the identity a result is a function of: the cell_key string
// (family, params, perturbation, epsilon, tester, mode flags), the
// instance hash (pins the exact graph incl. its seed chain) and the
// tester seed. Deliberately *not* folded: job_index (the same cell can
// appear at different indices across manifests and must still hit) and
// sim_threads (results are bit-identical at every thread count by the
// determinism contract, so a result computed at --threads 4 serves a
// --threads 1 request byte-for-byte).
//
// Layout. Each instance appends to its own segment, seg.<pid>.<n>.cps,
// opened lazily on the first store (its directory entry made durable with
// fsync_parent_dir). A segment is a sequence of lines
//   <16hex key> {"sum": "<16hex>", "rec": {...}}\n
// -- the journal's checksummed record format behind the key, so opening
// a cache indexes it without parsing JSON. store() appends its line with
// one write(2) under a lock: the entry is in the kernel, visible to any
// later open and safe from SIGKILL, before store() returns. Every
// kSyncEvery stores the thread that crosses the boundary runs fdatasync
// (group commit); flush() syncs the rest. run_batch flushes at the end of
// its execute phase, and the destructor flushes too.
//
// Reading. The constructor scans every *.cps segment once, oldest first
// (mtime, then writer pid and counter), drops a torn tail (bytes after a
// segment's last newline) and maps each key to its latest line. store()
// inserts into the same index, so a long-lived instance serves its own
// stores; stores other processes make after this open are not seen until
// the next open (a miss, never a wrong answer). load() checks the line's
// checksum, parses it and verifies the full identity (cell_key text,
// instance hash, seed) against the requesting job under a shared lock, so
// the engine's parallel prescan stays parallel. A 64-bit key collision
// degrades to a miss, never to a wrong result.
//
// Durability. A power cut can lose at most the entries of a running batch
// written since its last sync -- a torn or zeroed tail fails its checksum
// or is dropped at open -- and never makes load() return a wrong result.
// A line that fails validation is kCorrupt: the engine re-executes the
// job and appends a fresh line, which shadows the bad one. Failed results
// are never stored (they may be transient); timed-out results are (a
// round-budget refusal is deterministic).
//
// Compaction. A segment whose writer process is gone (the sweepable_tmp
// pid probe) can be rewritten. When an open finds more than
// kMaxDeadSegments of them, it writes their live entries into one new
// segment (tmp + fsync + durable_rename) and unlinks the sources.
// Corrupt lines are dropped on the way.
//
// Cap. With max_entries > 0 the cache keeps the newest max_entries keys,
// enforced at open and at flush() -- not after every store, so a batch
// can overshoot the cap until it ends. Enforcement evicts the oldest keys
// from the index and compacts this instance's own segment and the dead
// writers' segments; entries in the segments of other live writers stay
// on disk until a later open finds those writers gone.
//
// Legacy <key>.cpr entry files (the one-file-per-entry layout) are not
// read; opening a cache removes them along with orphaned temporaries.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "scenario/engine.h"
#include "scenario/manifest.h"

namespace cpt::scenario {

class ResultCache {
 public:
  // Stores per group commit (fdatasync of the open segment).
  static constexpr std::uint64_t kSyncEvery = 64;
  // Dead writers' segments tolerated at open before compacting them.
  static constexpr std::size_t kMaxDeadSegments = 8;

  // dir = "" disables the cache (every load misses, every store no-ops).
  // max_entries = 0 means unbounded.
  explicit ResultCache(std::string dir, std::uint64_t max_entries = 0);
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  // The 64-bit content address (see file comment for what it folds).
  static std::uint64_t key_for(const Job& job);

  enum class LoadStatus { kMiss, kHit, kCorrupt };

  // kHit fills *out with a result byte-equivalent to re-running the job
  // (same round-trip as journal replay). kCorrupt means the indexed line
  // failed validation -- callers re-execute, exactly like a miss, and the
  // re-store shadows it. Thread-safe against concurrent store()s.
  LoadStatus load(const Job& job, JobResult* out) const;
  // Same, with the job's identity already rendered (id == job.identity()).
  LoadStatus load(const Job& job, const JobIdentity& id,
                  JobResult* out) const;

  // Appends the result under the job's key (a later line replaces an
  // earlier one; both hold equivalent results by the determinism
  // contract). Failed results are rejected (returns false without
  // writing).
  bool store(const Job& job, const JobResult& result);
  // Same, with the job's identity already rendered (id == job.identity()).
  bool store(const Job& job, const JobIdentity& id, const JobResult& result);

  // Makes every store so far durable and enforces max_entries. Returns
  // false when a sync or the cap's rewrite failed.
  bool flush();

  // Monotonic counters since construction (relaxed atomics; exact once
  // concurrent runs quiesce). corrupt counts lines load() rejected;
  // evictions counts keys dropped to enforce max_entries; syncs counts
  // fdatasync/fsync calls on segment data (group commits, flushes,
  // compaction output); compactions counts segment rewrites.
  struct Counters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> corrupt{0};
    std::atomic<std::uint64_t> stores{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> syncs{0};
    std::atomic<std::uint64_t> compactions{0};
  };
  const Counters& counters() const { return counters_; }

 private:
  struct Segment;  // an open append fd; closed when the last holder drops
  struct SegmentFile {
    std::string name;
    bool collectable = false;  // writer gone (or this instance): rewritable
  };
  struct Entry {
    std::string line;  // checksummed record line, no key, no newline
    std::uint64_t seq = 0;  // scan/store order; higher is newer
    std::uint32_t segment = 0;  // index into segments_
  };

  void open_scan();
  // Rewrites the index entries held in collectable segments into one new
  // segment and unlinks those segments, evicting down to max_entries
  // first. Caller holds mu_ exclusively.
  bool compact();
  bool sync(const std::shared_ptr<Segment>& segment);

  std::string dir_;
  std::uint64_t max_entries_ = 0;
  // Guards everything below: shared for load(), exclusive for the rest.
  mutable std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, Entry> index_;
  std::vector<SegmentFile> segments_;
  std::shared_ptr<Segment> segment_;  // this instance's, or null
  std::uint64_t next_seq_ = 0;
  std::uint64_t unsynced_ = 0;  // stores since the last sync
  mutable Counters counters_;  // load() counts too
};

}  // namespace cpt::scenario
