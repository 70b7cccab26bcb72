#include "scenario/result_cache.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <string_view>
#include <tuple>
#include <utility>

#include "scenario/journal.h"
#include "scenario/json.h"
#include "scenario/registry.h"
#include "util/fsio.h"

namespace cpt::scenario {

namespace {

// Segment names: seg.<pid>.<n>.cps ("cpt result segment"). The suffix
// keeps the cache dir shareable with the corpus (.cpg) without either
// store's sweeps or globs matching the other's files; the pid lets an
// open tell a dead writer's segment from a live one.
constexpr std::string_view kSegmentPrefix = "seg.";
constexpr std::string_view kSegmentSuffix = ".cps";
constexpr std::size_t kKeyPrefixLen = 17;  // 16 hex digits + ' '
constexpr std::uint32_t kCompacted = ~std::uint32_t{0};  // remap marker

std::string new_segment_name() {
  // Process-wide, like unique_tmp_path: two instances in one process
  // never share a segment.
  static std::atomic<std::uint64_t> counter{0};
  char name[64];
  std::snprintf(name, sizeof name, "seg.%ld.%llu.cps",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));
  return name;
}

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

// key_for over an already rendered identity: load and store need the
// cell_key text and instance hash too, and rendering them (each renders
// the instance label) is most of a store's CPU time.
std::uint64_t content_key(const std::string& cell_key,
                          std::uint64_t instance_hash,
                          std::uint64_t tester_seed) {
  std::uint64_t h = fnv1a64("cpt_result_v1");
  h = fnv_fold_bytes(h, cell_key.data(), cell_key.size());
  h = fnv_fold_u64(h, instance_hash);
  h = fnv_fold_u64(h, tester_seed);
  return h;
}

}  // namespace

struct ResultCache::Segment {
  int fd = -1;
  std::uint32_t index = 0;  // slot in segments_
  Segment(int f, std::uint32_t i) : fd(f), index(i) {}
  ~Segment() { ::close(fd); }
};

ResultCache::ResultCache(std::string dir, std::uint64_t max_entries)
    : dir_(std::move(dir)), max_entries_(max_entries) {
  if (!dir_.empty()) open_scan();
}

ResultCache::~ResultCache() { flush(); }

void ResultCache::open_scan() {
  struct Found {
    std::string name;
    std::int64_t mtime_ns;
    long pid;
    unsigned long long n;
  };
  std::vector<Found> found;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;  // created on the first store
  while (const dirent* entry = ::readdir(d)) {
    const std::string_view name = entry->d_name;
    const std::string path = dir_ + "/" + entry->d_name;
    // The one-file-per-entry layout (<key>.cpr and its publish temps) is
    // never read; orphaned compaction temps are swept once their owning
    // pid is gone.
    if (name.find(".cpr") != std::string_view::npos ||
        sweepable_tmp(entry->d_name, ".cps.tmp")) {
      std::remove(path.c_str());
      continue;
    }
    if (!name.starts_with(kSegmentPrefix) || !name.ends_with(kSegmentSuffix)) {
      continue;
    }
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0) continue;
    Found f{entry->d_name,
            static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                st.st_mtim.tv_nsec,
            0, 0};
    if (std::sscanf(entry->d_name, "seg.%ld.%llu.cps", &f.pid, &f.n) != 2) {
      f.pid = 0;
      f.n = 0;
    }
    found.push_back(std::move(f));
  }
  ::closedir(d);
  // Oldest first, so a later line for a key replaces an earlier one.
  // mtime ties (coarse filesystem clocks) fall back to the writer's pid
  // and counter, which order one process's segments by creation.
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return std::tie(a.mtime_ns, a.pid, a.n, a.name) <
           std::tie(b.mtime_ns, b.pid, b.n, b.name);
  });

  std::size_t dead = 0;
  std::string text;
  for (const Found& f : found) {
    // A segment a concurrent compaction just unlinked is simply skipped:
    // its entries are in the compacted segment or are a miss.
    if (!read_text_file(dir_ + "/" + f.name, &text)) continue;
    // The owner probe of the publish-temp sweep: "seg" is the marker, the
    // pid follows it.
    const bool writer_gone = sweepable_tmp(f.name.c_str(), "seg");
    if (writer_gone) ++dead;
    const auto segment = static_cast<std::uint32_t>(segments_.size());
    segments_.push_back({f.name, writer_gone});
    // Bytes after the last newline are a torn tail: dropped.
    const std::size_t end = text.rfind('\n');
    if (end == std::string::npos) continue;
    const std::string_view body(text.data(), end + 1);
    for (std::size_t pos = 0; pos < body.size();) {
      const std::size_t nl = body.find('\n', pos);
      const std::string_view line = body.substr(pos, nl - pos);
      pos = nl + 1;
      std::uint64_t key = 0;
      if (line.size() <= kKeyPrefixLen || line[kKeyPrefixLen - 1] != ' ' ||
          !parse_hex16(line.substr(0, kKeyPrefixLen - 1), &key)) {
        continue;  // no key to file it under; a miss for whoever owned it
      }
      Entry& e = index_[key];
      e.line.assign(line.substr(kKeyPrefixLen));
      e.seq = next_seq_++;
      e.segment = segment;
    }
  }
  if (dead > kMaxDeadSegments ||
      (max_entries_ > 0 && index_.size() > max_entries_)) {
    compact();
  }
}

std::uint64_t ResultCache::key_for(const Job& job) {
  return content_key(job.cell_key(), job.instance.hash(), job.tester_seed);
}

ResultCache::LoadStatus ResultCache::load(const Job& job,
                                          JobResult* out) const {
  if (!enabled()) return LoadStatus::kMiss;
  const std::string cell_key = job.cell_key();
  const std::uint64_t job_instance = job.instance.hash();
  const std::uint64_t cache_key =
      content_key(cell_key, job_instance, job.tester_seed);
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = index_.find(cache_key);
  if (it == index_.end()) {
    counters_.misses.fetch_add(1, std::memory_order_relaxed);
    return LoadStatus::kMiss;
  }
  const auto corrupt = [&] {
    counters_.corrupt.fetch_add(1, std::memory_order_relaxed);
    return LoadStatus::kCorrupt;
  };
  std::string_view rec_text;
  JsonValue rec;
  std::string jerr;
  if (!split_checksummed_line(it->second.line, &rec_text) ||
      !JsonValue::parse(rec_text, &rec, &jerr) || !rec.is_object()) {
    return corrupt();
  }
  // Full identity check, not just the key: the record's cell_key text,
  // instance hash and seed must all match the requesting job, so a 64-bit
  // key collision can never serve a wrong result.
  const JsonValue* schema = rec.find("schema");
  const JsonValue* key = rec.find("key");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "cpt_result_v1" || key == nullptr ||
      !key->is_string()) {
    return corrupt();
  }
  const auto rec_hex_u64 = [&rec](const char* field, std::uint64_t* out) {
    const JsonValue* v = rec.find(field);
    return v != nullptr && v->is_string() && parse_hex16(v->as_string(), out);
  };
  std::uint64_t instance_hash = 0, seed = 0;
  if (!rec_hex_u64("instance", &instance_hash) || !rec_hex_u64("seed", &seed)) {
    return corrupt();
  }
  if (key->as_string() != cell_key || instance_hash != job_instance ||
      seed != job.tester_seed) {
    // A valid entry for a different job: a key collision. Not corruption
    // of the line, but a miss for us.
    counters_.misses.fetch_add(1, std::memory_order_relaxed);
    return LoadStatus::kMiss;
  }
  JobResult r;
  std::string perr;
  if (!parse_result_fields(rec, &r, &perr)) return corrupt();
  counters_.hits.fetch_add(1, std::memory_order_relaxed);
  *out = std::move(r);
  return LoadStatus::kHit;
}

bool ResultCache::store(const Job& job, const JobResult& result) {
  if (!enabled() || result.failed) return false;
  const std::string cell_key = job.cell_key();
  const std::uint64_t instance_hash = job.instance.hash();
  std::string rec = "{\"schema\": \"cpt_result_v1\", \"key\": ";
  json_append_escaped(rec, cell_key);
  // Hex16, not bare integers: instance hashes and derived seeds use the
  // full u64 range, and the JSON parser demotes integers above INT64_MAX
  // to double -- the low bits the identity check depends on would vanish.
  rec += ", \"instance\": \"" + fnv_hex16(instance_hash) + "\"";
  rec += ", \"seed\": \"" + fnv_hex16(job.tester_seed) + "\"";
  append_result_fields(rec, result);
  rec += "}";
  const std::uint64_t key =
      content_key(cell_key, instance_hash, job.tester_seed);
  const std::string line = fnv_hex16(key) + " " + checksummed_record_line(rec);

  std::shared_ptr<Segment> to_sync;
  bool written = false;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (segment_ == nullptr) {
      ::mkdir(dir_.c_str(), 0755);  // EEXIST is fine; failures surface at open
      const std::string name = new_segment_name();
      const std::string path = dir_ + "/" + name;
      const int fd =
          ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC,
                 0644);
      if (fd < 0) return false;
      if (!fsync_parent_dir(path)) {
        ::close(fd);
        std::remove(path.c_str());
        return false;
      }
      // This instance is the segment's only writer, so a compaction of
      // its own may rewrite it.
      segments_.push_back({name, true});
      segment_ = std::make_shared<Segment>(
          fd, static_cast<std::uint32_t>(segments_.size() - 1));
    }
    written = write_all(segment_->fd, line);
    if (written) {
      Entry& e = index_[key];
      e.line.assign(line, kKeyPrefixLen, line.size() - kKeyPrefixLen - 1);
      e.seq = next_seq_++;
      e.segment = segment_->index;
      counters_.stores.fetch_add(1, std::memory_order_relaxed);
      if (++unsynced_ >= kSyncEvery) {
        unsynced_ = 0;
        to_sync = segment_;
      }
    } else {
      // Whatever part of the line landed is this segment's torn tail;
      // later stores start a fresh segment rather than append after it.
      // The segment's earlier stores still get their sync.
      to_sync = std::move(segment_);
      unsynced_ = 0;
    }
  }
  // Group commit outside the lock: other workers keep appending while
  // this one waits for the disk.
  if (to_sync != nullptr) sync(to_sync);
  return written;
}

bool ResultCache::sync(const std::shared_ptr<Segment>& segment) {
  counters_.syncs.fetch_add(1, std::memory_order_relaxed);
  return ::fdatasync(segment->fd) == 0;
}

bool ResultCache::flush() {
  if (!enabled()) return true;
  std::shared_ptr<Segment> tail;
  bool ok = true;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (unsynced_ > 0) tail = segment_;
    unsynced_ = 0;
    if (max_entries_ > 0 && index_.size() > max_entries_) {
      // A successful compaction rewrote (and synced) every entry of this
      // instance's segment it kept, then unlinked the segment.
      ok = compact();
      if (ok) tail.reset();
    }
  }
  if (tail != nullptr) ok = sync(tail) && ok;
  return ok;
}

bool ResultCache::compact() {
  // Evict the oldest keys past the cap, wherever they live.
  if (max_entries_ > 0 && index_.size() > max_entries_) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> by_age;  // seq, key
    by_age.reserve(index_.size());
    for (const auto& [key, e] : index_) by_age.emplace_back(e.seq, key);
    const std::size_t excess = index_.size() - max_entries_;
    std::nth_element(by_age.begin(), by_age.begin() + (excess - 1),
                     by_age.end());
    for (std::size_t i = 0; i < excess; ++i) index_.erase(by_age[i].second);
    counters_.evictions.fetch_add(excess, std::memory_order_relaxed);
  }

  // The surviving entries of every collectable segment, oldest first, so
  // the next open reads them back in the same relative order. Lines that
  // fail their checksum are dropped rather than carried forward.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keep;  // seq, key
  std::vector<std::uint64_t> drop;
  for (const auto& [key, e] : index_) {
    if (!segments_[e.segment].collectable) continue;
    std::string_view rec_text;
    if (split_checksummed_line(e.line, &rec_text)) {
      keep.emplace_back(e.seq, key);
    } else {
      drop.push_back(key);
    }
  }
  for (const std::uint64_t key : drop) index_.erase(key);
  if (std::none_of(segments_.begin(), segments_.end(),
                   [](const SegmentFile& s) { return s.collectable; })) {
    return true;  // every entry lives with a live writer: nothing to rewrite
  }
  std::sort(keep.begin(), keep.end());

  const std::string name = new_segment_name();
  if (!keep.empty()) {
    std::string body;
    for (const auto& [seq, key] : keep) {
      body += fnv_hex16(key);
      body += ' ';
      body += index_.at(key).line;
      body += '\n';
    }
    const std::string final_path = dir_ + "/" + name;
    const std::string tmp_path = unique_tmp_path(final_path);
    const int fd =
        ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd < 0) return false;
    bool ok = write_all(fd, body) && ::fsync(fd) == 0;
    counters_.syncs.fetch_add(1, std::memory_order_relaxed);
    ok = ::close(fd) == 0 && ok;
    if (ok) ok = durable_rename(tmp_path, final_path);
    if (!ok) {
      std::remove(tmp_path.c_str());
      return false;  // sources untouched: nothing lost, nothing compacted
    }
  }

  // The compacted entries now live in `name`; the sources go. This
  // instance's own segment is among them, so later stores open a new one.
  segment_.reset();
  std::vector<SegmentFile> survivors;
  std::vector<std::uint32_t> remap(segments_.size());
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].collectable) {
      std::remove((dir_ + "/" + segments_[i].name).c_str());
      remap[i] = kCompacted;
    } else {
      remap[i] = static_cast<std::uint32_t>(survivors.size());
      survivors.push_back(segments_[i]);
    }
  }
  const auto compacted = static_cast<std::uint32_t>(survivors.size());
  if (!keep.empty()) survivors.push_back({name, true});
  for (auto& [key, e] : index_) {
    e.segment = remap[e.segment] == kCompacted ? compacted : remap[e.segment];
  }
  segments_ = std::move(survivors);
  counters_.compactions.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace cpt::scenario
