#include "soidom/serve/cache.hpp"

#include <atomic>
#include <fstream>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "soidom/base/fileio.hpp"
#include "soidom/base/hash.hpp"
#include "soidom/base/jsonl.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/guard/fault.hpp"

namespace soidom {
namespace {

constexpr const char* kSpillHeader = R"({"type":"spill","schema":1})";

// Bookkeeping charge per entry on top of the payload strings (list node,
// index slot, counters).  Keeps tiny cones from looking free.
constexpr std::size_t kEntryOverhead = 128;

std::size_t entry_bytes(const std::string& key, const CachedMapping& value) {
  return key.size() + value.dnl.size() + kEntryOverhead;
}

std::string spill_record(const std::string& key, const CachedMapping& value) {
  return jsonl_with_crc(format(
      R"({"type":"cone","cost":%lld,"mm":%d,"key":"%s","dnl":"%s"})",
      static_cast<long long>(value.predicted_cost),
      value.dp_analyzer_mismatches, json_escape(key).c_str(),
      json_escape(value.dnl).c_str()));
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

struct ConeCache::Impl {
  struct Entry {
    std::string key;
    CachedMapping value;
    std::size_t bytes = 0;
  };

  struct Shard {
    std::mutex mutex;
    // Front = most recently used.  The index views into the list nodes'
    // key strings, which are address-stable under splice/erase of other
    // nodes.
    std::list<Entry> lru;
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
  };

  explicit Impl(const ConeCacheOptions& opts)
      : options(opts),
        shard_count(round_up_pow2(opts.shards == 0 ? 1 : opts.shards)),
        shards(shard_count),
        shard_budget(opts.max_bytes / shard_count) {}

  Shard& shard_for(std::uint64_t hash) {
    return shards[hash & (shard_count - 1)];
  }

  /// Insert/refresh under the shard lock; returns true when the entry is
  /// new or its payload changed (i.e. worth spilling).
  bool insert(const ConeKey& key, const CachedMapping& value) {
    Shard& s = shard_for(key.hash);
    std::lock_guard<std::mutex> lock(s.mutex);
    auto it = s.index.find(std::string_view(key.text));
    if (it != s.index.end()) {
      Entry& e = *it->second;
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      if (e.value.dnl == value.dnl &&
          e.value.predicted_cost == value.predicted_cost &&
          e.value.dp_analyzer_mismatches == value.dp_analyzer_mismatches) {
        return false;
      }
      s.bytes -= e.bytes;
      e.value = value;
      e.bytes = entry_bytes(e.key, e.value);
      s.bytes += e.bytes;
      return true;
    }
    s.lru.push_front(Entry{key.text, value, entry_bytes(key.text, value)});
    s.bytes += s.lru.front().bytes;
    s.index.emplace(std::string_view(s.lru.front().key), s.lru.begin());
    // Evict the cold tail past the budget, but always keep the entry we
    // just inserted — a budget smaller than one cone still caches one.
    while (s.bytes > shard_budget && s.lru.size() > 1) {
      const Entry& victim = s.lru.back();
      s.bytes -= victim.bytes;
      s.index.erase(std::string_view(victim.key));
      s.lru.pop_back();
      evictions.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  /// Append one record to the spill (no-op without a spill path).  All
  /// failure modes — injected kServeCacheSpill fault, full disk, bad
  /// fd — are absorbed into the spill_errors counter; the in-memory
  /// cache keeps serving.
  void spill_append(const std::string& line) {
    if (options.spill_path.empty()) return;
    std::lock_guard<std::mutex> lock(spill_mutex);
    try {
      SOIDOM_FAULT_PROBE(FlowStage::kServeCacheSpill);
      if (spill == nullptr) {
        spill =
            std::make_unique<AppendFile>(options.spill_path, options.durable);
        if (!spill_has_header) {
          spill->append_line(jsonl_with_crc(kSpillHeader));
          spill_has_header = true;
        }
      }
      spill->append_line(line);
    } catch (const std::exception&) {
      spill.reset();  // reopen (and re-probe) on the next append
      spill_errors.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const ConeCacheOptions options;
  const std::size_t shard_count;
  std::vector<Shard> shards;
  const std::size_t shard_budget;

  std::mutex spill_mutex;
  std::unique_ptr<AppendFile> spill;
  bool spill_has_header = false;

  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> stores{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> read_faults{0};
  std::atomic<std::uint64_t> corrupt_records{0};
  std::atomic<std::uint64_t> spill_errors{0};
  std::atomic<std::uint64_t> spill_loaded{0};
};

ConeCache::ConeCache(const ConeCacheOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

ConeCache::~ConeCache() = default;

std::optional<CachedMapping> ConeCache::lookup(const ConeKey& key) {
  try {
    SOIDOM_FAULT_PROBE(FlowStage::kServeCacheRead);
  } catch (const std::exception&) {
    // A failed read is a miss, never an error: the mapper recomputes.
    impl_->read_faults.fetch_add(1, std::memory_order_relaxed);
    impl_->misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Impl::Shard& s = impl_->shard_for(key.hash);
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.index.find(std::string_view(key.text));
  if (it == s.index.end()) {
    impl_->misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  impl_->hits.fetch_add(1, std::memory_order_relaxed);
  return it->second->value;
}

void ConeCache::store(const ConeKey& key, const CachedMapping& value) {
  impl_->stores.fetch_add(1, std::memory_order_relaxed);
  if (impl_->insert(key, value) && !impl_->options.spill_path.empty()) {
    impl_->spill_append(spill_record(key.text, value));
  }
}

std::vector<Diagnostic> ConeCache::load_spill() {
  std::vector<Diagnostic> out;
  if (impl_->options.spill_path.empty()) return out;
  const std::string& path = impl_->options.spill_path;
  auto warn = [&](const std::string& message) {
    out.push_back(Diagnostic{ErrorCode::kParseError,
                             FlowStage::kServeCacheRead, message, {}});
  };
  try {
    SOIDOM_FAULT_PROBE(FlowStage::kServeCacheSpill);
  } catch (const std::exception&) {
    impl_->spill_errors.fetch_add(1, std::memory_order_relaxed);
    warn(format("spill %s unreadable (injected fault); starting cold",
                path.c_str()));
    return out;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;  // no spill yet: a cold start, not an error
  std::string line;
  int line_no = 0;
  bool header_seen = false;
  auto skip = [&](const char* why) {
    impl_->corrupt_records.fetch_add(1, std::memory_order_relaxed);
    out.push_back(Diagnostic{
        ErrorCode::kParseError, FlowStage::kServeCacheRead,
        format("spill %s line %d %s; record skipped", path.c_str(), line_no,
               why),
        {}});
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (!header_seen) {
      // The first line must be a valid schema-1 spill header; anything
      // else means a foreign or future-format file — ignore it whole
      // (the next flush_spill rewrites it in the current format).
      int schema = 0;
      std::string type;
      if (jsonl_check(line) != JsonlCheck::kValid ||
          !json_find_string(line, "type", &type) || type != "spill" ||
          !json_find_int(line, "schema", &schema) || schema != 1) {
        warn(format("spill %s has a missing or unsupported header; "
                    "ignoring the file and starting cold",
                    path.c_str()));
        return out;
      }
      header_seen = true;
      continue;
    }
    if (jsonl_check(line) != JsonlCheck::kValid) {
      skip("failed its CRC check (corrupt or torn mid-record)");
      continue;
    }
    std::string type;
    if (!json_find_string(line, "type", &type) || type != "cone") continue;
    std::string key_text;
    CachedMapping value;
    long long cost = 0;
    if (!json_find_string(line, "key", &key_text) || key_text.empty() ||
        !json_find_string(line, "dnl", &value.dnl) ||
        !json_find_int64(line, "cost", &cost) ||
        !json_find_int(line, "mm", &value.dp_analyzer_mismatches)) {
      skip("is missing cone fields");
      continue;
    }
    value.predicted_cost = cost;
    try {
      (void)mapping_from_cached(value);  // reject undecodable payloads now
    } catch (const std::exception&) {
      skip("holds an undecodable netlist payload");
      continue;
    }
    const ConeKey key{key_text, fnv1a64(key_text)};
    impl_->insert(key, value);  // replayed, not re-spilled
    impl_->spill_loaded.fetch_add(1, std::memory_order_relaxed);
  }
  {
    // Records already on disk need no re-append until they change.
    std::lock_guard<std::mutex> lock(impl_->spill_mutex);
    impl_->spill_has_header = header_seen;
  }
  return out;
}

std::vector<Diagnostic> ConeCache::flush_spill() {
  std::vector<Diagnostic> out;
  if (impl_->options.spill_path.empty()) return out;
  std::string content = jsonl_with_crc(kSpillHeader) + "\n";
  for (Impl::Shard& s : impl_->shards) {
    std::lock_guard<std::mutex> lock(s.mutex);
    // Oldest first so a replay ends with today's LRU order intact.
    for (auto it = s.lru.rbegin(); it != s.lru.rend(); ++it) {
      content += spill_record(it->key, it->value);
      content += '\n';
    }
  }
  std::lock_guard<std::mutex> lock(impl_->spill_mutex);
  try {
    SOIDOM_FAULT_PROBE(FlowStage::kServeCacheSpill);
    impl_->spill.reset();  // release the append fd before the rename
    write_file_atomic(impl_->options.spill_path, content);
    impl_->spill_has_header = true;
  } catch (const std::exception& e) {
    impl_->spill_errors.fetch_add(1, std::memory_order_relaxed);
    out.push_back(Diagnostic{
        ErrorCode::kInternal, FlowStage::kServeCacheSpill,
        format("spill %s compaction failed: %s; cache unaffected",
               impl_->options.spill_path.c_str(), e.what()),
        {}});
  }
  return out;
}

ConeCacheStats ConeCache::stats() const {
  ConeCacheStats s;
  s.hits = impl_->hits.load(std::memory_order_relaxed);
  s.misses = impl_->misses.load(std::memory_order_relaxed);
  s.stores = impl_->stores.load(std::memory_order_relaxed);
  s.evictions = impl_->evictions.load(std::memory_order_relaxed);
  s.read_faults = impl_->read_faults.load(std::memory_order_relaxed);
  s.corrupt_records = impl_->corrupt_records.load(std::memory_order_relaxed);
  s.spill_errors = impl_->spill_errors.load(std::memory_order_relaxed);
  s.spill_loaded = impl_->spill_loaded.load(std::memory_order_relaxed);
  return s;
}

std::size_t ConeCache::entries() const {
  std::size_t n = 0;
  for (Impl::Shard& s : impl_->shards) {
    std::lock_guard<std::mutex> lock(s.mutex);
    n += s.lru.size();
  }
  return n;
}

std::size_t ConeCache::bytes() const {
  std::size_t n = 0;
  for (Impl::Shard& s : impl_->shards) {
    std::lock_guard<std::mutex> lock(s.mutex);
    n += s.bytes;
  }
  return n;
}

std::string cache_stats_json(const ConeCacheStats& stats, std::size_t entries,
                             std::size_t bytes) {
  return format(
      R"({"hits":%llu,"misses":%llu,"stores":%llu,"evictions":%llu,)"
      R"("read_faults":%llu,"corrupt_records":%llu,"spill_errors":%llu,)"
      R"("spill_loaded":%llu,"entries":%zu,"bytes":%zu})",
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.stores),
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.read_faults),
      static_cast<unsigned long long>(stats.corrupt_records),
      static_cast<unsigned long long>(stats.spill_errors),
      static_cast<unsigned long long>(stats.spill_loaded), entries, bytes);
}

}  // namespace soidom
