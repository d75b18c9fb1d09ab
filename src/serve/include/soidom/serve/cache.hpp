/// \file cache.hpp
/// The persistent content-addressed cone cache behind the mapping
/// service (docs/SERVE.md).
///
/// ConeCache implements the MapConeCache seam (mapper/cone.hpp): a
/// sharded, mutex-per-shard map from exact cone-key text to the cached
/// mapping, with per-shard LRU eviction under a byte budget.  Keys are
/// compared by full text — the 64-bit content hash only picks the shard
/// and the bucket — so a hash collision degrades to a miss, never to a
/// wrong mapping.
///
/// Persistence uses the checksummed append-only JSONL idiom
/// (base/jsonl.hpp): every store appends one fsync'd record to the
/// spill file; load_spill() replays it tolerantly on restart (corrupt,
/// torn, or version-mismatched records are skipped and reported as
/// structured diagnostics); flush_spill() compacts it atomically on
/// drain.  Every failure mode of the spill degrades to recompute: a
/// cache that cannot read or write its disk is merely cold, never wrong
/// and never fatal — the crash-only contract the service is built on.
///
/// Fault probes: kServeCacheRead fires on every lookup (an injected
/// fault is absorbed as a miss), kServeCacheSpill on every spill append
/// / flush / load (absorbed as a counted spill error).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "soidom/guard/diagnostic.hpp"
#include "soidom/mapper/cone.hpp"

namespace soidom {

struct ConeCacheOptions {
  /// Shard count (rounded up to a power of two, min 1).  More shards =
  /// less lock contention; 16 is plenty below a few hundred workers.
  std::size_t shards = 16;
  /// In-memory byte budget across all shards (keys + payloads).  The
  /// LRU tail of a shard is evicted when the shard exceeds its slice.
  std::size_t max_bytes = std::size_t{256} << 20;
  /// Append-only spill journal path; empty = memory-only cache.
  std::string spill_path;
  /// fsync each spill append (tests turn this off for speed).
  bool durable = true;
};

/// Monotonic counters; exposed in the server report and the stats
/// response.  All counters are process-lifetime (never reset).
struct ConeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;
  /// Lookups dropped to a miss by an injected/real read failure.
  std::uint64_t read_faults = 0;
  /// Spill records skipped for integrity (bad CRC, torn, bad fields).
  std::uint64_t corrupt_records = 0;
  /// Spill appends / flushes that failed (cache stayed serving).
  std::uint64_t spill_errors = 0;
  /// Records successfully replayed by load_spill().
  std::uint64_t spill_loaded = 0;
};

/// {"hits":..,"misses":..,...,"entries":..,"bytes":..}: the cache object
/// of the serve report and of the `stats` response.
std::string cache_stats_json(const ConeCacheStats& stats, std::size_t entries,
                             std::size_t bytes);

class ConeCache : public MapConeCache {
 public:
  explicit ConeCache(const ConeCacheOptions& options);
  ~ConeCache() override;
  ConeCache(const ConeCache&) = delete;
  ConeCache& operator=(const ConeCache&) = delete;

  /// MapConeCache: full-text compare, LRU touch.  Never throws; any
  /// read-side failure (including an injected kServeCacheRead fault)
  /// counts as a miss.
  std::optional<CachedMapping> lookup(const ConeKey& key) override;

  /// MapConeCache: insert/refresh, evict LRU overweight, append to the
  /// spill.  Never throws; a spill-append failure (including an injected
  /// kServeCacheSpill fault) is counted and the in-memory insert stands.
  void store(const ConeKey& key, const CachedMapping& value) override;

  /// Replay the spill journal into memory (typically once at startup).
  /// Returns one structured diagnostic per skipped record (CRC mismatch,
  /// torn line, bad fields) or skipped file (missing/mismatched schema
  /// header); an unreadable or absent file is not an error — the cache
  /// just starts cold.
  std::vector<Diagnostic> load_spill();

  /// Atomically rewrite the spill as one compact snapshot of the current
  /// in-memory contents (dropping evicted/stale/corrupt records), then
  /// continue appending after it.  Called on graceful drain.  Returns
  /// diagnostics for failures (the cache keeps serving regardless).
  std::vector<Diagnostic> flush_spill();

  ConeCacheStats stats() const;
  std::size_t entries() const;
  std::size_t bytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace soidom
