/// \file cone.hpp
/// Content addressing for mapper inputs, and the cone-cache seam the
/// guarded flow consults before running the DP (docs/SERVE.md).
///
/// The cache key is an *exact canonical serialization* of everything the
/// mapper's output depends on: the unate cone (nodes in topological id
/// order, PI literal bindings, output phases) plus a fingerprint of the
/// result-affecting MapperOptions knobs ({Wmax, Hmax, k}, engine,
/// objective, grounding, ...).  MapperOptions::num_threads is
/// deliberately excluded: the mapper never reads it, so it cannot affect
/// the value.
///
/// Hashes are used only for sharding and indexing.  A cache lookup
/// compares the full key text, so a hash collision degrades to a miss —
/// never to a wrong mapping.  This is the load-bearing byte-identity
/// guarantee: two jobs share a cache slot only when the mapper would have
/// been handed byte-identical input, hence would have produced a
/// byte-identical netlist.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "soidom/mapper/mapper.hpp"
#include "soidom/mapper/options.hpp"
#include "soidom/unate/unate.hpp"

namespace soidom {

/// A content address: the canonical key text and its 64-bit hash.
struct ConeKey {
  std::string text;        ///< canonical serialization (schema-versioned)
  std::uint64_t hash = 0;  ///< fnv1a64(text); sharding/indexing only

  friend bool operator==(const ConeKey& a, const ConeKey& b) {
    return a.hash == b.hash && a.text == b.text;
  }
};

/// The result-affecting MapperOptions knobs as one stable line, e.g.
/// "engine=soi objective=area wmax=5 hmax=8 k=1 ...".  Part of the key.
std::string mapper_fingerprint(const MapperOptions& options);

/// Build the content address for mapping `unate` under `options`.
ConeKey cone_key(const UnateResult& unate, const MapperOptions& options);

/// A cached mapping: the .dnl serialization of the mapped netlist plus
/// the DP bookkeeping the flow report needs.  Effort counters
/// (candidates examined, DP levels) are not cached — they describe
/// the run that produced the value, not the value, and no report surface
/// that feeds a manifest includes them.
struct CachedMapping {
  std::string dnl;
  std::int64_t predicted_cost = 0;
  int dp_analyzer_mismatches = 0;
};

/// Encode a fresh mapping for the cache.
CachedMapping cached_from_mapping(const MappingResult& mapped);

/// Reconstruct a MappingResult from a cache hit.  Throws soidom::Error on
/// a malformed .dnl payload; callers must treat that as a miss and
/// recompute (crash-only: a corrupt cache entry never surfaces as a wrong
/// answer or a crash).
MappingResult mapping_from_cached(const CachedMapping& value);

/// The cache interface the flow consults at the kMap stage.  Implemented
/// by serve::ConeCache (sharded LRU + spill journal); tests plug in toy
/// implementations.  Implementations must be safe for concurrent calls.
class MapConeCache {
 public:
  virtual ~MapConeCache() = default;

  /// The cached value for `key`, or nullopt.  Implementations compare the
  /// full key text, not just the hash.
  virtual std::optional<CachedMapping> lookup(const ConeKey& key) = 0;

  /// Insert (or refresh) `key` -> `value`.
  virtual void store(const ConeKey& key, const CachedMapping& value) = 0;
};

}  // namespace soidom
