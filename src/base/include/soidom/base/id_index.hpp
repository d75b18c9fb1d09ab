/// \file id_index.hpp
/// Hash-consing without per-entry allocation: the one index behind
/// BddManager's unique table and NetworkBuilder's structural hashing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace soidom {

/// Three 32-bit fields: a node's kind or variable and its two operands,
/// or the (f, g, h) of an ITE call.
struct Key3 {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;

  friend bool operator==(const Key3&, const Key3&) = default;

  /// Ends with MurmurHash3's 64-bit finalizer (one multiply round), which
  /// spreads every input bit into the low bits that index a table.
  std::uint64_t hash() const {
    std::uint64_t x = ((static_cast<std::uint64_t>(b) << 32) | c) ^
                      (static_cast<std::uint64_t>(a) * 0x9e3779b97f4a7c15ULL);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
  }
};

/// Open-addressed table of 32-bit ids into a node vector the caller owns.
/// The caller says how to read a stored id's key, so lookups compare
/// whole keys and no two keys can alias.  Probing is linear, the table is
/// kept at most half full, and it doubles by re-inserting every id.  Ids
/// are the caller's (creation order in both users); they never change.
class IdIndex {
 public:
  /// Returns the stored id whose node has `key`, as `key_of(id)` reads
  /// it from the caller's nodes.  Otherwise calls `add()`, which creates
  /// the node and returns its new id (it may throw, leaving the index
  /// unchanged), and stores and returns that id.
  template <class KeyOf, class Add>
  std::uint32_t find_or_add(const Key3& key, KeyOf&& key_of, Add&& add) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = key.hash() & mask;
    for (; slots_[i] != kEmpty; i = (i + 1) & mask) {
      if (key_of(slots_[i]) == key) return slots_[i];
    }
    const std::uint32_t id = add();
    slots_[i] = id;
    if (2 * ++count_ > slots_.size()) grow(key_of);
    return id;
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kInitialSlots = 1024;  // a power of two

  template <class KeyOf>
  void grow(KeyOf&& key_of) {
    const std::vector<std::uint32_t> old = std::exchange(
        slots_, std::vector<std::uint32_t>(2 * slots_.size(), kEmpty));
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint32_t id : old) {
      if (id == kEmpty) continue;
      std::size_t i = key_of(id).hash() & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::vector<std::uint32_t> slots_ =
      std::vector<std::uint32_t>(kInitialSlots, kEmpty);
  std::size_t count_ = 0;
};

}  // namespace soidom
