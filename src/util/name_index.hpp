#pragma once
// NameIndex: an open-addressing hash index from names to dense ids that
// stores only the ids.  The names stay in the caller's own storage and are
// read back through a `key_of(id)` callable returning a std::string_view, so
// an index over n names keeps each name once, and a copied owner (a copied
// Circuit, say) needs no re-pointing — the ids are still valid.
//
// Each slot packs a 32-bit hash tag above the 32-bit id, so a probe compares
// strings only on a tag match and growing never re-reads a name.  Linear
// probing at load factor <= 1/2; no erase (names are never removed).

#include <cstdint>
#include <string_view>
#include <vector>

namespace pls::util {

class NameIndex {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::size_t size() const noexcept { return size_; }

  /// Make room for `n` names without growing.
  void reserve(std::size_t n) {
    std::size_t cap = 16;
    while (cap < 2 * n) cap *= 2;
    if (cap > slots_.size()) rehash(cap);
  }

  /// The id stored under `name`, or kNone.
  template <class KeyOf>
  std::uint32_t find(std::string_view name, const KeyOf& key_of) const {
    if (slots_.empty()) return kNone;
    const std::uint32_t tag = hash(name);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      const std::uint64_t s = slots_[i];
      if (s == kEmpty) return kNone;
      const auto id = static_cast<std::uint32_t>(s);
      if (static_cast<std::uint32_t>(s >> 32) == tag && key_of(id) == name) {
        return id;
      }
    }
  }

  /// Index `id` under the name key_of(id), unless that name is already
  /// present.  Returns the id now stored under the name: `id` itself when
  /// it was inserted, the earlier id otherwise.
  template <class KeyOf>
  std::uint32_t insert(std::uint32_t id, const KeyOf& key_of) {
    if (2 * (size_ + 1) > slots_.size()) {
      rehash(slots_.empty() ? 16 : 2 * slots_.size());
    }
    const std::string_view name = key_of(id);
    const std::uint32_t tag = hash(name);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      const std::uint64_t s = slots_[i];
      if (s == kEmpty) {
        slots_[i] = (std::uint64_t{tag} << 32) | id;
        ++size_;
        return id;
      }
      const auto other = static_cast<std::uint32_t>(s);
      if (static_cast<std::uint32_t>(s >> 32) == tag &&
          key_of(other) == name) {
        return other;
      }
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// FNV-1a, then a 64-bit finalizer so the low bits (the probe start)
  /// depend on every byte.
  static std::uint32_t hash(std::string_view s) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 0x100000001b3ULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::uint32_t>(h);
  }

  void rehash(std::size_t cap) {
    std::vector<std::uint64_t> old(cap, kEmpty);
    old.swap(slots_);
    const std::size_t mask = cap - 1;
    for (std::uint64_t s : old) {
      if (s == kEmpty) continue;
      std::size_t i = static_cast<std::uint32_t>(s >> 32) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
};

}  // namespace pls::util
