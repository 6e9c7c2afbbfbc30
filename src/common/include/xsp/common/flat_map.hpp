// FlatMap: fixed-capacity, insertion-ordered flat key/value storage for
// span annotations.
//
// Span tag/metric sets are small and bounded (a layer span carries two tags
// and two metrics; a kernel execution span carries its grid and block as
// inline tags and up to four GPU metrics), so node-based std::map storage
// paid one heap allocation per entry on the publish hot path. FlatMap stores keys and values in separate inline
// arrays (struct-of-arrays keeps double values naturally aligned without
// per-entry padding), making the containing Span trivially copyable: batch
// hand-off and timeline assembly move spans with memcpy and destroy them
// for free.
//
// The capacity is a hard bound: set() beyond it drops the new entry and
// returns false. Producers with unbounded annotations should shard them
// across spans rather than grow one span without limit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

#include "xsp/common/string_table.hpp"

namespace xsp::common {

template <typename V, std::size_t N>
class FlatMap {
  static_assert(std::is_trivially_copyable_v<V>);

 public:
  /// Entry view yielded by iteration.
  struct Entry {
    StrId key;
    V value;
  };

  class const_iterator {
   public:
    const_iterator(const FlatMap* map, std::uint32_t pos) : map_(map), pos_(pos) {}
    Entry operator*() const { return {map_->keys_[pos_], map_->values_[pos_]}; }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator!=(const const_iterator& other) const { return pos_ != other.pos_; }

   private:
    const FlatMap* map_;
    std::uint32_t pos_;
  };

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] static constexpr std::size_t capacity() noexcept { return N; }

  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, count_}; }

  [[nodiscard]] const V* find(StrId key) const noexcept {
    for (std::uint32_t i = 0; i < count_; ++i) {
      if (keys_[i] == key) return &values_[i];
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t count(StrId key) const noexcept { return find(key) ? 1 : 0; }

  /// Throws std::out_of_range like std::map::at.
  [[nodiscard]] const V& at(StrId key) const {
    if (const V* v = find(key)) return *v;
    throw std::out_of_range("FlatMap::at: no entry for \"" + key.str() + '"');
  }

  /// Insert or overwrite. Returns false (dropping the entry) when the map
  /// is full and `key` is not already present.
  bool set(StrId key, V value) noexcept {
    for (std::uint32_t i = 0; i < count_; ++i) {
      if (keys_[i] == key) {
        values_[i] = value;
        return true;
      }
    }
    if (count_ == N) return false;
    keys_[count_] = key;
    values_[count_] = value;
    ++count_;
    return true;
  }

  void clear() noexcept { count_ = 0; }

  /// True when the inline entry count is within capacity. A FlatMap
  /// memcpy'd from an untrusted byte stream (trace::BinaryReader) must
  /// pass this check before iteration — begin()/end() trust count_.
  [[nodiscard]] bool valid() const noexcept { return count_ <= N; }

  /// Rewrite every key in place: key_i = fn(key_i). The wire decoder's
  /// re-interning hook (writer-process StrIds -> this process's table);
  /// requires valid().
  template <typename Fn>
  void remap_keys(Fn&& fn) {
    for (std::uint32_t i = 0; i < count_; ++i) keys_[i] = fn(keys_[i]);
  }

  /// Rewrite every value in place: value_i = fn(value_i). Used by the
  /// wire decoder when V is itself an interned id (TagMap values).
  template <typename Fn>
  void remap_values(Fn&& fn) {
    for (std::uint32_t i = 0; i < count_; ++i) values_[i] = fn(values_[i]);
  }

 private:
  StrId keys_[N] = {};
  V values_[N] = {};
  std::uint32_t count_ = 0;
};

}  // namespace xsp::common
