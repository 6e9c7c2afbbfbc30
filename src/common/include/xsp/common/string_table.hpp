// StringTable / StrId: process-wide string interning for the span hot path.
//
// Every profiled event at every stack level becomes a span (paper,
// Section III-A), so at production trace rates the measurement layer's own
// allocation behaviour dominates: two heap strings plus two node-based maps
// per span is what the pre-refactor profile showed. Spans therefore carry
// 32-bit interned ids; the bytes live once, in a sharded global table.
//
// Properties:
//   * reads are lock-free: str(id) / view() / for_each_since load the
//     shard's published size (acquire), bounds-check, and index a chunk,
//   * interning is thread-safe (sharded; a per-thread cache answers
//     repeats, and only a cache miss takes the shard mutex, which guards
//     the lookup index and appends),
//   * ids are stable for the process lifetime — resolution never dangles,
//   * equal strings always intern to the equal id, so span-keyed
//     aggregations compare and hash ids instead of bytes.
//
// Storage: each shard appends its strings to chunked storage. Chunk c
// holds kFirstChunkSlots << c strings and, once allocated, never moves, so
// a resolved reference stays valid while later interns grow the shard. A
// writer constructs the string under the shard mutex and only then
// publishes the new size with a release store; a reader that sees the
// size therefore sees the string.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>

namespace xsp::common {

class StringTable {
 public:
  // Id layout: (slot << kShardBits) | shard. Shard choice follows the
  // string hash so unrelated producers rarely contend on one shard lock.
  // Public because wire serialization walks the table in id order per
  // shard (see Cursor / for_each_since below).
  static constexpr std::uint32_t kShardBits = 4;
  static constexpr std::uint32_t kShardCount = 1u << kShardBits;

  /// Hard per-shard slot ceiling: one more slot and `slot << kShardBits`
  /// would wrap the 32-bit id space and hand out colliding StrIds.
  static constexpr std::uint32_t kMaxSlotsPerShard = 1u << (32 - kShardBits);

  /// The string the reserved over-budget sentinel id resolves to.
  static constexpr std::string_view kSentinel = "<interned-cap>";

  /// The process-wide table all StrIds resolve against. A function-local
  /// static, so namespace-scope StrIds may intern during static
  /// initialisation; defined inline because every StrId read resolves
  /// through it.
  static StringTable& global() {
    static StringTable table;
    return table;
  }

  StringTable();
  ~StringTable();
  StringTable(const StringTable&) = delete;
  StringTable& operator=(const StringTable&) = delete;

  /// Intern `s`, returning its stable id. The empty string is always id 0.
  /// Bounded: once the configured byte budget (set_budget_bytes) is
  /// reached — or a shard runs out of id space — new strings are NOT
  /// interned; the call returns sentinel_id() and bumps
  /// rejected_interns() instead of growing. Already-interned strings
  /// keep resolving to their real ids regardless of the budget.
  std::uint32_t intern(std::string_view s);

  /// Cap the table at roughly `budget` bytes as measured by
  /// approx_bytes(); 0 (the default) means unbounded. Lowering the
  /// budget below current usage rejects all further inserts but never
  /// evicts — ids stay stable for the process lifetime. May be changed
  /// at any time from any thread.
  void set_budget_bytes(std::size_t budget) noexcept {
    budget_bytes_.store(budget, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t budget_bytes() const noexcept {
    return budget_bytes_.load(std::memory_order_relaxed);
  }

  /// Lifetime count of intern() calls rejected by the budget or the
  /// per-shard slot ceiling. Monotonic; each rejected call counts once
  /// (rejections are never cached, so repeated calls keep counting).
  [[nodiscard]] std::uint64_t rejected_interns() const noexcept {
    return rejected_interns_.load(std::memory_order_relaxed);
  }

  /// The id every rejected intern() resolves to; interned at
  /// construction (before any budget applies), so it is always a real,
  /// stable entry that resolves to kSentinel.
  [[nodiscard]] std::uint32_t sentinel_id() const noexcept { return sentinel_id_; }

  /// Test seam: lower the per-shard slot ceiling so the id-space
  /// overflow guard is exercisable without interning 2^28 strings.
  /// Production code must never call this.
  void set_slot_limit_for_testing(std::uint32_t limit) noexcept {
    slot_limit_.store(limit, std::memory_order_relaxed);
  }

  /// Resolve an id without taking a lock. Valid for the lifetime of the
  /// table (the global table never evicts, so resolved references are
  /// stable). Throws std::out_of_range for an id the table never handed
  /// out.
  [[nodiscard]] const std::string& str(std::uint32_t id) const {
    const Shard& shard = shards_[id & (kShardCount - 1)];
    const std::uint32_t slot = id >> kShardBits;
    if (slot >= shard.size.load(std::memory_order_acquire)) [[unlikely]] throw_unknown_id(id);
    return shard.at(slot);
  }
  [[nodiscard]] std::string_view view(std::uint32_t id) const { return str(id); }

  /// Number of distinct strings interned so far.
  [[nodiscard]] std::size_t size() const;

  /// Approximate resident bytes of the table: interned character data
  /// plus a fixed per-entry estimate for the std::string header and the
  /// index slot. O(shard count) — per-shard byte totals are maintained at
  /// insert — so it is cheap enough to sample every snapshot. The table
  /// never evicts, so this only grows: it is the telemetry a long-running
  /// multi-model service watches to see interned-annotation growth
  /// (dynamically composed tag values: grid/block dims, shapes). Under a
  /// byte budget (set_budget_bytes) it plateaus at the budget instead.
  [[nodiscard]] std::size_t approx_bytes() const;

  /// Per-entry overhead charged by approx_bytes() on top of character
  /// data: the chunk slot's std::string header plus one index entry
  /// (string_view key + id + bucket link). Chunk slots allocated but not
  /// yet filled are not charged.
  static constexpr std::size_t kApproxEntryOverhead =
      sizeof(std::string) + sizeof(std::string_view) + sizeof(std::uint32_t) * 2 +
      sizeof(void*);

  /// Position in the table's per-shard intern sequences: everything a
  /// serializer needs to remember to later ask "which strings are new
  /// since I last looked?". Default-constructed, a cursor points at the
  /// beginning of time — the first snapshot delivers the whole table.
  struct Cursor {
    std::array<std::uint32_t, kShardCount> next{};
  };

  /// Visit every (id, string) interned after `cursor` was last advanced,
  /// then advance it past them — the string-table delta a binary wire
  /// writer flushes before the spans that reference the new ids. Ids are
  /// stable and strings append-only, so successive calls with one cursor
  /// partition the table exactly once; the reserved empty string (id 0)
  /// is never delivered. Thread-safe against concurrent intern(): a
  /// string interned while the snapshot runs lands in this delta or the
  /// next one, never in both and never lost. Takes no lock: the walk
  /// stops at each shard's size as published when it reaches that shard,
  /// so the callback may itself intern.
  /// `fn` is called as fn(std::uint32_t id, std::string_view s).
  template <typename Fn>
  void for_each_since(Cursor& cursor, Fn&& fn) const {
    for (std::uint32_t shard_idx = 0; shard_idx < kShardCount; ++shard_idx) {
      const Shard& shard = shards_[shard_idx];
      const std::uint32_t end = shard.size.load(std::memory_order_acquire);
      for (std::uint32_t slot = cursor.next[shard_idx]; slot < end; ++slot) {
        const std::uint32_t id = (slot << kShardBits) | shard_idx;
        if (id != 0) fn(id, std::string_view(shard.at(slot)));
      }
      cursor.next[shard_idx] = end;
    }
  }

 private:
  /// Slots in a shard's first chunk; chunk c holds kFirstChunkSlots << c.
  static constexpr std::uint32_t kFirstChunkBits = 8;
  static constexpr std::uint32_t kFirstChunkSlots = 1u << kFirstChunkBits;
  /// Enough chunks to hold kMaxSlotsPerShard slots.
  static constexpr std::uint32_t kChunkCount = 32 - kShardBits - kFirstChunkBits + 1;

  /// Process-unique table generation: guards per-thread intern caches
  /// against a destroyed table whose address was reused.
  std::uint64_t uid_;

  struct Shard {
    /// Writers and index lookups only; readers never take it.
    std::mutex mu;
    // Views key into the chunks, whose elements never move.
    std::unordered_map<std::string_view, std::uint32_t> index;
    /// Raw storage; slots below `size` hold constructed strings.
    std::array<std::string*, kChunkCount> chunks{};
    /// Published slot count: stored (release) after the slot's string is
    /// constructed, loaded (acquire) before any read.
    std::atomic<std::uint32_t> size{0};
    /// Character bytes interned into this shard (for approx_bytes()).
    std::atomic<std::size_t> bytes{0};

    /// The string in `slot`, which must be below a size loaded (acquire).
    [[nodiscard]] const std::string& at(std::uint32_t slot) const noexcept {
      const SlotPos pos = locate(slot);
      return chunks[pos.chunk][pos.offset];
    }
  };

  struct SlotPos {
    std::uint32_t chunk;
    std::uint32_t offset;
  };
  /// Chunk c starts at slot kFirstChunkSlots * (2^c - 1).
  static constexpr SlotPos locate(std::uint32_t slot) noexcept {
    const auto chunk =
        static_cast<std::uint32_t>(std::bit_width((slot >> kFirstChunkBits) + 1)) - 1;
    return {chunk, slot - ((kFirstChunkSlots << chunk) - kFirstChunkSlots)};
  }

  /// Append `s` to `shard` (its mutex held or not yet shared) and publish
  /// it; returns the new slot.
  static std::uint32_t append(Shard& shard, std::string_view s);

  /// str()'s std::out_of_range, out of line so the read path stays small.
  [[noreturn, gnu::cold]] static void throw_unknown_id(std::uint32_t id);

  std::array<Shard, kShardCount> shards_;

  /// Sum of (char bytes + kApproxEntryOverhead) across all non-reserved
  /// entries — kept equal to approx_bytes() so the budget check is one
  /// relaxed load instead of a 16-shard lock walk (which would also
  /// invert lock order against a concurrent insert on another shard).
  std::atomic<std::size_t> total_bytes_{0};
  std::atomic<std::size_t> budget_bytes_{0};
  std::atomic<std::uint64_t> rejected_interns_{0};
  std::atomic<std::uint32_t> slot_limit_{kMaxSlotsPerShard};
  std::uint32_t sentinel_id_ = 0;
};

/// Interned string id. Implicitly constructible from any string-ish value
/// (which interns into the global table), so call sites read like plain
/// string assignment while storage stays a 32-bit handle.
class StrId {
 public:
  constexpr StrId() noexcept = default;
  StrId(std::string_view s) : id_(StringTable::global().intern(s)) {}  // NOLINT(google-explicit-constructor)
  StrId(const char* s) : StrId(std::string_view(s)) {}                 // NOLINT(google-explicit-constructor)
  StrId(const std::string& s) : StrId(std::string_view(s)) {}          // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::uint32_t raw() const noexcept { return id_; }
  [[nodiscard]] bool empty() const noexcept { return id_ == 0; }

  /// Rebuild a StrId from a raw table id without interning — the binary
  /// wire decoder's path after it re-interned a string delta. The caller
  /// owns validity: resolving an id the table never handed out throws
  /// std::out_of_range (never UB).
  [[nodiscard]] static StrId from_raw(std::uint32_t id) noexcept {
    StrId s;
    s.id_ = id;
    return s;
  }

  [[nodiscard]] const std::string& str() const { return StringTable::global().str(id_); }
  [[nodiscard]] std::string_view view() const { return str(); }
  [[nodiscard]] const char* c_str() const { return str().c_str(); }

  friend bool operator==(StrId a, StrId b) noexcept { return a.id_ == b.id_; }
  friend bool operator!=(StrId a, StrId b) noexcept { return a.id_ != b.id_; }
  // Exact-match text comparisons (avoid ambiguity with the implicit
  // interning constructor; comparing does not intern).
  friend bool operator==(StrId a, std::string_view b) { return a.view() == b; }
  friend bool operator==(std::string_view a, StrId b) { return a == b.view(); }
  friend bool operator==(StrId a, const char* b) { return a.view() == b; }
  friend bool operator==(const char* a, StrId b) { return b.view() == a; }
  friend bool operator==(StrId a, const std::string& b) { return a.view() == b; }
  friend bool operator==(const std::string& a, StrId b) { return b.view() == a; }
  /// Lexicographic, for deterministic presentation-order sorts.
  friend bool operator<(StrId a, StrId b) { return a.id_ != b.id_ && a.view() < b.view(); }

  friend std::ostream& operator<<(std::ostream& os, StrId id) { return os << id.view(); }

 private:
  std::uint32_t id_ = 0;
};

/// Ids of a fixed, enumerated set of strings (operator, library and kernel
/// names), each interned on its first use, so only the strings a process
/// uses enter the table. Held as a function-local static; every lookup
/// after the first is one load (acquire, pairing with the release store
/// that published the id, so any thread may resolve it). A sentinel
/// (over-budget) result is not kept: a later lookup retries.
template <std::size_t N>
class LazyStrIds {
 public:
  /// The id of entry `i`, whose text `text()` yields.
  template <typename TextFn>
  [[nodiscard]] StrId get(std::size_t i, TextFn&& text) {
    std::uint32_t id = ids_[i].load(std::memory_order_acquire);
    if (id == 0) {
      StringTable& table = StringTable::global();
      id = table.intern(text());
      if (id != table.sentinel_id()) ids_[i].store(id, std::memory_order_release);
    }
    return StrId::from_raw(id);
  }

 private:
  std::array<std::atomic<std::uint32_t>, N> ids_{};
};

struct StrIdHash {
  std::size_t operator()(StrId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.raw());
  }
};

}  // namespace xsp::common
