// A small open-addressing hash table: one array of caller-defined slots,
// linear probing, backward-shift erase.
//
// The caches on PXFS's open path (the name cache, the extent-map cache) use
// it so a hit reads one slot in place instead of walking bucket -> node.
// The slot type carries its key and value inline and tells the table three
// things:
//   * `Slot()` is an empty slot, and `empty()` says whether a slot is one;
//   * `hash()` is the hash of an occupied slot's key (its home is
//     `hash() & (capacity - 1)`);
//   * slots are moved with their move constructor and assignment.
// Lookups take the hash and a predicate, so keys need not be stored in any
// particular form; SlotKey below stores a string key in the slot.
//
// Entries move: an erase shifts later entries of its probe run back by one,
// and growth rehashes every entry. An index or reference to a slot is valid
// only until the next Insert, Erase or Clear. A sweep by index (a CLOCK
// hand) that erases slot `i` looks at slot `i` again: an entry from further
// on may have moved into it. Entries shift back only within their run, so
// such a sweep misses none (one moved across the end of the array may be
// seen twice).
//
// Not thread-safe; callers guard the table with their own lock.
#ifndef AERIE_SRC_COMMON_OPEN_TABLE_H_
#define AERIE_SRC_COMMON_OPEN_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace aerie {

template <typename Slot>
class OpenTable {
 public:
  static constexpr size_t kNone = ~size_t{0};

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  Slot& at(size_t i) { return slots_[i]; }
  const Slot& at(size_t i) const { return slots_[i]; }

  // Index of the occupied slot with `hash` for which `match(slot)` holds,
  // or kNone.
  template <typename Match>
  size_t Find(uint64_t hash, Match&& match) const {
    if (slots_.empty()) {
      return kNone;
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.empty()) {
        return kNone;
      }
      if (match(slot)) {
        return i;
      }
    }
  }

  // Moves `slot` (occupied, its key absent) into the table, growing it
  // first if the load would pass 3/4; returns its index.
  size_t Insert(Slot slot) {
    if (4 * (size_ + 1) > 3 * slots_.size()) {
      Grow();
    }
    ++size_;
    return Place(std::move(slot));
  }

  // Empties slot `i`, then shifts back each later entry of the run that
  // may sit in the hole without passing its home.
  void Erase(size_t i) {
    AERIE_CHECK(i < slots_.size() && !slots_[i].empty());
    const size_t mask = slots_.size() - 1;
    size_t hole = i;
    for (size_t j = (i + 1) & mask; !slots_[j].empty(); j = (j + 1) & mask) {
      const size_t home = slots_[j].hash() & mask;
      // Entry j may move to the hole if the hole is no further from j than
      // its home is (both distances taken backwards, around the end).
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot();
    --size_;
  }

  // Drops every entry and frees the array.
  void Clear() {
    slots_ = std::vector<Slot>();
    size_ = 0;
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  size_t Place(Slot slot) {
    const size_t mask = slots_.size() - 1;
    size_t i = slot.hash() & mask;
    while (!slots_[i].empty()) {
      i = (i + 1) & mask;
    }
    slots_[i] = std::move(slot);
    return i;
  }

  void Grow() {
    std::vector<Slot> old(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    old.swap(slots_);
    for (Slot& slot : old) {
      if (!slot.empty()) {
        Place(std::move(slot));
      }
    }
  }

  std::vector<Slot> slots_;  // capacity: 0 or a power of two
  size_t size_ = 0;
};

// A string key kept in the slot: up to kInline bytes in place, a longer key
// copied to the heap (a probe compares it all the same). 44 bytes, so a
// slot with a 32-bit tag and two words beside it fills one cache line.
class SlotKey {
 public:
  static constexpr size_t kInline = 40;

  SlotKey() = default;
  explicit SlotKey(std::string_view key)
      : len_(static_cast<uint32_t>(key.size())) {
    AERIE_CHECK(key.size() <= UINT32_MAX);
    char* dst = bytes_;
    if (len_ > kInline) {
      dst = new char[len_];
      std::memcpy(bytes_, &dst, sizeof(dst));
    }
    std::memcpy(dst, key.data(), len_);
  }
  SlotKey(SlotKey&& other) noexcept { *this = std::move(other); }
  SlotKey& operator=(SlotKey&& other) noexcept {
    if (this != &other) {
      Free();
      std::memcpy(bytes_, other.bytes_, kInline);
      len_ = other.len_;
      other.len_ = 0;  // a heap copy now belongs to this key
    }
    return *this;
  }
  ~SlotKey() { Free(); }

  std::string_view view() const { return {data(), len_}; }
  bool on_heap() const { return len_ > kInline; }

 private:
  const char* data() const {
    if (!on_heap()) {
      return bytes_;
    }
    const char* heap = nullptr;
    std::memcpy(&heap, bytes_, sizeof(heap));
    return heap;
  }
  void Free() {
    if (on_heap()) {
      delete[] data();
    }
  }

  char bytes_[kInline] = {};  // the key, or the address of its heap copy
  uint32_t len_ = 0;
};
static_assert(sizeof(SlotKey) == 44);

}  // namespace aerie

#endif  // AERIE_SRC_COMMON_OPEN_TABLE_H_
