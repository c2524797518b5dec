// FlatMap / FlatSet: open-addressing hash containers for the hot tick
// path, keyed on the library's 64-bit ids.
//
// Layout: one allocation holding a power-of-two array of entries followed
// by one state byte per slot (0 = empty, 1 = full). Linear probing from
// the mixed hash of the key; maximum load factor 3/4. Deletion is
// tombstone-free backward-shift: the probe chain after the erased slot is
// compacted in place, so lookup cost never degrades with churn and a
// table's memory never holds dead entries.
//
// Iteration order is a function of capacity + insertion/erasure history
// and is NOT deterministic across containers with different histories.
// That is safe here by construction: every canonical engine output is
// sorted before emission (CanonicalizeUpdates, SortedAnswer, the id sorts
// in the tick passes), so hash iteration order is never observable. Do
// not let it leak into new outputs.
//
// Thread-compatible like the std containers: const member functions are
// pure reads (no mutable members), so concurrent readers are safe as
// long as no thread mutates.
//
// Keys are value types convertible to/from uint64_t (ObjectId, QueryId).
// Any key value is legal, including 0 and ~0: occupancy lives in the
// state byte, not in a reserved sentinel key.

#ifndef STQ_COMMON_FLAT_HASH_H_
#define STQ_COMMON_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>

#include "stq/common/check.h"

namespace stq {

// Finalizer of MurmurHash3 (splitmix64's mixing core). Ids are often
// small consecutive integers; the mixer spreads them across the whole
// 64-bit range so linear probing sees no primary clustering.
inline uint64_t MixId64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

namespace flat_internal {

// Shared open-addressing core. `Entry` is the stored element; `KeyOf`
// extracts its uint64 key. FlatMap/FlatSet below are thin typed wrappers.
template <typename Entry, typename KeyOf>
class FlatTable {
 public:
  FlatTable() = default;

  FlatTable(const FlatTable& other) { CopyFrom(other); }

  FlatTable(FlatTable&& other) noexcept
      : entries_(other.entries_),
        states_(other.states_),
        capacity_(other.capacity_),
        size_(other.size_) {
    other.entries_ = nullptr;
    other.states_ = nullptr;
    other.capacity_ = 0;
    other.size_ = 0;
  }

  FlatTable& operator=(const FlatTable& other) {
    if (this == &other) return *this;
    Deallocate();
    CopyFrom(other);
    return *this;
  }

  FlatTable& operator=(FlatTable&& other) noexcept {
    if (this == &other) return *this;
    Deallocate();
    entries_ = other.entries_;
    states_ = other.states_;
    capacity_ = other.capacity_;
    size_ = other.size_;
    other.entries_ = nullptr;
    other.states_ = nullptr;
    other.capacity_ = 0;
    other.size_ = 0;
    return *this;
  }

  ~FlatTable() { Deallocate(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  // Destroys all entries; keeps the slot array for reuse.
  void clear() {
    if (size_ > 0) {
      for (size_t i = 0; i < capacity_; ++i) {
        if (states_[i]) entries_[i].~Entry();
      }
      std::memset(states_, 0, capacity_);
      size_ = 0;
    }
  }

  // Ensures `n` entries fit without rehashing.
  void reserve(size_t n) {
    size_t cap = NormalizeCapacity(n);
    if (cap > capacity_) Rehash(cap);
  }

  // Gives memory back once erasures leave the table under 1/16 full, by
  // rehashing to the smallest capacity that holds the live entries. The
  // gap to the 3/4 growth load keeps a table from thrashing.
  void ShrinkIfSparse() {
    if (capacity_ > kMinCapacity && size_ * 16 < capacity_) {
      Rehash(NormalizeCapacity(size_));
    }
  }

  // Index of the slot holding `key`, or npos.
  size_t FindSlot(uint64_t key) const {
    if (capacity_ == 0) return npos;
    const size_t mask = capacity_ - 1;
    size_t i = MixId64(key) & mask;
    while (states_[i]) {
      if (static_cast<uint64_t>(KeyOf()(entries_[i])) == key) return i;
      i = (i + 1) & mask;
    }
    return npos;
  }

  // Finds the slot for `key`, inserting a new entry built by `make` (a
  // callable invoked as make(void* slot) placement-constructing the
  // entry) when absent. Returns {slot, inserted}.
  template <typename MakeEntry>
  std::pair<size_t, bool> FindOrInsert(uint64_t key, MakeEntry&& make) {
    if (capacity_ == 0) Rehash(kMinCapacity);
    size_t mask = capacity_ - 1;
    size_t i = MixId64(key) & mask;
    while (states_[i]) {
      if (static_cast<uint64_t>(KeyOf()(entries_[i])) == key) return {i, false};
      i = (i + 1) & mask;
    }
    if ((size_ + 1) * 4 > capacity_ * 3) {
      Rehash(capacity_ * 2);
      mask = capacity_ - 1;
      i = MixId64(key) & mask;
      while (states_[i]) i = (i + 1) & mask;
    }
    make(static_cast<void*>(entries_ + i));
    states_[i] = 1;
    ++size_;
    return {i, true};
  }

  // Backward-shift deletion of the entry in `slot`: walk the probe chain
  // after it and pull back every entry whose probe distance allows it, so
  // no tombstone is left behind.
  void EraseSlot(size_t slot) {
    STQ_DCHECK(states_[slot]);
    const size_t mask = capacity_ - 1;
    entries_[slot].~Entry();
    states_[slot] = 0;
    --size_;
    size_t hole = slot;
    size_t j = (hole + 1) & mask;
    while (states_[j]) {
      const size_t ideal = MixId64(static_cast<uint64_t>(KeyOf()(entries_[j]))) & mask;
      // Distance from the entry's ideal slot to j, vs. from the hole to
      // j: when the former is at least the latter, the entry may move
      // back into the hole without breaking its probe chain.
      if (((j - ideal) & mask) >= ((j - hole) & mask)) {
        ::new (static_cast<void*>(entries_ + hole))
            Entry(std::move(entries_[j]));
        entries_[j].~Entry();
        states_[hole] = 1;
        states_[j] = 0;
        hole = j;
      }
      j = (j + 1) & mask;
    }
  }

  Entry* entries() const { return entries_; }
  const uint8_t* states() const { return states_; }

  static constexpr size_t npos = static_cast<size_t>(-1);

 private:
  static constexpr size_t kMinCapacity = 8;

  // Smallest power-of-two capacity holding `n` entries at load <= 3/4.
  static size_t NormalizeCapacity(size_t n) {
    size_t cap = kMinCapacity;
    while (n * 4 > cap * 3) cap *= 2;
    return cap;
  }

  static Entry* AllocateBlock(size_t cap, uint8_t** states) {
    const size_t bytes = cap * sizeof(Entry) + cap;
    void* raw;
    if constexpr (alignof(Entry) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      raw = ::operator new(bytes, std::align_val_t(alignof(Entry)));
    } else {
      raw = ::operator new(bytes);
    }
    *states = reinterpret_cast<uint8_t*>(raw) + cap * sizeof(Entry);
    std::memset(*states, 0, cap);
    return static_cast<Entry*>(raw);
  }

  static void FreeBlock(Entry* block) {
    if constexpr (alignof(Entry) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      ::operator delete(static_cast<void*>(block),
                        std::align_val_t(alignof(Entry)));
    } else {
      ::operator delete(static_cast<void*>(block));
    }
  }

  void Rehash(size_t new_capacity) {
    if (new_capacity < kMinCapacity) new_capacity = kMinCapacity;
    uint8_t* new_states = nullptr;
    Entry* new_entries = AllocateBlock(new_capacity, &new_states);
    const size_t mask = new_capacity - 1;
    for (size_t i = 0; i < capacity_; ++i) {
      if (!states_[i]) continue;
      size_t j =
          MixId64(static_cast<uint64_t>(KeyOf()(entries_[i]))) & mask;
      while (new_states[j]) j = (j + 1) & mask;
      ::new (static_cast<void*>(new_entries + j)) Entry(std::move(entries_[i]));
      new_states[j] = 1;
      entries_[i].~Entry();
    }
    if (entries_ != nullptr) FreeBlock(entries_);
    entries_ = new_entries;
    states_ = new_states;
    capacity_ = new_capacity;
  }

  // Same capacity, same slot assignment: a structural clone.
  void CopyFrom(const FlatTable& other) {
    entries_ = nullptr;
    states_ = nullptr;
    capacity_ = 0;
    size_ = 0;
    if (other.capacity_ == 0) return;
    entries_ = AllocateBlock(other.capacity_, &states_);
    capacity_ = other.capacity_;
    for (size_t i = 0; i < capacity_; ++i) {
      if (!other.states_[i]) continue;
      ::new (static_cast<void*>(entries_ + i)) Entry(other.entries_[i]);
      states_[i] = 1;
    }
    size_ = other.size_;
  }

  void Deallocate() {
    if (entries_ == nullptr) return;
    clear();
    FreeBlock(entries_);
    entries_ = nullptr;
    states_ = nullptr;
    capacity_ = 0;
  }

  Entry* entries_ = nullptr;
  uint8_t* states_ = nullptr;  // tail of the entry block, one byte/slot
  size_t capacity_ = 0;        // 0 or a power of two
  size_t size_ = 0;
};

// Forward iterator over the full slots of a FlatTable. Invalidated by any
// mutation of the table (rehash moves entries; erase backward-shifts).
template <typename Table, typename Entry, typename Value>
class FlatIterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = Value;
  using difference_type = std::ptrdiff_t;
  using pointer = Value*;
  using reference = Value&;

  FlatIterator() = default;
  FlatIterator(Table* table, size_t index) : table_(table), index_(index) {
    SkipEmpty();
  }

  reference operator*() const {
    return reinterpret_cast<reference>(table_->entries()[index_]);
  }
  pointer operator->() const { return &**this; }

  FlatIterator& operator++() {
    ++index_;
    SkipEmpty();
    return *this;
  }
  FlatIterator operator++(int) {
    FlatIterator tmp = *this;
    ++*this;
    return tmp;
  }

  size_t index() const { return index_; }

  friend bool operator==(const FlatIterator& a, const FlatIterator& b) {
    return a.index_ == b.index_;
  }
  friend bool operator!=(const FlatIterator& a, const FlatIterator& b) {
    return a.index_ != b.index_;
  }

 private:
  void SkipEmpty() {
    while (index_ < table_->capacity() && !table_->states()[index_]) ++index_;
  }

  Table* table_ = nullptr;
  size_t index_ = 0;
};

}  // namespace flat_internal

// Hash map keyed on a 64-bit id type. Entries are std::pair<const K, V>
// stored flat; pointers/iterators are invalidated by rehash and erase.
template <typename K, typename V>
class FlatMap {
  using Entry = std::pair<const K, V>;
  struct KeyOf {
    uint64_t operator()(const Entry& e) const {
      return static_cast<uint64_t>(e.first);
    }
  };
  using Table = flat_internal::FlatTable<Entry, KeyOf>;

 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = Entry;
  using iterator = flat_internal::FlatIterator<const Table, Entry, Entry>;
  using const_iterator =
      flat_internal::FlatIterator<const Table, Entry, const Entry>;

  FlatMap() = default;

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  size_t capacity() const { return table_.capacity(); }
  void clear() { table_.clear(); }
  void reserve(size_t n) { table_.reserve(n); }
  // Invalidates all iterators when it rehashes.
  void shrink_if_sparse() { table_.ShrinkIfSparse(); }

  iterator begin() { return iterator(&table_, 0); }
  iterator end() { return iterator(&table_, table_.capacity()); }
  const_iterator begin() const { return const_iterator(&table_, 0); }
  const_iterator end() const { return const_iterator(&table_, table_.capacity()); }

  bool contains(K key) const {
    return table_.FindSlot(static_cast<uint64_t>(key)) != Table::npos;
  }

  iterator find(K key) {
    const size_t slot = table_.FindSlot(static_cast<uint64_t>(key));
    return slot == Table::npos ? end() : iterator(&table_, slot);
  }
  const_iterator find(K key) const {
    const size_t slot = table_.FindSlot(static_cast<uint64_t>(key));
    return slot == Table::npos ? end() : const_iterator(&table_, slot);
  }

  // Pointer forms of find (the stores' Find/FindMutable idiom). The
  // pointer is invalidated by any mutation of the map.
  V* FindPtr(K key) {
    const size_t slot = table_.FindSlot(static_cast<uint64_t>(key));
    return slot == Table::npos ? nullptr : &table_.entries()[slot].second;
  }
  const V* FindPtr(K key) const {
    const size_t slot = table_.FindSlot(static_cast<uint64_t>(key));
    return slot == Table::npos ? nullptr : &table_.entries()[slot].second;
  }

  // Inserts value_type(key, args...) when absent; no-op when present.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(K key, Args&&... args) {
    auto [slot, inserted] = table_.FindOrInsert(
        static_cast<uint64_t>(key), [&](void* p) {
          ::new (p) Entry(std::piecewise_construct, std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
        });
    return {iterator(&table_, slot), inserted};
  }

  template <typename... Args>
  std::pair<iterator, bool> emplace(K key, Args&&... args) {
    return try_emplace(key, std::forward<Args>(args)...);
  }

  template <typename M>
  std::pair<iterator, bool> insert_or_assign(K key, M&& value) {
    auto [it, inserted] = try_emplace(key, std::forward<M>(value));
    if (!inserted) it->second = std::forward<M>(value);
    return {it, inserted};
  }

  V& operator[](K key) { return try_emplace(key).first->second; }

  size_t erase(K key) {
    const size_t slot = table_.FindSlot(static_cast<uint64_t>(key));
    if (slot == Table::npos) return 0;
    table_.EraseSlot(slot);
    return 1;
  }

  // Invalidates all iterators (backward shift may move later entries).
  void erase(iterator it) { table_.EraseSlot(it.index()); }

 private:
  Table table_;
};

// Hash set of a 64-bit id type.
template <typename K>
class FlatSet {
  struct KeyOf {
    uint64_t operator()(const K& k) const { return static_cast<uint64_t>(k); }
  };
  using Table = flat_internal::FlatTable<K, KeyOf>;

 public:
  using key_type = K;
  using value_type = K;
  using iterator = flat_internal::FlatIterator<const Table, K, const K>;
  using const_iterator = iterator;

  FlatSet() = default;
  FlatSet(std::initializer_list<K> init) {
    reserve(init.size());
    for (K k : init) insert(k);
  }
  template <typename InputIt>
  FlatSet(InputIt first, InputIt last) {
    for (; first != last; ++first) insert(*first);
  }

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  size_t capacity() const { return table_.capacity(); }
  void clear() { table_.clear(); }
  void reserve(size_t n) { table_.reserve(n); }

  iterator begin() const { return iterator(&table_, 0); }
  iterator end() const { return iterator(&table_, table_.capacity()); }

  bool contains(K key) const {
    return table_.FindSlot(static_cast<uint64_t>(key)) != Table::npos;
  }
  size_t count(K key) const { return contains(key) ? 1 : 0; }

  iterator find(K key) const {
    const size_t slot = table_.FindSlot(static_cast<uint64_t>(key));
    return slot == Table::npos ? end() : iterator(&table_, slot);
  }

  std::pair<iterator, bool> insert(K key) {
    auto [slot, inserted] = table_.FindOrInsert(
        static_cast<uint64_t>(key), [&](void* p) { ::new (p) K(key); });
    return {iterator(&table_, slot), inserted};
  }

  template <typename InputIt>
  void insert(InputIt first, InputIt last) {
    for (; first != last; ++first) insert(*first);
  }

  size_t erase(K key) {
    const size_t slot = table_.FindSlot(static_cast<uint64_t>(key));
    if (slot == Table::npos) return 0;
    table_.EraseSlot(slot);
    return 1;
  }

  void erase(iterator it) { table_.EraseSlot(it.index()); }

 private:
  Table table_;
};

}  // namespace stq

#endif  // STQ_COMMON_FLAT_HASH_H_
