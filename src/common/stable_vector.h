#ifndef FLEX_COMMON_STABLE_VECTOR_H_
#define FLEX_COMMON_STABLE_VECTOR_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

namespace flex {

/// Append-only vector with stable element addresses and lock-free reads.
///
/// Elements live in fixed-size heap blocks referenced from a table of
/// block pointers, so appending never moves existing elements. When the
/// table fills, the writer installs a copy twice its size with a release
/// store; replaced tables stay alive until the vector dies, so a reader
/// still holding one reads the same blocks through it. The size is
/// published with release semantics after the element (and its block and
/// table) are fully constructed, so readers that bound their access by
/// size() never observe partial state.
///
/// Concurrency contract: any number of lock-free readers; writers must be
/// externally serialized (GART appends under its writer mutex).
template <typename T, size_t kBlockSize = 1024>
class StableVector {
 public:
  StableVector() = default;

  ~StableVector() {
    T** blocks = blocks_.load(std::memory_order_relaxed);
    for (size_t b = 0; b < capacity_; ++b) delete[] blocks[b];
  }

  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;
  StableVector(StableVector&& other) noexcept
      : blocks_(other.blocks_.load(std::memory_order_relaxed)),
        size_(other.size_.load(std::memory_order_relaxed)),
        capacity_(other.capacity_),
        tables_(std::move(other.tables_)) {
    other.blocks_.store(nullptr, std::memory_order_relaxed);
    other.size_.store(0, std::memory_order_relaxed);
    other.capacity_ = 0;
  }

  size_t size() const { return size_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }

  T& operator[](size_t i) {
    return blocks_.load(std::memory_order_acquire)[i / kBlockSize]
                                                  [i % kBlockSize];
  }
  const T& operator[](size_t i) const {
    return blocks_.load(std::memory_order_acquire)[i / kBlockSize]
                                                  [i % kBlockSize];
  }

  /// Appends a default-constructed element in place; returns it. The
  /// default-constructed state must itself be valid for readers (e.g. an
  /// empty adjacency), as it is visible the moment the size publishes.
  /// Writer-side only (external synchronization required).
  T& emplace_back() {
    T& slot = *Slot();
    Publish();
    return slot;
  }

  /// Appends a copy of `value`; the value is fully written before the new
  /// size publishes, so readers never observe a partial element.
  void push_back(const T& value) {
    *Slot() = value;
    Publish();
  }

 private:
  /// Block slots in the first table.
  static constexpr size_t kInitialBlocks = 8;

  T* Slot() {
    const size_t n = size_.load(std::memory_order_relaxed);
    const size_t block = n / kBlockSize;
    T** blocks = blocks_.load(std::memory_order_relaxed);
    if (block == capacity_) blocks = Grow(blocks);
    if (blocks[block] == nullptr) blocks[block] = new T[kBlockSize]();
    return &blocks[block][n % kBlockSize];
  }

  /// Installs a table twice the size of `old` (which it keeps alive for
  /// readers that loaded it) holding the same block pointers.
  T** Grow(T** old) {
    const size_t capacity = capacity_ == 0 ? kInitialBlocks : 2 * capacity_;
    std::unique_ptr<T*[]> table(new T*[capacity]());
    for (size_t b = 0; b < capacity_; ++b) table[b] = old[b];
    T** blocks = table.get();
    tables_.push_back(std::move(table));
    capacity_ = capacity;
    blocks_.store(blocks, std::memory_order_release);
    return blocks;
  }

  void Publish() {
    size_.store(size_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  std::atomic<T**> blocks_{nullptr};  ///< The newest table.
  std::atomic<size_t> size_{0};
  // Writer side.
  size_t capacity_ = 0;  ///< Block slots in the newest table.
  std::vector<std::unique_ptr<T*[]>> tables_;  ///< Every table, oldest first.
};

}  // namespace flex

#endif  // FLEX_COMMON_STABLE_VECTOR_H_
