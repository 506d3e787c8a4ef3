// InstSet: a set of static instructions, as a bitmap over instruction ids.
#ifndef SNORLAX_TRACE_INST_SET_H_
#define SNORLAX_TRACE_INST_SET_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "ir/instruction.h"
#include "support/hash.h"

namespace snorlax::trace {

// A set of static instructions: a bitmap over instruction ids plus a content
// key that depends only on the members, not on the order they were added.
// It names what a projected trace keeps, and holds a trace's executed set.
// Iteration is in ascending id order.
class InstSet {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ir::InstId;
    using difference_type = std::ptrdiff_t;
    using pointer = const ir::InstId*;
    using reference = ir::InstId;

    Iterator() = default;
    ir::InstId operator*() const { return static_cast<ir::InstId>(at_); }
    Iterator& operator++() {
      at_ = set_->NextFrom(at_ + 1);
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& other) const { return at_ == other.at_; }

   private:
    friend class InstSet;
    Iterator(const InstSet* set, size_t at) : set_(set), at_(at) {}
    const InstSet* set_ = nullptr;
    size_t at_ = 0;
  };

  InstSet() = default;
  // An empty set whose ids below `capacity` insert without growing.
  explicit InstSet(size_t capacity) : words_((capacity + 63) / 64, 0) {}

  // Adds `inst`; false when it was already a member.
  bool Insert(ir::InstId inst) {
    const size_t word = inst >> 6;
    if (word >= words_.size()) {
      words_.resize(word + 1, 0);
    }
    const uint64_t bit = uint64_t{1} << (inst & 63);
    if ((words_[word] & bit) != 0) {
      return false;
    }
    words_[word] |= bit;
    ++size_;
    sum_ += support::Mix64(inst);
    return true;
  }
  // Adds every member of `other`.
  void InsertAll(const InstSet& other);
  bool Contains(ir::InstId inst) const {
    const size_t word = inst >> 6;
    return word < words_.size() && ((words_[word] >> (inst & 63)) & 1) != 0;
  }
  // True when every member of `other` is a member of this set.
  bool ContainsAll(const InstSet& other) const;
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Equal for equal member sets (a sum of per-member hashes).
  uint64_t key() const;
  // The sum over members of support::Mix64(id), the order-free part of
  // key().
  uint64_t member_hash_sum() const { return sum_; }

  Iterator begin() const { return Iterator(this, NextFrom(0)); }
  Iterator end() const { return Iterator(this, words_.size() * 64); }

  friend bool operator==(const InstSet& a, const InstSet& b);

 private:
  // The smallest member >= `from`, or words_.size() * 64 when none.
  size_t NextFrom(size_t from) const;

  std::vector<uint64_t> words_;
  size_t size_ = 0;
  uint64_t sum_ = 0;
};

}  // namespace snorlax::trace

#endif  // SNORLAX_TRACE_INST_SET_H_
