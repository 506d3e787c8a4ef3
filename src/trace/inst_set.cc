#include "trace/inst_set.h"

#include <bit>

namespace snorlax::trace {

void InstSet::InsertAll(const InstSet& other) {
  if (other.words_.size() > words_.size()) {
    words_.resize(other.words_.size(), 0);
  }
  for (size_t w = 0; w < other.words_.size(); ++w) {
    uint64_t added = other.words_[w] & ~words_[w];
    words_[w] |= added;
    while (added != 0) {
      const int b = std::countr_zero(added);
      added &= added - 1;
      ++size_;
      sum_ += support::Mix64(w * 64 + static_cast<size_t>(b));
    }
  }
}

bool InstSet::ContainsAll(const InstSet& other) const {
  for (size_t w = 0; w < other.words_.size(); ++w) {
    const uint64_t mine = w < words_.size() ? words_[w] : 0;
    if ((other.words_[w] & ~mine) != 0) {
      return false;
    }
  }
  return true;
}

uint64_t InstSet::key() const { return support::HashCombine(support::Mix64(size_), sum_); }

size_t InstSet::NextFrom(size_t from) const {
  size_t w = from >> 6;
  if (w >= words_.size()) {
    return words_.size() * 64;
  }
  uint64_t bits = words_[w] & (~uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (++w == words_.size()) {
      return words_.size() * 64;
    }
    bits = words_[w];
  }
  return w * 64 + static_cast<size_t>(std::countr_zero(bits));
}

bool operator==(const InstSet& a, const InstSet& b) {
  return a.size_ == b.size_ && a.sum_ == b.sum_ && a.ContainsAll(b);
}

}  // namespace snorlax::trace
