// 64-bit content-hash primitives: every artifact key, decode-memo key and
// trace content key is built from these two functions.
#ifndef SNORLAX_SUPPORT_HASH_H_
#define SNORLAX_SUPPORT_HASH_H_

#include <cstdint>

namespace snorlax::support {

// splitmix64 finalizer: cheap, well-distributed.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline uint64_t HashCombine(uint64_t seed, uint64_t v) { return Mix64(seed ^ Mix64(v)); }

}  // namespace snorlax::support

#endif  // SNORLAX_SUPPORT_HASH_H_
