// Cluster ring topology: who serves which failure site.
//
// A fleet runs N diagnosis daemons. Each failure site -- (module fingerprint,
// failing PC) -- is owned by exactly one daemon, chosen by consistent hashing:
// every member projects `virtual_nodes` points onto a 64-bit ring, and a site
// is owned by the member whose point is first clockwise of the site's hash.
// Adding or removing one daemon therefore moves only ~1/N of the sites, and
// every mover is shipped its accumulated state over the hand-off frames
// rather than recomputed.
//
// The topology travels in the handshake (HelloAck trailing block) and in
// kTopology pushes; `epoch` increases on every membership change so agents
// and daemons can order competing views and reject stale hand-offs. Members
// are kept sorted by node id and the encoding is canonical, so two daemons
// with the same membership encode byte-identical topologies.
#ifndef SNORLAX_WIRE_RING_H_
#define SNORLAX_WIRE_RING_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/status.h"
#include "wire/serialize.h"

namespace snorlax::wire {

struct RingMember {
  uint64_t node_id = 0;  // stable daemon identity (not its socket address)
  std::string host;
  uint16_t port = 0;

  bool operator==(const RingMember& o) const {
    return node_id == o.node_id && host == o.host && port == o.port;
  }
};

struct RingTopology {
  uint64_t epoch = 0;          // bumped on every membership change
  uint32_t virtual_nodes = 64; // ring points per member
  std::vector<RingMember> members;  // sorted by node_id, unique

  bool empty() const { return members.empty(); }
  bool operator==(const RingTopology& o) const {
    return epoch == o.epoch && virtual_nodes == o.virtual_nodes && members == o.members;
  }
};

// Canonicalizes in place: sorts members by node id and drops duplicates
// (first occurrence wins). Call after hand-assembling a topology.
void CanonicalizeTopology(RingTopology* topology);

// Appended to / parsed from a payload mid-stream (the HelloAck trailing
// block), so the decode side reads through the caller's ByteReader.
void AppendTopology(std::vector<uint8_t>* out, const RingTopology& topology);
support::Status ReadTopology(ByteReader* r, RingTopology* out);
// Whole-payload variant for kTopology frames.
void EncodeTopology(const RingTopology& topology, std::vector<uint8_t>* out);
support::Status DecodeTopology(std::span<const uint8_t> payload, RingTopology* out);

// The routing primitive both agents and daemons share. Stateless helpers --
// cheap enough to call per bundle for the handful of members a fleet runs --
// with the site hash factored out so callers can memoize routing per site.
uint64_t RingSiteHash(uint64_t module_fingerprint, uint32_t failing_inst);
// Owner of `site_hash`, or 0 when the topology is empty.
uint64_t RingOwnerOf(const RingTopology& topology, uint64_t site_hash);
// nullptr when no member carries `node_id`.
const RingMember* RingFindMember(const RingTopology& topology, uint64_t node_id);

}  // namespace snorlax::wire

#endif  // SNORLAX_WIRE_RING_H_
