// ClusterAgent: ring-aware fleet reporting across N diagnosis daemons.
//
// A cluster runs one DiagnosisDaemon per ring member; every failure site is
// owned by exactly one of them (wire/ring.h). This wrapper keeps one
// DiagnosisAgent per member port, learns the ring from the handshake of
// whichever seed it reaches first, and routes each bundle to its owner by
// consistent hash -- the same RingSiteHash the daemons check, so a routed
// bundle is accepted on arrival.
//
// When the ring changes underneath the agent (a daemon drained, a member
// joined), the stale route comes back as a kWrongShard bounce with the fresh
// topology riding along in a kTopology push. The bounced bundle is not a
// verdict: the daemon did not consume its sequence number, so the re-route
// re-enqueues it verbatim at the new owner. Bounce rounds are bounded; a ring
// that never converges surfaces kUnavailable rather than ping-ponging
// forever.
#ifndef SNORLAX_NET_CLUSTER_AGENT_H_
#define SNORLAX_NET_CLUSTER_AGENT_H_

#include <map>
#include <memory>
#include <vector>

#include "net/agent.h"
#include "wire/ring.h"

namespace snorlax::net {

struct ClusterAgentOptions {
  // Ports of known ring members (any live one works as a seed; the first
  // reachable wins). More members are learned from the topology itself.
  std::vector<uint16_t> seed_ports;
  // Template for every per-daemon connection (port is overwritten).
  AgentOptions agent;
  // Bound on wrong-shard re-route rounds per send before kUnavailable.
  size_t max_reroute_rounds = 4;
};

struct ClusterAgentStats {
  size_t bundles_routed = 0;    // routed by ring ownership
  size_t bundles_rerouted = 0;  // re-enqueued after a wrong-shard bounce
  size_t failovers = 0;         // seed/member unreachable; tried the next
};

class ClusterAgent {
 public:
  explicit ClusterAgent(ClusterAgentOptions options);

  // Routes + ships one bundle to its ring owner, following bounces.
  support::Status SendFailing(const pt::PtTraceBundle& bundle);
  support::Status SendSuccess(ir::InstId site, const pt::PtTraceBundle& bundle);

  // Diagnoses every reachable member and returns the union of their shard
  // reports, sorted by (fingerprint, failing PC) and deduplicated by site
  // (first owner wins) so the fleet-wide view is deterministic.
  support::Result<std::vector<RemoteReport>> DiagnoseAll();

  // Re-handshakes a seed to pick up the current ring (e.g. after a known
  // membership change). Send paths self-heal via bounces; this is for
  // callers that want the fresh view up front.
  support::Status RefreshTopology();

  const wire::RingTopology& topology() const { return topology_; }
  const ClusterAgentStats& stats() const { return stats_; }
  // Reconnects summed across every per-daemon agent.
  size_t total_reconnects() const;
  // The per-daemon agent for `port`, created on first use. Tests reach
  // through this for per-member stats.
  DiagnosisAgent* agent_for_port(uint16_t port);

 private:
  // The member port owning (fingerprint, site), or the first seed when the
  // topology is empty (single daemon).
  uint16_t RoutePort(uint64_t module_fingerprint, ir::InstId site) const;
  // Adopts the newest topology any per-daemon agent has heard.
  void AdoptNewest();
  support::Status Send(wire::BundleKind kind, ir::InstId site,
                       const pt::PtTraceBundle& bundle);

  ClusterAgentOptions options_;
  wire::RingTopology topology_;
  std::map<uint16_t, std::unique_ptr<DiagnosisAgent>> agents_;  // by port
  ClusterAgentStats stats_;
};

}  // namespace snorlax::net

#endif  // SNORLAX_NET_CLUSTER_AGENT_H_
