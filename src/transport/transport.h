// Agent ↔ controller transport: shared-memory rings behind the existing
// subscription and alarm intake paths.
//
// Two selectable backends (TransportOptions::backend):
//
//  * kInProcess — today's path, unchanged: agents live in the
//    controller's process, deltas/alarms are delivered by direct
//    function call (SubscriptionManager::Subscribe attachments, the
//    controller's alarm sink).  The hub is a thin adapter so fixtures
//    can drive either backend through one API.
//  * kSharedMemory — every agent is its own process (or thread) mapping
//    a named ShmSegment (src/transport/shm_ring.h).  The agent encodes
//    frames (src/transport/wire.h) into its data ring; a single
//    controller-side reactor thread drains all peer rings, decodes, and
//    feeds the SAME consumers the in-process path uses —
//    SubscriptionManager::SubmitDelta and Controller::MakeAlarmSink —
//    so folding, ordering, suppression, and materialization are shared
//    code across backends, and the determinism matrix runs unchanged
//    over both.
//
// Reactor lock hierarchy (narrow by design):
//   peers_mu_   — guards the peer list only; taken briefly by AddShmPeer
//                 and by the reactor to snapshot peer pointers (peers are
//                 never destroyed before the reactor joins, so the
//                 snapshot outlives the lock).
//   Ring operations are lock-free; SubmitDelta and the alarm sink take
//   their own downstream locks strictly after all transport state is
//   released.  No lock is ever held across a blocking ring wait, so a
//   full downstream queue can never deadlock the reactor against a
//   producer.
//
// Crash semantics: a peer that dies (SIGKILL included) leaves only
// fully-published frames in its ring — the producer publishes with one
// release store after the copy completes, so the reactor can never read
// a torn frame.  The reactor drains what remains, then detects the dead
// pid (kill(pid, 0) == ESRCH), counts it in TransportStats::peers_dead,
// and excuses the peer from WaitForAcks — surviving peers keep folding
// with no deadlock.  Sequence gaps (a restarted or lossy producer) are
// counted per ring, never waited on.
//
// Crash RECOVERY (see docs/ARCHITECTURE.md "Crash recovery & resync"):
//
//             Hello                    RestartPeer
//   kConnecting ──▶ kLive ──(pid gone)──▶ kDead ──▶ kRejoining
//                     ▲                                │    │
//                     └──────── rejoin Hello ──────────┘    └─(deadline)─▶ kGaveUp
//
//  * RestartPeer(host) retires the dead peer's segment (its consumer
//    counters fold into retired totals so stats stay cumulative) and
//    creates a fresh one, named with the next incarnation number.
//  * The restarted agent says Hello carrying its incarnation; the
//    reactor recognizes the rejoin (kRejoining state, or an incarnation
//    change on a live segment), revives the peer, re-sends Subscribe
//    frames for every covering subscription, then ships ResyncRequest
//    frames — the agent answers each with a full-baseline Snapshot that
//    the SubscriptionManager folds as the stream's new baseline.
//  * Loss without death (seq gap on the data ring, or a frame that
//    fails CRC) marks the affected streams stale and requests the same
//    snapshot resync, rate-limited to one request per stale episode.
//  * A FaultInjector (src/transport/fault_injector.h) can be installed
//    on the client's data-plane sends to exercise all of the above
//    deterministically: drop/corrupt/delay/duplicate, seeded.

#ifndef PATHDUMP_SRC_TRANSPORT_TRANSPORT_H_
#define PATHDUMP_SRC_TRANSPORT_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/types.h"
#include "src/edge/alarm.h"
#include "src/edge/edge_agent.h"
#include "src/edge/standing_query.h"
#include "src/transport/fault_injector.h"
#include "src/transport/shm_ring.h"
#include "src/transport/wire.h"

namespace pathdump {

class Controller;
class SubscriptionManager;

namespace transport {

struct TransportOptions {
  enum class Backend : uint8_t {
    kInProcess = 0,
    kSharedMemory = 1,
  };

  Backend backend = Backend::kInProcess;
  // Shared-memory segment name prefix; "" means "/pathdump.<pid>."
  // (pid-scoped so a crashed earlier run can never collide).
  std::string shm_prefix;
  ShmSegment::Geometry geometry;
  // How long a blocking ring push may wait for space before failing.
  int64_t push_timeout_us = 5'000'000;
  // How long a restarted peer may sit in kRejoining before the hub
  // declares it kGaveUp (excused from everything, counted in stats).
  int64_t rejoin_timeout_us = 10'000'000;
  // Startup sweep: reclaim /dev/shm segments left behind by SIGKILLed
  // earlier runs (only segments whose recorded controller pid is
  // provably dead are touched — safe under parallel suites).
  bool sweep_stale_shm_on_start = true;
};

// Peer lifecycle (shm backend).  kDead/kGaveUp peers are excused from
// WaitForAcks/WaitForHellos; kRejoining is the window between
// RestartPeer and the restarted agent's Hello.
enum class PeerState : uint8_t {
  kConnecting = 0,  // segment created, no Hello yet
  kLive = 1,
  kDead = 2,      // pid gone (or ring poisoned) without a Bye
  kRejoining = 3, // fresh segment up, waiting for the new incarnation's Hello
  kGaveUp = 4,    // rejoin deadline passed; terminal
};
const char* PeerStateName(PeerState s);

// Cumulative since hub construction.  Decode error counters map 1:1 to
// WireError categories — every rejected frame is counted, never dropped
// silently.
struct TransportStats {
  uint64_t frames = 0;  // successfully decoded
  uint64_t bytes = 0;   // ring payload bytes consumed (all frames)
  uint64_t deltas = 0;
  uint64_t alarms = 0;
  uint64_t acks = 0;
  uint64_t decode_errors = 0;  // sum of the categories below
  uint64_t truncated = 0;
  uint64_t bad_magic = 0;
  uint64_t bad_version = 0;
  uint64_t bad_type = 0;
  uint64_t oversized = 0;
  uint64_t bad_checksum = 0;
  uint64_t bad_payload = 0;
  uint64_t seq_gaps = 0;        // messages missing, summed over peer rings
                                // (retired segments included)
  uint64_t blocked_pushes = 0;  // agent-side full-ring waits, summed
  uint64_t peers = 0;
  uint64_t peers_hello = 0;  // peers that completed the Hello handshake
  uint64_t peers_bye = 0;    // graceful goodbyes
  uint64_t peers_dead = 0;   // detected dead without a Bye
  // Crash recovery.
  uint64_t peers_rejoining = 0;      // currently in kRejoining (gauge)
  uint64_t peers_rejoined = 0;       // completed rejoin handshakes, cumulative
  uint64_t peers_gave_up = 0;        // rejoin deadline expiries, cumulative
  uint64_t resync_requests = 0;      // ResyncRequest frames shipped
  uint64_t snapshots = 0;            // Snapshot frames received
  uint64_t stale_shm_reclaimed = 0;  // startup-sweep unlinks
};

// Controller-side hub.  One instance owns all peer segments and (for the
// shm backend) the reactor thread.
class TransportHub {
 public:
  TransportHub(Controller* controller, SubscriptionManager* manager,
               TransportOptions options = {});
  // Stops the reactor and unlinks every owned segment.
  ~TransportHub();

  TransportHub(const TransportHub&) = delete;
  TransportHub& operator=(const TransportHub&) = delete;

  TransportOptions::Backend backend() const { return options_.backend; }

  // --- Peer management ---

  // Shared-memory backend: creates the segment for `host` and returns
  // its shm name (pass to the agent process / ShmAgentClient::Open).
  // Empty string on failure or on the in-process backend.
  std::string AddShmPeer(HostId host);
  // In-process backend: registers a live agent with the controller and
  // tracks its host so Subscribe()/hosts() work identically.
  void AddLocalAgent(EdgeAgent* agent);

  // Hosts added so far, in add order (both backends).
  std::vector<HostId> hosts() const;

  // --- Control plane (backend-dispatched) ---

  // Installs the standing query on every listed host.  In-process:
  // SubscriptionManager::Subscribe.  Shm: SubscribeRemote + a Subscribe
  // frame broadcast on each peer's command ring.
  uint64_t Subscribe(const std::vector<HostId>& hosts, const StandingQuerySpec& spec);

  // Epoch boundary: every agent runs EdgeAgent::EpochTick (ticks its
  // standing registrations, then seals and evicts its TIB).  In-process:
  // synchronously, via SubscriptionManager::TickEpoch, and the returned
  // token is already satisfied.  Shm: broadcasts an EpochTick frame;
  // agents tick and ack with the token — pair with WaitForAcks before
  // asserting on materialized state.
  uint64_t SendEpochTick();

  // Test/bench harness: ask every agent to insert `count` synthetic
  // records from `seed` (see EncodeIngestFrame).  In-process mode
  // delegates to the callback installed with SetLocalIngest.
  void SendIngest(uint32_t count, uint32_t seed, uint32_t ip_space, uint32_t switch_space);
  // In-process twin of the Ingest frame, installed by the fixture (the
  // hub cannot synthesize records itself — generation lives in test
  // utilities).  Called inline from SendIngest.
  void SetLocalIngest(
      std::function<void(uint32_t count, uint32_t seed, uint32_t ip_space, uint32_t switch_space)>
          fn);

  // Asks every live shm peer to drain and exit (no-op in-process).
  void SendShutdown();

  // --- Synchronization ---

  // True once every shm peer has said Hello (trivially true in-process).
  bool WaitForHellos(int64_t timeout_us);
  // True once every peer has acked `token`, where dead and departed
  // peers are excused — a SIGKILLed agent never wedges the epoch.
  // False only on timeout with a live, silent peer.
  bool WaitForAcks(uint64_t token, int64_t timeout_us);
  // Blocks until every published frame has been drained and dispatched,
  // then flushes the subscription channel — after this, Materialize
  // reflects everything the agents sent.
  void Flush();

  TransportStats stats() const;
  // Hosts detected dead (no Bye), in detection order.
  std::vector<HostId> dead_hosts() const;
  PeerState peer_state(HostId host) const;

  // --- Crash recovery ---

  // Retires a dead (or departed) peer's segment and creates a fresh one
  // under the next incarnation number.  Returns the new segment name to
  // hand the restarted agent (which must Hello with that incarnation),
  // or "" if the peer is unknown or still live.  The peer enters
  // kRejoining until the Hello lands (kGaveUp past the rejoin timeout).
  std::string RestartPeer(HostId host);
  // The incarnation RestartPeer assigned most recently (0 = original).
  uint32_t peer_incarnation(HostId host) const;
  // True once `host` is back in kLive (Hello processed, resyncs sent).
  bool WaitForPeerLive(HostId host, int64_t timeout_us);
  // Ships one ResyncRequest frame to `host` for subscription `id` (the
  // agent answers with a Snapshot).  Wired into the manager's
  // ResyncRequester so gap-threshold staleness self-heals.
  void RequestResync(uint64_t id, HostId host);

 private:
  struct Peer {
    HostId host = kInvalidNode;
    // Swapped by RestartPeer under peers_mu_; every user copies the
    // shared_ptr first (SegmentOf) so a retired segment stays mapped
    // until its last reader drops it.
    std::shared_ptr<ShmSegment> segment;
    std::atomic<uint32_t> pid{0};         // learned from Hello
    std::atomic<uint32_t> incarnation{0}; // learned from Hello / RestartPeer
    std::atomic<uint64_t> last_ack{0};    // highest token acked
    std::atomic<bool> hello{false};
    std::atomic<bool> bye{false};
    std::atomic<bool> dead{false};
    std::atomic<PeerState> state{PeerState::kConnecting};
    std::atomic<int64_t> rejoin_deadline_us{0};
    // Reactor-local resync trigger edge detectors (reactor thread only).
    uint64_t seen_seq_gaps = 0;
    uint64_t data_decode_errors = 0;  // reactor-written cumulative
  };

  void ReactorLoop();
  // Drains one peer's data ring; returns frames dispatched.  Decode
  // errors on the ring are counted into peer.data_decode_errors so the
  // caller can trigger a resync on new corruption.
  size_t DrainPeer(Peer& peer, ShmSegment& segment, std::vector<uint8_t>& buf);
  void Dispatch(Peer& peer, DecodedFrame&& frame);
  void CountError(WireError err);
  // Snapshot of peer pointers (stable: peers_ is an append-only deque).
  std::vector<Peer*> SnapshotPeers() const;
  // Copies the peer's current segment pointer under peers_mu_.
  std::shared_ptr<ShmSegment> SegmentOf(const Peer& peer) const;
  void BroadcastCommand(const std::vector<uint8_t>& frame);
  // Serialized push onto one peer's command ring (cmd_mu_): the reactor
  // (rejoin/resync) and API threads (Broadcast) share the producer side.
  bool PushCommand(ShmSegment& segment, const std::vector<uint8_t>& frame);
  // Rejoin completion: re-Subscribe + ResyncRequest for every covering
  // subscription, in that order (the cmd ring is FIFO, so the agent
  // re-registers its accumulators before any snapshot is taken).
  void OnPeerRejoined(Peer& peer);
  // Marks every subscription covering `peer.host` stale and ships a
  // ResyncRequest for the ones newly marked (rate limit: one request
  // per stale episode).
  void RequestResyncAll(Peer& peer);
  const Peer* FindPeer(HostId host) const;

  Controller* const controller_;
  SubscriptionManager* const manager_;
  const TransportOptions options_;
  const std::string prefix_;
  AlarmHandler alarm_sink_;
  std::function<void(uint32_t, uint32_t, uint32_t, uint32_t)> local_ingest_;

  mutable std::mutex peers_mu_;  // guards peers_ growth + segment swaps
  std::deque<Peer> peers_;       // append-only; stable addresses

  // Subscriptions installed through Subscribe(), kept so a rejoining
  // peer can be re-subscribed and resynced.
  struct SubRecord {
    uint64_t id = 0;
    StandingQuerySpec spec;
    std::vector<HostId> hosts;
  };
  mutable std::mutex subs_mu_;
  std::vector<SubRecord> subs_;

  std::mutex cmd_mu_;  // serializes all command-ring pushes

  std::atomic<uint64_t> next_token_{0};
  std::atomic<bool> stop_{false};
  // True while the reactor is between popping a frame and finishing its
  // dispatch — Flush spins past this so "rings empty" implies
  // "everything dispatched".
  std::atomic<bool> dispatching_{false};

  // Decode/dispatch counters (reactor-written, stats()-read).
  std::atomic<uint64_t> frames_{0}, bytes_{0}, deltas_{0}, alarms_{0}, acks_{0};
  std::atomic<uint64_t> err_by_kind_[8] = {};
  // Recovery counters.
  std::atomic<uint64_t> peers_rejoined_{0}, peers_gave_up_{0};
  std::atomic<uint64_t> resync_requests_{0}, snapshots_{0};
  std::atomic<uint64_t> stale_shm_reclaimed_{0};
  // Consumer-side counters of segments retired by RestartPeer, folded in
  // so stats() stays cumulative across incarnations.
  std::atomic<uint64_t> retired_seq_gaps_{0}, retired_blocked_pushes_{0};

  std::thread reactor_;  // last member: joins before state above dies
};

// Agent-process side of one shm channel pair.  Single-threaded use per
// ring direction is the contract; the internal send mutex only
// serializes an agent's own delta/alarm sinks against each other.
class ShmAgentClient {
 public:
  // Maps the named segment; null if absent or malformed.
  static std::unique_ptr<ShmAgentClient> Open(const std::string& name,
                                              int64_t push_timeout_us = 5'000'000);
  // Bounded connect: retries Open with exponential backoff (1 ms
  // doubling to 100 ms) until `total_timeout_us` elapses.  Restarted
  // agents use this — the hub may still be creating their segment.
  static std::unique_ptr<ShmAgentClient> OpenWithBackoff(const std::string& name,
                                                         int64_t total_timeout_us,
                                                         int64_t push_timeout_us = 5'000'000);

  // Installs a data-plane fault injector (chaos/testing): QueryDelta and
  // Alarm frames may be dropped, corrupted, delayed (reordered), or
  // duplicated per its seeded config.  Snapshot and control frames are
  // never faulted — recovery traffic must converge.
  void SetFaultInjector(const FaultInjectorConfig& config);
  FaultInjector::Counts fault_counts() const;

  // --- Sends (agent → controller data ring) ---
  // Also records getpid() in the segment header.  `incarnation` echoes
  // the number embedded in a RestartPeer segment name (0 for the first
  // life) so the hub can tell a rejoin from a duplicate Hello.
  bool SendHello(HostId host, uint32_t incarnation = 0);
  bool SendDelta(const QueryDelta& delta);  // routes snapshots to kSnapshot frames
  bool SendAlarm(const Alarm& alarm);
  bool SendAck(HostId host, uint64_t token);
  bool SendBye(HostId host);

  // Terminal give-up latch: set after a bounded data-ring push timed out
  // (controller gone or wedged).  All later sends fail fast.
  bool gave_up() const { return gave_up_.load(std::memory_order_acquire); }

  // --- Commands (controller → agent cmd ring) ---
  // Pops one command frame, waiting up to `timeout_us`.  False if none
  // arrived.  Malformed command frames are counted and skipped.
  bool PollCommand(DecodedFrame* out, int64_t timeout_us);
  uint64_t command_decode_errors() const { return cmd_decode_errors_; }

  // Sinks wiring an EdgeAgent's outputs onto the data ring.
  EdgeAgent::DeltaSink MakeDeltaSink();
  AlarmHandler MakeAlarmSink();

  ShmSegment& segment() { return *segment_; }

 private:
  explicit ShmAgentClient(std::unique_ptr<ShmSegment> segment, int64_t push_timeout_us)
      : segment_(std::move(segment)), push_timeout_us_(push_timeout_us) {}

  // All Push* helpers run under send_mu_ with the frame in scratch_.
  bool PushFrame();          // verbatim; flushes a delayed frame first
  bool PushDataFrame();      // fault-injected path (deltas/alarms)
  bool PushRaw(const std::vector<uint8_t>& frame);
  void ReleaseDelayedLocked();

  std::unique_ptr<ShmSegment> segment_;
  const int64_t push_timeout_us_;
  mutable std::mutex send_mu_;
  std::vector<uint8_t> scratch_;  // guarded by send_mu_
  std::unique_ptr<FaultInjector> injector_;  // guarded by send_mu_
  std::vector<uint8_t> delayed_;             // stashed frame (kDelay); send_mu_
  std::atomic<bool> gave_up_{false};
  uint64_t cmd_decode_errors_ = 0;
};

}  // namespace transport
}  // namespace pathdump

#endif  // PATHDUMP_SRC_TRANSPORT_TRANSPORT_H_
