// The message-passing engine: a simulated MPI job.
//
// A `Job` maps `size()` ranks onto grid hosts and owns one TCP connection
// pair per communicating rank pair (created lazily, as the real
// implementations do at first contact). Each `Rank` is the per-process MPI
// endpoint: blocking send/recv, non-blocking isend/irecv + wait, tag
// matching with MPI's non-overtaking semantics, an unexpected-message queue
// and the eager / rendez-vous protocol of Fig 4:
//
//  * eager: the payload is pushed immediately; MPI_Send returns when the
//    bytes fit into the TCP send buffer. If no matching receive is posted
//    on arrival, the receiver pays an extra memory copy.
//  * rendez-vous: a small RTS control message travels first; the payload is
//    only sent after the receiver posts a matching receive and returns a
//    CTS. Costs at least one extra round trip -- the reason the threshold
//    must be raised on high-latency paths (Table 5).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mpi/comm_log.hpp"
#include "mpi/match_arbiter.hpp"
#include "mpi/message.hpp"
#include "mpi/profile.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"
#include "simcore/task.hpp"
#include "simtcp/tcp.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::mpi {

class Job;

/// What a non-blocking operation's handle shares with the coroutine that
/// completes it. One pooled block per request (see Rank::isend).
struct RequestState {
  explicit RequestState(Simulation& sim) : done(sim) {}
  Trigger done;
  RecvInfo info;  ///< filled by receives; stays empty for sends
};

/// Handle for a non-blocking operation. Copyable; wait via Rank::wait.
class Request {
 public:
  Request() = default;
  bool valid() const { return state_ != nullptr; }
  bool complete() const { return state_ && state_->done.fired(); }

 private:
  friend class Rank;
  std::shared_ptr<RequestState> state_;
};

/// Aggregate traffic statistics for a job (drives the table2 group).
struct TrafficStats {
  std::uint64_t p2p_messages = 0;
  double p2p_bytes = 0;
  std::uint64_t collective_messages = 0;
  double collective_bytes = 0;
  std::uint64_t control_messages = 0;
  /// Message-size histogram: payload size (rounded to bytes) -> count,
  /// split by point-to-point vs collective tag space. Built by
  /// Job::traffic() from flat counters, like pair_bytes.
  std::map<long long, std::uint64_t> p2p_sizes;
  std::map<long long, std::uint64_t> collective_sizes;
  /// Payload bytes per directed rank pair (all tag spaces), for every pair
  /// that sent at least one payload.
  std::map<std::pair<int, int>, double> pair_bytes;
};

/// Per-process MPI endpoint.
class Rank {
 public:
  int rank() const { return rank_; }
  int size() const;
  net::HostId host() const { return host_; }
  Job& job() { return *job_; }
  Simulation& sim();

  /// Blocking standard-mode send (eager or rendez-vous by size).
  Task<void> send(int dst, double bytes, int tag = 0);
  /// Blocking receive; kAnySource / kAnyTag wildcards supported.
  Task<RecvInfo> recv(int src = kAnySource, int tag = kAnyTag);

  /// Combined send + receive (MPI_Sendrecv): both progress concurrently.
  Task<RecvInfo> sendrecv(int dst, double send_bytes, int send_tag, int src,
                          int recv_tag);

  Request isend(int dst, double bytes, int tag = 0);
  Request irecv(int src = kAnySource, int tag = kAnyTag);
  /// Completes when the request does; returns RecvInfo (empty for sends).
  Task<RecvInfo> wait(Request req);
  Task<void> wait_all(std::vector<Request> reqs);
  /// Completes when any request does; returns its index (MPI_Waitany).
  Task<int> wait_any(std::vector<Request> reqs);
  /// Non-blocking completion check (MPI_Test).
  static bool test(const Request& req) { return req.complete(); }

  /// Waits until a matching message is available *without* consuming it
  /// (MPI_Probe). Simplification vs the standard: a message handed
  /// directly to an already-posted receive never wakes a prober.
  Task<RecvInfo> probe(int src = kAnySource, int tag = kAnyTag);
  /// Non-blocking probe of the unexpected queue (MPI_Iprobe).
  bool iprobe(int src = kAnySource, int tag = kAnyTag,
              RecvInfo* out = nullptr) const;

  /// Burns `ref_seconds` of CPU time scaled by this host's speed.
  Task<void> compute(double ref_seconds);

  /// Monotonic per-rank collective sequence number (collective algorithms
  /// use it to derive matching tags; every rank must call collectives in
  /// the same order). Logged as a kCollPhase comm event.
  int next_collective_tag();

 private:
  friend class Job;
  Rank(Job& job, int rank, net::HostId host)
      : job_(&job), rank_(rank), host_(host) {}

  // Engine guts -----------------------------------------------------------
  void on_arrival(const MsgMeta& meta);
  /// Handles a match-triggering message that is now in order.
  void deliver_in_order(const MsgMeta& meta);
  /// Stamps the match order on an outgoing match-triggering message.
  std::uint64_t next_order_to(int dst) {
    if (order_out_.size() <= static_cast<size_t>(dst))
      order_out_.resize(static_cast<size_t>(dst) + 1, 0);
    return order_out_[static_cast<size_t>(dst)]++;
  }
  bool matches(int want_src, int want_tag, const MsgMeta& m) const {
    return (want_src == kAnySource || want_src == m.src_rank) &&
           (want_tag == kAnyTag || want_tag == m.tag);
  }
  SimTime side_overhead(SimTime base, int peer) const;
  SimTime copy_time(double bytes) const;

  struct Posted {
    int src;
    int tag;
    Trigger* done;
    MsgMeta* slot;
    int wseq = -1;  ///< wildcard posting index (>= 0 only under deferral)
  };
  using Prober = Posted;  ///< same shape; never consumes the message

  // Deferred-matching engine (active only when the Job's arbiter defers
  // wildcards; see match_arbiter.hpp). Called from the Job's idle hook.
  bool mc_resolve_one(MatchArbiter& arbiter);
  /// After an arbitrated match consumed a parked wildcard, messages that
  /// were held behind it may now belong to later-posted specific receives.
  void mc_rematch();
  void report_blocked(std::vector<std::string>* out) const;
  /// Finalize-time leak events (R3): unmatched messages still queued and
  /// receives/probes that never completed. Called from ~Job.
  void record_finalize(JobCommTrace& log) const;

  Job* job_;
  int rank_;
  net::HostId host_;
  JobCommTrace* comm_ = nullptr;  ///< per-Job comm-event trace (may be null)
  int coll_seq_ = 0;
  int wildcard_seq_ = 0;  ///< wildcard receives posted so far (site ids)
  int send_seq_ = 0;      ///< sends issued so far (send-site ids)
  int recv_seq_ = 0;      ///< receives posted so far (recv-site ids)

  std::deque<MsgMeta> arrived_;  // unexpected eager payloads + unmatched RTS
  std::deque<Posted> posted_;
  std::deque<Prober> probers_;
  // Rendez-vous handshakes in flight: a few at a time, so flat vectors
  // searched linearly, which stop allocating once they have grown.
  struct CtsWaiter {
    std::uint64_t seq;  ///< this rank's handshake id
    Trigger* done;
  };
  std::vector<CtsWaiter> cts_waiters_;  ///< sends awaiting their CTS
  struct DataWaiter {
    int src;            ///< handshake ids are per sender
    std::uint64_t seq;  ///< the sender's handshake id
    Trigger* done;
    MsgMeta* slot;
  };
  std::vector<DataWaiter> data_waiters_;  ///< receives awaiting the payload
  std::vector<CtsWaiter>::iterator find_cts_waiter(std::uint64_t seq);
  std::vector<DataWaiter>::iterator find_data_waiter(int src,
                                                     std::uint64_t seq);
  std::uint64_t next_seq_ = 1;
  // Non-overtaking enforcement per peer: outgoing match-order stamps,
  // expected incoming order, and a reorder buffer for early arrivals.
  std::vector<std::uint64_t> order_out_;
  std::vector<std::uint64_t> order_in_;
  std::vector<std::map<std::uint64_t, MsgMeta>> reorder_;
};

/// A simulated MPI job: ranks, their placement, the implementation profile
/// and the kernel tunables in effect.
class Job {
 public:
  Job(topo::Grid& grid, std::vector<net::HostId> placement,
      ImplProfile profile, tcp::KernelTunables kernel,
      tcp::TcpModelParams tcp_params = {});
  ~Job();
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// The match arbiter in effect (the thread's ambient arbiter at
  /// construction time, or the shared arrival-order default).
  MatchArbiter& arbiter() { return *arbiter_; }

  int size() const { return static_cast<int>(ranks_.size()); }
  Rank& rank(int r) { return *ranks_.at(static_cast<size_t>(r)); }
  const ImplProfile& profile() const { return profile_; }
  const tcp::KernelTunables& kernel() const { return kernel_; }
  const tcp::TcpModelParams& tcp_params() const { return tcp_params_; }
  topo::Grid& grid() { return *grid_; }
  Simulation& sim() { return grid_->network().sim(); }
  /// The job's traffic so far.
  TrafficStats traffic() const;

  /// Total TCP stall (RTO-like retry) events across this job's channels:
  /// the MPI-visible face of injected WAN faults (simfault). Zero on a
  /// healthy network.
  int degraded_progress_events() const;

  /// Spawns `rank_main(rank)` for every rank.
  void launch(std::function<Task<void>(Rank&)> rank_main);

  /// The TCP channel carrying traffic from rank `from` to rank `to`
  /// (created on first use). `stream` selects one of the parallel WAN
  /// connections when the profile stripes large messages.
  tcp::TcpChannel& channel(int from, int to, int stream = 0);

  /// Fire-and-forget wire transfer with metadata delivery at the peer.
  void transmit(int from, int to, double wire_bytes, MsgMeta meta);
  /// Same, but completes when the bytes are accepted by the send buffer.
  Task<void> transmit_buffered(int from, int to, double wire_bytes,
                               MsgMeta meta);
  /// Striped transfer over `streams` parallel connections: completes when
  /// every chunk is buffered; the peer sees one arrival once every chunk
  /// has been delivered (MPICH-G2's large-message path).
  Task<void> transmit_striped(int from, int to, double wire_bytes,
                              MsgMeta meta, int streams);

  /// Round-trip time between two ranks' hosts.
  SimTime pair_rtt(int r1, int r2);

  void record_payload(int src, int dst, double bytes, int tag);

  /// Optional hook invoked for every application payload send (used by the
  /// trace recorder; see harness/replay.hpp).
  using MessageRecorder =
      std::function<void(SimTime, int src, int dst, double bytes, int tag)>;
  void set_message_recorder(MessageRecorder recorder) {
    recorder_ = std::move(recorder);
  }

 private:
  /// Per directed rank pair: everything the per-message path would
  /// otherwise look up in a map.
  struct PairState {
    /// The pair's TCP channels by stream, each created on first use.
    std::vector<std::unique_ptr<tcp::TcpChannel>> streams;
    /// Host of `from` -> host of `to`; null until route() first needs it.
    const net::Route* route = nullptr;
    double payload_bytes = 0;
    bool sent_payload = false;
  };
  /// One payload-size counter (size rounded to bytes, per tag space).
  struct SizeCount {
    bool collective;
    long long bytes;
    std::uint64_t count;
  };
  /// The counter for `bytes` in `collective`'s tag space, created at zero
  /// on first use.
  std::uint64_t& size_count(bool collective, long long bytes);
  PairState& pair(int from, int to) {
    return pairs_[static_cast<std::size_t>(from) * ranks_.size() +
                  static_cast<std::size_t>(to)];
  }
  const PairState& pair(int from, int to) const {
    return pairs_[static_cast<std::size_t>(from) * ranks_.size() +
                  static_cast<std::size_t>(to)];
  }
  const net::Route& route(int from, int to);

  static Task<void> run_rank(std::function<Task<void>(Rank&)> main,
                             Rank* rank);
  /// Idle hook: resolves one parked wildcard receive through the arbiter
  /// (deferred matching only). Returns true if a match was made.
  bool mc_resolve_one();
  void report_blocked(std::vector<std::string>* out) const;

  topo::Grid* grid_;
  ImplProfile profile_;
  tcp::KernelTunables kernel_;
  tcp::TcpModelParams tcp_params_;
  MatchArbiter* arbiter_;
  JobCommTrace* comm_trace_ = nullptr;  ///< ambient CommLog's trace, if any
  std::uint64_t idle_hook_id_ = 0;
  std::uint64_t blocked_reporter_id_ = 0;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::vector<PairState> pairs_;  ///< from * size() + to
  /// Sorted by (collective, bytes); traffic() folds it into the histograms.
  std::vector<SizeCount> size_counts_;
  TrafficStats traffic_;  ///< all but the histograms and pair_bytes
  MessageRecorder recorder_;
};

/// Fills ranks onto the grid site by site, node by node — the paper's
/// "PR1..PR8 then PN1..PN8" block placement.
std::vector<net::HostId> block_placement(const topo::Grid& grid, int nranks);

/// Round-robin placement across sites: rank i on site i mod nsites. The
/// adversarial case for WAN traffic (neighbouring ranks are remote), used
/// by the task-placement study the paper's introduction motivates.
std::vector<net::HostId> cyclic_placement(const topo::Grid& grid, int nranks);

}  // namespace gridsim::mpi
