// TCP connection model on top of the fluid network.
//
// A `TcpChannel` is one direction of a TCP connection. Application bytes are
// queued as FIFO segments in a ring; the head segment drains through a fluid
// flow whose rate is capped at `window / RTT`, where
//
//   window = min(cwnd, effective send buffer, effective receive buffer).
//
// The congestion window evolves in per-RTT epochs (slow start doubling,
// then BIC or Reno congestion avoidance) and suffers a loss whenever it
// exceeds the path's achievable bandwidth-delay product plus the usable
// queue budget — the budget is smaller for un-paced senders, which is how
// GridMPI's software pacing [Takano et al., PFLDnet'05] shows up in the
// model (Fig 9 of the paper).
//
// Socket buffer sizing reproduces Section 4.2.1 of the paper:
//  * no setsockopt           -> kernel auto-tuning, bounded by tcp_*mem[2]
//  * setsockopt(SO_*BUF)     -> fixed size, clamped to *mem_max, no tuning
//  * lock_buffers_to_initial -> fixed at tcp_*mem[1] (GridMPI behaviour:
//                               "the middle value ... has to be increased")
//
// The per-message path allocates nothing once warm: callbacks are
// `Callback`s, segments sit in a `Ring`, a drained segment's delivery
// callback waits in a per-channel slot table (so the delivery event
// captures only the slot and stays inline), and the channel reads its path
// through the `const net::Route*` it resolved once at construction.
#pragma once

#include <cstdint>
#include <vector>

#include "simcore/callback.hpp"
#include "simcore/ring.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"
#include "simcore/task.hpp"
#include "simnet/network.hpp"

namespace gridsim::tcp {

enum class CongestionAlgo { kReno, kBic, kCubic };

/// Host-level kernel tunables (the /proc/sys knobs of Section 4.2.1).
struct KernelTunables {
  double rmem_max = 131071;  ///< /proc/sys/net/core/rmem_max
  double wmem_max = 131071;  ///< /proc/sys/net/core/wmem_max
  double tcp_rmem[3] = {4096, 87380, 174760};   ///< min, initial, max
  double tcp_wmem[3] = {4096, 87380, 174760};   ///< min, initial, max
  CongestionAlgo algo = CongestionAlgo::kBic;   ///< 2.6.18 default: BIC

  /// Stock Linux 2.6.18 values (the paper's "default parameters").
  static KernelTunables linux_2_6_18_default() { return {}; }

  /// The paper's grid tuning: 4 MB everywhere, including the initial value
  /// (which GridMPI needs).
  static KernelTunables grid_tuned() {
    KernelTunables k;
    k.rmem_max = k.wmem_max = 4 * 1024 * 1024;
    k.tcp_rmem[1] = k.tcp_rmem[2] = 4 * 1024 * 1024;
    k.tcp_wmem[1] = k.tcp_wmem[2] = 4 * 1024 * 1024;
    return k;
  }
};

/// Per-connection options chosen by the application (the MPI library).
struct SocketOptions {
  /// Explicit SO_SNDBUF / SO_RCVBUF request in bytes; 0 = let the kernel
  /// auto-tune. OpenMPI sets 128 kB by default (btl_tcp_sndbuf/rcvbuf).
  double sndbuf = 0;
  double rcvbuf = 0;
  /// GridMPI-style: buffers frozen at the kernel initial size tcp_*mem[1].
  bool lock_buffers_to_initial = false;
  /// GridMPI software pacing: bursts are smoothed, so the full bottleneck
  /// queue is usable before a loss and slow-start exits without collapse.
  bool pacing = false;
};

/// Model constants; exposed for ablation studies.
struct TcpModelParams {
  double mss = 1448;  ///< Ethernet MSS (1500 - IP/TCP headers, timestamps)
  /// Fraction of the bottleneck queue a bursty (un-paced) sender can use
  /// before overflowing it.
  double unpaced_queue_fraction = 0.5;
  /// BIC binary-increase cap per RTT, in MSS units. Conservative: long-RTT
  /// recovery takes seconds, as observed on Grid'5000 (paper Fig 9).
  double bic_smax_mss = 2.0;
  double bic_beta = 0.8;  ///< multiplicative decrease factor
  /// Fixed per-message kernel/stack cost applied by callers per endpoint.
  SimTime stack_overhead = microseconds(3);
  /// Initial congestion window in MSS units (2007-era kernels: 2).
  double initial_window_mss = 2.0;
  /// Idle period after which cwnd decays toward the restart window.
  SimTime idle_rto = milliseconds(200);
};

/// Wire goodput of a payload byte stream on Ethernet: 1448 payload bytes per
/// 1538 on-wire bytes (preamble + IFG + MAC/IP/TCP headers). 1 GbE -> ~941
/// Mbps of application goodput, the paper's "940 Mbps".
constexpr double ethernet_goodput(double raw_bits_per_sec) {
  return raw_bits_per_sec / 8.0 * (1448.0 / 1538.0);
}

/// One direction of a TCP connection between two hosts.
class TcpChannel {
 public:
  TcpChannel(net::Network& network, net::HostId src, net::HostId dst,
             const KernelTunables& snd_kernel, const KernelTunables& rcv_kernel,
             SocketOptions options, TcpModelParams params = {});
  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  /// Queues `bytes` for transmission.
  ///  * `on_buffered`  fires when the last byte has been accepted into the
  ///    send socket buffer (where a blocking eager MPI_Send returns);
  ///  * `on_delivered` fires when the last byte arrives at the receiver.
  /// Either callback may be null. Delivery order is FIFO.
  void send(double bytes, Callback on_buffered, Callback on_delivered);

  /// Coroutine helpers over send().
  Task<void> send_buffered(double bytes);
  Task<void> send_delivered(double bytes);

  // --- observability -----------------------------------------------------
  double cwnd() const { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  /// Effective window: min(cwnd, send buffer, receive buffer).
  double window() const;
  double effective_sndbuf() const { return snd_limit_; }
  double effective_rcvbuf() const { return rcv_limit_; }
  SimTime rtt() const { return rtt_; }
  int loss_events() const { return loss_events_; }
  /// Ticks that found the flow's allocation collapsed to (near) zero — the
  /// path flapped down or was swallowed by an injected fault. Each one is an
  /// RTO-like restart; surfaced by mpi::Job as degraded-progress events.
  int stall_events() const { return stall_events_; }
  double bytes_delivered() const { return bytes_delivered_; }
  bool idle() const { return segments_.empty(); }
  net::HostId source() const { return src_; }
  net::HostId destination() const { return dst_; }
  const TcpModelParams& params() const { return params_; }

 private:
  struct Segment {
    double bytes = 0;
    double buffered_threshold = 0;  ///< fire on_buffered once drained_ >= this
    bool buffered_fired = false;
    Callback on_buffered;
    Callback on_delivered;
  };
  /// A drained segment whose last byte is still propagating.
  struct Delivery {
    double bytes = 0;
    Callback on_delivered;
  };

  void start_head_segment();
  void on_head_drained();
  void deliver(std::uint32_t slot);
  void schedule_tick();
  void schedule_tick(SimTime delay);
  void on_tick(std::uint64_t gen);
  void on_loss();
  void grow_window();
  void apply_idle_decay();
  double rate_cap(double remaining_bytes) const;

  net::Network& net_;
  Simulation& sim_;
  net::HostId src_;
  net::HostId dst_;
  const net::Route* route_;  ///< src -> dst; latencies may change under it
  TcpModelParams params_;
  SocketOptions options_;
  bool pacing_ = false;
  CongestionAlgo algo_ = CongestionAlgo::kBic;

  double snd_limit_ = 0;  ///< effective send buffer bound on the window
  double rcv_limit_ = 0;
  SimTime rtt_ = 0;
  double queue_budget_ = 0;  ///< bottleneck queue along the path

  // Congestion state.
  double cwnd_ = 0;
  double ssthresh_ = 0;
  double bic_wmax_ = 0;
  SimTime cubic_epoch_start_ = 0;  ///< time of the last loss (CUBIC clock)
  bool in_slow_start_ = true;

  // Segment pipeline.
  Ring<Segment> segments_;  // head is in flight
  std::vector<Delivery> deliveries_;  // indexed by delivery event slot
  std::vector<std::uint32_t> free_deliveries_;
  net::FlowId flow_ = net::kInvalidFlow;
  double enqueued_total_ = 0;  ///< cumulative bytes ever queued
  double drained_ = 0;         ///< cumulative bytes drained into the pipe
  std::uint64_t tick_gen_ = 0;
  SimTime last_active_ = 0;

  // Degraded-progress state: exponential probe backoff while stalled.
  SimTime stall_backoff_ = 0;  ///< 0 = not currently backing off

  // Stats.
  int loss_events_ = 0;
  int stall_events_ = 0;
  double bytes_delivered_ = 0;
};

/// A bidirectional TCP connection: two channels sharing configuration.
/// `a_to_b()` sends from a to b and vice versa.
class TcpConnection {
 public:
  TcpConnection(net::Network& network, net::HostId a, net::HostId b,
                const KernelTunables& kernel_a, const KernelTunables& kernel_b,
                SocketOptions options, TcpModelParams params = {})
      : ab_(network, a, b, kernel_a, kernel_b, options, params),
        ba_(network, b, a, kernel_b, kernel_a, options, params) {}

  TcpChannel& a_to_b() { return ab_; }
  TcpChannel& b_to_a() { return ba_; }
  /// The channel that sends *from* `host`.
  TcpChannel& from(net::HostId host);

 private:
  TcpChannel ab_;
  TcpChannel ba_;
};

}  // namespace gridsim::tcp
