#include "simtcp/tcp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "simcore/check.hpp"

namespace gridsim::tcp {

namespace {

/// Below this allocated rate (B/s) a tick counts as a stall: unreachable in
/// any healthy configuration (the smallest window cap is ~2 MSS per RTT, a
/// few kB/s even on second-long RTTs), but safely above the trickle
/// capacity a flapped-down link leaves behind (FlapSpec::down_capacity,
/// default 1 B/s).
constexpr double kStallRate = 8.0;

double effective_buffer(double setsockopt_request, double core_max,
                        const double auto_bounds[3], bool lock_to_initial) {
  if (setsockopt_request > 0) {
    // Explicit setsockopt: clamped by the core limit, auto-tuning disabled.
    return std::min(setsockopt_request, core_max);
  }
  if (lock_to_initial) return auto_bounds[1];
  // Kernel auto-tuning: the buffer grows on demand up to the bound, so the
  // bound is the binding value for a long transfer.
  return auto_bounds[2];
}

}  // namespace

TcpChannel::TcpChannel(net::Network& network, net::HostId src, net::HostId dst,
                       const KernelTunables& snd_kernel,
                       const KernelTunables& rcv_kernel, SocketOptions options,
                       TcpModelParams params)
    : net_(network),
      sim_(network.sim()),
      src_(src),
      dst_(dst),
      route_(&network.route(src, dst)),
      params_(params),
      options_(options),
      pacing_(options.pacing),
      algo_(snd_kernel.algo) {
  snd_limit_ = effective_buffer(options.sndbuf, snd_kernel.wmem_max,
                                snd_kernel.tcp_wmem,
                                options.lock_buffers_to_initial);
  rcv_limit_ = effective_buffer(options.rcvbuf, rcv_kernel.rmem_max,
                                rcv_kernel.tcp_rmem,
                                options.lock_buffers_to_initial);
  rtt_ = 2 * route_->latency;
  queue_budget_ = net_.path_queue(src, dst);
  cwnd_ = params_.initial_window_mss * params_.mss;
  ssthresh_ = std::numeric_limits<double>::infinity();
  bic_wmax_ = 0;
  last_active_ = sim_.now();
}

double TcpChannel::window() const {
  return std::min({cwnd_, snd_limit_, rcv_limit_});
}

double TcpChannel::rate_cap(double remaining_bytes) const {
  // A transfer that fits inside the window streams at line rate, as does
  // any transfer whose window exceeds the path BDP (acks return before the
  // window drains, so the ack clock never stalls the sender). Only when
  // W < C * RTT does the window bind:
  //   duration(b) = max(RTT + b/C, b * RTT / W)
  // -- at least one full RTT to ack the tail beyond the first window, and
  // asymptotically the classic W-per-RTT rate.
  const double w = window();
  if (remaining_bytes <= w) return net::kUnlimitedRate;
  const double rtt_s = to_seconds(std::max<SimTime>(rtt_, 1));
  const double c = net_.path_capacity(*route_);
  if (w >= c * rtt_s) return net::kUnlimitedRate;
  const double duration =
      std::max(rtt_s + remaining_bytes / c, remaining_bytes * rtt_s / w);
  return remaining_bytes / duration;
}

void TcpChannel::send(double bytes, Callback on_buffered,
                      Callback on_delivered) {
  GRIDSIM_CHECK(bytes >= 0 && std::isfinite(bytes),
                "TcpChannel::send: bad byte count %g", bytes);
  Segment seg;
  seg.bytes = bytes;
  // The segment is fully resident in the send buffer once everything queued
  // before it, minus the buffer space it does not itself need, has drained.
  seg.buffered_threshold = enqueued_total_ + bytes - snd_limit_;
  seg.on_buffered = std::move(on_buffered);
  seg.on_delivered = std::move(on_delivered);
  enqueued_total_ += bytes;

  if (drained_ >= seg.buffered_threshold && seg.on_buffered) {
    seg.buffered_fired = true;
    sim_.post(std::move(seg.on_buffered));
    seg.on_buffered = nullptr;
  } else if (!seg.on_buffered) {
    seg.buffered_fired = true;
  }

  segments_.push_back(std::move(seg));
  if (flow_ == net::kInvalidFlow) {
    apply_idle_decay();
    start_head_segment();
    schedule_tick();
  }
}

Task<void> TcpChannel::send_buffered(double bytes) {
  Trigger done(sim_);
  send(bytes, [&done] { done.fire(); }, nullptr);
  co_await done.wait();
}

Task<void> TcpChannel::send_delivered(double bytes) {
  Trigger done(sim_);
  send(bytes, nullptr, [&done] { done.fire(); });
  co_await done.wait();
}

void TcpChannel::start_head_segment() {
  GRIDSIM_DCHECK(!segments_.empty());
  GRIDSIM_DCHECK(flow_ == net::kInvalidFlow);
  flow_ = net_.start_flow(*route_, segments_.front().bytes,
                          rate_cap(segments_.front().bytes),
                          [this] { on_head_drained(); });
}

void TcpChannel::on_head_drained() {
  flow_ = net::kInvalidFlow;
  GRIDSIM_CHECK(!segments_.empty(),
                "TcpChannel: flow completion with no segment in flight");
  Segment seg = std::move(segments_.front());
  segments_.pop_front();
  drained_ += seg.bytes;
  last_active_ = sim_.now();

  // Byte conservation: the pipe can never have drained more than was
  // enqueued, and when the pipeline empties the two must agree exactly
  // (both sides sum the same segment sizes in the same order).
  GRIDSIM_CHECK(drained_ <= enqueued_total_,
                "TcpChannel: drained %.17g of %.17g enqueued bytes",
                drained_, enqueued_total_);
  GRIDSIM_CHECK(!segments_.empty() || drained_ == enqueued_total_,
                "TcpChannel: idle with %.17g bytes unaccounted for",
                enqueued_total_ - drained_);

  // The head segment itself is certainly resident (in fact gone) now.
  if (!seg.buffered_fired && seg.on_buffered) {
    sim_.post(std::move(seg.on_buffered));
    seg.on_buffered = nullptr;
  }

  // Space freed in the send buffer: fire pending on_buffered callbacks whose
  // thresholds are now met (FIFO, thresholds are monotonic).
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    Segment& pending = segments_[i];
    if (pending.buffered_fired) continue;
    if (drained_ >= pending.buffered_threshold) {
      pending.buffered_fired = true;
      if (pending.on_buffered) {
        sim_.post(std::move(pending.on_buffered));
        pending.on_buffered = nullptr;
      }
    } else {
      break;
    }
  }

  // The last byte left the fluid pipe now; it reaches the receiver one
  // propagation delay later.
  if (seg.on_delivered) {
    std::uint32_t slot;
    if (free_deliveries_.empty()) {
      slot = static_cast<std::uint32_t>(deliveries_.size());
      deliveries_.emplace_back();
    } else {
      slot = free_deliveries_.back();
      free_deliveries_.pop_back();
    }
    deliveries_[slot] = Delivery{seg.bytes, std::move(seg.on_delivered)};
    sim_.after(route_->latency, [this, slot] { deliver(slot); });
  } else {
    bytes_delivered_ += seg.bytes;
  }

  if (!segments_.empty()) start_head_segment();
}

void TcpChannel::deliver(std::uint32_t slot) {
  Delivery& d = deliveries_[slot];
  bytes_delivered_ += d.bytes;
  GRIDSIM_CHECK(bytes_delivered_ <= drained_,
                "TcpChannel: delivered %.17g bytes but only %.17g ever "
                "drained",
                bytes_delivered_, drained_);
  Callback cb = std::move(d.on_delivered);
  free_deliveries_.push_back(slot);
  cb();
}

void TcpChannel::schedule_tick() { schedule_tick(std::max<SimTime>(rtt_, 1)); }

void TcpChannel::schedule_tick(SimTime delay) {
  const std::uint64_t gen = ++tick_gen_;
  sim_.after(std::max<SimTime>(delay, 1), [this, gen] { on_tick(gen); });
}

void TcpChannel::on_tick(std::uint64_t gen) {
  if (gen != tick_gen_) return;  // superseded
  if (flow_ == net::kInvalidFlow) return;  // went idle; next send restarts

  // WAN jitter moves propagation latency under the connection's feet;
  // re-read it so the window/RTT cap and the tick cadence track the path.
  // Without fault injection latencies are static and this is a no-op.
  rtt_ = 2 * route_->latency;

  // `remaining` is quantized at the network's last settle point, so the cap
  // computed from it below — and with it the solved rates and every pinned
  // campaign digest — is identical under the incremental solver and the
  // eager-settling oracle. Nothing touches the network before the cap is
  // set, so the value read here is still current there.
  const net::FlowInfo info = net_.flow_info(flow_);

  // Degraded progress: the allocation collapsed to (near) nothing — a link
  // flapped down or a loss episode swallowed the path. Behave like a real
  // sender taking back-to-back RTOs: drop to the restart window, retry at
  // exponentially backed-off intervals, and surface the event.
  if (info.rate < kStallRate) {
    ++stall_events_;
    ssthresh_ = std::max(cwnd_ / 2, 2 * params_.mss);
    cwnd_ = params_.initial_window_mss * params_.mss;
    in_slow_start_ = true;
    if (sim_.tracer().enabled(TraceKind::kFault)) {
      sim_.tracer().record(sim_.now(), TraceKind::kFault,
                           net_.host(src_).name + "->" + net_.host(dst_).name,
                           static_cast<double>(stall_events_), "tcp-retry");
    }
    stall_backoff_ = stall_backoff_ == 0
                         ? std::max<SimTime>(rtt_, params_.idle_rto)
                         : std::min<SimTime>(stall_backoff_ * 2, seconds(2));
    net_.set_rate_cap(flow_, rate_cap(info.remaining));
    schedule_tick(stall_backoff_);
    return;
  }
  stall_backoff_ = 0;
  const double rtt_s = to_seconds(std::max<SimTime>(rtt_, 1));
  const double bdp_share = info.achievable_rate * rtt_s;
  const double queue_frac = pacing_ ? 1.0 : params_.unpaced_queue_fraction;
  const double loss_point = bdp_share + queue_budget_ * queue_frac;

  if (sim_.tracer().enabled(TraceKind::kCwnd)) {
    sim_.tracer().record(sim_.now(), TraceKind::kCwnd,
                         net_.host(src_).name + "->" + net_.host(dst_).name,
                         cwnd_);
  }

  // Packets only enter the network through the effective window: a cwnd
  // that the socket buffers cannot back never overflows a queue. This is
  // why the default grid configuration plateaus stably at ~120 Mbps.
  if (window() > loss_point) {
    on_loss();
  } else if (cwnd_ < std::min(snd_limit_, rcv_limit_)) {
    grow_window();
  }
  cwnd_ = std::max(cwnd_, 2 * params_.mss);
  net_.set_rate_cap(flow_, rate_cap(info.remaining));
  schedule_tick();
}

void TcpChannel::on_loss() {
  ++loss_events_;
  if (sim_.tracer().enabled(TraceKind::kLoss)) {
    sim_.tracer().record(sim_.now(), TraceKind::kLoss,
                         net_.host(src_).name + "->" + net_.host(dst_).name,
                         cwnd_, in_slow_start_ ? "slow-start" : "ca");
  }
  if (in_slow_start_) {
    // Slow-start overshoot. An un-paced sender dumps a full doubled window
    // into the bottleneck queue: many segments drop, recovery degenerates
    // to an RTO-like restart. A paced sender loses a single segment and
    // exits cleanly at half the overshoot window.
    ssthresh_ = std::max(cwnd_ / 2, 2 * params_.mss);
    bic_wmax_ = cwnd_;
    cwnd_ = pacing_ ? ssthresh_ : params_.initial_window_mss * params_.mss;
    in_slow_start_ = !pacing_ && cwnd_ < ssthresh_;
  } else {
    bic_wmax_ = cwnd_;
    const double beta =
        algo_ == CongestionAlgo::kCubic ? 0.7 : params_.bic_beta;
    cwnd_ = std::max(cwnd_ * beta, 2 * params_.mss);
    ssthresh_ = cwnd_;
  }
  cubic_epoch_start_ = sim_.now();
}

void TcpChannel::grow_window() {
  const double mss = params_.mss;
  if (in_slow_start_ && cwnd_ < ssthresh_) {
    cwnd_ = std::min(cwnd_ * 2, ssthresh_);
    if (cwnd_ >= ssthresh_) in_slow_start_ = false;
    return;
  }
  in_slow_start_ = false;
  switch (algo_) {
    case CongestionAlgo::kReno:
      cwnd_ += mss;
      break;
    case CongestionAlgo::kBic: {
      if (bic_wmax_ > cwnd_) {
        const double step = std::clamp((bic_wmax_ - cwnd_) / 2, mss * 0.25,
                                       params_.bic_smax_mss * mss);
        cwnd_ += step;
      } else {
        cwnd_ += mss;  // max probing beyond the last known maximum
      }
      break;
    }
    case CongestionAlgo::kCubic: {
      // W(t) = C_cubic (t - K)^3 + Wmax, K = cbrt(Wmax * (1-beta) / C),
      // with the RFC 8312 constants (C = 0.4 MSS/s^3, beta = 0.7).
      const double c_cubic = 0.4 * mss;
      const double wmax = std::max(bic_wmax_, cwnd_);
      const double t = to_seconds(sim_.now() - cubic_epoch_start_);
      const double k = std::cbrt(wmax * 0.3 / c_cubic);
      const double target = c_cubic * (t - k) * (t - k) * (t - k) + wmax;
      // Grow toward the cubic target, at least Reno-fair, without jumps.
      const double next = std::max(cwnd_ + mss * 0.3,
                                   std::min(target, cwnd_ * 1.5));
      cwnd_ = std::max(cwnd_, next);
      break;
    }
  }
}

void TcpChannel::apply_idle_decay() {
  // RFC 2861-style: after each full idle RTO the restart window halves,
  // bounded below by the initial window. ssthresh is retained, so the ramp
  // back is fast (slow start to ssthresh).
  const SimTime idle = sim_.now() - last_active_;
  if (idle < params_.idle_rto) return;
  const double iw = params_.initial_window_mss * params_.mss;
  double w = cwnd_;
  for (SimTime t = 0; t + params_.idle_rto <= idle && w > iw;
       t += params_.idle_rto) {
    w /= 2;
  }
  cwnd_ = std::max(w, iw);
  if (cwnd_ < ssthresh_) in_slow_start_ = true;
}

TcpChannel& TcpConnection::from(net::HostId host) {
  if (ab_.source() == host) return ab_;
  assert(ba_.source() == host);
  return ba_;
}

}  // namespace gridsim::tcp
