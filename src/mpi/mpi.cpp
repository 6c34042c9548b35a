#include "mpi/mpi.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "simcore/check.hpp"

namespace gridsim::mpi {

// ---------------------------------------------------------------------------
// Rank
// ---------------------------------------------------------------------------

int Rank::size() const { return job_->size(); }
Simulation& Rank::sim() { return job_->sim(); }

SimTime Rank::side_overhead(SimTime base, int peer) const {
  SimTime t = base + job_->tcp_params().stack_overhead;
  const bool lan = job_->pair_rtt(rank_, peer) < milliseconds(1);
  if (lan) {
    t += job_->profile().lan_extra_overhead;
  } else {
    t += job_->profile().wan_extra_overhead;
  }
  return t;
}

SimTime Rank::copy_time(double bytes) const {
  const double rate = job_->profile().memcpy_bytes_per_sec *
                      job_->grid().cpu_speed(host_);
  return from_seconds(bytes / rate);
}

Task<void> Rank::send(int dst, double bytes, int tag) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("bad destination");
  GRIDSIM_CHECK(tag >= 0, "Rank::send: negative tag %d (rank %d -> %d)", tag,
                rank_, dst);
  GRIDSIM_CHECK(bytes >= 0 && std::isfinite(bytes),
                "Rank::send: bad byte count %g (rank %d -> %d)", bytes, rank_,
                dst);
  const ImplProfile& p = job_->profile();
  // Send-site id: the site counter always advances (logged or not) so site
  // numbering is identical across logged and unlogged runs.
  const int site = send_seq_++;
  if (comm_ != nullptr) {
    CommEvent e;
    e.kind = CommEventKind::kSendPost;
    e.rank = rank_;
    e.peer = dst;
    e.tag = tag;
    e.bytes = bytes;
    e.site = site;
    comm_->push(e);
  }
  job_->record_payload(rank_, dst, bytes, tag);
  co_await sim().delay(side_overhead(p.send_overhead, dst));

  // MPICH-G2-style striping: a large message crossing the WAN goes eagerly
  // over several parallel connections (each with its own TCP window).
  const bool stripe = p.wan_parallel_streams > 1 &&
                      bytes > p.stripe_threshold &&
                      job_->pair_rtt(rank_, dst) >= milliseconds(1);
  if (stripe) {
    MsgMeta m;
    m.kind = MsgKind::kEager;
    m.src_rank = rank_;
    m.dst_rank = dst;
    m.tag = tag;
    m.bytes = bytes;
    m.order = next_order_to(dst);
    m.send_site = site;
    co_await job_->transmit_striped(rank_, dst, bytes + p.header_bytes, m,
                                    p.wan_parallel_streams);
    co_return;
  }

  if (bytes <= p.eager_threshold) {
    MsgMeta m;
    m.kind = MsgKind::kEager;
    m.src_rank = rank_;
    m.dst_rank = dst;
    m.tag = tag;
    m.bytes = bytes;
    m.order = next_order_to(dst);
    m.send_site = site;
    co_await job_->transmit_buffered(rank_, dst, bytes + p.header_bytes, m);
    co_return;
  }

  // Rendez-vous: RTS, wait for CTS, then the payload.
  const std::uint64_t seq = next_seq_++;
  Trigger cts(sim());
  cts_waiters_[seq] = &cts;
  MsgMeta rts;
  rts.kind = MsgKind::kRndvRts;
  rts.src_rank = rank_;
  rts.dst_rank = dst;
  rts.tag = tag;
  rts.bytes = bytes;
  rts.seq = seq;
  rts.order = next_order_to(dst);
  rts.send_site = site;
  job_->transmit(rank_, dst, p.control_bytes, rts);
  co_await cts.wait();
  cts_waiters_.erase(seq);
  if (comm_ != nullptr) {
    // The CTS resumption is a receiver -> sender happens-before edge: the
    // sender's continuation is causally after the receiver's kRecvCts.
    CommEvent e;
    e.kind = CommEventKind::kSendCts;
    e.rank = rank_;
    e.peer = dst;
    e.tag = tag;
    e.bytes = bytes;
    e.site = site;
    e.seq = seq;
    comm_->push(e);
  }

  MsgMeta data = rts;
  data.kind = MsgKind::kRndvData;
  co_await job_->transmit_buffered(rank_, dst, bytes + p.header_bytes, data);
}

Task<RecvInfo> Rank::recv(int src, int tag) {
  GRIDSIM_CHECK(src == kAnySource || (src >= 0 && src < size()),
                "Rank::recv: bad source rank %d (job size %d)", src, size());
  GRIDSIM_CHECK(tag == kAnyTag || tag >= 0, "Rank::recv: bad tag %d", tag);
  const ImplProfile& p = job_->profile();
  const bool defer_mode = job_->arbiter().defer_wildcards();
  const int rsite = recv_seq_++;
  if (comm_ != nullptr) {
    CommEvent e;
    e.kind = CommEventKind::kRecvPost;
    e.rank = rank_;
    e.want_src = src;
    e.want_tag = tag;
    e.site = rsite;
    comm_->push(e);
  }
  MsgMeta meta;
  bool unexpected = false;

  if (defer_mode && src == kAnySource) {
    // Deferred wildcard matching (model checker): park unconditionally.
    // The candidate set is computed at quiescence — when every in-flight
    // message has landed — so the arbiter sees every co-enabled choice,
    // not just whatever happened to have arrived by now. The match always
    // routes through the unexpected queue, hence the buffered-copy cost.
    Trigger done(sim());
    posted_.push_back(Posted{src, tag, &done, &meta, wildcard_seq_++});
    co_await done.wait();
    unexpected = true;
  } else {
    // Try the arrived (unexpected) queue first, in arrival order.
    auto it = std::find_if(
        arrived_.begin(), arrived_.end(), [&](const MsgMeta& m) {
          if (!matches(src, tag, m)) return false;
          if (defer_mode) {
            // Posted-order matching: a message also claimed by an
            // earlier-posted parked wildcard belongs to that wildcard;
            // this later receive must not steal it before the arbiter
            // decides.
            for (const Posted& pr : posted_)
              if (pr.src == kAnySource && matches(pr.src, pr.tag, m))
                return false;
          }
          return true;
        });
    if (it != arrived_.end()) {
      meta = *it;
      arrived_.erase(it);
      unexpected = true;
    } else {
      Trigger done(sim());
      posted_.push_back(Posted{src, tag, &done, &meta});
      co_await done.wait();
    }
  }

  // Every receive path (arrived queue, direct handoff, arbitrated wildcard)
  // converges here with `meta` filled: the single match-recording point.
  if (comm_ != nullptr) {
    CommEvent e;
    e.kind = CommEventKind::kRecvMatch;
    e.rank = rank_;
    e.peer = meta.src_rank;
    e.tag = meta.tag;
    e.want_src = src;
    e.want_tag = tag;
    e.site = rsite;
    e.peer_site = meta.send_site;
    e.bytes = meta.bytes;
    e.seq = meta.seq;
    comm_->push(e);
  }

  if (meta.kind == MsgKind::kEager) {
    SimTime cost = side_overhead(p.recv_overhead, meta.src_rank);
    if (unexpected) cost += copy_time(meta.bytes);  // Fig 4, arrow 2
    co_await sim().delay(cost);
    co_return RecvInfo{meta.src_rank, meta.tag, meta.bytes};
  }

  // Rendez-vous RTS: answer with CTS and wait for the payload.
  assert(meta.kind == MsgKind::kRndvRts);
  Trigger data_done(sim());
  MsgMeta data_meta;
  data_waiters_[meta.seq] = DataWaiter{&data_done, &data_meta};
  MsgMeta cts;
  cts.kind = MsgKind::kRndvCts;
  cts.src_rank = rank_;
  cts.dst_rank = meta.src_rank;
  cts.tag = meta.tag;
  cts.seq = meta.seq;
  job_->transmit(rank_, meta.src_rank, p.control_bytes, cts);
  if (comm_ != nullptr) {
    CommEvent e;
    e.kind = CommEventKind::kRecvCts;
    e.rank = rank_;
    e.peer = meta.src_rank;
    e.tag = meta.tag;
    e.site = rsite;
    e.seq = meta.seq;
    comm_->push(e);
  }
  co_await data_done.wait();
  data_waiters_.erase(meta.seq);
  if (comm_ != nullptr) {
    // Payload landed: the receiver's continuation is causally after the
    // sender's post-CTS data send (kSendCts).
    CommEvent e;
    e.kind = CommEventKind::kRecvData;
    e.rank = rank_;
    e.peer = data_meta.src_rank;
    e.tag = data_meta.tag;
    e.site = rsite;
    e.peer_site = data_meta.send_site;
    e.bytes = data_meta.bytes;
    e.seq = meta.seq;
    comm_->push(e);
  }
  co_await sim().delay(side_overhead(p.recv_overhead, meta.src_rank));
  co_return RecvInfo{data_meta.src_rank, data_meta.tag, data_meta.bytes};
}

int Rank::next_collective_tag() {
  const int tag = kCollectiveTagBase + coll_seq_;
  if (comm_ != nullptr) {
    CommEvent e;
    e.kind = CommEventKind::kCollPhase;
    e.rank = rank_;
    e.tag = tag;
    e.site = coll_seq_;
    comm_->push(e);
  }
  ++coll_seq_;
  return tag;
}

void Rank::on_arrival(const MsgMeta& meta) {
  GRIDSIM_CHECK(meta.src_rank >= 0 && meta.src_rank < size(),
                "rank %d: arrival from invalid rank %d (job size %d)", rank_,
                meta.src_rank, size());
  GRIDSIM_DCHECK(meta.dst_rank == rank_,
                 "rank %d: arrival addressed to rank %d", rank_,
                 meta.dst_rank);
  switch (meta.kind) {
    case MsgKind::kEager:
    case MsgKind::kRndvRts: {
      // Restore per-peer send order before matching: striped messages use
      // several TCP connections and can physically overtake.
      const auto src = static_cast<size_t>(meta.src_rank);
      if (order_in_.size() <= src) {
        order_in_.resize(src + 1, 0);
        reorder_.resize(src + 1);
      }
      if (meta.order != order_in_[src]) {
        reorder_[src].emplace(meta.order, meta);
        break;
      }
      deliver_in_order(meta);
      ++order_in_[src];
      auto& stash = reorder_[src];
      for (auto it = stash.find(order_in_[src]); it != stash.end();
           it = stash.find(order_in_[src])) {
        deliver_in_order(it->second);
        stash.erase(it);
        ++order_in_[src];
      }
      break;
    }
    case MsgKind::kRndvCts: {
      auto it = cts_waiters_.find(meta.seq);
      GRIDSIM_CHECK(it != cts_waiters_.end(),
                    "rank %d: CTS for unknown rendez-vous seq %llu", rank_,
                    static_cast<unsigned long long>(meta.seq));
      it->second->fire();
      break;
    }
    case MsgKind::kRndvData: {
      auto it = data_waiters_.find(meta.seq);
      GRIDSIM_CHECK(it != data_waiters_.end(),
                    "rank %d: payload for unknown rendez-vous seq %llu",
                    rank_, static_cast<unsigned long long>(meta.seq));
      *it->second.slot = meta;
      it->second.done->fire();
      break;
    }
  }
}

void Rank::deliver_in_order(const MsgMeta& meta) {
  auto it = std::find_if(
      posted_.begin(), posted_.end(),
      [&](const Posted& pr) { return matches(pr.src, pr.tag, meta); });
  // Under deferred matching, a message whose first matching receive (in
  // posted order) is a parked wildcard must wait in the unexpected queue:
  // handing it to a later-posted specific receive would violate MPI's
  // posted-order matching, and consuming it here would decide the race
  // before the arbiter does.
  if (it != posted_.end() &&
      !(it->src == kAnySource && job_->arbiter().defer_wildcards())) {
    *it->slot = meta;
    Trigger* done = it->done;
    posted_.erase(it);
    done->fire();
    return;
  }
  arrived_.push_back(meta);
  // The message is now visible in the unexpected queue: wake matching
  // probers (without consuming it).
  for (auto pb = probers_.begin(); pb != probers_.end();) {
    if (matches(pb->src, pb->tag, meta)) {
      *pb->slot = meta;
      Trigger* done = pb->done;
      pb = probers_.erase(pb);
      done->fire();
    } else {
      ++pb;
    }
  }
}

bool Rank::mc_resolve_one(MatchArbiter& arbiter) {
  // Oldest-posted wildcard with at least one candidate resolves first —
  // the same precedence posted-order matching gives it in a real run.
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (it->src != kAnySource) continue;
    MatchDecision decision;
    decision.dst_rank = rank_;
    decision.recv_seq = it->wseq;
    decision.want_tag = it->tag;
    std::vector<std::size_t> positions;
    for (std::size_t i = 0; i < arrived_.size(); ++i) {
      const MsgMeta& m = arrived_[i];
      if (!matches(kAnySource, it->tag, m)) continue;
      bool seen = false;
      for (const MatchCandidate& c : decision.candidates)
        if (c.src_rank == m.src_rank) {
          seen = true;
          break;
        }
      // Non-overtaking: only each source's earliest matching message is
      // co-enabled; later ones can never legally match before it.
      if (seen) continue;
      decision.candidates.push_back(
          MatchCandidate{m.src_rank, m.tag, m.bytes, m.order, m.send_site});
      positions.push_back(i);
    }
    if (decision.candidates.empty()) continue;
    const std::size_t pick = arbiter.choose(decision);
    GRIDSIM_CHECK(pick < decision.candidates.size(),
                  "rank %d: arbiter chose candidate %zu of only %zu", rank_,
                  pick, decision.candidates.size());
    const MsgMeta meta = arrived_[positions[pick]];
    arrived_.erase(arrived_.begin() +
                   static_cast<std::ptrdiff_t>(positions[pick]));
    *it->slot = meta;
    Trigger* done = it->done;
    posted_.erase(it);
    done->fire();
    mc_rematch();
    return true;
  }
  return false;
}

void Rank::mc_rematch() {
  // Messages parked behind the just-resolved wildcard may now belong to
  // later-posted specific receives; deliver them in arrival order until a
  // fixpoint. Parked wildcards keep deferring to the idle hook.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < arrived_.size(); ++i) {
      const MsgMeta meta = arrived_[i];
      auto it = std::find_if(
          posted_.begin(), posted_.end(),
          [&](const Posted& pr) { return matches(pr.src, pr.tag, meta); });
      if (it == posted_.end() || it->src == kAnySource) continue;
      arrived_.erase(arrived_.begin() + static_cast<std::ptrdiff_t>(i));
      *it->slot = meta;
      Trigger* done = it->done;
      posted_.erase(it);
      done->fire();
      progress = true;
      break;
    }
  }
}

void Rank::report_blocked(std::vector<std::string>* out) const {
  const auto src_str = [](int src) {
    return src == kAnySource ? std::string("*") : std::to_string(src);
  };
  const auto tag_str = [](int tag) {
    return tag == kAnyTag ? std::string("*") : std::to_string(tag);
  };
  for (const Posted& pr : posted_)
    out->push_back("rank " + std::to_string(rank_) + ": recv(src=" +
                   src_str(pr.src) + ", tag=" + tag_str(pr.tag) +
                   ") blocked; " + std::to_string(arrived_.size()) +
                   " unexpected message(s) queued");
  for (const Prober& pb : probers_)
    out->push_back("rank " + std::to_string(rank_) + ": probe(src=" +
                   src_str(pb.src) + ", tag=" + tag_str(pb.tag) +
                   ") blocked");
  // The rendez-vous maps are unordered; emit in seq order so a deadlock
  // report (and any witness built from it) is reproducible.
  std::vector<std::uint64_t> seqs;
  for (const auto& [seq, waiter] : cts_waiters_) seqs.push_back(seq);
  std::sort(seqs.begin(), seqs.end());
  for (const std::uint64_t seq : seqs)
    out->push_back("rank " + std::to_string(rank_) +
                   ": rendez-vous send awaiting CTS (seq " +
                   std::to_string(seq) + ")");
  seqs.clear();
  for (const auto& [seq, waiter] : data_waiters_) seqs.push_back(seq);
  std::sort(seqs.begin(), seqs.end());
  for (const std::uint64_t seq : seqs)
    out->push_back("rank " + std::to_string(rank_) +
                   ": rendez-vous receive awaiting payload (seq " +
                   std::to_string(seq) + ")");
}

void Rank::record_finalize(JobCommTrace& log) const {
  for (const MsgMeta& m : arrived_) {
    CommEvent e;
    e.kind = CommEventKind::kUnmatchedSend;
    e.rank = rank_;
    e.peer = m.src_rank;
    e.tag = m.tag;
    e.bytes = m.bytes;
    e.peer_site = m.send_site;
    log.push(e);
  }
  for (const Posted& pr : posted_) {
    CommEvent e;
    e.kind = CommEventKind::kUnmatchedRecv;
    e.rank = rank_;
    e.want_src = pr.src;
    e.want_tag = pr.tag;
    log.push(e);
  }
  for (const Prober& pb : probers_) {
    CommEvent e;
    e.kind = CommEventKind::kUnmatchedRecv;
    e.rank = rank_;
    e.want_src = pb.src;
    e.want_tag = pb.tag;
    log.push(e);
  }
}

Task<RecvInfo> Rank::probe(int src, int tag) {
  RecvInfo info;
  if (iprobe(src, tag, &info)) co_return info;
  Trigger done(sim());
  MsgMeta meta;
  probers_.push_back(Prober{src, tag, &done, &meta});
  co_await done.wait();
  co_return RecvInfo{meta.src_rank, meta.tag, meta.bytes};
}

bool Rank::iprobe(int src, int tag, RecvInfo* out) const {
  const auto it =
      std::find_if(arrived_.begin(), arrived_.end(),
                   [&](const MsgMeta& m) { return matches(src, tag, m); });
  if (it == arrived_.end()) return false;
  if (out) *out = RecvInfo{it->src_rank, it->tag, it->bytes};
  return true;
}

namespace {

Task<void> isend_body(Rank* self, int dst, double bytes, int tag,
                      std::shared_ptr<Trigger> done) {
  co_await self->send(dst, bytes, tag);
  done->fire();
}

Task<void> irecv_body(Rank* self, int src, int tag,
                      std::shared_ptr<Trigger> done,
                      std::shared_ptr<RecvInfo> info) {
  *info = co_await self->recv(src, tag);
  done->fire();
}

}  // namespace

Request Rank::isend(int dst, double bytes, int tag) {
  Request r;
  r.done_ = std::make_shared<Trigger>(sim());
  sim().spawn(isend_body(this, dst, bytes, tag, r.done_));
  return r;
}

Request Rank::irecv(int src, int tag) {
  Request r;
  r.done_ = std::make_shared<Trigger>(sim());
  r.info_ = std::make_shared<RecvInfo>();
  sim().spawn(irecv_body(this, src, tag, r.done_, r.info_));
  return r;
}

Task<RecvInfo> Rank::wait(Request req) {
  if (!req.valid()) throw std::invalid_argument("wait on empty Request");
  co_await req.done_->wait();
  co_return req.info_ ? *req.info_ : RecvInfo{};
}

Task<void> Rank::wait_all(std::vector<Request> reqs) {
  for (auto& r : reqs) (void)co_await wait(r);
}

Task<RecvInfo> Rank::sendrecv(int dst, double send_bytes, int send_tag,
                              int src, int recv_tag) {
  Request s = isend(dst, send_bytes, send_tag);
  const RecvInfo info = co_await recv(src, recv_tag);
  (void)co_await wait(s);
  co_return info;
}

namespace {

Task<void> wait_any_watcher(Rank* self, Request req,
                            std::shared_ptr<OneShot<int>> first, int index) {
  (void)co_await self->wait(req);
  if (!first->ready()) first->set(index);
}

}  // namespace

Task<int> Rank::wait_any(std::vector<Request> reqs) {
  if (reqs.empty()) throw std::invalid_argument("wait_any on empty set");
  // Fast path: something already finished.
  for (std::size_t i = 0; i < reqs.size(); ++i)
    if (reqs[i].complete()) co_return static_cast<int>(i);
  auto first = std::make_shared<OneShot<int>>(sim());
  for (std::size_t i = 0; i < reqs.size(); ++i)
    sim().spawn(
        wait_any_watcher(this, reqs[i], first, static_cast<int>(i)));
  co_return co_await first->wait();
}

Task<void> Rank::compute(double ref_seconds) {
  if (ref_seconds <= 0) co_return;
  co_await sim().delay(
      from_seconds(ref_seconds / job_->grid().cpu_speed(host_)));
}

// ---------------------------------------------------------------------------
// Job
// ---------------------------------------------------------------------------

Job::Job(topo::Grid& grid, std::vector<net::HostId> placement,
         ImplProfile profile, tcp::KernelTunables kernel,
         tcp::TcpModelParams tcp_params)
    : grid_(&grid),
      profile_(std::move(profile)),
      kernel_(kernel),
      tcp_params_(tcp_params),
      arbiter_(ambient_arbiter() != nullptr ? ambient_arbiter()
                                            : &arrival_order_arbiter()) {
  if (placement.empty()) throw std::invalid_argument("empty placement");
  if (CommLog* log = ambient_comm_log(); log != nullptr)
    comm_trace_ = log->open_job(static_cast<int>(placement.size()));
  int r = 0;
  for (net::HostId h : placement) {
    ranks_.push_back(std::unique_ptr<Rank>(new Rank(*this, r++, h)));
    ranks_.back()->comm_ = comm_trace_;
  }
  pairs_.resize(placement.size() * placement.size());
  idle_hook_id_ = sim().add_idle_hook([this] { return mc_resolve_one(); });
  blocked_reporter_id_ = sim().add_blocked_reporter(
      [this](std::vector<std::string>* out) { report_blocked(out); });
}

Job::~Job() {
  // Finalize-time leak sweep (lint rule R3): whatever is still queued or
  // posted when the job is torn down was never consumed. Runs even when the
  // scenario unwinds from a deadlock or timeout, which is exactly when the
  // leftovers are most interesting.
  if (comm_trace_ != nullptr)
    for (const auto& r : ranks_) r->record_finalize(*comm_trace_);
  Simulation& s = sim();
  s.remove_idle_hook(idle_hook_id_);
  s.remove_blocked_reporter(blocked_reporter_id_);
}

bool Job::mc_resolve_one() {
  if (!arbiter_->defer_wildcards()) return false;
  for (auto& r : ranks_)
    if (r->mc_resolve_one(*arbiter_)) return true;
  return false;
}

void Job::report_blocked(std::vector<std::string>* out) const {
  for (const auto& r : ranks_) r->report_blocked(out);
}

Task<void> Job::run_rank(std::function<Task<void>(Rank&)> main, Rank* rank) {
  co_await main(*rank);
}

void Job::launch(std::function<Task<void>(Rank&)> rank_main) {
  for (auto& r : ranks_) sim().spawn(run_rank(rank_main, r.get()));
}

int Job::degraded_progress_events() const {
  int n = 0;
  for (const PairState& p : pairs_)
    for (const auto& ch : p.streams)
      if (ch) n += ch->stall_events();
  return n;
}

tcp::TcpChannel& Job::channel(int from, int to, int stream) {
  GRIDSIM_CHECK(from >= 0 && from < size() && to >= 0 && to < size() &&
                    stream >= 0,
                "Job::channel: bad pair %d -> %d (stream %d, job size %d)",
                from, to, stream, size());
  // Streams beyond 0 share the (from, to) direction but get independent
  // TCP state.
  auto& streams = pair(from, to).streams;
  const auto s = static_cast<std::size_t>(stream);
  if (s < streams.size() && streams[s]) return *streams[s];
  if (streams.size() <= s) streams.resize(s + 1);

  tcp::SocketOptions opts;
  switch (profile_.buffers) {
    case BufferStrategy::kAutoTune:
      break;
    case BufferStrategy::kLockToInitial:
      opts.lock_buffers_to_initial = true;
      break;
    case BufferStrategy::kSetsockopt:
      opts.sndbuf = opts.rcvbuf = profile_.setsockopt_bytes;
      break;
  }
  opts.pacing = profile_.pacing;
  streams[s] = std::make_unique<tcp::TcpChannel>(
      grid_->network(), rank(from).host(), rank(to).host(), kernel_, kernel_,
      opts, tcp_params_);
  return *streams[s];
}

void Job::transmit(int from, int to, double wire_bytes, MsgMeta meta) {
  if (meta.kind == MsgKind::kRndvCts ||
      (meta.kind == MsgKind::kRndvRts)) {
    ++traffic_.control_messages;
  }
  Rank* dst = ranks_.at(static_cast<size_t>(to)).get();
  channel(from, to).send(wire_bytes, nullptr,
                         [dst, meta] { dst->on_arrival(meta); });
}

Task<void> Job::transmit_buffered(int from, int to, double wire_bytes,
                                  MsgMeta meta) {
  Rank* dst = ranks_.at(static_cast<size_t>(to)).get();
  Trigger buffered(sim());
  channel(from, to).send(wire_bytes, [&buffered] { buffered.fire(); },
                         [dst, meta] { dst->on_arrival(meta); });
  co_await buffered.wait();
}

namespace {

/// Shared completion state for a striped transfer.
struct StripeState {
  explicit StripeState(Simulation& sim) : buffered(sim) {}
  Trigger buffered;
  int buffered_left = 0;
  int delivered_left = 0;
};

}  // namespace

Task<void> Job::transmit_striped(int from, int to, double wire_bytes,
                                 MsgMeta meta, int streams) {
  assert(streams >= 1);
  Rank* dst = ranks_.at(static_cast<size_t>(to)).get();
  auto state = std::make_shared<StripeState>(sim());
  state->buffered_left = streams;
  state->delivered_left = streams;
  const double chunk = wire_bytes / streams;
  for (int s = 0; s < streams; ++s) {
    channel(from, to, s).send(
        chunk,
        [state] {
          if (--state->buffered_left == 0) state->buffered.fire();
        },
        [state, dst, meta] {
          if (--state->delivered_left == 0) dst->on_arrival(meta);
        });
  }
  co_await state->buffered.wait();
}

const net::Route& Job::route(int from, int to) {
  // Resolved on first use; Network::add_route overwrites in place, so the
  // pointer stays valid and tracks later latency changes.
  PairState& p = pair(from, to);
  if (p.route == nullptr)
    p.route = &grid_->network().route(rank(from).host(), rank(to).host());
  return *p.route;
}

SimTime Job::pair_rtt(int r1, int r2) {
  return route(r1, r2).latency + route(r2, r1).latency;
}

TrafficStats Job::traffic() const {
  TrafficStats t = traffic_;
  for (int from = 0; from < size(); ++from)
    for (int to = 0; to < size(); ++to)
      if (const PairState& p = pair(from, to); p.sent_payload)
        t.pair_bytes.emplace(std::make_pair(from, to), p.payload_bytes);
  return t;
}

void Job::record_payload(int src, int dst, double bytes, int tag) {
  if (recorder_) recorder_(sim().now(), src, dst, bytes, tag);
  if (sim().tracer().enabled(TraceKind::kMessage)) {
    sim().tracer().record(sim().now(), TraceKind::kMessage,
                          tag >= kCollectiveTagBase ? "collective" : "p2p",
                          bytes);
  }
  PairState& p = pair(src, dst);
  p.payload_bytes += bytes;
  p.sent_payload = true;
  const auto size_key = static_cast<long long>(std::llround(bytes));
  if (tag >= kCollectiveTagBase) {
    ++traffic_.collective_messages;
    traffic_.collective_bytes += bytes;
    ++traffic_.collective_sizes[size_key];
  } else {
    ++traffic_.p2p_messages;
    traffic_.p2p_bytes += bytes;
    ++traffic_.p2p_sizes[size_key];
  }
}

std::vector<net::HostId> cyclic_placement(const topo::Grid& grid,
                                          int nranks) {
  std::vector<net::HostId> out;
  out.reserve(static_cast<size_t>(nranks));
  std::vector<int> next_node(static_cast<size_t>(grid.site_count()), 0);
  int site = 0;
  for (int r = 0; r < nranks; ++r) {
    // Find the next site (starting from `site`) with a free node.
    int tried = 0;
    while (tried < grid.site_count() &&
           next_node[static_cast<size_t>(site)] >= grid.nodes_at(site)) {
      site = (site + 1) % grid.site_count();
      ++tried;
    }
    if (tried == grid.site_count())
      throw std::invalid_argument("not enough nodes for requested ranks");
    out.push_back(grid.node(site, next_node[static_cast<size_t>(site)]++));
    site = (site + 1) % grid.site_count();
  }
  return out;
}

std::vector<net::HostId> block_placement(const topo::Grid& grid, int nranks) {
  std::vector<net::HostId> out;
  out.reserve(static_cast<size_t>(nranks));
  int remaining = nranks;
  for (int s = 0; s < grid.site_count() && remaining > 0; ++s) {
    for (int n = 0; n < grid.nodes_at(s) && remaining > 0; ++n) {
      out.push_back(grid.node(s, n));
      --remaining;
    }
  }
  if (remaining > 0)
    throw std::invalid_argument("not enough nodes for requested ranks");
  return out;
}

}  // namespace gridsim::mpi
