#include "simlint/lint.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "mpi/message.hpp"

namespace gridsim::simlint {

namespace {

using mpi::CommEvent;
using mpi::CommEventKind;

constexpr std::uint32_t kNone = 0xFFFFFFFFu;
/// Clock-table memory guard: nevents * nranks entries, 4 bytes each.
constexpr std::size_t kMaxClockEntries = std::size_t{1} << 25;

std::uint64_t site_key(int rank, int site) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank))
          << 32) |
         static_cast<std::uint32_t>(site);
}

/// Rendez-vous pairing key: the sender's rank + its per-rank handshake seq.
std::uint64_t seq_key(int sender, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(sender))
          << 48) ^
         seq;
}

std::string src_str(int src) {
  return src == mpi::kAnySource ? std::string("*") : std::to_string(src);
}

std::string tag_str(int tag) {
  return tag == mpi::kAnyTag ? std::string("*") : std::to_string(tag);
}

/// Receive name for operations whose posting site was never recorded
/// (finalize leftovers carry only the filter).
std::string pending_recv_name(int rank, int want_src, int want_tag) {
  return "rank " + std::to_string(rank) + " recv(src=" + src_str(want_src) +
         ", tag=" + tag_str(want_tag) + ")";
}

}  // namespace

std::string send_site_name(int rank, int site, int dst, int tag) {
  return "rank " + std::to_string(rank) + " send#" +
         (site < 0 ? std::string("?") : std::to_string(site)) + " -> " +
         std::to_string(dst) + " (tag " + std::to_string(tag) + ")";
}

std::string recv_site_name(int rank, int site, int want_src, int want_tag) {
  return "rank " + std::to_string(rank) + " recv#" + std::to_string(site) +
         " (src=" + src_str(want_src) + ", tag=" + tag_str(want_tag) + ")";
}

JobLint analyze_job(const mpi::JobCommTrace& trace,
                    std::size_t max_findings) {
  JobLint out;
  out.nranks = trace.nranks;
  const int n = trace.nranks;
  if (n <= 0) {
    out.truncated = trace.truncated || trace.dropped_wildcard;
    return out;
  }
  const std::size_t width = static_cast<std::size_t>(n);
  const std::size_t all_events = trace.events.size();
  std::size_t nevents = all_events;
  const bool clock_capped = nevents * width > kMaxClockEntries;
  if (clock_capped) nevents = kMaxClockEntries / width;

  // `truncated` reports lost *analysis*, not just lost events: R3 is
  // clock-free, scans the full recorded trace, and finalize leftovers
  // survive the recording cap (comm_log.hpp), so a cap only loses
  // coverage where wildcard receives — the sole trigger of R1/R2 and
  // tag-conflict checks — are involved. A capped wildcard-free trace
  // (the NPB kernels) stays fully analyzed.
  out.truncated = trace.dropped_wildcard;
  if ((trace.truncated || clock_capped) && !out.truncated) {
    for (const CommEvent& e : trace.events) {
      if ((e.kind == CommEventKind::kRecvPost ||
           e.kind == CommEventKind::kRecvMatch) &&
          (e.want_src == mpi::kAnySource || e.want_tag == mpi::kAnyTag)) {
        out.truncated = true;
        break;
      }
    }
  }
  out.events = all_events;

  // --- Pass 1: vector clocks --------------------------------------------
  // Events are recorded at their simulation moment, so the global record
  // order is a linear extension of causality: every join target is already
  // clocked when the joining event is processed. One forward pass suffices.
  out.vc.assign(nevents * width, 0);
  std::vector<std::uint32_t> running(width * width, 0);
  std::unordered_map<std::uint64_t, std::uint32_t> send_ix;
  std::unordered_map<std::uint64_t, std::uint32_t> recv_cts_ix;
  std::unordered_map<std::uint64_t, std::uint32_t> send_cts_ix;
  send_ix.reserve(nevents / 2 + 1);

  for (std::uint32_t i = 0; i < nevents; ++i) {
    const CommEvent& e = trace.events[i];
    if (e.rank < 0 || e.rank >= n) continue;  // defensive: zero clock
    std::uint32_t* mine =
        running.data() + static_cast<std::size_t>(e.rank) * width;
    mine[e.rank] += 1;
    std::uint32_t join = kNone;
    switch (e.kind) {
      case CommEventKind::kRecvMatch:
        if (e.peer_site >= 0) {
          const auto it = send_ix.find(site_key(e.peer, e.peer_site));
          if (it != send_ix.end()) join = it->second;
        }
        break;
      case CommEventKind::kSendCts: {
        const auto it = recv_cts_ix.find(seq_key(e.rank, e.seq));
        if (it != recv_cts_ix.end()) join = it->second;
        break;
      }
      case CommEventKind::kRecvData: {
        const auto it = send_cts_ix.find(seq_key(e.peer, e.seq));
        if (it != send_cts_ix.end()) join = it->second;
        break;
      }
      default:
        break;
    }
    if (join != kNone) {
      const std::uint32_t* other =
          out.vc.data() + static_cast<std::size_t>(join) * width;
      for (std::size_t r = 0; r < width; ++r)
        mine[r] = std::max(mine[r], other[r]);
      ++out.hb_edges;
    }
    std::copy(mine, mine + width,
              out.vc.data() + static_cast<std::size_t>(i) * width);
    switch (e.kind) {
      case CommEventKind::kSendPost:
        send_ix.emplace(site_key(e.rank, e.site), i);
        break;
      case CommEventKind::kRecvCts:
        recv_cts_ix.emplace(seq_key(e.peer, e.seq), i);
        break;
      case CommEventKind::kSendCts:
        send_cts_ix.emplace(seq_key(e.rank, e.seq), i);
        break;
      default:
        break;
    }
  }

  // Sorted (rank, site) -> event table backing send_order() queries.
  {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> entries(
        send_ix.begin(), send_ix.end());
    std::sort(entries.begin(), entries.end());
    out.send_keys.reserve(entries.size());
    out.send_events.reserve(entries.size());
    for (const auto& [key, ev] : entries) {
      out.send_keys.push_back(key);
      out.send_events.push_back(ev);
    }
  }

  /// a happens-before b (reflexive; call sites never pass a == b).
  const auto hb = [&](std::uint32_t a, std::uint32_t b) {
    const int ra = trace.events[a].rank;
    if (ra < 0 || ra >= n) return false;
    const std::size_t c = static_cast<std::size_t>(ra);
    return out.vc[static_cast<std::size_t>(b) * width + c] >=
           out.vc[static_cast<std::size_t>(a) * width + c];
  };

  // --- Pass 2: rule engine ----------------------------------------------
  const auto add_finding = [&](Finding f) {
    if (out.findings.size() < max_findings)
      out.findings.push_back(std::move(f));
  };
  const auto tag_ok = [](int want_tag, int tag) {
    return want_tag == mpi::kAnyTag || want_tag == tag;
  };

  // Per-(dst,src) send-site lists in issue order, plus consumption marks.
  std::vector<std::vector<std::uint32_t>> sends_to(width * width);
  std::vector<std::uint32_t> consumed_at(nevents, kNone);
  for (std::uint32_t i = 0; i < nevents; ++i) {
    const CommEvent& e = trace.events[i];
    if (e.kind == CommEventKind::kSendPost && e.peer >= 0 && e.peer < n &&
        e.rank >= 0 && e.rank < n) {
      sends_to[static_cast<std::size_t>(e.peer) * width +
               static_cast<std::size_t>(e.rank)]
          .push_back(i);
    } else if (e.kind == CommEventKind::kRecvMatch && e.peer_site >= 0) {
      const auto it = send_ix.find(site_key(e.peer, e.peer_site));
      if (it != send_ix.end()) consumed_at[it->second] = i;
    }
  }

  // R3 needs no clocks, so it scans the full trace even when the clock
  // table above was capped — finalize-time leak events sit at the tail
  // and must never fall off the analysis.
  for (std::size_t i = 0; i < all_events; ++i) {
    const CommEvent& e = trace.events[i];
    if (e.kind == CommEventKind::kUnmatchedSend) {
      ++out.leaks;
      const std::string site =
          send_site_name(e.peer, e.peer_site, e.rank, e.tag);
      add_finding({"R3-unmatched-send", "error", site, "",
                   "message " + site + " was never received (still queued " +
                       "at rank " + std::to_string(e.rank) +
                       " at finalize)"});
    } else if (e.kind == CommEventKind::kUnmatchedRecv) {
      ++out.leaks;
      const std::string site =
          pending_recv_name(e.rank, e.want_src, e.want_tag);
      add_finding({"R3-unmatched-recv", "error", site, "",
                   site + " never completed (no matching send)"});
    } else if (e.kind == CommEventKind::kRecvMatch &&
               e.want_tag == mpi::kAnyTag &&
               e.tag >= mpi::kCollectiveTagBase) {
      ++out.leaks;
      const std::string site =
          recv_site_name(e.rank, e.site, e.want_src, e.want_tag);
      add_finding({"R3-tag-conflict", "error", site, "",
                   site + " captured collective-phase traffic (tag " +
                       std::to_string(e.tag) + " from rank " +
                       std::to_string(e.peer) + ")"});
    }
  }

  // R1. Wildcard matches are processed in record order, so each
  // (dst,src) cursor advances monotonically past already-consumed sends.
  std::set<std::pair<std::uint32_t, std::uint32_t>> race_pairs;
  std::set<std::uint32_t> wrelevant;  // wildcard-matched or candidate sends
  std::vector<std::size_t> cursor(width * width, 0);
  for (std::uint32_t i = 0; i < nevents; ++i) {
    const CommEvent& e = trace.events[i];
    if (e.kind != CommEventKind::kRecvMatch) continue;
    if (e.want_src != mpi::kAnySource || e.rank < 0 || e.rank >= n)
      continue;

    // The wildcard match W = event i. Its candidate from source s is s's
    // earliest send to this rank that is unconsumed at W, tag-compatible,
    // and not HB-after the match itself (non-overtaking picks the earliest;
    // anything HB-after W could never have arrived in its place).
    std::uint32_t matched = kNone;
    if (e.peer_site >= 0) {
      const auto it = send_ix.find(site_key(e.peer, e.peer_site));
      if (it != send_ix.end()) matched = it->second;
    }
    if (matched != kNone) wrelevant.insert(matched);
    for (int s = 0; s < n; ++s) {
      if (s == e.rank || s == e.peer) continue;
      const std::size_t slot =
          static_cast<std::size_t>(e.rank) * width +
          static_cast<std::size_t>(s);
      const std::vector<std::uint32_t>& list = sends_to[slot];
      std::size_t& cur = cursor[slot];
      while (cur < list.size() && consumed_at[list[cur]] != kNone &&
             consumed_at[list[cur]] <= i)
        ++cur;
      for (std::size_t k = cur; k < list.size(); ++k) {
        const std::uint32_t cand = list[k];
        if (consumed_at[cand] != kNone && consumed_at[cand] <= i) continue;
        if (!tag_ok(e.want_tag, trace.events[cand].tag)) continue;
        // Sends HB-after the match (and, by program order, everything the
        // same source issues later) were not enabled: stop scanning.
        if (hb(i, cand)) break;
        wrelevant.insert(cand);
        if (matched != kNone && !hb(cand, matched) && !hb(matched, cand)) {
          const auto pair = std::minmax(matched, cand);
          if (race_pairs.insert({pair.first, pair.second}).second) {
            const CommEvent& ms = trace.events[matched];
            const CommEvent& cs = trace.events[cand];
            const std::string site_a =
                send_site_name(ms.rank, ms.site, ms.peer, ms.tag);
            const std::string site_b =
                send_site_name(cs.rank, cs.site, cs.peer, cs.tag);
            add_finding(
                {"R1-wildcard-race", "warning", site_a, site_b,
                 recv_site_name(e.rank, e.site, e.want_src, e.want_tag) +
                     " matched " + site_a + "; " + site_b +
                     " is HB-concurrent and races with it"});
          }
        }
        break;  // only the earliest enabled send per source is co-enabled
      }
    }
  }
  out.races = static_cast<int>(race_pairs.size());

  // R2: a wildcard-relevant send issued HB-after some rank's first
  // wildcard match. These are exactly the sends whose existence (or
  // ordering) can depend on how an earlier race was resolved — the shape
  // the model-checker's quiescence-computed candidate sets can miss.
  std::vector<std::uint32_t> wfirst_clock(width, 0);
  std::vector<std::uint32_t> wfirst_event(width, kNone);
  for (std::uint32_t i = 0; i < nevents; ++i) {
    const CommEvent& e = trace.events[i];
    if (e.kind == CommEventKind::kRecvMatch &&
        e.want_src == mpi::kAnySource && e.rank >= 0 && e.rank < n &&
        wfirst_event[static_cast<std::size_t>(e.rank)] == kNone) {
      const std::size_t r = static_cast<std::size_t>(e.rank);
      wfirst_event[r] = i;
      wfirst_clock[r] = out.vc[static_cast<std::size_t>(i) * width + r];
    }
  }
  for (const std::uint32_t send : wrelevant) {
    const CommEvent& cs = trace.events[send];
    for (std::size_t r = 0; r < width; ++r) {
      if (wfirst_event[r] == kNone) continue;
      if (out.vc[static_cast<std::size_t>(send) * width + r] <
          wfirst_clock[r])
        continue;
      ++out.causal_sends;
      const CommEvent& w = trace.events[wfirst_event[r]];
      const std::string site_a =
          send_site_name(cs.rank, cs.site, cs.peer, cs.tag);
      const std::string site_b =
          recv_site_name(w.rank, w.site, w.want_src, w.want_tag);
      add_finding({"R2-causal-send", "note", site_a, site_b,
                   site_a + " is enabled only after the wildcard match at " +
                       site_b + "; quiescence-computed candidate sets may " +
                       "be incomplete here"});
      break;
    }
  }
  return out;
}

int JobLint::send_order(int rank_a, int site_a, int rank_b,
                        int site_b) const {
  if (nranks <= 0 || vc.empty()) return -2;
  const std::size_t width = static_cast<std::size_t>(nranks);
  const auto find = [&](int rank, int site) -> std::int64_t {
    const std::uint64_t key = site_key(rank, site);
    const auto it =
        std::lower_bound(send_keys.begin(), send_keys.end(), key);
    if (it == send_keys.end() || *it != key) return -1;
    return send_events[static_cast<std::size_t>(it - send_keys.begin())];
  };
  const std::int64_t a = find(rank_a, site_a);
  const std::int64_t b = find(rank_b, site_b);
  if (a < 0 || b < 0) return -2;
  if (rank_a < 0 || rank_a >= nranks || rank_b < 0 || rank_b >= nranks)
    return -2;
  const std::uint32_t a_self =
      vc[static_cast<std::size_t>(a) * width + static_cast<std::size_t>(rank_a)];
  const std::uint32_t b_self =
      vc[static_cast<std::size_t>(b) * width + static_cast<std::size_t>(rank_b)];
  if (vc[static_cast<std::size_t>(b) * width +
         static_cast<std::size_t>(rank_a)] >= a_self)
    return 1;
  if (vc[static_cast<std::size_t>(a) * width +
         static_cast<std::size_t>(rank_b)] >= b_self)
    return -1;
  return 0;
}

LintSummary analyze(const mpi::CommLog& log, std::size_t max_findings) {
  LintSummary out;
  for (const mpi::JobCommTrace& trace : log.jobs()) {
    const std::size_t room = max_findings > out.findings.size()
                                 ? max_findings - out.findings.size()
                                 : 0;
    JobLint job = analyze_job(trace, room);
    out.events += job.events;
    out.hb_edges += job.hb_edges;
    out.races += job.races;
    out.causal_sends += job.causal_sends;
    out.leaks += job.leaks;
    out.truncated = out.truncated || job.truncated;
    for (Finding& f : job.findings) out.findings.push_back(std::move(f));
    job.findings.clear();
    out.jobs.push_back(std::move(job));
  }
  return out;
}

bool LintSummary::send_happens_before(int rank_a, int site_a, int rank_b,
                                      int site_b) const {
  // Site ids restart at 0 in every Job and callers carry no job identity,
  // so an answer is trustworthy only when exactly one job knows both
  // sites; an ambiguous pair stays "not ordered" (callers keep the
  // branch).
  int order = -2;
  for (const JobLint& job : jobs) {
    const int job_order = job.send_order(rank_a, site_a, rank_b, site_b);
    if (job_order == -2) continue;
    if (order != -2) return false;
    order = job_order;
  }
  return order == 1;
}

std::string lint_status(const LintSummary& lint, bool races_expected) {
  if (lint.leaks > 0) return "leaks";
  if (lint.races > 0 && !races_expected) return "races";
  // A capped analysis drops tail events (finalize-time R3 leaks first),
  // so it must not claim cleanliness.
  if (lint.truncated) return "truncated";
  return lint.races > 0 ? "expected-races" : "clean";
}

bool lint_status_ok(const std::string& status) {
  return status == "clean" || status == "expected-races";
}

}  // namespace gridsim::simlint
