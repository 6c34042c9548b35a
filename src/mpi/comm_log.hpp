// Communication event log: the raw material for happens-before analysis.
//
// When a CommLog is ambient (ScopedCommLog, mirroring ScopedArbiter), every
// Job constructed on the thread appends one CommEvent per MPI-visible
// event — send posting, receive posting, receive match, collective phase
// entry, the rendez-vous CTS handshake, and finalize-time leftovers — to a
// per-Job trace. Recording is passive: it never touches the Tracer, the
// event queue or any matching decision, so a logged run is event-for-event
// identical to an unlogged one (campaign digests are unchanged).
//
// The log is consumed offline by src/simlint (vector clocks, the R1-R3
// communication-race rules, docs/race-detection.md) and by the
// model-checker's HB-derived persistent sets (src/simmc). Site ids are
// stable across executions: "rank r, k-th send" names the same source line
// in every interleaving, which is what lets one execution's happens-before
// relation prune another execution's branches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "mpi/message.hpp"

namespace gridsim::mpi {

enum class CommEventKind : std::uint8_t {
  kSendPost,       ///< send initiated (eager, striped or rendez-vous RTS)
  kSendCts,        ///< rendez-vous sender resumed by the receiver's CTS
  kRecvPost,       ///< receive posted (filter in want_src / want_tag)
  kRecvMatch,      ///< receive matched a message (peer/peer_site = its send)
  kRecvCts,        ///< receiver answered an RTS with a CTS
  kRecvData,       ///< receiver resumed by the rendez-vous payload
  kCollPhase,      ///< collective phase entered (next_collective_tag)
  kUnmatchedSend,  ///< finalize: message left in the unexpected queue
  kUnmatchedRecv,  ///< finalize: posted receive or probe never completed
};

/// One MPI-visible event. Field meaning varies slightly by kind; unused
/// fields keep their defaults. `site` is the per-rank operation index
/// (k-th send / k-th receive / k-th collective of `rank`), stable across
/// interleavings.
struct CommEvent {
  CommEventKind kind = CommEventKind::kSendPost;
  int rank = -1;       ///< rank the event occurred on
  int peer = -1;       ///< send: destination; match: matched source
  int tag = 0;         ///< message tag (match: the matched tag)
  int want_src = 0;    ///< receive events: source filter (kAnySource = *)
  int want_tag = 0;    ///< receive events: tag filter (kAnyTag = *)
  int site = -1;       ///< per-rank operation index
  int peer_site = -1;  ///< kRecvMatch/kUnmatchedSend: the send's site
  double bytes = 0;
  std::uint64_t seq = 0;  ///< rendez-vous handshake id (CTS/data pairing)
};

/// The event stream of one Job. Bounded: a runaway workload flips
/// `truncated` instead of exhausting memory, and the analysis reports the
/// truncation rather than pretending completeness. Finalize-time
/// leftovers (kUnmatchedSend/kUnmatchedRecv) survive the cap: one event
/// per still-live pending operation, so recording them adds no asymptotic
/// memory — and they are exactly what R3 leak detection must never lose.
/// A dropped wildcard receive additionally flips `dropped_wildcard`,
/// telling the analysis that the coverage only wildcard receives can
/// trigger (R1/R2, tag conflicts) is incomplete.
struct JobCommTrace {
  int nranks = 0;
  bool truncated = false;         ///< ordinary events were dropped
  bool dropped_wildcard = false;  ///< a dropped event was a wildcard recv
  std::size_t max_events = std::size_t{1} << 21;
  std::vector<CommEvent> events;

  void push(const CommEvent& e) {
    if (events.size() >= max_events &&
        e.kind != CommEventKind::kUnmatchedSend &&
        e.kind != CommEventKind::kUnmatchedRecv) {
      truncated = true;
      if ((e.kind == CommEventKind::kRecvPost ||
           e.kind == CommEventKind::kRecvMatch) &&
          (e.want_src == kAnySource || e.want_tag == kAnyTag))
        dropped_wildcard = true;
      return;
    }
    events.push_back(e);
  }
};

/// Collects one JobCommTrace per Job constructed while the log is ambient.
/// A deque keeps trace pointers stable while later Jobs open theirs.
class CommLog {
 public:
  JobCommTrace* open_job(int nranks) {
    jobs_.emplace_back();
    jobs_.back().nranks = nranks;
    return &jobs_.back();
  }
  const std::deque<JobCommTrace>& jobs() const { return jobs_; }

 private:
  std::deque<JobCommTrace> jobs_;
};

/// The CommLog Jobs constructed on this thread will record into (nullptr =
/// recording off). Thread-local so campaign worker threads stay isolated.
CommLog* ambient_comm_log();

/// Installs `log` as this thread's ambient CommLog for the guard's lifetime
/// (restores the previous one on destruction) — the same ambient pattern as
/// ScopedArbiter, so no Job or scenario signature changes.
class ScopedCommLog {
 public:
  explicit ScopedCommLog(CommLog* log);
  ~ScopedCommLog();
  ScopedCommLog(const ScopedCommLog&) = delete;
  ScopedCommLog& operator=(const ScopedCommLog&) = delete;

 private:
  CommLog* previous_;
};

}  // namespace gridsim::mpi
