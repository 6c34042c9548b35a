// Seeded, deterministic fault models.
//
// The paper's WAN numbers were taken on a shared RENATER link whose
// effective behaviour — loss, jitter, competing flows — is exactly what
// made default-tuned MPI collapse below 120 Mbps. This layer provides the
// *models* for that behaviour; simfault/injector.hpp schedules them onto a
// live Network. Everything is driven by the repo's own xoshiro256** Rng, so
// a fault schedule is a pure function of its seed: two runs with the same
// seed inject byte-identical fault sequences on every platform, which is
// what lets the campaign digests stay schedule-independent with faults on.
#pragma once

#include <cstdint>
#include <string>

#include "simcore/rng.hpp"
#include "simcore/time.hpp"

namespace gridsim::simfault {

/// Per-packet loss model for the packet-level TCP reference simulation.
///
///  * kIid: every transmission attempt drops independently with probability
///    `iid_rate` — the memoryless baseline.
///  * kGilbertElliott: a two-state Markov channel (Gilbert & Elliott). The
///    channel flips between a Good state (loss `ge_loss_good`, near zero)
///    and a Bad state (loss `ge_loss_bad`, heavy) with per-packet
///    transition probabilities; bursts of loss emerge from dwell time in
///    the Bad state, which is what congested WAN routers actually produce
///    and what fast retransmit handles worst.
struct PacketLossSpec {
  enum class Model : std::uint8_t { kNone, kIid, kGilbertElliott };
  Model model = Model::kNone;
  double iid_rate = 0.0;         ///< P(drop) per attempt, kIid
  double ge_good_to_bad = 0.01;  ///< P(G->B) per attempt
  double ge_bad_to_good = 0.25;  ///< P(B->G) per attempt
  double ge_loss_good = 0.0005;  ///< P(drop | Good)
  double ge_loss_bad = 0.30;     ///< P(drop | Bad)
  std::uint64_t seed = 1;

  bool active() const { return model != Model::kNone; }

  static PacketLossSpec iid(double rate, std::uint64_t seed) {
    PacketLossSpec s;
    s.model = Model::kIid;
    s.iid_rate = rate;
    s.seed = seed;
    return s;
  }
  static PacketLossSpec gilbert_elliott(double good_to_bad, double bad_to_good,
                                        double loss_bad, std::uint64_t seed) {
    PacketLossSpec s;
    s.model = Model::kGilbertElliott;
    s.ge_good_to_bad = good_to_bad;
    s.ge_bad_to_good = bad_to_good;
    s.ge_loss_bad = loss_bad;
    s.seed = seed;
    return s;
  }
};

/// Sequential sampler over a PacketLossSpec: one `drop()` decision per
/// transmission attempt, in attempt order. Stateful (the Gilbert-Elliott
/// channel state advances per attempt) and deterministic per seed.
class LossProcess {
 public:
  explicit LossProcess(const PacketLossSpec& spec)
      : spec_(spec), rng_(spec.seed) {}

  /// Consumes one per-attempt decision. Always false for an inactive spec.
  bool drop() {
    switch (spec_.model) {
      case PacketLossSpec::Model::kNone:
        return false;
      case PacketLossSpec::Model::kIid:
        return rng_.uniform() < spec_.iid_rate;
      case PacketLossSpec::Model::kGilbertElliott: {
        // Transition first, then emit from the new state's loss rate.
        const double flip = rng_.uniform();
        if (bad_) {
          if (flip < spec_.ge_bad_to_good) bad_ = false;
        } else {
          if (flip < spec_.ge_good_to_bad) bad_ = true;
        }
        const double rate = bad_ ? spec_.ge_loss_bad : spec_.ge_loss_good;
        return rng_.uniform() < rate;
      }
    }
    return false;
  }

  bool in_bad_state() const { return bad_; }

 private:
  PacketLossSpec spec_;
  Rng rng_;
  bool bad_ = false;  // Gilbert-Elliott channel state; starts Good
};

}  // namespace gridsim::simfault
