// Randomized failure injection: drives each chosen node through alternating
// up/down periods with exponential durations, yielding a steady-state
// per-node unavailability of mttr / (mttf + mttr).
//
// Used by the Monte-Carlo cross-check of the paper's analytical availability
// model (Figure 8): the model assumes independent per-node unavailability p;
// the injector realizes exactly that.
//
// Two fault planes, two injectors:
//   * FailureInjector -- unreachability (set_up): the node keeps its state
//     and its timers, traffic just stops flowing.  The paper's combined
//     "server crashes and network failures" unit.
//   * CrashInjector -- process death (crash/restart): volatile state is
//     wiped, timers are poisoned, and on restart the node runs its recovery
//     hook (WAL replay, epoch bump; see iqs_server.cpp).
//
// Both injectors schedule barrier events (World::schedule_global): the
// transitions change state every partition reads, and a barrier event is
// bound to no node, so a restart survives the crash it follows.
#pragma once

#include <utility>
#include <vector>

#include "common/ids.h"
#include "sim/world.h"

namespace dq::sim {

// The machinery both injectors share: per node, an alternating renewal
// process of exponential up periods (mean `mean_up`) and down periods (mean
// `mean_down`), each transition a barrier event.
class RenewalInjector {
 public:
  virtual ~RenewalInjector() = default;
  RenewalInjector(const RenewalInjector&) = delete;
  RenewalInjector& operator=(const RenewalInjector&) = delete;

  // Begin the up/down process on every node in `nodes`, each independent.
  void start(const std::vector<NodeId>& nodes) {
    for (NodeId n : nodes) schedule(n, /*down=*/true);
  }

  // Cancel every pending transition.  Deployment teardown calls this so
  // an injector never reschedules past the experiment horizon (the tokens
  // are generation-checked, so cancelling an already-fired event is a
  // no-op).
  void stop() {
    for (auto& [n, tok] : timers_) tok.cancel();
    timers_.clear();
  }

 protected:
  RenewalInjector(World& world, Duration mean_up, Duration mean_down)
      : world_(world), mean_up_(mean_up), mean_down_(mean_down) {}

  // Take `n` down (down == true) or bring it back.
  virtual void set_down(NodeId n, bool down) = 0;

  World& world_;

 private:
  // Draw the current period's length and schedule the transition that ends
  // it: the node goes down if `down`, else it comes back.
  void schedule(NodeId n, bool down) {
    const auto period = static_cast<Duration>(world_.rng().exponential(
        static_cast<double>(down ? mean_up_ : mean_down_)));
    const TimerToken tok = world_.schedule_global(period, [this, n, down] {
      set_down(n, down);
      schedule(n, !down);
    });
    // One live transition per node at any time: each reschedule replaces
    // the node's stored token.
    for (auto& [node, slot] : timers_) {
      if (node == n) {
        slot = tok;
        return;
      }
    }
    timers_.emplace_back(n, tok);
  }

  Duration mean_up_;
  Duration mean_down_;
  std::vector<std::pair<NodeId, TimerToken>> timers_;
};

class FailureInjector final : public RenewalInjector {
 public:
  struct Params {
    Duration mean_time_to_failure = seconds(99);
    Duration mean_time_to_repair = seconds(1);

    [[nodiscard]] double steady_state_unavailability() const {
      return static_cast<double>(mean_time_to_repair) /
             static_cast<double>(mean_time_to_failure + mean_time_to_repair);
    }

    // Convenience: pick MTTR for a target unavailability p at a given MTTF.
    static Params for_unavailability(double p, Duration mttf) {
      Params out;
      out.mean_time_to_failure = mttf;
      out.mean_time_to_repair =
          static_cast<Duration>(p / (1.0 - p) * static_cast<double>(mttf));
      return out;
    }
  };

  FailureInjector(World& world, Params params)
      : RenewalInjector(world, params.mean_time_to_failure,
                        params.mean_time_to_repair) {}

 private:
  void set_down(NodeId n, bool down) override { world_.set_up(n, !down); }
};

// Exponential crash/restart: each node alternates between running
// (mean_time_to_crash) and down-after-crash (mean_downtime).  Restart
// invokes the node's recovery hook via World::restart.
class CrashInjector final : public RenewalInjector {
 public:
  struct Params {
    Duration mean_time_to_crash = seconds(120);
    Duration mean_downtime = seconds(2);
  };

  CrashInjector(World& world, Params params)
      : RenewalInjector(world, params.mean_time_to_crash,
                        params.mean_downtime) {}

 private:
  // crash() and restart() are no-ops on a node already in that state.
  void set_down(NodeId n, bool down) override {
    if (down) {
      world_.crash(n);
    } else {
      world_.restart(n);
    }
  }
};

}  // namespace dq::sim
